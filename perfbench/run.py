"""Wall-clock benchmark of the lsmdp library.

Run from the repository root:

    python3 perfbench/run.py --workload arm-family --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched: set-up
time (median of SETUP_REPS set-ups), the median latency of the workload's
user-level operation, and the peak resident memory above the memory held
once everything is imported; the tail latency and the workload's stage
timings are printed in the report lines.  Times are scaled to a reference
host speed by speed.Gauge, and the report lines give the wall times next to
them.  ``--trace 1`` runs one traced set-up, then a fixed list of rounds,
each once plain and once with span wrappers installed at every module
boundary, and reports the per-layer metrics plus the tracing overhead.  Human-readable report lines come first; the last
line of standard output is the JSON result.  A full record, with the
environment, goes to ``.perfbench_out/``.

``--smoke`` shrinks every input so the self-test runs in seconds; its
timings mean nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("arm-family", "ring-tower", "rooms-learn", "ring-scaling")


def cap_blas_threads(nproc: int) -> int:
    """Cap BLAS thread pools at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return int(os.environ[BLAS_THREAD_VARS[0]])


def load_library():
    """Import lsmdp from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "lsmdp"
    if not (package / "__init__.py").is_file():
        raise RuntimeError(f"no lsmdp sources under {package}")
    sys.path.insert(0, str(package.parent))
    import lsmdp
    if Path(lsmdp.__file__).resolve().parent != package.resolve():
        raise RuntimeError(f"imported lsmdp from {lsmdp.__file__}, not {package}")
    return lsmdp


def _blas(config) -> str:
    try:
        blas = config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(nproc: int, blas_threads: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "nproc": nproc,
        "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it, with its label;
    the maximum when there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f}"
    return ordered[-1], "max"


def stage_rows(workload, rec, gauge):
    rows = []
    for name, sample, stat, unit in workload.stages:
        values = gauge.scaled(rec, sample)
        if not values:
            continue
        scale = 1e3 if unit == "ms" else 1.0
        if stat == "tail":
            value, label = tail(values)
            rows.append((f"{name} ({label})", value * scale, unit, len(values)))
        else:
            rows.append((name, statistics.median(values) * scale, unit, len(values)))
    return rows + workload.report(rec, gauge)


def gauge_rows(gauge):
    kernel = gauge.kernel
    return [("host.kernel_ms (median)", 1e3 * statistics.median(kernel), "ms",
             len(kernel)),
            ("host.kernel_ms (max / min)", max(kernel) / min(kernel), "ratio",
             len(kernel))]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls, lsmdp, args, scratch):
    from speed import Gauge
    from workloads import Record

    rec = Record()
    gauge = Gauge()
    gc.collect()
    base_mb = max_rss_mb()
    setups = []
    for _ in range(SETUP_REPS):
        workload = None  # the previous set-up's state is freed before the next
        gc.collect()
        workload = cls(lsmdp, args.seed, args.smoke, scratch)
        setups.append(gauge.run(rec, workload.setup, rec))
    setups_scaled = [t * gauge.factor(k) for k, t in enumerate(setups)]
    # rounds run until their own wall time, without the gauge's, fills --seconds
    rounds, measured = 0, 0.0
    while rounds == 0 or measured < args.seconds:
        measured += gauge.run(rec, workload.round, rounds, rec)
        rounds += 1
    workload.finish(rec)

    ops = gauge.scaled(rec, workload.op)
    if not ops:
        raise RuntimeError(f"no {workload.op} operation completed: {rec.errors[:3]}")
    op_tail, tail_label = tail(ops)
    peak_mb = max_rss_mb() - base_mb
    metrics = {
        "setup_s": (statistics.median(setups_scaled), "s"),
        "op_ms.p50": (statistics.median(ops) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    rows = [
        ("setup_s", metrics["setup_s"][0], "s", len(setups)),
        ("setup_s.first", setups_scaled[0], "s", 1),
        ("setup_s (wall)", statistics.median(setups), "s", len(setups)),
        (f"op_ms.p50 ({workload.op})", metrics["op_ms.p50"][0], "ms", len(ops)),
        (f"op_ms.p50 ({workload.op}, wall)",
         statistics.median(rec.times[workload.op]) * 1e3, "ms", len(ops)),
        (f"op_ms.tail ({workload.op}, {tail_label})", op_tail * 1e3, "ms", len(ops)),
        ("peak_rss_mb", peak_mb, "MB", 1),
        ("peak_rss_mb (baseline after imports)", base_mb, "MB", 1),
        ("measured_s (wall, rounds only)", measured, "s", rounds),
    ] + gauge_rows(gauge) + stage_rows(workload, rec, gauge)
    return rec, metrics, rows


def run_traced(cls, lsmdp, args, scratch):
    """One traced set-up, then a fixed number of rounds, each run twice.

    Round i runs once plain and once traced, in alternating order, so host
    drift between the two halves of a pair is small and favours neither.
    The tracing overhead is the median over rounds of the traced half's
    scaled duration over the plain half's, minus one.  The per-layer metrics
    cover the traced set-up and the traced rounds only.  The round count
    depends only on --seconds and the workload, so counts repeat exactly
    between runs on the same seed.
    """
    from spans import Tracer, layer_values
    from speed import Gauge
    from workloads import Record

    rounds = max(1, round(args.seconds / 2 / cls.round_s))
    plain_rec, traced_rec = Record(), Record()
    tracer = Tracer()
    workload = cls(lsmdp, args.seed, args.smoke, scratch)
    gauge = Gauge()
    with tracer.installed(lsmdp):
        gauge.run(traced_rec, workload.setup, traced_rec)

    def half(i, traced):
        """Scaled duration of round i, plain or traced."""
        rec = traced_rec if traced else plain_rec
        with tracer.installed(lsmdp) if traced else contextlib.nullcontext():
            seconds = gauge.run(rec, workload.round, i, rec)
        return seconds * gauge.factor(len(gauge.raw) - 1)

    plain_s, traced_s, ratios = [], [], []
    for i in range(rounds):
        order = (False, True) if i % 2 == 0 else (True, False)
        pair = {traced: half(i, traced) for traced in order}
        plain_s.append(pair[False])
        traced_s.append(pair[True])
        ratios.append(pair[True] / pair[False])
    workload.finish(traced_rec)
    tracer.write_jsonl(OUT / f"trace-{cls.name}-seed{args.seed}.jsonl")

    metrics = layer_values(tracer, statistics.median(ratios) - 1.0)
    rows = [(name, value, unit, rounds) for name, (value, unit) in metrics.items()]
    rows += [("plain_rounds_s", sum(plain_s), "s", rounds),
             ("traced_rounds_s", sum(traced_s), "s", rounds)]
    rec = Record()
    rec.attempted = plain_rec.attempted + traced_rec.attempted
    rec.failed = plain_rec.failed + traced_rec.failed
    rec.errors = plain_rec.errors + traced_rec.errors
    return rec, metrics, rows


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    try:
        lsmdp = load_library()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment(nproc, blas_threads)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    cls = WORKLOADS[args.workload]
    try:
        runner = run_traced if args.trace else run_untraced
        rec, metrics, rows = runner(cls, lsmdp, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value, unit, samples in rows:
        print(f"{name:40s} {value:16.6f} {unit:6s} n={samples}")
    print(f"ops_attempted={rec.attempted} ops_failed={rec.failed}")
    for message in rec.errors[:10]:
        print(f"perfbench: failed {message}", file=sys.stderr)

    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, env=env,
                  report=[{"name": n, "value": v, "unit": u, "samples": s}
                          for n, v, u, s in rows])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
