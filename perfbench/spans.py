"""Span and counter recording at the boundaries between lsmdp modules.

The package imports its collaborators by name (``from .core import
solve_interior``), so a call from one module into another resolves through
the *calling* module's namespace.  A wrapper therefore replaces the name in
every calling module, and all wrappers of one callee record under one span
name.  Nothing in ``src/`` is edited: ``Tracer.installed`` swaps the
attributes in and puts the originals back on exit.

Spans are accounted online (calls, self time) so memory stays flat however
many steps a run takes; the first KEEP_SPANS raw spans (id, name, start, end,
parent id) are also held in memory and written out by ``write_jsonl``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict

KEEP_SPANS = 20_000


class Tracer:
    """In-memory recorder of nested spans and named counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.kernels = {}  # id -> solved Lmdp; the reference pins the id
        self.spans = []
        self.dropped = 0
        self._open = []  # frames: [span_id, name, start, child_seconds]
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._open.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._open.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end,
                               None if parent is None else parent[0]))
        else:
            self.dropped += 1

    def wrap(self, fn, name, after=None):
        """Time ``fn`` as span ``name``; ``after(tracer, args, result)`` runs
        once the span has closed, to derive counts from the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def counting(self, fn, name):
        """Count calls to ``fn`` without a span (for per-draw primitives)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, lsmdp):
        """Patch every module boundary listed in ``boundaries``; restore on exit."""
        saved = []
        try:
            for owner, attr, make in boundaries(self, lsmdp):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")
            handle.write(json.dumps({"dropped_spans": self.dropped,
                                     "counts": dict(self.counts)}) + "\n")


# ---------------------------------------------------------------------------
# the module boundaries and what each one counts


def _solved(tracer, args, result):
    lmdp = args[0]
    tracer.kernels[id(lmdp)] = lmdp


def _resolved(tracer, args, result):
    _solved(tracer, args, result)
    tracer.counts["hierarchy.resolve"] += 1


def _swept(tracer, args, result):
    tracer.counts["core.z_iterate.sweeps"] += result[1]


def _basis(tracer, args, result):
    tracer.counts["multitask.basis.tasks"] += result.n_tasks


def _blend(tracer, args, result):
    values = result.values
    tracer.counts["multitask.blend.weights"] += values.size
    tracer.counts["multitask.blend.zero"] += int((values == 0).sum())


def _episode(tracer, args, result):
    tracer.counts["executor.steps"] += result.length
    tracer.counts["executor.truncated"] += int(result.truncated)


def _access(tracer, args, result):
    tracer.counts["executor.access.depth"] += result[2]


def _learning_episode(tracer, args, result):
    tracer.counts["learning.steps"] += result


def _scaling(tracer, args, result):
    rows, _ = result
    for row in rows:
        tag = "flat" if row.condition == "flat" else "hier"
        tracer.counts[f"bench.{tag}_sweeps"] += row.total_iterations
        tracer.counts[f"bench.{tag}_nnz"] += row.nonzeros


def _saved(tracer, args, result):
    directory = args[1]
    tracer.counts["serialize.bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def boundaries(tracer, lsmdp):
    """(owner, attribute, wrapper factory) for every traced call site.

    Entries whose owner is the callee's own module catch both the
    benchmark's calls and same-module calls made through module globals.
    """
    core, multitask, hierarchy = lsmdp.core, lsmdp.multitask, lsmdp.hierarchy
    executor, learning = lsmdp.executor, lsmdp.learning
    domains, bench, serialize = lsmdp.domains, lsmdp.bench, lsmdp.serialize

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    def count(name):
        return lambda fn: tracer.counting(fn, name)

    return [
        # core
        (multitask, "solve_interior", span("core.solve", _solved)),
        (hierarchy, "solve_interior", span("core.solve", _resolved)),
        (bench, "z_iterate", span("core.z_iterate", _swept)),
        (executor, "policy_column", span("core.policy_column")),
        (learning, "policy_column", span("core.policy_column")),
        (executor, "draw_from", count("core.draw")),
        (learning, "draw_from", count("core.draw")),
        # multitask
        (multitask, "build_task_basis", span("multitask.basis", _basis)),
        (hierarchy, "build_task_basis", span("multitask.basis", _basis)),
        (domains, "build_task_basis", span("multitask.basis", _basis)),
        (multitask, "blend_weights_matrix", span("multitask.blend", _blend)),
        (hierarchy, "blend_weights_matrix", span("multitask.blend", _blend)),
        (multitask, "compose_desirability", span("multitask.compose")),
        # hierarchy
        (hierarchy, "augment", span("hierarchy.augment")),
        (bench, "stack_subtask_kernel", span("hierarchy.augment")),
        (hierarchy, "absorption_dynamics", span("hierarchy.absorption")),
        (bench, "absorption_dynamics", span("hierarchy.absorption")),
        (hierarchy.HierarchyStack, "set_task", span("hierarchy.set_task")),
        (hierarchy.HierarchyStack, "apply_inpaint", span("hierarchy.inpaint")),
        (executor, "terminate_layer", span("hierarchy.terminate")),
        # executor
        (executor, "run_episode", span("executor.episode", _episode)),
        (executor, "access_hierarchy", span("executor.access", _access)),
        # learning
        (learning, "run_learning_episode", span("learning.episode", _learning_episode)),
        (learning, "z_learning_step", span("learning.z_step")),
        (learning, "access_hierarchy", span("learning.access")),
        # domains, bench, serialize
        (domains, "make_arm", span("domains.build")),
        (domains, "make_ring", span("domains.build")),
        (domains, "grid_from_ascii", span("domains.build")),
        (domains, "make_grid", span("domains.build")),
        (bench, "ring_scaling", span("bench.ring_scaling", _scaling)),
        (serialize, "save_stack", span("serialize.save", _saved)),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric of one traced pass, as name -> (value, unit).

    Each traced run reports all of them, with zeros on layers the workload
    does not reach.
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    kernels = len(tracer.kernels)
    return {
        "core.solve.calls": (calls["core.solve"], "count"),
        "core.solve.self_s": (self_s["core.solve"], "s"),
        "core.solve.kernels": (kernels, "count"),
        "core.solve.reuse": (_ratio(calls["core.solve"], kernels), "ratio"),
        "core.z_iterate.calls": (calls["core.z_iterate"], "count"),
        "core.z_iterate.sweeps": (counts["core.z_iterate.sweeps"], "count"),
        "core.z_iterate.self_s": (self_s["core.z_iterate"], "s"),
        "core.policy_column.calls": (calls["core.policy_column"], "count"),
        "core.policy_column.self_s": (self_s["core.policy_column"], "s"),
        "core.draw.calls": (counts["core.draw"], "count"),
        "multitask.basis.tasks": (counts["multitask.basis.tasks"], "count"),
        "multitask.basis.self_s": (self_s["multitask.basis"], "s"),
        "multitask.blend.calls": (calls["multitask.blend"], "count"),
        "multitask.blend.self_s": (self_s["multitask.blend"], "s"),
        "multitask.blend.width": (_ratio(counts["multitask.blend.weights"],
                                         calls["multitask.blend"]), "count"),
        "multitask.blend.zero_frac": (_ratio(counts["multitask.blend.zero"],
                                             counts["multitask.blend.weights"]),
                                      "ratio"),
        "multitask.compose.self_s": (self_s["multitask.compose"], "s"),
        "hierarchy.augment.self_s": (self_s["hierarchy.augment"], "s"),
        "hierarchy.absorption.self_s": (self_s["hierarchy.absorption"], "s"),
        "hierarchy.set_task.self_s": (self_s["hierarchy.set_task"], "s"),
        "hierarchy.inpaint.calls": (calls["hierarchy.inpaint"], "count"),
        "hierarchy.inpaint.self_s": (self_s["hierarchy.inpaint"], "s"),
        "hierarchy.terminate.calls": (calls["hierarchy.terminate"], "count"),
        "hierarchy.resolve.calls": (counts["hierarchy.resolve"], "count"),
        "executor.episode.self_s": (self_s["executor.episode"], "s"),
        "executor.episodes": (calls["executor.episode"], "count"),
        "executor.steps": (counts["executor.steps"], "count"),
        "executor.access.calls": (calls["executor.access"], "count"),
        "executor.access.self_s": (self_s["executor.access"], "s"),
        "executor.access.depth_mean": (_ratio(counts["executor.access.depth"],
                                              calls["executor.access"]), "layers"),
        "executor.truncated": (counts["executor.truncated"], "count"),
        "learning.steps": (counts["learning.steps"], "count"),
        "learning.z_step.self_s": (self_s["learning.z_step"], "s"),
        "learning.access.calls": (calls["learning.access"], "count"),
        "learning.episode.self_s": (self_s["learning.episode"], "s"),
        "domains.build_s": (self_s["domains.build"], "s"),
        "bench.flat_sweeps": (counts["bench.flat_sweeps"], "count"),
        "bench.hier_sweeps": (counts["bench.hier_sweeps"], "count"),
        "bench.flat_nnz": (counts["bench.flat_nnz"], "count"),
        "bench.hier_nnz": (counts["bench.hier_nnz"], "count"),
        "serialize.save.self_s": (self_s["serialize.save"], "s"),
        "serialize.bytes": (counts["serialize.bytes"], "bytes"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
