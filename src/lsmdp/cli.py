"""Command-line front end.

Subcommands: solve, blend, stack, simulate, learn, bench.  Domain configs
are JSON documents (see load_domain); each command computes its result,
then writes its artifacts plus a manifest.json into --out.  Exit codes: 0
success, 2 configuration error (errors.ConfigError, an OSError on a path,
or invalid JSON), 3 numerical failure (errors.NumericalError), 4 solver
hit its sweep budget (partial output is still written).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import serialize
from .bench import ring_scaling
from .core import (DEFAULT_MAX_ITER, DEFAULT_TOL, Lmdp, _column_residuals,
                   check_count, is_integer, solve_direct, z_iterate)
from .domains import (ArmSpec, RingSpec, boundary_goal_tasks, four_rooms_map,
                      goal_task_vector, grid_from_ascii, make_arm, make_grid,
                      make_ring)
from .errors import BlockedCell, ConfigError, InvalidSpec, NumericalError
from .executor import rollout_budget, run_episode
from .hierarchy import SubtaskStructure, build_stack
from .learning import DEFAULT_STEP_SCALE, check_step_scale, train
from .multitask import TaskBasis, build_task_basis, solve_novel_task

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


@dataclass
class DomainBundle:
    """Everything a command might need, assembled from one config file."""

    config: dict
    lmdp: Lmdp
    basis: Optional[TaskBasis]
    structures: List[SubtaskStructure]
    goal_q: Optional[np.ndarray]
    start_state: Optional[int]


def _replace_spec(spec, config, fields):
    updates = {k: config[k] for k in fields if k in config}
    return dataclasses.replace(spec, **updates) if updates else spec


@contextlib.contextmanager
def _reading_config():
    """Report a config value of the wrong type or form as InvalidSpec.

    Wraps only the reading of the document into specs, so the same error
    types raised while building or solving the model still surface as bugs.
    """
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise InvalidSpec(f"malformed config: {exc}") from exc


def load_domain(path) -> DomainBundle:
    """Read a domain config JSON and build its LMDP, tasks, and structures.

    Schemas by "type":
      ring: n_states plus optional RingSpec fields, goal (twin index),
            start (state index).
      grid: map (inline ASCII) or four_rooms (odd size); optional GridSpec
            probability/temperature overrides, subtask_cells, goal [r,c],
            start [r,c].
      arm:  n_bins plus optional ArmSpec fields, start (config index).
      lmdp: inline document under "lmdp" or a path under "lmdp_file".
    Any command-specific parameters (learn, max_steps) ride along in the
    config document.  A value of the wrong type or form raises InvalidSpec;
    integer fields must be JSON integers.  Ring and grid bases come back
    unsolved, the arm's solved (see make_arm).
    """
    path = Path(path)
    config = serialize.read_json(path)
    with _reading_config():
        kind = config.get("type")
    if kind == "ring":
        fields = {f.name for f in dataclasses.fields(RingSpec)}
        with _reading_config():
            spec = RingSpec(**{k: config[k] for k in fields if k in config})
        lmdp, structures, tasks = make_ring(spec)
        goal_q = goal_task_vector(lmdp.n_boundary, config.get("goal", 0), spec.temperature)
        basis = build_task_basis(lmdp, tasks)
        return DomainBundle(config, lmdp, basis, structures, goal_q, config.get("start"))
    if kind == "grid":
        with _reading_config():
            if "map" in config:
                text = config["map"]
            elif "four_rooms" in config:
                text = four_rooms_map(config["four_rooms"])
            else:
                raise InvalidSpec("grid config needs a map or a four_rooms size")
            cells = [*(config.get("goal_cells") or ()), *config.get("subtask_cells", ()),
                     *(config[key] for key in ("goal", "start") if key in config)]
            if not all(len(cell) == 2 and all(map(is_integer, cell)) for cell in cells):
                raise InvalidSpec(f"grid cells must be [row, col] integer pairs, got {cells}")
            spec, map_subtasks = grid_from_ascii(text, config.get("goal_cells"))
            spec = _replace_spec(spec, config,
                                 ("stay_prob", "step_prob", "exit_prob",
                                  "temperature", "interior_reward"))
            subtasks = [tuple(c) for c in config.get("subtask_cells", map_subtasks)]
            goal = tuple(config["goal"]) if "goal" in config else None
            cell = tuple(config["start"]) if "start" in config else None
        lmdp, structure, goal_q = make_grid(spec, subtasks, goal)
        start = None
        if cell is not None:
            free = spec.free_cells()
            if cell not in free:
                raise BlockedCell(f"start cell {cell} is not free")
            start = free.index(cell)
        basis = build_task_basis(lmdp, boundary_goal_tasks(lmdp.n_boundary,
                                                           spec.temperature))
        structures = [structure] if structure is not None else []
        return DomainBundle(config, lmdp, basis, structures, goal_q, start)
    if kind == "arm":
        fields = {f.name for f in dataclasses.fields(ArmSpec)}
        with _reading_config():
            kwargs = {k: config[k] for k in fields if k in config}
            if "link_lengths" in kwargs:
                kwargs["link_lengths"] = tuple(kwargs["link_lengths"])
            if "target_rect" in kwargs:
                kwargs["target_rect"] = tuple(kwargs["target_rect"])
            spec = ArmSpec(**kwargs)
        lmdp, basis, target_q = make_arm(spec)
        return DomainBundle(config, lmdp, basis, [], target_q, config.get("start"))
    if kind == "lmdp":
        with _reading_config():
            if "lmdp" in config:
                doc = config["lmdp"]
            elif "lmdp_file" in config:
                doc = serialize.read_json(path.parent / config["lmdp_file"])
            else:
                raise InvalidSpec("lmdp config needs an inline document or a file")
        lmdp = serialize.lmdp_from_dict(doc)
        return DomainBundle(config, lmdp, None, [], None, None)
    raise InvalidSpec(f"unknown domain type {kind!r}")


def _write_outputs(args, command: str, config: dict, artifacts: dict,
                   **extras) -> None:
    """Create --out, write each named text artifact, then manifest.json."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        serialize.save_text(out / name, text)
    serialize.write_json(out / "manifest.json", serialize.run_manifest(
        command, config, args.seed, **extras))


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args) -> int:
    bundle = load_domain(args.domain)
    lmdp = bundle.lmdp
    if args.method == "direct":
        z_full = solve_direct(lmdp).full()
        iterations, converged = None, True
    else:
        z_i, iterations, converged = z_iterate(
            lmdp, lmdp.q_boundary, tol=args.tol, max_iter=args.max_iter)
        z_full = np.concatenate([z_i, lmdp.q_boundary])
    A, B = lmdp.bellman_operator
    residual = float(_column_residuals(A, z_full[:lmdp.n_interior],
                                       B @ z_full[lmdp.n_interior:]))
    _write_outputs(args, "solve", bundle.config,
                   {"z.csv": serialize.desirability_csv(lmdp, z_full)},
                   method=args.method,
                   tol=args.tol if args.method == "z-iter" else None,
                   iterations=iterations, converged=converged, residual=residual)
    if not converged:
        print(f"z-iteration hit max_iter={args.max_iter} "
              f"(residual {residual:.3g}); partial output written",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_blend(args) -> int:
    bundle = load_domain(args.domain)
    if bundle.goal_q is None:
        raise InvalidSpec("this domain defines no target task to blend")
    method = args.method.replace("blend-", "")
    z, weights = solve_novel_task(bundle.basis, bundle.goal_q, method=method)
    _write_outputs(args, "blend", bundle.config,
                   {"weights.csv": serialize.weights_csv(weights),
                    "z.csv": serialize.desirability_csv(bundle.lmdp, z.full())},
                   method=args.method, blend_residual=weights.residual,
                   n_tasks=bundle.basis.n_tasks)
    return EXIT_OK


def _build_stack(bundle: DomainBundle, kappa, penalty):
    if not bundle.structures:
        raise InvalidSpec("this domain defines no subtask structure to stack")
    return build_stack(bundle.basis, bundle.structures, kappa=kappa, penalty=penalty)


def cmd_stack(args) -> int:
    bundle = load_domain(args.domain)
    stack = _build_stack(bundle, args.kappa, args.penalty)
    serialize.save_stack(stack, Path(args.out) / "stack")
    _write_outputs(args, "stack", bundle.config, {}, depth=stack.depth,
                   kappa=stack.kappa, penalty=stack.penalty)
    return EXIT_OK


def cmd_simulate(args) -> int:
    bundle = load_domain(args.domain)
    if bundle.goal_q is None:
        raise InvalidSpec("this domain defines no goal task to simulate")
    stack = _build_stack(bundle, args.kappa, args.penalty)
    stack.set_task(bundle.goal_q)
    start = bundle.start_state if bundle.start_state is not None else 0
    rng = np.random.default_rng(args.seed)
    trajectory = run_episode(stack, start, rng, max_steps=bundle.config.get("max_steps"))
    _write_outputs(args, "simulate", bundle.config,
                   {"trajectory.csv": serialize.trajectory_csv(trajectory),
                    "weights_snapshots.csv": serialize.snapshots_csv(trajectory)},
                   total_return=trajectory.total_return,
                   length=trajectory.length, truncated=trajectory.truncated,
                   n_events=len(trajectory.events))
    return EXIT_OK


def cmd_learn(args) -> int:
    bundle = load_domain(args.domain)
    if bundle.goal_q is None:
        raise InvalidSpec("this domain defines no goal task to learn")
    with _reading_config():
        params = bundle.config.get("learn", {})
        epochs = check_count("learn.epochs", params.get("epochs", 20))
        episodes = check_count("learn.episodes", params.get("episodes", 10))
        n_seeds = check_count("learn.n_seeds", params.get("n_seeds", 1))
        max_steps = params.get("max_steps")
        start = bundle.start_state
        rollout_budget(bundle.lmdp.n_interior, 0 if start is None else start, max_steps)
        step_scale = params.get("step_scale", DEFAULT_STEP_SCALE)
        check_step_scale(step_scale)
        conditions = params.get("conditions", ["flat", "guided"])
        if not conditions or not set(conditions) <= {"flat", "guided"}:
            raise InvalidSpec("learn.conditions must list 'flat' and/or "
                              f"'guided', got {conditions!r}")
    stack_template = None
    if "guided" in conditions:
        stack_template = _build_stack(bundle, None, None)
    entries = []
    for offset in range(n_seeds):
        seed = args.seed + offset
        for condition in conditions:
            stack = stack_template if condition == "guided" else None
            _, curve = train(bundle.lmdp, bundle.goal_q, epochs, episodes,
                             seed, stack=stack, start_state=bundle.start_state,
                             max_steps=max_steps, step_scale=step_scale)
            entries.extend((epoch, mean, se, condition, seed)
                           for epoch, mean, se in curve)
    _write_outputs(args, "learn", bundle.config,
                   {"curve.csv": serialize.curve_csv(entries)},
                   epochs=epochs, episodes=episodes, n_seeds=n_seeds,
                   conditions=list(conditions))
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidSpec(f"--sizes must be comma-separated integers, "
                          f"got {args.sizes!r}") from exc
    rows, slopes = ring_scaling(sizes, tol=args.tol)
    _write_outputs(args, "bench", {"sizes": sizes, "tol": args.tol},
                   {"scaling.csv": serialize.scaling_csv(rows)}, slopes=slopes)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsmdp",
        description="First-exit linearly solvable MDPs: solvers, task "
                    "blending, subtask hierarchies, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain=True):
        if domain:
            p.add_argument("--domain", required=True,
                           help="domain config JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("solve", help="solve one LMDP for its desirability")
    common(p)
    p.add_argument("--method", choices=["direct", "z-iter"], default="direct")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p = sub.add_parser("blend", help="compose a novel task from a basis")
    common(p)
    p.add_argument("--method",
                   choices=["blend-nnls", "blend-pinv", "nnls", "pinv"],
                   default="blend-nnls")

    p = sub.add_parser("stack", help="build and serialize a subtask tower")
    common(p)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--penalty", type=float, default=None)

    p = sub.add_parser("simulate", help="run one hierarchical episode")
    common(p)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--penalty", type=float, default=None)

    p = sub.add_parser("learn", help="online desirability learning curves")
    common(p)

    p = sub.add_parser("bench", help="ring scaling benchmark")
    common(p, domain=False)
    p.add_argument("--sizes", required=True,
                   help="comma-separated ring sizes, e.g. 16,32,64")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    return parser


COMMANDS = {
    "solve": cmd_solve,
    "blend": cmd_blend,
    "stack": cmd_stack,
    "simulate": cmd_simulate,
    "learn": cmd_learn,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise InvalidSpec(f"--seed must be non-negative, got {args.seed}")
        return COMMANDS[args.command](args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
