"""Ring scaling benchmark: flat task suites against hierarchical ones.

Both conditions solve every "reach position j" task on a ring of N states by
desirability iteration at a fixed tolerance and report total sweeps and
total nonzero entries of the iterates.  The flat condition iterates each of
the N tasks over the full ring.  The hierarchical condition augments the
ring with subtasks every M = max(2, ceil(ln N)) positions, derives the layer
above, and repeats until fewer than two subtasks fit; each level solves its
own reach tasks (one per interior state, plus one per subtask state) with a
per-task sweep budget of CAP_MULTIPLIER * M.  The per-step costs scale with
N (temperature N/12, exit probability 1/N), so flat sweep counts grow
roughly like N^2 while the hierarchy stays near linear in total work.

A level's tasks share its dynamics, so they go to ``z_iterate`` as matrices
of block_width indicator columns (64 on the flat 512-ring), one sparse
product per sweep per block.  Each column stops at its converging sweep, so
the totals are exactly the per-task sums, the counts of iterating each alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import (DEFAULT_TOL, Lmdp, PassiveDynamics, RewardModel, block_width,
                   z_iterate)
from .domains import ring_passive
from .errors import InvalidSpec
from .hierarchy import absorption_dynamics, stack_subtask_kernel

RING_STEP_PROB = 0.3
CAP_MULTIPLIER = 3
ACCESS_WEIGHT = 0.25


@dataclass(frozen=True)
class BenchRow:
    """One condition's totals at one ring size."""

    n: int
    condition: str
    total_iterations: int
    nonzeros: int


def spacing_for(n: int) -> int:
    return max(2, math.ceil(math.log(n)))


def _level_lmdp(passive: PassiveDynamics, temperature: float) -> Lmdp:
    return Lmdp(passive, RewardModel(np.full(passive.n_interior, -1.0),
                                     np.zeros(passive.n_boundary), temperature))


def _count_tasks(lmdp: Lmdp, task_rows: Sequence[int], tol: float,
                 max_iter: int) -> Tuple[int, int]:
    """Total sweeps and iterate nonzeros over the indicator tasks of the rows.

    One z_iterate call per block_width(lmdp) tasks, so no more than one
    block of right-hand sides and iterates is held at a time.
    """
    rows, width = np.asarray(task_rows, dtype=np.intp), block_width(lmdp)
    total, nnz = 0, 0
    for lo in range(0, rows.size, width):
        block = rows[lo:lo + width]
        Q = np.zeros((lmdp.n_boundary, block.size))
        Q[block, np.arange(block.size)] = 1.0
        z, iterations, _ = z_iterate(lmdp, Q, tol=tol, max_iter=max_iter)
        total += iterations
        nnz += int(np.count_nonzero(z))
    return total, nnz


def flat_counts(n: int, tol: float = DEFAULT_TOL) -> Tuple[int, int]:
    """Sweeps and nonzeros to solve all n reach tasks on the flat ring."""
    passive = ring_passive((n,), RING_STEP_PROB, 1.0 / n)
    lmdp = _level_lmdp(passive, n / 12.0)
    return _count_tasks(lmdp, range(n), tol, max_iter=10 ** 7)


def hierarchical_counts(n: int, tol: float = DEFAULT_TOL) -> Tuple[int, int]:
    """Sweeps and nonzeros across all levels of the subtask tower.

    Level interiors shrink by the spacing factor M each time; interior state
    j of level l sits at base position j * M^l, and its reach task is the
    indicator at that base twin.  When n <= M no tower exists and the result
    equals the flat counts exactly.
    """
    N = n
    M = spacing_for(N)
    if N <= M:
        return flat_counts(N, tol)
    cap = CAP_MULTIPLIER * M
    total, nnz = 0, 0
    passive = ring_passive((N,), RING_STEP_PROB, 1.0 / N)
    n_base_boundary = N
    stride = 1
    while True:
        size = passive.n_interior
        lam = size / 12.0
        positions = list(range(0, size, M)) if size > M else []
        n_next = len(positions)
        if n_next < 2:
            # top level: plain reach tasks over the derived dynamics
            twins = [(j * stride) % N for j in range(size)]
            it, nz = _count_tasks(_level_lmdp(passive, lam), twins, tol, cap)
            total += it
            nnz += nz
            break
        W = np.zeros((n_next, size))
        for t, pos in enumerate(positions):
            W[t, pos] = ACCESS_WEIGHT
        aug_passive = stack_subtask_kernel(passive, W)
        twins = [(j * stride) % N for j in range(size)]
        sub_rows = [n_base_boundary + t for t in range(n_next)]
        # a level's Lmdp (and its cached sweep operator) dies with its count
        it, nz = _count_tasks(_level_lmdp(aug_passive, lam), twins + sub_rows, tol, cap)
        total += it
        nnz += nz
        passive = PassiveDynamics(*absorption_dynamics(aug_passive, n_next))
        stride *= M
    return total, nnz


def ring_scaling(sizes: Sequence[int], tol: float = DEFAULT_TOL):
    """Run both conditions over the given ring sizes at tolerance ``tol``.

    Sweep budgets are fixed: 10^7 per flat task, CAP_MULTIPLIER * M per
    hierarchical one.  A negative or NaN ``tol`` or a non-integral or bool
    size raises InvalidSpec.

    Returns (rows, slopes): one BenchRow per (size, condition) and, when at
    least two distinct sizes are given, the log-log regression slopes of
    total iterations and nonzeros for each condition.
    """
    sizes = list(sizes)  # int() would truncate 8.7 into a row labelled n=8
    if any(isinstance(s, (bool, np.bool_)) or not float(s).is_integer() for s in sizes):
        raise InvalidSpec(f"ring sizes must be integers, got {sizes}")
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise InvalidSpec("at least one ring size is required")
    if any(s < 3 for s in sizes):
        raise InvalidSpec("ring sizes must be at least 3")
    rows: List[BenchRow] = []
    for n in sizes:
        it, nz = flat_counts(n, tol)
        rows.append(BenchRow(n, "flat", it, nz))
        it, nz = hierarchical_counts(n, tol)
        rows.append(BenchRow(n, "hierarchical", it, nz))
    slopes: Dict[str, float] = {}
    if len(set(sizes)) >= 2:
        log_n = np.log([r.n for r in rows if r.condition == "flat"])
        for condition in ("flat", "hierarchical"):
            sel = [r for r in rows if r.condition == condition]
            for metric in ("total_iterations", "nonzeros"):
                values = np.log([getattr(r, metric) for r in sel])
                slopes[f"{condition}_{metric}"] = float(
                    np.polyfit(log_n, values, 1)[0])
    return rows, slopes
