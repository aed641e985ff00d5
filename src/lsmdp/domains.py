"""Benchmark domain generators: 1-D rings, four-room grids, a planar 2-DOF arm.

All three domains model "reach state X" tasks the same way: selected interior
states get an absorbing boundary twin reachable with a fixed exit probability
diverted from the stay mass.  Point-goal task bases reward one twin at 0 and
the rest at a steep penalty; steeper than the goal-task penalty, so that any
goal task is an exactly nonnegative combination of basis columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .core import (PassiveDynamics, RewardModel, StatePartition, build_lmdp,
                   check_count, check_real, is_integer)
from .errors import BlockedCell, EmptyTarget, InvalidSpec
from .hierarchy import SubtaskStructure, default_subtask_rewards
from .multitask import build_task_basis

# Penalty scales, in units of lambda.  Basis tasks sit strictly below goal
# tasks so exact nonnegative blends exist for every goal placement.
BASIS_PENALTY_SCALE = -20.0
GOAL_PENALTY_SCALE = -10.0
DEFAULT_EXIT_PROB = 0.2
DEFAULT_ACCESS_WEIGHT = 0.25


def boundary_goal_tasks(n_boundary: int, temperature: float) -> np.ndarray:
    """One task per boundary twin: reward 0 there, penalty everywhere else."""
    return default_subtask_rewards(n_boundary, BASIS_PENALTY_SCALE * temperature,
                                   temperature)


def goal_task_vector(n_boundary: int, goal_index: int,
                     temperature: float) -> np.ndarray:
    """Exponentiated boundary reward for a single-goal task."""
    if not (is_integer(goal_index) and 0 <= goal_index < n_boundary):
        raise InvalidSpec(f"goal twin {goal_index!r} is not a boundary index")
    penalty = GOAL_PENALTY_SCALE * temperature
    q = np.full(n_boundary, math.exp(penalty / temperature))
    q[goal_index] = 1.0
    return q


def _check_numbers(spec, *names) -> None:
    """InvalidSpec naming the first of ``spec``'s real-valued fields that holds
    a bool, a string or None; a tuple or list field is checked entry by entry."""
    for name in names:
        value = getattr(spec, name)
        for entry in (value if isinstance(value, (tuple, list)) else (value,)):
            check_real(name, entry)


# ---------------------------------------------------------------------------
# 1-D ring


@dataclass(frozen=True)
class RingSpec:
    """Ring of n_states with a subtask every subtask_spacing positions,
    recursively for depth levels."""

    n_states: int
    subtask_spacing: int = 3
    depth: int = 1
    step_prob: float = 0.3
    exit_prob: float = DEFAULT_EXIT_PROB
    temperature: float = 1.0
    interior_reward: float = -1.0
    access_weight: float = DEFAULT_ACCESS_WEIGHT

    def __post_init__(self):
        if not (is_integer(self.n_states) and self.n_states >= 3):
            raise InvalidSpec(f"ring size {self.n_states!r} is not an integer of at least 3")
        if not (is_integer(self.subtask_spacing) and self.subtask_spacing >= 2):
            raise InvalidSpec(f"subtask spacing must be an integer of at least 2, "
                              f"got {self.subtask_spacing!r}")
        check_count("depth", self.depth)
        _check_numbers(self, "step_prob", "exit_prob", "temperature", "interior_reward",
                       "access_weight")
        if not 0.0 < self.access_weight < math.inf:
            raise InvalidSpec(f"access_weight must be finite and positive, "
                              f"got {self.access_weight}")
        _check_walk(self.step_prob, self.exit_prob, 2)

    def level_sizes(self) -> List[int]:
        sizes = [self.n_states]
        for _ in range(self.depth - 1):
            n = sizes[-1]
            if n <= self.subtask_spacing:
                raise InvalidSpec(
                    f"cannot place subtasks every {self.subtask_spacing} states "
                    f"in a ring of {n}"
                )
            sizes.append(len(range(0, n, self.subtask_spacing)))
        return sizes


def _check_walk(step_prob: float, exit_prob: float, n_moves: int) -> None:
    """InvalidSpec naming the field unless 0 < step_prob < 1 / n_moves and
    0 < exit_prob <= the stay mass 1 - n_moves * step_prob (NaN fails both)."""
    if not 0.0 < step_prob < 1.0 / n_moves:
        raise InvalidSpec(f"step_prob must lie in (0, {1.0 / n_moves:g}), got {step_prob}")
    stay = 1.0 - n_moves * step_prob
    if not 0.0 < exit_prob <= stay + 1e-12:
        raise InvalidSpec(f"exit_prob must lie in (0, {stay:g}], the stay mass, "
                          f"got {exit_prob}")


def ring_passive(shape: Tuple[int, ...], step_prob: float,
                 exit_prob: float) -> PassiveDynamics:
    """Local walk on a torus over ``shape`` (a ring for one axis): +-1 along
    each axis at ``step_prob``, stay 1 - 2 * ndim * step_prob - exit_prob,
    and every state exits to its own twin.  States are the C-order cells."""
    grid = np.arange(math.prod(shape)).reshape(shape)
    n = grid.size
    stay = 1.0 - 2 * grid.ndim * step_prob - exit_prob
    moves = [(np.roll(grid, d, axis).ravel(), step_prob)
             for axis in range(grid.ndim) for d in (1, -1)] + [(grid.ravel(), stay)]
    rows, probs = zip(*[(dest, p) for dest, p in moves if p > 0])
    to_interior = sp.csc_matrix(
        (np.repeat(probs, n), (np.concatenate(rows), np.tile(np.arange(n), len(rows)))),
        shape=(n, n))
    to_boundary = sp.identity(n, format="csc") * exit_prob
    return PassiveDynamics(to_interior, to_boundary)


def make_ring(spec: RingSpec):
    """Build the ring LMDP, its per-level subtask structures, and the
    point-goal task matrix (one task per boundary twin).

    Returns (Lmdp, [SubtaskStructure, ...], task_matrix).
    """
    n = spec.n_states
    labels = tuple(f"s{k}" for k in range(n)) + tuple(f"exit{k}" for k in range(n))
    partition = StatePartition(n, n, labels)
    passive = ring_passive((n,), spec.step_prob, spec.exit_prob)
    rewards = RewardModel(np.full(n, spec.interior_reward), np.zeros(n),
                          spec.temperature)
    lmdp = build_lmdp(partition, passive, rewards)

    structures = []
    sizes = spec.level_sizes()
    for level in range(spec.depth - 1):
        size, size_next = sizes[level], sizes[level + 1]
        W = np.zeros((size_next, size))
        for t in range(size_next):
            W[t, t * spec.subtask_spacing] = spec.access_weight
        stride = spec.subtask_spacing ** (level + 1)
        structures.append(SubtaskStructure(
            W, labels=tuple(f"sub{level + 1}_{t * stride}" for t in range(size_next))
        ))
    tasks = boundary_goal_tasks(n, spec.temperature)
    return lmdp, structures, tasks


# ---------------------------------------------------------------------------
# grid worlds


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid with blocked cells and absorbing goal twins.

    walls block cells entirely; goal_cells receive absorbing boundary twins.
    Passive dynamics: each feasible cardinal move gets step_prob, stay gets
    stay_prob plus the mass of infeasible moves; at goal cells exit_prob is
    diverted from stay onto the twin.
    """

    width: int
    height: int
    walls: frozenset = frozenset()
    goal_cells: tuple = ()
    stay_prob: float = 0.2
    step_prob: float = 0.2
    exit_prob: float = DEFAULT_EXIT_PROB
    temperature: float = 1.0
    interior_reward: float = -1.0

    def __post_init__(self):
        for name in ("width", "height"):
            if not is_integer(getattr(self, name)):
                raise InvalidSpec(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.width < 1 or self.height < 1:
            raise InvalidSpec("grid must have positive dimensions")
        _check_numbers(self, "stay_prob", "step_prob", "exit_prob", "temperature",
                       "interior_reward")
        _check_walk(self.step_prob, self.exit_prob, 4)
        if not abs(self.stay_prob + 4 * self.step_prob - 1.0) <= 1e-9:
            raise InvalidSpec("stay_prob + 4 * step_prob must equal 1")
        object.__setattr__(self, "walls", frozenset(self.walls))
        object.__setattr__(self, "goal_cells", tuple(self.goal_cells))
        if not self.goal_cells:
            raise InvalidSpec("at least one goal cell is required")
        for cell in self.goal_cells:
            self._require_free(cell, "goal")

    def _require_free(self, cell, kind: str):
        r, c = cell
        if not (0 <= r < self.height and 0 <= c < self.width):
            raise BlockedCell(f"{kind} cell {cell} is outside the grid")
        if (r, c) in self.walls:
            raise BlockedCell(f"{kind} cell {cell} is a wall")

    def free_cells(self) -> List[Tuple[int, int]]:
        return [(r, c) for r in range(self.height) for c in range(self.width)
                if (r, c) not in self.walls]


def grid_from_ascii(text: str, goal_cells: Optional[Sequence] = None
                    ) -> Tuple[GridSpec, tuple]:
    """Parse an ASCII map: ``#`` wall, ``.`` free, ``G`` goal, ``S`` subtask.

    Returns (GridSpec, subtask_cells).  Goal cells keep map order; the first
    G is the active goal.  ``goal_cells`` overrides the map's G cells, which
    lets goal-free layouts (like the generated four-room map) be reused.
    """
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise InvalidSpec("empty map")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise InvalidSpec("map rows must all have the same width")
    walls, goals, subtasks = [], [], []
    for r, row in enumerate(rows):
        for c, ch in enumerate(row):
            if ch == "#":
                walls.append((r, c))
            elif ch == "G":
                goals.append((r, c))
            elif ch == "S":
                subtasks.append((r, c))
            elif ch != ".":
                raise InvalidSpec(f"unknown map character {ch!r} at {(r, c)}")
    if goal_cells is not None:
        goals = [tuple(cell) for cell in goal_cells]
    spec = GridSpec(width=width, height=len(rows), walls=frozenset(walls),
                    goal_cells=tuple(goals))
    return spec, tuple(subtasks)


def four_rooms_map(size: int = 11) -> str:
    """The canonical four-room layout: central walls with four doorways."""
    if not (is_integer(size) and size >= 5 and size % 2):
        raise InvalidSpec(f"four-rooms size {size!r} is not an odd integer of at least 5")
    mid = size // 2
    door_a, door_b = mid // 2, mid + 1 + mid // 2
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            wall = (c == mid and r not in (door_a, door_b)) or \
                   (r == mid and c not in (door_a, door_b))
            row.append("#" if wall else ".")
        rows.append("".join(row))
    return "\n".join(rows)


def _grid_states(spec: GridSpec):
    free = spec.free_cells()
    index = {cell: k for k, cell in enumerate(free)}
    # connectivity: a disconnected free region can never reach a goal twin
    seen = {free[0]}
    frontier = [free[0]]
    while frontier:
        r, c = frontier.pop()
        for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (rr, cc) in index and (rr, cc) not in seen:
                seen.add((rr, cc))
                frontier.append((rr, cc))
    if len(seen) != len(free):
        raise InvalidSpec("free cells do not form one connected component")
    return free, index


def make_grid(spec: GridSpec, subtask_cells: Sequence[Tuple[int, int]] = (),
              goal: Optional[Tuple[int, int]] = None):
    """Build a grid LMDP with goal twins and co-located subtask states.

    Returns (Lmdp, SubtaskStructure or None, goal_task_vector).  ``goal``
    defaults to the first goal cell; it must carry a twin.
    """
    free, index = _grid_states(spec)
    n_i = len(free)
    n_b = len(spec.goal_cells)
    rows, cols, vals = [], [], []
    b_rows, b_cols, b_vals = [], [], []
    twin = {cell: b for b, cell in enumerate(spec.goal_cells)}
    for s, (r, c) in enumerate(free):
        moves = [index[(rr, cc)] for rr, cc in
                 ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                 if (rr, cc) in index]
        stay = spec.stay_prob + spec.step_prob * (4 - len(moves))
        if (r, c) in twin:
            if spec.exit_prob > stay + 1e-12:
                raise InvalidSpec(
                    f"exit probability {spec.exit_prob} exceeds stay mass "
                    f"{stay} at {(r, c)}"
                )
            stay -= spec.exit_prob
            b_rows.append(twin[(r, c)])
            b_cols.append(s)
            b_vals.append(spec.exit_prob)
        for dest in moves:
            rows.append(dest)
            cols.append(s)
            vals.append(spec.step_prob)
        if stay > 0:
            rows.append(s)
            cols.append(s)
            vals.append(stay)
    to_interior = sp.csc_matrix((vals, (rows, cols)), shape=(n_i, n_i))
    to_boundary = sp.csc_matrix((b_vals, (b_rows, b_cols)), shape=(n_b, n_i))
    labels = tuple(f"r{r}c{c}" for r, c in free) + \
        tuple(f"goal_r{r}c{c}" for r, c in spec.goal_cells)
    partition = StatePartition(n_i, n_b, labels)
    rewards = RewardModel(np.full(n_i, spec.interior_reward), np.zeros(n_b),
                          spec.temperature)
    lmdp = build_lmdp(partition, PassiveDynamics(to_interior, to_boundary), rewards)

    structure = None
    if subtask_cells:
        W = np.zeros((len(subtask_cells), n_i))
        for t, cell in enumerate(subtask_cells):
            spec._require_free(cell, "subtask")
            W[t, index[cell]] = DEFAULT_ACCESS_WEIGHT
        structure = SubtaskStructure(
            W, labels=tuple(f"door_r{r}c{c}" for r, c in subtask_cells))

    goal_cell = goal if goal is not None else spec.goal_cells[0]
    if goal_cell not in twin:
        raise BlockedCell(f"goal {goal_cell} has no boundary twin")
    goal_q = goal_task_vector(n_b, twin[goal_cell], spec.temperature)
    return lmdp, structure, goal_q


# ---------------------------------------------------------------------------
# 2-DOF arm


@dataclass(frozen=True)
class ArmSpec:
    """Two revolute joints discretized into n_bins wrapped angle bins each.

    target_rect = (x_min, x_max, y_min, y_max) on the end-effector plane.
    """

    n_bins: int
    link_lengths: Tuple[float, float] = (1.0, 1.0)
    target_rect: Tuple[float, float, float, float] = (1.5, 2.0, -0.25, 0.25)
    step_prob: float = 0.15
    exit_prob: float = DEFAULT_EXIT_PROB
    temperature: float = 1.0
    interior_reward: float = -1.0

    def __post_init__(self):
        if not (is_integer(self.n_bins) and self.n_bins >= 3):
            raise InvalidSpec(f"need an integer n_bins of at least 3, got {self.n_bins!r}")
        _check_numbers(self, "link_lengths", "target_rect", "step_prob", "exit_prob",
                       "temperature", "interior_reward")
        if len(self.link_lengths) != 2 or min(self.link_lengths) <= 0:
            raise InvalidSpec("link lengths must be two positive numbers")
        x0, x1, y0, y1 = self.target_rect
        if not (x0 < x1 and y0 < y1):
            raise InvalidSpec("target rectangle must have positive area")
        _check_walk(self.step_prob, self.exit_prob, 4)

    def angles(self) -> np.ndarray:
        k = np.arange(self.n_bins)
        return -math.pi + 2.0 * math.pi * k / self.n_bins


def arm_end_effector(theta1: float, theta2: float,
                     link_lengths: Tuple[float, float]) -> Tuple[float, float]:
    """Planar forward kinematics; theta2 is relative to the first link."""
    l1, l2 = link_lengths
    x = l1 * math.cos(theta1) + l2 * math.cos(theta1 + theta2)
    y = l1 * math.sin(theta1) + l2 * math.sin(theta1 + theta2)
    return x, y


def make_arm(spec: ArmSpec):
    """Build the arm LMDP, its point-goal TaskBasis, and the target task.

    Every joint configuration gets a boundary twin; the target task rewards
    twins whose end-effector lies inside the target rectangle at 0 and the
    rest at the goal penalty.

    Returns (Lmdp, TaskBasis, target_q); the basis is already factored.
    """
    K = spec.n_bins
    n = K * K
    angles = spec.angles()
    labels = tuple(f"j{i}_{j}" for i in range(K) for j in range(K)) + \
        tuple(f"exit_j{i}_{j}" for i in range(K) for j in range(K))
    partition = StatePartition(n, n, labels)
    rewards = RewardModel(np.full(n, spec.interior_reward), np.zeros(n),
                          spec.temperature)
    lmdp = build_lmdp(partition, ring_passive((K, K), spec.step_prob, spec.exit_prob),
                      rewards)

    x0, x1, y0, y1 = spec.target_rect
    penalty = math.exp(GOAL_PENALTY_SCALE)
    target_q = np.full(n, penalty)
    hit = 0
    for i in range(K):
        for j in range(K):
            x, y = arm_end_effector(angles[i], angles[j], spec.link_lengths)
            if x0 <= x <= x1 and y0 <= y <= y1:
                target_q[i * K + j] = 1.0
                hit += 1
    if hit == 0:
        raise EmptyTarget("no joint configuration reaches the target rectangle")
    basis = build_task_basis(lmdp, boundary_goal_tasks(n, spec.temperature))
    # factored here, before any blend: factoring after the first NNLS blend
    # raised ArmSpec(30)'s peak memory by 1.7-2.2 MB
    basis.solve
    return lmdp, basis, target_q
