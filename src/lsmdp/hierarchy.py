"""Deep hierarchies of multitask LMDPs.

A layer is augmented by appending subtask states: extra absorbing states
reachable through a nonnegative weight matrix stacked under the passive
kernel and renormalized columnwise.  Entering a subtask state hands control
to the layer above, whose interior states *are* those subtask states and
whose passive dynamics are the absorption probabilities of the layer below
(fundamental-matrix identities).  The layer above steers the layer below by
inpainting rewards onto the subtask states: the difference between its
desired next-state distribution and its passive one, scaled by kappa, becomes
a boundary reward vector that the lower layer re-blends against its
subtask-task columns.  Every layer keeps the base boundary set and its one
boundary-task matrix, so a stack solves one basis per layer and one blend of
that matrix sets the goal at every layer.  That matrix and every subtask
reward block are LU-factored once per stack (``multitask.factor_block``).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .core import (
    LOG_FLOAT_MAX,
    Lmdp,
    PassiveDynamics,
    RewardModel,
    StatePartition,
    _factorize,
    build_lmdp,
    solve_interior,
)
from .errors import (
    AllZeroColumn,
    AlreadyTerminated,
    CannotTerminateBase,
    DimensionMismatch,
    InvalidSpec,
    NoTaskSet,
    NonPositiveComposite,
    RewardOverflow,
    SingularFundamentalMatrix,
    UnreachableSubtasks,
)
from .multitask import TaskBasis, TaskWeights, blend_weights_matrix, build_task_basis
from .multitask import FactoredBlock, factor_block

DEFAULT_SUBTASK_PENALTY_SCALE = -5.0
# Cross-block fill of the augmented task matrix (base tasks priced at subtask
# states and vice versa).  Must sit far below any goal penalty a task might
# place on a boundary twin: the neutral subtask blend contributes roughly
# n_subtasks * exp(fill / lambda) desirability to every twin, and that
# leakage has to stay negligible against the smallest intended target mass.
AUGMENT_FILL_SCALE = -20.0


@dataclass(frozen=True)
class SubtaskStructure:
    """Interior-to-subtask transition weights, (n_subtasks, n_interior).

    Weights are relative: they are stacked under the passive kernel and the
    whole column renormalized, so a weight w at a column with unit passive
    mass yields subtask probability w / (1 + w).
    """

    weights: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", W)
        if W.ndim != 2:
            raise DimensionMismatch(f"subtask weights must be 2-D, got {W.ndim}-D")
        if W.size == 0 or W.shape[0] < 1:
            raise InvalidSpec("need at least one subtask row")
        if not np.isfinite(W).all() or W.min() < 0:
            raise InvalidSpec("subtask weights must be finite and nonnegative")
        row_mass = W.sum(axis=1)
        if (row_mass == 0).any():
            # zero rows keep the augmentation well formed (passive mass
            # remains) but the subtask can never be entered; deriving a
            # higher layer from it fails with SingularFundamentalMatrix
            warnings.warn(
                f"subtask {int(np.argmin(row_mass))} has no entry states",
                UnreachableSubtasks,
            )
        if self.labels is not None and len(self.labels) != W.shape[0]:
            raise DimensionMismatch("one label per subtask required")

    @property
    def n_subtasks(self) -> int:
        return self.weights.shape[0]


def default_subtask_rewards(n_subtasks: int, penalty: float,
                            temperature: float) -> np.ndarray:
    """One task per subtask state: reward 0 at its own state, penalty at the
    rest, exponentiated by the temperature."""
    if n_subtasks < 1:
        raise InvalidSpec("need at least one subtask")
    off = np.exp(penalty / temperature)
    Q_t = np.full((n_subtasks, n_subtasks), off)
    np.fill_diagonal(Q_t, 1.0)
    return Q_t


@dataclass(frozen=True)
class AugmentedMlmdp:
    """One rung of a hierarchy: a multitask layer extended with subtask states.

    The augmented LMDP treats subtask states as extra boundary states
    (indices n_base_boundary .. n_base_boundary+n_subtasks-1 of the boundary
    block).  Its task basis is the base boundary-task columns plus one task
    per subtask state, solved over the augmented dynamics.  The top of a
    stack is a rung with zero subtasks: its LMDP and basis are the top
    layer's own, and its subtask blocks are empty.  Below a terminated
    layer, composites blend ``dead_desirabilities`` instead of the basis.
    Inpaint re-blends solve against ``subtask_block``, factored in augment.
    """

    lmdp: Lmdp                      # augmented: boundary = base boundary + subtasks
    basis: TaskBasis                # over the augmented LMDP, [base tasks | subtask tasks]
    to_interior: sp.csc_matrix      # renormalized blocks of the stacked kernel
    to_boundary: sp.csc_matrix      # base-boundary rows only
    to_subtasks: sp.csc_matrix
    subtask_block: FactoredBlock    # subtask-reward block Q_t and its LU
    neutral_weights: np.ndarray     # subtask-task blend for inpainted reward 0

    @property
    def n_subtasks(self) -> int:
        return self.to_subtasks.shape[0]

    @property
    def n_base_tasks(self) -> int:
        return self.basis.n_tasks - self.n_subtasks

    @property
    def n_base_boundary(self) -> int:
        return self.lmdp.n_boundary - self.n_subtasks

    @property
    def subtask_range(self):
        """Global state indices [lo, hi) of the subtask states.

        (n_states, n_states) at the top of a stack.
        """
        lo = self.lmdp.n_interior + self.n_base_boundary
        return (lo, lo + self.n_subtasks)

    @cached_property
    def dead_desirabilities(self) -> np.ndarray:
        """(n_interior, n_tasks) solves of the basis tasks with zero at every
        subtask state, computed on first use.  The Bellman system is linear
        in the boundary values, so a terminated composite blends these.
        """
        Q = self.basis.boundary_tasks.copy()
        Q[self.n_base_boundary:] = 0.0
        return solve_interior(self.lmdp, Q)


def stack_subtask_kernel(passive: PassiveDynamics, weights: np.ndarray):
    """Stack subtask access mass under a passive kernel and renormalize.

    Returns the three column-stochastic blocks (to_interior, to_boundary,
    to_subtasks) of the augmented kernel, as csc matrices.
    """
    stacked = sp.vstack([
        passive.to_interior,
        passive.to_boundary,
        sp.csc_matrix(weights),
    ]).tocsc()
    mass = np.asarray(stacked.sum(axis=0)).ravel()
    if (mass <= 0).any():
        raise AllZeroColumn(f"stacked column {int(np.argmin(mass))} has no mass")
    stacked = (stacked @ sp.diags(1.0 / mass)).tocsc()
    n_i, n_b = passive.n_interior, passive.n_boundary
    return stacked[:n_i], stacked[n_i:n_i + n_b], stacked[n_i + n_b:]


def absorption_dynamics(to_interior, to_boundary, to_subtasks):
    """Higher-layer passive dynamics from absorption of the walk below.

    Column t' conditions on re-entering the lower layer from subtask t' (the
    renormalized t'-th column of to_subtasks^T); rows are the probabilities
    of absorbing at each subtask state and each boundary state.  Stacked
    columns must sum to 1 up to solver accuracy, since the walk absorbs with
    probability 1.

    Returns (to_interior_next, to_boundary_next) as dense arrays.
    """
    to_interior = _as_csc_block(to_interior)
    to_boundary = _as_csc_block(to_boundary)
    to_subtasks = _as_csc_block(to_subtasks)
    n_i = to_interior.shape[0]
    entries = to_subtasks.T.toarray()                # (n_i, n_t)
    col_mass = entries.sum(axis=0)
    if (col_mass <= 0).any():
        raise SingularFundamentalMatrix(
            f"subtask {int(np.argmin(col_mass))} has no entry distribution"
        )
    entries = entries / col_mass
    A = (sp.eye(n_i, format="csc") - to_interior).tocsc()
    visits = _factorize(A, SingularFundamentalMatrix)(entries)
    if not np.isfinite(visits).all():
        raise SingularFundamentalMatrix("fundamental system produced non-finite visits")
    to_interior_next = to_subtasks @ visits
    to_boundary_next = to_boundary @ visits
    total = to_interior_next.sum(axis=0) + to_boundary_next.sum(axis=0)
    if np.abs(total - 1.0).max() > 1e-10:
        raise SingularFundamentalMatrix(
            f"derived columns sum to {total.min():.12g}..{total.max():.12g}"
        )
    return np.asarray(to_interior_next), np.asarray(to_boundary_next)


def _as_csc_block(matrix) -> sp.csc_matrix:
    if sp.issparse(matrix):
        return matrix.tocsc()
    return sp.csc_matrix(np.asarray(matrix, dtype=np.float64))


def augment(lmdp: Lmdp, tasks: np.ndarray, structure: SubtaskStructure,
            penalty: Optional[float] = None) -> AugmentedMlmdp:
    """Append subtask states to a layer with boundary-task matrix ``tasks``.

    ``tasks`` is (n_boundary, n_tasks), exponentiated; only the augmented
    basis is solved, so the layer needs no basis of its own.  The stacked
    kernel [to_interior; to_boundary; weights] is renormalized columnwise.
    Each subtask task has reward 0 at its own state and ``penalty``
    (default -5 * lambda) at the other subtask states.  The cross blocks of
    the combined task matrix (base tasks at subtask states, subtask tasks at
    boundary twins) are filled with the much steeper reward
    AUGMENT_FILL_SCALE * lambda, kept strictly positive so every basis
    column stays a valid exponentiated reward.  The subtask-reward block is
    factored once here and gives the neutral blend.
    """
    lam = lmdp.rewards.temperature
    if penalty is None:
        penalty = DEFAULT_SUBTASK_PENALTY_SCALE * lam
    fill_penalty = AUGMENT_FILL_SCALE * lam
    Q = np.asarray(tasks, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != lmdp.n_boundary or Q.shape[1] < 1:
        raise DimensionMismatch(
            f"task matrix shape {Q.shape}, expected ({lmdp.n_boundary}, n_tasks >= 1)"
        )
    W = structure.weights
    if W.shape[1] != lmdp.n_interior:
        raise DimensionMismatch(
            f"subtask weights cover {W.shape[1]} interior states, LMDP has "
            f"{lmdp.n_interior}"
        )
    if W.sum() == 0:
        warnings.warn("subtask states carry no transition mass", UnreachableSubtasks)

    to_interior, to_boundary, to_subtasks = stack_subtask_kernel(lmdp.passive, W)
    n_i, n_b = lmdp.n_interior, lmdp.n_boundary
    n_t = structure.n_subtasks

    Q_t = default_subtask_rewards(n_t, penalty, lam)

    labels = None
    if lmdp.partition.labels is not None:
        sub_labels = (structure.labels if structure.labels is not None
                      else tuple(f"t{t}" for t in range(n_t)))
        labels = tuple(lmdp.partition.labels) + tuple(sub_labels)
    partition = StatePartition(n_i, n_b + n_t, labels)
    rewards = RewardModel(
        lmdp.rewards.interior,
        np.concatenate([lmdp.rewards.boundary, np.full(n_t, penalty)]),
        lam,
    )
    passive = PassiveDynamics(to_interior, sp.vstack([to_boundary, to_subtasks]))
    aug_lmdp = build_lmdp(partition, passive, rewards)

    fill = np.exp(fill_penalty / lam)
    n_tasks = Q.shape[1]
    Q_full = np.full((n_b + n_t, n_tasks + n_t), fill)
    Q_full[:n_b, :n_tasks] = Q
    Q_full[n_b:, n_tasks:] = Q_t
    basis = build_task_basis(aug_lmdp, Q_full)
    subtask_block = factor_block(Q_t)
    # the blend for inpainted reward 0 (target q_t = 1) that set_task starts from
    neutral = blend_weights_matrix(subtask_block, np.ones(n_t)).values

    return AugmentedMlmdp(
        lmdp=aug_lmdp,
        basis=basis,
        to_interior=to_interior.tocsc(),
        to_boundary=to_boundary.tocsc(),
        to_subtasks=to_subtasks.tocsc(),
        subtask_block=subtask_block,
        neutral_weights=neutral,
    )


def inpaint_rewards(action_column: np.ndarray, passive_column: np.ndarray,
                    kappa: float, n_interior: Optional[int] = None) -> np.ndarray:
    """Reward a layer paints onto the subtask states below it.

    kappa * (a - p) restricted to the layer's interior entries, which are
    exactly the subtask states of the layer below.  Zero when the layer's
    action agrees with its passive dynamics.
    """
    a = np.asarray(action_column, dtype=np.float64)
    p = np.asarray(passive_column, dtype=np.float64)
    if a.shape != p.shape:
        raise DimensionMismatch(f"column shapes differ: {a.shape} vs {p.shape}")
    cut = a.shape[0] if n_interior is None else n_interior
    return kappa * (a[:cut] - p[:cut])


def rewards_to_task_weights(aug: AugmentedMlmdp, inpainted: np.ndarray,
                            current: TaskWeights) -> TaskWeights:
    """Re-blend the subtask-task block against an inpainted reward vector.

    Only the subtask-task weights move; base boundary-task weights keep their
    current values.  The target is exp(inpainted / lambda) over the subtask
    states, fitted to the factored subtask-reward block.  A target that
    overflows (too large an inpaint scale kappa) raises RewardOverflow.
    """
    r_t = np.asarray(inpainted, dtype=np.float64)
    if r_t.shape != (aug.n_subtasks,):
        raise DimensionMismatch(
            f"inpainted rewards shape {r_t.shape}, expected ({aug.n_subtasks},)"
        )
    scaled = r_t / aug.lmdp.rewards.temperature
    if scaled.size and scaled.max() > LOG_FLOAT_MAX:
        raise RewardOverflow(
            f"inpainted reward / temperature {scaled.max():.6g} exceeds "
            f"log(float64 max) = {LOG_FLOAT_MAX:.3f}; lower the inpaint scale kappa")
    sub = blend_weights_matrix(aug.subtask_block, np.exp(scaled))
    values = np.concatenate([current.values[:aug.n_base_tasks], sub.values])
    return TaskWeights(values, sub.residual)


# ---------------------------------------------------------------------------
# stacks


@dataclass
class HierarchyStack:
    """An ordered tower of layers plus per-episode execution state.

    Every layer is an AugmentedMlmdp; the top one has zero subtasks.  Layer
    structures, including their lazily solved dead-subtask bases, and
    ``task_block``, the shared boundary-task matrix with its LU factors, are
    immutable and shared between clones; weights, composite desirabilities
    and termination flags are per-clone.
    """

    layers: List[AugmentedMlmdp]
    kappa: float
    penalty: float
    task_block: FactoredBlock
    weights: List[Optional[TaskWeights]]
    z_full: List[Optional[np.ndarray]]
    terminated: List[bool]
    target: Optional[np.ndarray] = None  # boundary task set by set_task

    @property
    def depth(self) -> int:
        return len(self.layers)

    def clone(self) -> "HierarchyStack":
        return HierarchyStack(
            layers=self.layers,
            kappa=self.kappa,
            penalty=self.penalty,
            task_block=self.task_block,
            weights=list(self.weights),
            z_full=[None if z is None else z.copy() for z in self.z_full],
            terminated=list(self.terminated),
            target=None if self.target is None else self.target.copy(),
        )

    # -- task management -----------------------------------------------------

    def set_task(self, boundary_target: np.ndarray) -> None:
        """Blend the same boundary-reward target at every layer.

        All layers share the base boundary set and its task matrix, so one
        fit against ``task_block`` (factored when the stack was built) gives
        every layer its base-task weights.  The subtask tasks start from the
        neutral blend (inpainted reward 0), empty at the top.
        """
        q = np.asarray(boundary_target, dtype=np.float64)
        self.target = q.copy()
        wb = blend_weights_matrix(self.task_block, q)
        for layer, entry in enumerate(self.layers):
            self.weights[layer] = TaskWeights(
                np.concatenate([wb.values, entry.neutral_weights]), wb.residual)
            self._recompose(layer)

    def _recompose(self, layer: int) -> None:
        """Refresh the layer's composite desirability from its weights.

        Below a terminated layer the interior blends the dead-subtask basis
        and the subtask states carry zero desirability.  Raises
        NonPositiveComposite when an interior entry is not positive, e.g.
        after underflow at low temperature.
        """
        entry = self.layers[layer]
        w = self.weights[layer].values
        dead = layer + 1 < self.depth and self.terminated[layer + 1]
        Z = entry.dead_desirabilities if dead else entry.basis.desirabilities
        z_i = Z @ w
        low = z_i.min(initial=np.inf)
        if not low > 0:
            raise NonPositiveComposite(
                f"layer {layer} composite desirability min = {low:.3g}")
        z = np.concatenate([z_i, entry.basis.boundary_tasks @ w])
        if dead:
            z[slice(*entry.subtask_range)] = 0.0
        self.z_full[layer] = z

    def apply_inpaint(self, layer: int, inpainted: np.ndarray) -> None:
        """Receive inpainted rewards from the layer above and re-blend."""
        entry = self.layers[layer]
        if not entry.n_subtasks:
            raise InvalidSpec("only layers with subtasks can receive inpainted rewards")
        if self.weights[layer] is None:
            raise NoTaskSet("set_task must run before inpainting")
        self.weights[layer] = rewards_to_task_weights(
            entry, inpainted, self.weights[layer])
        self._recompose(layer)

    def policy_state(self, layer: int):
        """(lmdp, z_full) pair for sampling at a layer, validated."""
        if self.weights[layer] is None or self.z_full[layer] is None:
            raise NoTaskSet("stack has no task; call set_task first")
        return self.layers[layer].lmdp, self.z_full[layer]


def build_stack(basis: TaskBasis, structures: Sequence[SubtaskStructure],
                kappa: Optional[float] = None,
                penalty: Optional[float] = None) -> HierarchyStack:
    """Assemble a depth len(structures)+1 tower of layers.

    Each structure augments the current layer; the layer above lives on the
    subtask states with absorption-derived passive dynamics, keeps the base
    boundary set and temperature, inherits the boundary-task matrix, and
    charges reward -1 per step.  Only the augmented layers and a derived top
    solve a basis; with no structures the top is ``basis`` itself.  Every
    block a stack blends is factored here or in ``augment``, not in episodes.
    ``kappa`` (default lambda) scales inpainted rewards and must be finite;
    ``penalty`` defaults to -5 * lambda.
    """
    lmdp, tasks = basis.base, basis.boundary_tasks
    lam0 = lmdp.rewards.temperature
    if kappa is None:
        kappa = lam0
    if not np.isfinite(kappa):
        raise InvalidSpec(f"kappa must be finite, got {kappa}")
    if penalty is None:
        penalty = DEFAULT_SUBTASK_PENALTY_SCALE * lam0

    layers: List[AugmentedMlmdp] = []
    for structure in structures:
        aug = augment(lmdp, tasks, structure, penalty=penalty)
        layers.append(aug)
        to_i, to_b = absorption_dynamics(aug.to_interior, aug.to_boundary,
                                         aug.to_subtasks)
        n_next = structure.n_subtasks
        labels = None
        if structure.labels is not None:
            labels = tuple(structure.labels) + tuple(
                lmdp.partition.label(s) for s in range(lmdp.n_interior, lmdp.n_states))
        lmdp = build_lmdp(StatePartition(n_next, lmdp.n_boundary, labels),
                          PassiveDynamics(to_i, to_b),
                          RewardModel(np.full(n_next, -1.0), lmdp.rewards.boundary, lam0))
    # the top is a rung with no subtask states above it
    layers.append(AugmentedMlmdp(
        lmdp=lmdp, basis=build_task_basis(lmdp, tasks) if layers else basis,
        to_interior=lmdp.passive.to_interior, to_boundary=lmdp.passive.to_boundary,
        to_subtasks=sp.csc_matrix((0, lmdp.n_interior)),
        subtask_block=factor_block(np.empty((0, 0))), neutral_weights=np.empty(0)))
    depth = len(layers)
    return HierarchyStack(
        layers=layers,
        kappa=kappa,
        penalty=penalty,
        task_block=factor_block(tasks),
        weights=[None] * depth,
        z_full=[None] * depth,
        terminated=[False] * depth,
    )


def terminate_layer(stack: HierarchyStack, layer: int) -> None:
    """Switch a layer off for the rest of the episode.

    The layer below loses all transition mass into its subtask states: it
    re-blends its weights over its dead-subtask basis, which puts zero
    desirability on those states, so the policy tilt can never select them
    again.  Nothing new is factored after the basis's one solve per layer.
    The base layer cannot be terminated.
    """
    if not 0 <= layer < stack.depth:
        raise InvalidSpec(f"no layer {layer} in a depth-{stack.depth} stack")
    if layer == 0:
        raise CannotTerminateBase("the base layer cannot terminate")
    if stack.terminated[layer]:
        raise AlreadyTerminated(f"layer {layer} already terminated")
    stack.terminated[layer] = True
    if stack.z_full[layer - 1] is not None:
        stack._recompose(layer - 1)
