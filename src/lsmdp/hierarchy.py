"""Deep hierarchies of multitask LMDPs.

A layer is augmented by appending subtask states: extra absorbing states
reachable through a nonnegative weight matrix stacked under the passive
kernel and renormalized columnwise.  That kernel is held once, as the
layer's ``lmdp.passive`` (subtask rows last), and solves, absorption and
saves all read it there.  Entering a subtask state hands control to the
layer above, whose interior states *are* those subtask states and whose
passive dynamics are the absorption probabilities of the layer below
(fundamental-matrix identities).  The layer above steers the layer below by
inpainting rewards onto the subtask states: the difference between its
desired next-state distribution and its passive one, scaled by kappa, becomes
a boundary reward vector that the lower layer re-blends against its
subtask-task columns.  Every layer keeps the base boundary set and its one
boundary-task matrix Q, one array at every layer, so one blend of Q sets the
goal at every layer.  An augmented layer's task matrix [[Q, f 11^T],
[f 11^T, Q_t]] (fill f) is held as its blocks, never assembled.  The Bellman
system is linear in the boundary values, so a layer solves once per boundary
state, U = A^-1 B = [U_b, U_t], and composes weights w = [w_b; w_t] as
z_b = [Q w_b + f sum(w_t); Q_t w_t + f sum(w_b)] and z_i = U_b Q w_b +
f sum(w_t) U_b 1 + U_t z_t; a termination above only zeroes z_t.  Q w_b and
U_b Q w_b are memoized per task, so an inpaint re-blend, which moves only
w_t, composes only the subtask block.  Q and every subtask block have the
form a I + c 11^T, read once per layer at build, so each blend is in closed
form (``multitask.blend_block``).  A layer's task state is one ``Composite``:
its weights, the desirability they compose, the dead twin a termination
above swaps in, and a ``Column`` record per state read, which caches the
policy column there (a narrow one in Python floats), its redraw without
subtask rows and the rewards an access there transmits; episodes read only
these.  Within one task the same inpaint recurs, so a stack memoizes each
re-blend's composite by layer, termination flag above and inpainted vector;
clones share the memo and the composites, caches and dead twins in it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence

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
    is_integer,
    masked_redraw_column,
    narrow_tilt,
    policy_column,
    running_sum,
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
# perfbench/spans.py patches build_task_basis and blend_weights_matrix here
from .multitask import (TaskBasis, TaskWeights, blend_block, blend_weights_matrix, block_form,
                        build_task_basis)

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
    block).  Its task matrix is held in block form (see the module
    docstring): the shared Q, the subtask block Q_t, which inpaint
    re-blends fit, and the fill f.  ``solves`` holds the interior solve of
    each boundary state, so the interior of any boundary values z_b is
    ``solves @ z_b``.  The top of a stack is a rung with zero
    subtasks over the top layer's own LMDP.  The layer's one kernel is
    ``lmdp.passive``, its last ``n_subtasks`` boundary rows the subtask rows.
    """

    lmdp: Lmdp                      # augmented: boundary = base boundary + subtasks
    base_tasks: np.ndarray          # (n_base_boundary, n_base_tasks) Q, shared
    solves: np.ndarray              # (n_interior, n_boundary), A^-1 B
    subtask_tasks: np.ndarray       # (n_subtasks, n_subtasks) subtask-reward block Q_t
    neutral_weights: np.ndarray     # subtask-task blend for inpainted reward 0
    fill: float = 0.0               # cross-block fill f; none at the top
    ones_solve: np.ndarray = field(init=False, repr=False)  # U_b 1
    base_form: Optional[tuple] = field(init=False, repr=False)  # block_form(Q)
    subtask_form: Optional[tuple] = field(init=False, repr=False)  # block_form(Q_t)

    def __post_init__(self):
        object.__setattr__(self, "ones_solve", self.solves[:, :self.n_base_boundary].sum(1))
        object.__setattr__(self, "base_form", block_form(self.base_tasks))
        object.__setattr__(self, "subtask_form", block_form(self.subtask_tasks))

    n_subtasks = property(lambda self: self.neutral_weights.shape[0])
    n_base_tasks = property(lambda self: self.base_tasks.shape[1])
    # the step path reads these two on every access, so each is computed once
    n_base_boundary = cached_property(lambda self: self.lmdp.n_boundary - self.n_subtasks)

    @cached_property
    def subtask_range(self) -> tuple:
        """Global state indices [lo, hi) of the subtask states, (n_states,
        n_states) at the top of a stack."""
        lo = self.lmdp.n_interior + self.n_base_boundary
        return (lo, lo + self.n_subtasks)


def stack_subtask_kernel(passive: PassiveDynamics,
                         weights: np.ndarray) -> PassiveDynamics:
    """Stack subtask access mass under a passive kernel and renormalize.

    Returns the augmented kernel, whose boundary rows are the base boundary
    rows followed by one row per subtask.
    """
    stacked = sp.vstack([passive.full_matrix, sp.csc_matrix(weights)], format="csc")
    mass = np.asarray(stacked.sum(axis=0)).ravel()
    if (mass <= 0).any():
        raise AllZeroColumn(f"stacked column {int(np.argmin(mass))} has no mass")
    stacked = (stacked @ sp.diags(1.0 / mass)).tocsc()
    return PassiveDynamics(stacked[:passive.n_interior], stacked[passive.n_interior:])


def absorption_dynamics(passive: PassiveDynamics, n_subtasks: int):
    """Higher-layer passive dynamics from absorption of the walk below.

    The subtask rows of ``passive`` are its last ``n_subtasks`` boundary
    rows.  Column t' conditions on re-entering the lower layer from subtask
    t' (the renormalized t'-th subtask row); rows are the probabilities of
    absorbing at each subtask state and each base boundary state.  Stacked
    columns must sum to 1 up to solver accuracy, since the walk absorbs with
    probability 1.

    Returns (to_interior_next, to_boundary_next) as dense arrays.
    """
    n_i, n_b = passive.n_interior, passive.n_boundary - n_subtasks
    if not 0 <= n_b < passive.n_boundary:
        raise DimensionMismatch(
            f"{n_subtasks} subtasks, {passive.n_boundary} boundary rows")
    P = passive.full_matrix
    to_interior, to_boundary, to_subtasks = P[:n_i], P[n_i:n_i + n_b], P[n_i + n_b:]
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


def augment(lmdp: Lmdp, tasks: np.ndarray, structure: SubtaskStructure,
            penalty: Optional[float] = None) -> AugmentedMlmdp:
    """Append subtask states to a layer with boundary-task matrix ``tasks``.

    ``tasks`` is (n_boundary, n_tasks), exponentiated, and becomes the base
    block Q; only the augmented layer is solved, once per boundary state.
    The stacked kernel [to_interior; to_boundary; weights], renormalized
    columnwise, is the augmented LMDP's passive dynamics.
    Each subtask task has reward 0 at its own state and ``penalty``
    (default -5 * lambda) at the other subtask states.  The cross blocks of
    the combined task matrix (base tasks at subtask states, subtask tasks at
    boundary twins) hold the fill f = exp(AUGMENT_FILL_SCALE), the much
    steeper reward AUGMENT_FILL_SCALE * lambda, kept positive so every task
    column stays a valid exponentiated reward.
    """
    lam = lmdp.rewards.temperature
    if penalty is None:
        penalty = DEFAULT_SUBTASK_PENALTY_SCALE * lam
    Q = np.asarray(tasks, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != lmdp.n_boundary or Q.shape[1] < 1:
        raise DimensionMismatch(
            f"task matrix shape {Q.shape}, expected ({lmdp.n_boundary}, n_tasks >= 1)"
        )
    if not np.isfinite(Q).all() or Q.min() <= 0:
        raise InvalidSpec("task columns must be strictly positive and finite")
    W = structure.weights
    if W.shape[1] != lmdp.n_interior:
        raise DimensionMismatch(
            f"subtask weights cover {W.shape[1]} interior states, LMDP has "
            f"{lmdp.n_interior}"
        )

    passive = stack_subtask_kernel(lmdp.passive, W)
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
    aug_lmdp = build_lmdp(partition, passive, rewards)
    return AugmentedMlmdp(
        lmdp=aug_lmdp,
        base_tasks=Q,
        solves=solve_interior(aug_lmdp),
        subtask_tasks=Q_t,
        # the blend for inpainted reward 0 (target q_t = 1) that set_task starts from
        neutral_weights=blend_block(Q_t, np.ones(n_t)).values,
        fill=float(np.exp(AUGMENT_FILL_SCALE * lam / lam)),
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
    states, fitted to the subtask-reward block.  A target that overflows
    (too large an inpaint scale kappa) raises RewardOverflow.
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
    sub = blend_block(aug.subtask_tasks, np.exp(scaled), aug.subtask_form)
    values = np.concatenate([current.values[:aug.n_base_tasks], sub.values])
    return TaskWeights(values, sub.residual)


# ---------------------------------------------------------------------------
# stacks


class Column:
    """A cached policy column (rows, probs) and the running sum draws bisect;
    the step ``kl``, ``masked`` redraw and ``transmit`` fill on first use."""

    __slots__ = ("rows", "probs", "cum", "kl", "masked", "transmit")

    def __init__(self, rows: np.ndarray, probs: np.ndarray):
        self.rows, self.probs, self.cum = rows, probs, running_sum(probs)
        self.kl = self.masked = self.transmit = None


class Composite:
    """A layer's task state: TaskWeights, the read-only desirability ``z``
    they compose over ``layer``, the state -> Column cache its methods fill,
    and the ``dead`` twin a termination above composes once (None until then).
    Its methods take a state the caller has already validated: the checks
    live at the public entries (access_hierarchy, policy_column,
    policy_state, apply_inpaint, rollout_budget), so a warm cache would
    serve ``column(1.0)`` as state 1's record."""

    __slots__ = ("layer", "kappa", "weights", "z", "columns", "dead")

    def __init__(self, layer: AugmentedMlmdp, kappa: float,
                 weights: TaskWeights, z: np.ndarray):
        self.layer, self.kappa, self.weights, self.z = layer, kappa, weights, z
        self.columns, self.dead = {}, None

    def z_list(self) -> list:  # z as a new list of floats, for a per-step product
        return self.z.tolist()

    def column(self, state: int) -> Column:
        """The record at a validated ``state``; a miss tilts its policy column."""
        if state not in self.columns:
            narrow = self.layer.lmdp.passive.narrow_columns[state]
            self.columns[state] = Column(*(narrow_tilt(narrow, self.z.item, state) if narrow
                                           else policy_column(self.layer.lmdp, self.z, state)))
        return self.columns[state]

    def redraw(self, state: int) -> Column:
        """A validated ``state``'s column without subtask rows, drawn after an access."""
        col = self.column(state)
        if col.masked is None:
            col.masked = Column(*masked_redraw_column(col.rows, col.probs,
                                                      *self.layer.subtask_range))
        return col.masked

    def transmit(self, entry: int) -> np.ndarray:
        """Inpainted rewards (read-only) an access at a validated ``entry`` sends down:
        kappa (a - p) of the policy and passive columns there, over the
        layer's interior, which is the subtask states of the layer below."""
        col = self.column(entry)
        if col.transmit is None:
            # the policy column's rows are the passive column's, ascending
            P, n_i = self.layer.lmdp.passive.full_matrix, self.layer.lmdp.n_interior
            k, lo = np.searchsorted(col.rows, n_i), P.indptr[entry]
            a, p = np.zeros(n_i), np.zeros(n_i)
            a[col.rows[:k]] = col.probs[:k]
            p[col.rows[:k]] = P.data[lo:lo + k]
            col.transmit = inpaint_rewards(a, p, self.kappa)
            col.transmit.flags.writeable = False
        return col.transmit


@dataclass
class HierarchyStack:
    """An ordered tower of layers plus per-episode execution state.

    Every layer is an AugmentedMlmdp; the top one has zero subtasks.  Layer
    structures, each with its boundary solves and the shared base block Q,
    are immutable and shared between clones; nothing is solved or factored
    after build_stack.
    ``composites[k]`` is layer k's current Composite and ``terminated[k]``
    its flag; both lists are per-clone.  A Composite's arrays are never
    written after they are made and its cache and dead twin only fill in,
    so clones share the records.

    ``reblends`` memoizes the current task's inpaint re-blends.  It maps
    (layer, terminated flag of the layer above, shape and bytes of the
    inpainted vector) to the Composite that re-blend gave; nothing else
    enters a re-blend, since set_task fixed the base-task weights.
    ``base_terms`` maps (layer, bytes of w_b) to (Q w_b, U_b Q w_b, f sum(w_b)), right
    for any task (a failed set_task may leave it empty).  set_task starts
    fresh composites and empty memos and clone shares them, so every episode
    clone of one tasked stack reuses the others' re-blends, base terms,
    column records and dead twins.
    Nothing is capped until the next set_task: on ring-243 depth 4 a task's
    column caches held 181-265 records (< 1 MB) after 16 episodes, about
    2,800 (6.5 MB) after 4,000.
    """

    layers: List[AugmentedMlmdp]
    kappa: float
    penalty: float
    composites: List[Optional[Composite]]
    terminated: List[bool]
    target: Optional[np.ndarray] = None  # boundary task set by set_task
    reblends: Dict[tuple, Composite] = field(default_factory=dict, repr=False,
                                             compare=False)
    base_terms: Dict[tuple, tuple] = field(default_factory=dict, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.layers)

    # per-layer views of the composites, None before set_task
    weights = property(lambda self: [c and c.weights for c in self.composites])
    z_full = property(lambda self: [c and c.z for c in self.composites])

    def clone(self) -> "HierarchyStack":
        """A copy with its own composite and terminated lists that shares
        everything else: layers, composites, the memos and ``target``, which
        set_task replaces and nothing writes in place."""
        return replace(self, composites=list(self.composites),
                       terminated=list(self.terminated))

    # -- task management -----------------------------------------------------

    def set_task(self, boundary_target: np.ndarray) -> None:
        """Blend the same boundary-reward target at every layer.

        All layers share the base boundary set and its task matrix Q, so
        one blend of Q gives every layer its base-task weights.  The subtask
        tasks start from the neutral blend (inpainted reward 0), empty at
        the top.  A negative or
        non-finite target raises InvalidSpec; on any error the stack keeps
        its previous task.
        """
        q = np.asarray(boundary_target, dtype=np.float64)
        if (q < 0).any():
            raise InvalidSpec("boundary target must be nonnegative")
        wb = blend_block(self.layers[0].base_tasks, q, self.layers[0].base_form)
        self.base_terms = {}
        self.composites = [
            self._compose(layer, TaskWeights(
                np.concatenate([wb.values, entry.neutral_weights]), wb.residual),
                layer + 1 < self.depth and self.terminated[layer + 1])
            for layer, entry in enumerate(self.layers)]
        self.target = q.copy()
        self.reblends = {}

    def _compose(self, layer: int, weights: TaskWeights, dead: bool) -> Composite:
        """The layer's Composite under ``weights``, its ``z`` read-only.

        Composes block by block (module docstring) through ``base_terms``,
        with z_t = 0 when ``dead`` (the layer above is terminated); the
        interior is a sum of nonnegative terms.  Raises NonPositiveComposite
        when an interior entry is not positive, e.g. after underflow.
        """
        entry = self.layers[layer]
        n_b = entry.n_base_boundary
        n_bt = entry.n_base_tasks
        w_b, w_t = weights.values[:n_bt], weights.values[n_bt:]
        key = (layer, w_b.tobytes())
        if key not in self.base_terms:
            q_b = entry.base_tasks @ w_b
            self.base_terms[key] = q_b, entry.solves[:, :n_b] @ q_b, entry.fill * w_b.sum()
        q_b, u_b, fill_b = self.base_terms[key]
        fill_t = entry.fill * w_t.sum()
        z_t = np.zeros(entry.n_subtasks) if dead else entry.subtask_tasks @ w_t + fill_b
        z_i = u_b + fill_t * entry.ones_solve + entry.solves[:, n_b:] @ z_t
        low = z_i.min(initial=np.inf)
        if not low > 0:
            raise NonPositiveComposite(
                f"layer {layer} composite desirability min = {low:.3g}")
        z = np.concatenate([z_i, q_b + fill_t, z_t])
        z.flags.writeable = False
        return Composite(entry, self.kappa, weights, z)

    def apply_inpaint(self, layer: int, inpainted: np.ndarray) -> None:
        """Receive inpainted rewards at a layer below the top and re-blend.

        A key already in ``reblends`` reuses its Composite; a new one is
        re-blended and stored once both steps succeed.
        """
        if not (is_integer(layer) and 0 <= layer < len(self.layers) - 1):
            raise InvalidSpec(f"no subtask layer {layer} in a depth-{self.depth} stack")
        entry = self.layers[layer]
        if self.composites[layer] is None:
            raise NoTaskSet("set_task must run before inpainting")
        r_t = np.asarray(inpainted, dtype=np.float64)
        dead = self.terminated[layer + 1]
        key = (layer, dead, r_t.shape, r_t.tobytes())
        composite = self.reblends.get(key)
        if composite is None:
            weights = rewards_to_task_weights(entry, r_t, self.composites[layer].weights)
            composite = self.reblends[key] = self._compose(layer, weights, dead)
        self.composites[layer] = composite

    def policy_state(self, layer: int):
        """(lmdp, z_full) pair for sampling at a layer, validated."""
        if not (is_integer(layer) and 0 <= layer < len(self.layers)):
            raise InvalidSpec(f"no layer {layer} in a depth-{self.depth} stack")
        if self.composites[layer] is None:
            raise NoTaskSet("stack has no task; call set_task first")
        return self.layers[layer].lmdp, self.composites[layer].z


def build_stack(basis: TaskBasis, structures: Sequence[SubtaskStructure],
                kappa: Optional[float] = None,
                penalty: Optional[float] = None) -> HierarchyStack:
    """Assemble a depth len(structures)+1 tower of layers.

    Each structure augments the current layer; the layer above lives on the
    subtask states with absorption-derived passive dynamics, keeps the base
    boundary set and temperature, shares the one float64 boundary-task
    matrix, and charges reward -1 per step.  Of ``basis`` only ``base`` and
    ``boundary_tasks`` are read.  Every layer solves each of its boundary
    states once; the blocks a stack blends need no factoring.
    ``kappa`` (default lambda) scales inpainted rewards and must be finite;
    ``penalty`` defaults to -5 * lambda.
    """
    lmdp, tasks = basis.base, np.asarray(basis.boundary_tasks, dtype=np.float64)
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
        to_i, to_b = absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)
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
        lmdp=lmdp, base_tasks=tasks, solves=solve_interior(lmdp),
        subtask_tasks=np.empty((0, 0)), neutral_weights=np.empty(0)))
    depth = len(layers)
    return HierarchyStack(
        layers=layers,
        kappa=kappa,
        penalty=penalty,
        composites=[None] * depth,
        terminated=[False] * depth,
    )


def terminate_layer(stack: HierarchyStack, layer: int) -> None:
    """Switch a layer off for the rest of the episode.

    The layer below loses all transition mass into its subtask states: it
    recomposes its weights with zero boundary value at those states from the
    same boundary solves, so the policy tilt can never select them again.
    Nothing is solved or factored, and a live Composite composes its dead
    twin once for all clones, through the same compose.  The base layer
    cannot be terminated.  On an error the stack is unchanged.
    """
    if not (is_integer(layer) and 0 <= layer < stack.depth):
        raise InvalidSpec(f"no layer {layer} in a depth-{stack.depth} stack")
    if layer == 0:
        raise CannotTerminateBase("the base layer cannot terminate")
    if stack.terminated[layer]:
        raise AlreadyTerminated(f"layer {layer} already terminated")
    live = stack.composites[layer - 1]
    if live is not None:
        if live.dead is None:
            live.dead = stack._compose(layer - 1, live.weights, True)
        stack.composites[layer - 1] = live.dead
    stack.terminated[layer] = True
