"""First-exit linearly solvable MDPs: problem types and desirability solvers.

Conventions used throughout the package:

* States are indexed ``0 .. n_interior-1`` (interior) followed by
  ``n_interior .. n_interior+n_boundary-1`` (absorbing boundary).
* Transition matrices are column-indexed by source state: ``P[dest, src]``.
  ``to_interior`` is (n_interior, n_interior), ``to_boundary`` is
  (n_boundary, n_interior); each source column sums to 1 across both blocks.
* The desirability of a state is z(s) = exp(V(s) / lambda).  Boundary states
  are absorbing, so their desirability equals their exponentiated reward.

The central identity is the linear Bellman equation

    z_i = diag(q_i) (to_interior^T z_i + to_boundary^T z_b),

a nonsingular sparse linear system whenever every interior state can reach the
boundary.  Each ``Lmdp`` caches its assembled operator ``A = I - diag(q_i)
to_interior^T`` and ``B = diag(q_i) to_boundary^T``, so the system for any
boundary values q_b is ``A z_i = B q_b``.  ``solve_interior`` factors A once
per call with SuperLU and solves every right-hand side of that call (one
boundary vector, or a matrix of task columns) against that factorization;
``solve_direct`` wraps it.  ``z_iterate`` applies the fixed-point map, which
contracts monotonically from a zero start, to the same inputs: a matrix of
task columns is iterated a block at a time with one sparse product per sweep,
each column stopping at its own converging sweep, and the sweep count it
reports is the sum over columns.  An overflowing iterate raises within 8
sweeps, and a non-finite iterate is never returned.

Rollouts draw one step at a time with ``policy_column`` and ``draw_from``.
Base columns are narrow (three to six entries on the ring, arm and grid
domains), where numpy's per-call overhead dwarfs the arithmetic, so the
learner's ``narrow_draw`` tilts, sums and draws a column with fewer than
NARROW entries with Python floats over lists cached on ``PassiveDynamics``,
with no array made.  It performs the same IEEE operations in the same
order as numpy: products are elementwise, and numpy sums an array shorter
than 8 strictly left to right (from 8 entries on it switches to an unrolled
pairwise sum, which a running sum would not reproduce), so dense columns,
such as those of absorption-derived layers, stay on numpy.  Draws need no
cutoff: ``np.cumsum`` is sequential at every length, so ``running_sum`` and
the bisect of ``draw_at`` match numpy's bit for bit on any column.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, repeat
from operator import add, mul, truediv
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DimensionMismatch,
    InvalidSpec,
    NoAbsorption,
    NonPositiveDesirability,
    NotStochastic,
    RewardOverflow,
    SingularSystem,
    ZeroNormalizer,
)

# Columns whose sums deviate from 1 by more than this are rejected; accepted
# columns are renormalized exactly so downstream code can assume 1e-12.
STOCHASTIC_ATOL = 1e-9
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
# Largest r / lambda whose exponential is a finite float64.
LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)
# Bytes of one block of task columns solved or iterated per pass, which
# bounds a many-task call's temporaries to a few blocks.  A column holds
# n_boundary right-hand-side and n_interior iterate rows (block_width).
# Solves and sweeps treat each column alone, so the width changes no bit.
# 512 KiB gives 64 columns on ring_scaling([512])'s flat level, 36 on
# ArmSpec(30), 115 on the ring-243 stack's layer 0 and 624 on the four-rooms
# grid; wider sweeps faster, but twice this raised peak memory by a quarter.
SOLVE_BYTES = 512 * 1024
# narrow_columns keeps, for narrow_draw, the columns with fewer entries (None
# for the rest); 8 is where numpy's sum turns from left to right into pairwise.
NARROW = 8


@dataclass(frozen=True)
class StatePartition:
    """Sizes of the interior/boundary split, with optional display labels."""

    n_interior: int
    n_boundary: int
    labels: Optional[tuple] = None

    def __post_init__(self):
        if self.n_interior < 1 or self.n_boundary < 1:
            raise InvalidSpec(
                f"need at least one interior and one boundary state, got "
                f"{self.n_interior}/{self.n_boundary}"
            )
        if self.labels is not None and len(self.labels) != self.n_states:
            raise DimensionMismatch(
                f"{len(self.labels)} labels for {self.n_states} states"
            )

    @property
    def n_states(self) -> int:
        return self.n_interior + self.n_boundary

    def label(self, state: int) -> str:
        if self.labels is not None:
            return str(self.labels[state])
        if state < self.n_interior:
            return f"i{state}"
        return f"b{state - self.n_interior}"


def is_integer(value) -> bool:
    """A Python or numpy integer; bools and integral floats are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value) -> int:
    """``value`` if it is an integer of at least 1, else InvalidSpec."""
    if not (is_integer(value) and value >= 1):
        raise InvalidSpec(f"{name} must be at least 1 and an integer, got {value!r}")
    return value


class PassiveDynamics:
    """Uncontrolled transition kernel split into interior and boundary blocks.

    Parameters
    ----------
    to_interior : (n_interior, n_interior) array or sparse matrix
        Probability of moving between interior states, column = source.
    to_boundary : (n_boundary, n_interior) array or sparse matrix
        Probability of absorbing at each boundary state, column = source.

    Columns are validated to be finite and stochastic within 1e-9, then
    renormalized exactly.  Construction fails with NoAbsorption if some
    interior state has no path to any boundary state.
    """

    def __init__(self, to_interior, to_boundary):
        P_i = sp.csc_matrix(to_interior, dtype=np.float64)
        P_b = sp.csc_matrix(to_boundary, dtype=np.float64)
        if P_i.shape[0] != P_i.shape[1]:
            raise DimensionMismatch(f"interior block must be square, got {P_i.shape}")
        if P_b.shape[1] != P_i.shape[1]:
            raise DimensionMismatch(
                f"boundary block has {P_b.shape[1]} source columns, "
                f"interior block has {P_i.shape[1]}"
            )
        if P_i.nnz and P_i.data.min() < 0 or P_b.nnz and P_b.data.min() < 0:
            raise NotStochastic("negative transition probability")
        sums = np.asarray(P_i.sum(axis=0)).ravel() + np.asarray(P_b.sum(axis=0)).ravel()
        bad = ~(np.abs(sums - 1.0) <= STOCHASTIC_ATOL)   # a NaN entry is bad too
        if bad.any():
            s = int(np.argmax(bad))
            raise NotStochastic(f"column {s} sums to {sums[s]:.12g}")
        scale = sp.diags(1.0 / sums)
        self.to_interior = (P_i @ scale).tocsc()
        self.to_boundary = (P_b @ scale).tocsc()
        self._check_absorption()

    def _check_absorption(self):
        n = self.n_interior
        can = np.asarray(self.to_boundary.sum(axis=0)).ravel() > 0
        # propagate "can reach boundary" backwards through interior edges
        while not can.all():
            grown = can | ((can.astype(np.float64) @ self.to_interior) > 0)
            if (grown == can).all():
                stuck = int(np.argmin(can))
                raise NoAbsorption(
                    f"interior state {stuck} cannot reach any boundary state"
                )
            can = grown

    @property
    def n_interior(self) -> int:
        return self.to_interior.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.to_boundary.shape[0]

    @cached_property
    def full_matrix(self) -> sp.csc_matrix:
        """(n_states, n_interior) stacked kernel, boundary rows last."""
        return sp.vstack([self.to_interior, self.to_boundary]).tocsc()

    @cached_property
    def narrow_columns(self) -> list:
        """Per source state, ``(row_list, prob_list)`` of its full_matrix
        column as Python ints and floats when that has fewer than NARROW
        entries, else None."""
        P = self.full_matrix
        columns = []
        for lo, hi in zip(P.indptr[:-1].tolist(), P.indptr[1:].tolist()):
            if hi - lo < NARROW:
                columns.append((P.indices[lo:hi].tolist(), P.data[lo:hi].tolist()))
            else:
                columns.append(None)
        return columns


@dataclass(frozen=True)
class RewardModel:
    """State rewards r and temperature lambda; q = exp(r / lambda)."""

    interior: np.ndarray
    boundary: np.ndarray
    temperature: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "interior", np.asarray(self.interior, dtype=np.float64))
        object.__setattr__(self, "boundary", np.asarray(self.boundary, dtype=np.float64))
        if not (self.temperature > 0) or not math.isfinite(self.temperature):
            raise InvalidSpec(f"temperature must be positive, got {self.temperature}")
        if not (np.isfinite(self.interior).all() and np.isfinite(self.boundary).all()):
            raise InvalidSpec("rewards must be finite")


def exponentiate_rewards(rewards: RewardModel):
    """Return (q_interior, q_boundary) = exp(r / lambda), strictly positive.

    Raises RewardOverflow when r / lambda exceeds the largest representable
    exponent, since a non-finite q poisons every downstream solve.
    """
    scaled_i = rewards.interior / rewards.temperature
    scaled_b = rewards.boundary / rewards.temperature
    if (scaled_i.size and scaled_i.max() > LOG_FLOAT_MAX
            or scaled_b.size and scaled_b.max() > LOG_FLOAT_MAX):
        raise RewardOverflow(
            f"reward / temperature exceeds log(float64 max) = {LOG_FLOAT_MAX:.3f}"
        )
    return np.exp(scaled_i), np.exp(scaled_b)


@dataclass(frozen=True)
class Lmdp:
    """A first-exit linearly solvable MDP: partition + passive kernel + rewards.

    Immutable after construction; safe to share across episodes and threads.
    Use build_lmdp to construct with full validation.
    """

    partition: StatePartition
    passive: PassiveDynamics
    rewards: RewardModel

    @property
    def n_interior(self) -> int:
        return self.partition.n_interior

    @property
    def n_boundary(self) -> int:
        return self.partition.n_boundary

    @property
    def n_states(self) -> int:
        return self.partition.n_states

    @cached_property
    def q_interior(self) -> np.ndarray:
        return exponentiate_rewards(self.rewards)[0]

    @cached_property
    def q_boundary(self) -> np.ndarray:
        return exponentiate_rewards(self.rewards)[1]

    @cached_property
    def bellman_operator(self) -> tuple[sp.csc_matrix, sp.csr_matrix]:
        """(A, B) with A = I - diag(q_i) P_i^T (csc) and B = diag(q_i) P_b^T.

        The linear Bellman system for boundary values q_b is A z_i = B q_b.
        Only the assembled matrices are kept, not a factorization: an LU
        factor costs several times A's memory on every cached LMDP.
        """
        q = sp.diags(self.q_interior)
        A = sp.eye(self.n_interior, format="csr") - q @ self.passive.to_interior.T
        return A.tocsc(), (q @ self.passive.to_boundary.T).tocsr()

    @cached_property
    def sweep_operator(self) -> sp.csr_matrix:
        """diag(q_i) P_i^T (csr): one z_iterate sweep is one product with it."""
        return (sp.diags(self.q_interior) @ self.passive.to_interior.T).tocsr()


def build_lmdp(partition: StatePartition, passive: PassiveDynamics,
               rewards: RewardModel) -> Lmdp:
    """Validate cross-component dimensions and assemble an Lmdp."""
    if passive.n_interior != partition.n_interior:
        raise DimensionMismatch(
            f"passive kernel has {passive.n_interior} interior states, "
            f"partition has {partition.n_interior}"
        )
    if passive.n_boundary != partition.n_boundary:
        raise DimensionMismatch(
            f"passive kernel has {passive.n_boundary} boundary states, "
            f"partition has {partition.n_boundary}"
        )
    if rewards.interior.shape != (partition.n_interior,):
        raise DimensionMismatch(
            f"interior rewards shape {rewards.interior.shape}, "
            f"expected ({partition.n_interior},)"
        )
    if rewards.boundary.shape != (partition.n_boundary,):
        raise DimensionMismatch(
            f"boundary rewards shape {rewards.boundary.shape}, "
            f"expected ({partition.n_boundary},)"
        )
    exponentiate_rewards(rewards)  # reject overflow at build time
    return Lmdp(partition, passive, rewards)


@dataclass(frozen=True)
class Desirability:
    """Strictly positive z over interior and boundary states."""

    interior: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "interior", np.asarray(self.interior, dtype=np.float64))
        object.__setattr__(self, "boundary", np.asarray(self.boundary, dtype=np.float64))
        for part, name in ((self.interior, "interior"), (self.boundary, "boundary")):
            if part.size and (not np.isfinite(part).all() or part.min() <= 0):
                raise NonPositiveDesirability(f"{name} desirability must be positive")

    def full(self) -> np.ndarray:
        return np.concatenate([self.interior, self.boundary])


# ---------------------------------------------------------------------------
# solvers


def _factorize(A: sp.csc_matrix, error: type):
    """Return ``solve(rhs)`` for square A and a vector or matrix rhs, with A
    factored once by SuperLU, which solves each right-hand-side column on its
    own, so a column's bits do not depend on the others.  An exactly
    singular A raises ``error``."""
    try:
        return spla.splu(A).solve
    except RuntimeError as exc:
        raise error(str(exc)) from exc


def block_width(lmdp: Lmdp) -> int:
    """Columns in one solve_interior or z_iterate block of SOLVE_BYTES."""
    return max(1, SOLVE_BYTES // (8 * lmdp.n_states))


def _boundary_values(lmdp: Lmdp, q_boundary) -> np.ndarray:
    """``q_boundary`` as float64, checked to be finite and (n_boundary,) or
    (n_boundary, k)."""
    q_boundary = np.asarray(q_boundary, dtype=np.float64)
    if q_boundary.ndim not in (1, 2) or q_boundary.shape[0] != lmdp.n_boundary:
        raise DimensionMismatch(
            f"boundary values shape {q_boundary.shape}, expected "
            f"({lmdp.n_boundary},) or ({lmdp.n_boundary}, n_tasks)"
        )
    if not np.isfinite(q_boundary).all():
        raise InvalidSpec("boundary values must be finite")
    return q_boundary


def solve_interior(lmdp: Lmdp, q_boundary: Optional[np.ndarray] = None) -> np.ndarray:
    """Solve the linear Bellman system for arbitrary boundary values.

    ``q_boundary`` is one boundary vector (n_boundary,) or a matrix
    (n_boundary, k) of task columns; the result is the interior z with the
    same trailing shape.  With none, it is the boundary solves U = A^-1 B,
    (n_interior, n_boundary), solved against B's own columns (B @ I bit for
    bit, with no I made), so boundary values z_b have interior U z_b.  The
    operator cached on ``lmdp`` (bellman_operator) is factorized once per
    call and every column is solved against that one factorization,
    block_width(lmdp) columns at a time.

    Returns raw interior z without positivity checks, which lets callers pass
    boundary values with exact zeros (indicator tasks, terminated subtasks);
    non-finite boundary values raise InvalidSpec.  Each column's residual is
    verified against 1e-10 * (1 + max|z|), with one step of iterative
    refinement on the failing columns before declaring the system singular;
    the error names the failing column indices.
    """
    A, B = lmdp.bellman_operator
    if q_boundary is not None:
        q_boundary = _boundary_values(lmdp, q_boundary)
        Q = q_boundary.reshape(lmdp.n_boundary, -1)
    k = lmdp.n_boundary if q_boundary is None else Q.shape[1]
    solve = _factorize(A, SingularSystem)
    Z, width = np.empty((lmdp.n_interior, k)), block_width(lmdp)
    for lo in range(0, k, width):
        b = B[:, lo:lo + width].toarray() if q_boundary is None else B @ Q[:, lo:lo + width]
        z = solve(b)
        bad = np.flatnonzero(~np.isfinite(z).all(axis=0))
        if bad.size:
            raise SingularSystem(
                f"solver returned non-finite values in columns {(bad + lo).tolist()}")
        bound = DEFAULT_TOL * (1.0 + np.abs(z).max(axis=0, initial=0.0))
        bad = np.flatnonzero(_column_residuals(A, z, b) > bound)
        if bad.size:
            # one refinement pass on the failing columns, then give up
            z[:, bad] += solve(b[:, bad] - A @ z[:, bad])
            residual = _column_residuals(A, z[:, bad], b[:, bad])
            failed = ~(residual <= bound[bad])  # a NaN residual fails too
            if failed.any():
                first = int(np.argmax(failed))
                raise SingularSystem(
                    f"residual {residual[first]:.3e} exceeds bound "
                    f"{bound[bad[first]]:.3e} in columns {(bad[failed] + lo).tolist()}")
        Z[:, lo:lo + width] = z
    return Z if q_boundary is None else Z.reshape((lmdp.n_interior,) + q_boundary.shape[1:])


def _column_residuals(A: sp.csc_matrix, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |A z - b| per column, computed in one block-sized temporary."""
    r = A @ z
    r -= b
    return np.abs(r, out=r).max(axis=0, initial=0.0)


def solve_direct(lmdp: Lmdp) -> Desirability:
    """Solve the first-exit problem by one sparse LU factorization.

    Returns
    -------
    Desirability
        z over interior and boundary states; boundary z equals the
        exponentiated boundary reward.
    """
    q_b = lmdp.q_boundary
    z_i = solve_interior(lmdp, q_b)
    return Desirability(z_i, q_b)


def z_iterate(lmdp: Lmdp, q_boundary: np.ndarray, z0: Optional[np.ndarray] = None,
              tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Run the desirability fixed-point iteration on raw arrays.

    ``q_boundary`` is one boundary vector (n_boundary,) or a matrix
    (n_boundary, k) of task columns, and ``z0`` (default zero) has the shape
    of the result, (n_interior,) or (n_interior, k).  Iterating from zero the
    iterates grow monotonically toward the solution.  Each column stops at
    the first sweep whose infinity-norm change in that column drops to tol,
    or at max_iter.  Columns are iterated block_width(lmdp) at a time with
    one sparse product per sweep; every column gets the same arithmetic, bit
    for bit, as iterating it alone, so the width changes no result.  A sweep
    reads only each column's probe row (its last argmax) while |change|
    there, a lower bound on the column's max, exceeds tol; a probe change at
    or below tol, or NaN, takes the full change and max.

    Returns (z, iterations, converged): the iterates, the total number of
    column-sweeps (the sum of the per-column counts; for a vector, the sweeps
    applied), and whether every column converged.  Non-finite inputs, a tol
    that is negative or NaN (no column could ever meet it) and a max_iter
    that is not an integer of at least 1 raise InvalidSpec.  A diverging
    iterate raises SingularSystem naming its columns, from a finiteness test
    of the block every 8th sweep and of the columns a spent budget freezes:
    within 8 sweeps of the overflow, and never returned non-finite.
    """
    if not tol >= 0:
        raise InvalidSpec(f"tol must be nonnegative, got {tol}")
    check_count("max_iter", max_iter)
    q_boundary = _boundary_values(lmdp, q_boundary)
    shape = (lmdp.n_interior,) + q_boundary.shape[1:]
    if z0 is not None:
        z0 = np.asarray(z0, dtype=np.float64)
        if z0.shape != shape:
            raise DimensionMismatch(f"z0 shape {z0.shape}, expected {shape}")
        if not np.isfinite(z0).all():
            raise InvalidSpec("z0 must be finite")
        z0 = z0.reshape(lmdp.n_interior, -1)
    Q = q_boundary.reshape(lmdp.n_boundary, -1)
    k, width = Q.shape[1], block_width(lmdp)
    q_i, T = lmdp.q_interior[:, None], lmdp.sweep_operator
    Z = None  # allocated only once columns finish at different sweeps
    total, converged = 0, True
    # a diverging iterate overflows to inf and then inf - inf; the finiteness
    # tests below catch it, so numpy's warnings for it would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, k, width):
            cols = np.arange(lo, min(lo + width, k))  # active, global indices
            b = lmdp.passive.to_boundary.T @ Q[:, lo:lo + width]
            b *= q_i
            # a copy of z0's columns, since z is overwritten in place
            z = np.zeros((lmdp.n_interior, cols.size)) if z0 is None else z0[:, cols]
            sweeps, probe = 0, np.zeros(cols.size, dtype=np.intp)
            at = np.arange(cols.size)  # column j is probed at (probe[j], j)
            while cols.size:
                if sweeps >= max_iter:  # budget spent: freeze the rest unconverged
                    _check_finite(z, cols)
                    done = np.ones(cols.size, dtype=bool)
                    converged = False
                else:
                    z_new = T @ z
                    z_new += b
                    sweeps += 1
                    if sweeps % 8 == 0:
                        _check_finite(z_new, cols)
                    # a NaN probe change (inf - inf) fails this and takes the full path
                    if (np.abs(z[probe, at] - z_new[probe, at]) > tol).all():
                        z = z_new
                        continue
                    z -= z_new  # the old iterate becomes the change
                    change = np.abs(z, out=z).max(axis=0)
                    probe = (z == change).argmax(axis=0)  # rows of the maxima
                    z = z_new
                    done = change <= tol  # never for a NaN or inf change
                    if not done.any():
                        continue
                total += sweeps * int(np.count_nonzero(done))
                if Z is None:
                    if done.all() and cols.size == k:
                        return z.reshape(shape), total, converged
                    Z = np.empty((lmdp.n_interior, k))
                Z[:, cols[done]] = z[:, done]
                keep = ~done
                cols, z, b, probe = cols[keep], z[:, keep], b[:, keep], probe[keep]
                at = np.arange(cols.size)
    if Z is None:  # no columns at all
        Z = np.empty((lmdp.n_interior, k))
    return Z.reshape(shape), total, converged


def _check_finite(z: np.ndarray, cols: np.ndarray) -> None:
    """Raise SingularSystem naming the columns of z that are not all finite."""
    finite = np.isfinite(z)
    if not finite.all():
        bad = ~finite.all(axis=0)
        raise SingularSystem(
            f"z-iteration produced non-finite values in columns {cols[bad].tolist()}")


# ---------------------------------------------------------------------------
# policies


def policy_column(lmdp: Lmdp, z_full: np.ndarray, state: int):
    """Optimal policy at one source state: (row_indices, probabilities).

    Tilts the passive column by next-state desirability and renormalizes,
    a(s'|s) = P(s'|s) z(s') / sum_t P(t|s) z(t), so the support is contained
    in the passive column's support.  ``z_full`` covers every state, interior
    first.  Computing one column per draw keeps rollout loops from
    materializing the whole policy after every blend update.
    """
    P = lmdp.passive.full_matrix
    if len(z_full) != P.shape[0]:
        raise DimensionMismatch(
            f"desirability covers {len(z_full)} states, LMDP has {P.shape[0]}")
    if not (is_integer(state) and 0 <= state < P.shape[1]):
        raise InvalidSpec(f"policy column {state} is not an interior state "
                          f"(0..{P.shape[1] - 1})")
    lo, hi = P.indptr[state], P.indptr[state + 1]
    rows = P.indices[lo:hi]
    vals = P.data[lo:hi] * z_full[rows]
    total = vals.sum()
    if not 0.0 < total < math.inf:
        raise ZeroNormalizer(f"policy column {state} has desirability mass {total}")
    return rows, vals / total


def masked_redraw_column(rows: np.ndarray, probs: np.ndarray, lo: int, hi: int):
    """Drop subtask rows [lo, hi) and renormalize; used after an access."""
    keep = (rows < lo) | (rows >= hi)
    rows, probs = rows[keep], probs[keep]
    mass = probs.sum()
    if not mass > 0:
        raise ZeroNormalizer("no probability mass outside subtask states")
    return rows, probs / mass


def narrow_draw(narrow: tuple, z: list, state: int, rng: np.random.Generator) -> int:
    """``draw_from(*policy_column(lmdp, z, state), rng)`` at a ``narrow_columns``
    entry for ``z`` a list, with no array and no Python-level loop: the same
    floats, policy_column's ZeroNormalizer check (past it the sum ends near 1,
    so draw_from's cannot fail) and the same last-row clamp."""
    row_list, p_list = narrow
    vals = list(map(mul, p_list, map(z.__getitem__, row_list)))
    total = reduce(add, vals, 0.0)
    if not 0.0 < total < math.inf:
        raise ZeroNormalizer(f"policy column {state} has desirability mass {total}")
    cum = list(accumulate(map(truediv, vals, repeat(total))))
    k = bisect_right(cum, rng.random() * cum[-1])
    return row_list[min(k, len(row_list) - 1)]


def value_from_desirability(z: Desirability, temperature: float) -> np.ndarray:
    """V = lambda log z over all states, interior first."""
    full = z.full()
    if full.size and (not np.isfinite(full).all() or full.min() <= 0):
        raise NonPositiveDesirability("cannot take log of non-positive desirability")
    return temperature * np.log(full)


def running_sum(probs) -> list:
    """Left-to-right running sum of weights (list or array), ``np.cumsum``
    bit for bit; raises ZeroNormalizer unless the total is finite and positive."""
    cum = list(accumulate(np.asarray(probs).tolist()))
    if not (cum and 0.0 < cum[-1] < math.inf):
        raise ZeroNormalizer(f"cannot draw from total mass {cum[-1] if cum else 0.0}")
    return cum


def draw_at(rows: np.ndarray, cum: list, rng: np.random.Generator) -> int:
    """The one draw rule: the first row whose running sum exceeds u, u
    uniform on [0, total), as ``np.searchsorted(side="right")`` finds it."""
    k = bisect_right(cum, rng.random() * cum[-1])
    return int(rows[min(k, len(rows) - 1)])


def draw_from(rows: np.ndarray, probs, rng: np.random.Generator) -> int:
    """Draw one row from weights ``probs``, which need not sum to one."""
    return draw_at(rows, running_sum(probs), rng)


# ---------------------------------------------------------------------------
# returns


def _kl_column(a_rows, a_vals, lmdp: Lmdp, state: int) -> float:
    """KL(a || p) against the passive column p at ``state``, over the support
    of a, which as p's policy_column tilt or its masked redraw lies in p's."""
    P = lmdp.passive.full_matrix
    lo, hi = P.indptr[state], P.indptr[state + 1]
    p_map = dict(zip(P.indices[lo:hi].tolist(), P.data[lo:hi].tolist()))
    kl = 0.0
    for r, av in zip(a_rows.tolist(), a_vals.tolist()):
        if av <= 0.0:
            continue
        kl += av * math.log(av / p_map[r])
    return kl
