"""Multitask LMDPs: a basis of boundary-reward tasks and fast re-blending.

A task basis pairs columns of boundary rewards (exponentiated, Q_b) with the
base's sparse factor, made on first use.  Because the first-exit problem is
linear in the boundary values, any new boundary reward expressible as a
nonnegative combination w of basis columns is solved by one solve against
that factor: its interior desirability is A^-1 B (Q_b w).

Blends fit nonnegative weights by NNLS.  A block of the form Q = a I + c 11^T
(a > 0, c >= 0), the form of every block a stack blends, has its NNLS optimum
in closed form (blend_block); any other block goes to NNLS as usual.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize

# solve_interior is not called here; perfbench/spans.py patches it by name
from .core import Desirability, Lmdp, factor_bellman, solve_interior
from .errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidSpec,
    NonPositiveComposite,
)


@dataclass(frozen=True)
class TaskBasis:
    """Library of boundary tasks over one shared LMDP.

    Attributes
    ----------
    base : Lmdp
        The shared dynamics and interior rewards; its own boundary reward is
        a placeholder, tasks supply theirs via Q_b columns.
    boundary_tasks : (n_boundary, n_tasks) array
        Exponentiated boundary rewards, one task per column (Q_b).
    solve : callable
        ``factor_bellman(base)``, the base's factor, made on first read.
    """

    base: Lmdp
    boundary_tasks: np.ndarray

    solve = cached_property(lambda self: factor_bellman(self.base))

    @property
    def n_tasks(self) -> int:
        return self.boundary_tasks.shape[1]


@dataclass(frozen=True)
class TaskWeights:
    values: np.ndarray  # a read-only view, so logs and memos share it
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values).view())
        self.values.flags.writeable = False


def build_task_basis(base: Lmdp, boundary_tasks: np.ndarray) -> TaskBasis:
    """A basis of task columns of exponentiated boundary rewards, unfactored.

    Columns must be strictly positive (they are exp(r_b / lambda) for finite
    rewards).  Nothing is factored until the first compose reads ``solve``,
    where an exactly singular base raises SingularSystem.
    """
    Q = np.asarray(boundary_tasks, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != base.n_boundary:
        raise DimensionMismatch(
            f"task matrix shape {Q.shape}, expected ({base.n_boundary}, n_tasks)"
        )
    if Q.shape[1] < 1:
        raise InvalidSpec("task basis needs at least one task")
    if not np.isfinite(Q).all() or Q.min() <= 0:
        raise InvalidSpec("task columns must be strictly positive and finite")
    return TaskBasis(base, Q)


def blend_weights_matrix(task_matrix: np.ndarray, target: np.ndarray,
                         method: str = "nnls") -> TaskWeights:
    """Fit nonnegative task weights to a target exponentiated reward.

    Solves min ||target - Q w|| subject to w >= 0 by scipy's active-set NNLS.
    A non-finite task matrix or target, or a method other than "nnls",
    raises InvalidSpec.
    """
    if method != "nnls":  # kept for perfbench/workloads.py and criterion 4, which pass it
        raise InvalidSpec(f"unknown blend method {method!r}; the only one is 'nnls'")
    Q = np.asarray(task_matrix, dtype=np.float64)
    q = np.asarray(target, dtype=np.float64)
    if Q.ndim != 2 or q.shape != (Q.shape[0],):
        raise DimensionMismatch(f"target shape {q.shape} vs task matrix {Q.shape}")
    if not np.isfinite(q).all():
        raise InvalidSpec("blend target must be finite")
    col_mass = np.abs(Q).sum(axis=0)
    if not np.isfinite(col_mass).all():
        raise InvalidSpec("task matrix must be finite")
    if (col_mass == 0).any():
        raise DegenerateBasis(f"task column {int(np.argmin(col_mass))} is all zero")
    w, residual = scipy.optimize.nnls(Q, q)
    return TaskWeights(np.asarray(w, dtype=np.float64), float(residual))


def block_form(task_matrix: np.ndarray):
    """(a, c) when ``task_matrix`` is square and exactly a I + c 11^T with
    a > 0 and c >= 0, read from its entries, else None."""
    Q = np.asarray(task_matrix, dtype=np.float64)
    n = Q.shape[0] if Q.ndim == 2 else -1
    if n < 1 or Q.shape != (n, n):
        return None
    off = Q.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]  # the off-diagonal entries
    d, c = Q[0, 0], (off[0, 0] if n > 1 else 0.0)
    a = d - c
    ok = 0 < a < np.inf and c >= 0 and (Q.diagonal() == d).all() and (off == c).all()
    return (a, c) if ok else None


def blend_block(task_matrix: np.ndarray, target: np.ndarray, form=None) -> TaskWeights:
    """The NNLS blend of a stack block, in closed form when the block is
    exactly a I + c 11^T with a > 0 and c >= 0, else blend_weights_matrix's.

    ``form`` is block_form(Q), read from the entries when None.  The optimum is
    unique (Q^2 is positive definite), and by the KKT conditions of NNLS
    (Lawson and Hanson, 1974) its weights are w_i = max(0, (g_i - beta S)/a^2)
    with g = Q q, beta = (2a + nc) c and S = sum(w), so its support is the
    k largest targets, k read off sorted g.  On that support the residual is
    one constant, which gives w from q and S alone, without g's cond(Q)^2
    loss of accuracy.
    """
    Q = np.asarray(task_matrix, dtype=np.float64)
    q = np.asarray(target, dtype=np.float64)
    if form is None:
        form = block_form(Q)
    if form is None or q.shape != (Q.shape[0],) or not np.isfinite(q).all():
        return blend_weights_matrix(Q, q)
    (a, c), n = form, Q.shape[0]
    s = q.sum()
    w = q / a - c / a * (s / (a + n * c))  # every weight active: w = Q^-1 q
    if w.min() < 0:
        order = np.argsort(-q, kind="stable")
        g = a * q[order] + c * s
        beta = (2 * a + n * c) * c
        k = np.count_nonzero(g > beta * np.cumsum(g) / (a * a + np.arange(1, n + 1) * beta))
        top, w = order[:k], np.zeros(n)
        if k:  # the residual is (head S - q_top) / k on the support; S = sum(w)
            head, q_top = a + k * c, q[top].sum()
            S = (head * q_top / k + c * (s - q_top)) / (head * head / k + (n - k) * c * c)
            w[top] = np.maximum((q[top] - q_top / k) / a + S / k, 0.0)
    return TaskWeights(w, float(np.linalg.norm(a * w + c * w.sum() - q)))


def compose_desirability(basis: TaskBasis, weights: TaskWeights) -> Desirability:
    """Compose the blend w: z_b = Q_b w on the boundary, A^-1 B z_b interior.

    Raises NonPositiveComposite when the combination has no mass somewhere,
    e.g. for all-zero weights, and InvalidSpec for non-finite weights.
    """
    w = np.asarray(weights.values, dtype=np.float64)
    if w.shape != (basis.n_tasks,):
        raise DimensionMismatch(f"{w.shape[0]} weights for {basis.n_tasks} tasks")
    z_b = basis.boundary_tasks @ w
    z_i = basis.solve(z_b)
    low = min(z_i.min(initial=np.inf), z_b.min(initial=np.inf))
    if not np.isfinite(low) or low <= 0:
        raise NonPositiveComposite(f"composite desirability min = {low:.3g}")
    return Desirability(z_i, z_b)


def solve_novel_task(basis: TaskBasis, target: np.ndarray, method: str = "nnls"):
    """Blend then compose; returns (Desirability, TaskWeights)."""
    weights = blend_weights_matrix(basis.boundary_tasks, target, method=method)
    return compose_desirability(basis, weights), weights
