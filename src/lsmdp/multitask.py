"""Multitask LMDPs: a basis of boundary-reward tasks and fast re-blending.

A task basis pairs each column of boundary rewards (exponentiated, Q_b) with
its solved interior desirability (Z_i).  Because the first-exit problem is
linear in the boundary values, any new boundary reward expressible as a
nonnegative combination of basis columns is solved instantly by taking the
same combination of the cached desirabilities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .core import Desirability, Lmdp, solve_interior
from .errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidSpec,
    NonPositiveComposite,
)

BLEND_METHODS = ("nnls", "pinv")


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
    desirabilities : (n_interior, n_tasks) array
        Interior desirability solved per task column (Z_i).
    """

    base: Lmdp
    boundary_tasks: np.ndarray
    desirabilities: np.ndarray

    @property
    def n_tasks(self) -> int:
        return self.boundary_tasks.shape[1]


@dataclass(frozen=True)
class TaskWeights:
    values: np.ndarray
    residual: float


def build_task_basis(base: Lmdp, boundary_tasks: np.ndarray) -> TaskBasis:
    """Solve every task column of exponentiated boundary rewards.

    Columns must be strictly positive (they are exp(r_b / lambda) for finite
    rewards).  All tasks share one factorization of the base's Bellman
    operator; a SingularSystem names the offending task columns.
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
    return TaskBasis(base, Q, solve_interior(base, Q))


def blend_weights_matrix(task_matrix: np.ndarray, target: np.ndarray,
                         method: str = "nnls") -> TaskWeights:
    """Fit nonnegative task weights to a target exponentiated reward.

    nnls solves min ||target - Q w|| subject to w >= 0 (active-set method);
    pinv takes the pseudoinverse solution and clips negatives to zero, which
    is cheaper but only approximate when the sign constraint binds.  A
    non-finite task matrix or target raises InvalidSpec.
    """
    Q = np.asarray(task_matrix, dtype=np.float64)
    q = np.asarray(target, dtype=np.float64)
    if Q.ndim != 2 or q.shape != (Q.shape[0],):
        raise DimensionMismatch(f"target shape {q.shape} vs task matrix {Q.shape}")
    col_mass = np.abs(Q).sum(axis=0)
    if not (np.isfinite(col_mass).all() and np.isfinite(q).all()):
        raise InvalidSpec("task matrix and target must be finite")
    if (col_mass == 0).any():
        raise DegenerateBasis(f"task column {int(np.argmin(col_mass))} is all zero")
    if method == "nnls":
        w, residual = scipy.optimize.nnls(Q, q)
    elif method == "pinv":
        w = np.clip(np.linalg.pinv(Q) @ q, 0.0, None)
        residual = float(np.linalg.norm(q - Q @ w))
    else:
        raise InvalidSpec(f"unknown blend method {method!r}; choose from {BLEND_METHODS}")
    return TaskWeights(np.asarray(w, dtype=np.float64), float(residual))


def compose_desirability(basis: TaskBasis, weights: TaskWeights) -> Desirability:
    """Combine cached solutions: z = Z_i w interior, Q_b w boundary.

    Raises NonPositiveComposite when the combination has no mass somewhere,
    e.g. for an all-zero weight vector.
    """
    w = np.asarray(weights.values, dtype=np.float64)
    if w.shape != (basis.n_tasks,):
        raise DimensionMismatch(f"{w.shape[0]} weights for {basis.n_tasks} tasks")
    z_i = basis.desirabilities @ w
    z_b = basis.boundary_tasks @ w
    low = min(z_i.min(initial=np.inf), z_b.min(initial=np.inf))
    if not np.isfinite(low) or low <= 0:
        raise NonPositiveComposite(f"composite desirability min = {low:.3g}")
    return Desirability(z_i, z_b)


def solve_novel_task(basis: TaskBasis, target: np.ndarray,
                     method: str = "nnls"):
    """Blend then compose; returns (Desirability, TaskWeights)."""
    weights = blend_weights_matrix(basis.boundary_tasks, target, method=method)
    return compose_desirability(basis, weights), weights
