"""Multitask LMDPs: a basis of boundary-reward tasks and fast re-blending.

A task basis pairs columns of boundary rewards (exponentiated, Q_b) with the
base's boundary solves U = A^-1 B, one solve per boundary state, made on
first use.  Because the first-exit problem is linear in the boundary values,
any new boundary reward expressible as a nonnegative combination w of basis
columns is solved instantly: its interior desirability is U (Q_b w).

Blends fit nonnegative weights by NNLS.  A block LU-factored once by
factor_block is blended by its exact solution w of Q w = q when w is finite,
w >= 0 and max|Q w - q| <= 1e-10 (1 + max|q|), a certificate that w is the
NNLS optimum (it meets the KKT conditions); otherwise NNLS runs as usual.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize
from scipy.linalg import lapack

from .core import DEFAULT_TOL, Desirability, Lmdp, solve_interior
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
    solves : (n_interior, n_boundary) array
        The base's boundary solves U = A^-1 B, solved on first read.
    """

    base: Lmdp
    boundary_tasks: np.ndarray

    solves = cached_property(lambda self: solve_interior(self.base))

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
    """A basis of task columns of exponentiated boundary rewards, unsolved.

    Columns must be strictly positive (they are exp(r_b / lambda) for finite
    rewards).  Nothing is solved until the first compose reads ``solves``;
    a SingularSystem there names the offending boundary columns.
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


@dataclass(frozen=True)
class FactoredBlock:
    """A validated task matrix; ``lu`` is LAPACK getrf's (lu, piv) when it
    is square and nonsingular, else None."""

    matrix: np.ndarray
    lu: tuple | None


def _check_task_matrix(Q: np.ndarray) -> None:
    col_mass = np.abs(Q).sum(axis=0)
    if not np.isfinite(col_mass).all():
        raise InvalidSpec("task matrix must be finite")
    if (col_mass == 0).any():
        raise DegenerateBasis(f"task column {int(np.argmin(col_mass))} is all zero")


def factor_block(task_matrix: np.ndarray) -> FactoredBlock:
    """Validate a 2-D task matrix; LU-factor it if square and nonsingular."""
    Q = np.asarray(task_matrix, dtype=np.float64)
    if Q.ndim != 2:
        raise DimensionMismatch(f"task matrix must be 2-D, got shape {Q.shape}")
    _check_task_matrix(Q)
    if not 0 < Q.shape[0] == Q.shape[1]:
        return FactoredBlock(Q, None)
    lu, piv, info = lapack.dgetrf(Q)  # info > 0: an exactly zero pivot
    return FactoredBlock(Q, None if info else (lu, piv))


def blend_weights_matrix(task_matrix: np.ndarray | FactoredBlock,
                         target: np.ndarray, method: str = "nnls") -> TaskWeights:
    """Fit nonnegative task weights to a target exponentiated reward.

    nnls solves min ||target - Q w|| subject to w >= 0 (active-set method);
    pinv takes the pseudoinverse solution and clips negatives to zero, which
    is cheaper but only approximate when the sign constraint binds.  A
    non-finite task matrix or target raises InvalidSpec.  ``task_matrix`` is
    an array, checked on every call, or a FactoredBlock, checked when factored,
    whose certified exact solution nnls takes first (see the module docstring).
    """
    block = task_matrix if isinstance(task_matrix, FactoredBlock) else None
    Q = np.asarray(task_matrix if block is None else block.matrix, dtype=np.float64)
    q = np.asarray(target, dtype=np.float64)
    if Q.ndim != 2 or q.shape != (Q.shape[0],):
        raise DimensionMismatch(f"target shape {q.shape} vs task matrix {Q.shape}")
    if not np.isfinite(q).all():
        raise InvalidSpec("blend target must be finite")
    if block is None:
        _check_task_matrix(Q)
    if method == "nnls":
        if block is not None and block.lu is not None:
            w, info = lapack.dgetrs(*block.lu, q)
            with np.errstate(over="ignore", invalid="ignore"):
                r = Q @ w - q
            if (not info and np.isfinite(w).all() and w.min() >= 0
                    and np.abs(r).max() <= DEFAULT_TOL * (1.0 + np.abs(q).max())):
                return TaskWeights(w, float(np.linalg.norm(r)))
        w, residual = scipy.optimize.nnls(Q, q)
    elif method == "pinv":
        w = np.clip(np.linalg.pinv(Q) @ q, 0.0, None)
        residual = float(np.linalg.norm(q - Q @ w))
    else:
        raise InvalidSpec(f"unknown blend method {method!r}; choose from {BLEND_METHODS}")
    return TaskWeights(np.asarray(w, dtype=np.float64), float(residual))


def compose_desirability(basis: TaskBasis, weights: TaskWeights) -> Desirability:
    """Compose the blend w: z_b = Q_b w on the boundary, U z_b interior.

    Raises NonPositiveComposite when the combination has no mass somewhere,
    e.g. for an all-zero weight vector.
    """
    w = np.asarray(weights.values, dtype=np.float64)
    if w.shape != (basis.n_tasks,):
        raise DimensionMismatch(f"{w.shape[0]} weights for {basis.n_tasks} tasks")
    z_b = basis.boundary_tasks @ w
    z_i = basis.solves @ z_b
    low = min(z_i.min(initial=np.inf), z_b.min(initial=np.inf))
    if not np.isfinite(low) or low <= 0:
        raise NonPositiveComposite(f"composite desirability min = {low:.3g}")
    return Desirability(z_i, z_b)


def solve_novel_task(basis: TaskBasis, target: np.ndarray,
                     method: str = "nnls"):
    """Blend then compose; returns (Desirability, TaskWeights)."""
    weights = blend_weights_matrix(basis.boundary_tasks, target, method=method)
    return compose_desirability(basis, weights), weights
