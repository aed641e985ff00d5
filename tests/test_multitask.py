"""Task bases, nonnegative blending, and composite solutions."""
import dataclasses

import numpy as np
import pytest

from lsmdp import (
    TaskWeights,
    blend_weights_matrix,
    boundary_goal_tasks,
    build_task_basis,
    compose_desirability,
    four_rooms_map,
    grid_from_ascii,
    make_grid,
    solve_direct,
    solve_interior,
    solve_novel_task,
)
from lsmdp.errors import (
    DegenerateBasis,
    DimensionMismatch,
    InvalidSpec,
    NonPositiveComposite,
)

from conftest import random_boundary_q, random_lmdp
import oracles


@pytest.fixture
def basis(chain5):
    tasks = np.array([[1.0, np.exp(-5.0), 0.3],
                      [np.exp(-5.0), 1.0, 0.6]])
    return build_task_basis(chain5, tasks)


def test_basis_columns_are_per_task_solutions(basis, chain5):
    for t in range(basis.n_tasks):
        np.testing.assert_allclose(
            basis.desirabilities[:, t],
            solve_interior(chain5, basis.boundary_tasks[:, t]),
            rtol=0, atol=1e-14)


def test_basis_rejects_nonpositive_columns(chain5):
    with pytest.raises(InvalidSpec):
        build_task_basis(chain5, np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        build_task_basis(chain5, np.ones((3, 2)))


def test_single_task_basis_matches_direct_solve(chain5):
    basis = build_task_basis(chain5, chain5.q_boundary[:, None])
    np.testing.assert_allclose(basis.desirabilities[:, 0],
                               solve_direct(chain5).interior, rtol=1e-14)


def test_member_task_blend_has_zero_residual(basis):
    target = basis.boundary_tasks[:, 1]
    weights = blend_weights_matrix(basis.boundary_tasks, target)
    assert weights.residual <= 1e-12
    composite = compose_desirability(basis, weights)
    np.testing.assert_allclose(composite.boundary, target, rtol=0, atol=1e-12)


def test_convex_blend_recovers_mixture(basis, chain5):
    target = 0.5 * basis.boundary_tasks[:, 0] + 0.5 * basis.boundary_tasks[:, 1]
    z, weights = solve_novel_task(basis, target)
    assert weights.residual <= 1e-12
    np.testing.assert_allclose(z.interior, solve_interior(chain5, target),
                               rtol=0, atol=1e-12)


def test_exact_span_blends_match_direct_solves():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lmdp = random_lmdp(rng)
        n_t = int(rng.integers(1, 5))
        Q = np.exp(rng.uniform(-3.0, 0.5, (lmdp.n_boundary, n_t)))
        basis = build_task_basis(lmdp, Q)
        w_true = rng.uniform(0.0, 2.0, n_t)
        w_true[int(rng.integers(n_t))] += 0.1  # keep the mixture positive
        target = Q @ w_true
        z, weights = solve_novel_task(basis, target)
        scale = np.abs(z.interior).max()
        np.testing.assert_allclose(z.interior, solve_interior(lmdp, target),
                                   rtol=0, atol=1e-9 * (1 + scale))


def test_nnls_matches_support_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n_b = int(rng.integers(2, 9))
        n_t = int(rng.integers(1, 6))
        Q = np.abs(rng.normal(size=(n_b, n_t))) + 0.01
        q = np.abs(rng.normal(size=n_b))
        weights = blend_weights_matrix(Q, q, method="nnls")
        assert (weights.values >= 0).all()
        best = oracles.best_nonnegative_residual(Q, q)
        assert weights.residual <= best + 1e-9


def test_nnls_never_worse_than_pinv_clip():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n_b = int(rng.integers(2, 9))
        n_t = int(rng.integers(1, 6))
        Q = np.abs(rng.normal(size=(n_b, n_t))) + 0.01
        q = np.abs(rng.normal(size=n_b))
        r_nnls = blend_weights_matrix(Q, q, method="nnls").residual
        r_pinv = blend_weights_matrix(Q, q, method="pinv").residual
        assert r_nnls <= r_pinv + 1e-12


def test_pinv_weights_are_clipped_nonnegative():
    Q = np.array([[1.0, 0.9], [0.1, 1.0]])
    q = np.array([1.0, 0.0])  # unconstrained fit goes negative on task 1
    weights = blend_weights_matrix(Q, q, method="pinv")
    assert (weights.values >= 0).all()


def test_unknown_blend_method_rejected(basis):
    with pytest.raises(InvalidSpec):
        blend_weights_matrix(basis.boundary_tasks, basis.boundary_tasks[:, 0],
                             method="qr")


def test_zero_task_column_rejected():
    with pytest.raises(DegenerateBasis):
        blend_weights_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]),
                             np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_blend_inputs_rejected(basis, bad):
    Q = basis.boundary_tasks
    target = Q[:, 0].copy()
    target[1] = bad
    with pytest.raises(InvalidSpec):
        blend_weights_matrix(Q, target)
    with pytest.raises(InvalidSpec):
        solve_novel_task(basis, target)
    broken = Q.copy()
    broken[0, 2] = bad
    with pytest.raises(InvalidSpec):
        blend_weights_matrix(broken, Q[:, 0])


def test_zero_weights_cannot_compose(basis):
    with pytest.raises(NonPositiveComposite):
        compose_desirability(basis, TaskWeights(np.zeros(basis.n_tasks), 0.0))


def test_weight_count_must_match_basis(basis):
    with pytest.raises(DimensionMismatch):
        compose_desirability(basis, TaskWeights(np.ones(basis.n_tasks + 1), 0.0))


def test_composite_is_linear_in_weights(basis):
    w1 = TaskWeights(np.array([1.0, 0.0, 0.0]), 0.0)
    w2 = TaskWeights(np.array([0.0, 2.0, 0.5]), 0.0)
    w_sum = TaskWeights(w1.values + w2.values, 0.0)
    z1 = compose_desirability(basis, w1).full()
    z2 = compose_desirability(basis, w2).full()
    z_sum = compose_desirability(basis, w_sum).full()
    np.testing.assert_allclose(z_sum, z1 + z2, rtol=0, atol=1e-14)


def transpose_permutations(spec):
    """State permutations induced by reflecting the grid about its diagonal."""
    free = spec.free_cells()
    index = {cell: k for k, cell in enumerate(free)}
    interior = np.array([index[(c, r)] for r, c in free])
    boundary = np.array([list(spec.goal_cells).index((c, r))
                         for r, c in spec.goal_cells])
    return interior, boundary


def test_symmetric_two_goal_composite_is_symmetric():
    # the four-room layout is symmetric about its diagonal and the two goals
    # swap under it, so an even blend of both goal tasks must be too
    spec, _ = grid_from_ascii(four_rooms_map(11), goal_cells=[(0, 10), (10, 0)])
    lmdp, _, _ = make_grid(spec, (), (0, 10))
    basis = build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, spec.temperature))
    z, _ = solve_novel_task(basis, np.ones(2))
    perm_i, perm_b = transpose_permutations(spec)
    scale = np.abs(z.interior).max()
    np.testing.assert_allclose(z.interior[perm_i], z.interior,
                               rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(z.boundary[perm_b], z.boundary, rtol=0, atol=1e-12)
