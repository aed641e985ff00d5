"""Task bases, nonnegative blending, and composite solutions."""
import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmdp import (
    TaskWeights,
    blend_weights_matrix,
    boundary_goal_tasks,
    build_stack,
    build_task_basis,
    compose_desirability,
    default_subtask_rewards,
    factor_block,
    four_rooms_map,
    grid_from_ascii,
    make_grid,
    solve_direct,
    solve_interior,
    solve_novel_task,
)
from lsmdp import multitask
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
            basis.solves @ basis.boundary_tasks[:, t],
            solve_interior(chain5, basis.boundary_tasks[:, t]),
            rtol=0, atol=1e-14)


def test_basis_rejects_nonpositive_columns(chain5):
    with pytest.raises(InvalidSpec):
        build_task_basis(chain5, np.array([[1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        build_task_basis(chain5, np.ones((3, 2)))
    with pytest.raises(InvalidSpec, match="at least one task"):
        build_task_basis(chain5, np.ones((2, 0)))


def test_single_task_basis_matches_direct_solve(chain5):
    basis = build_task_basis(chain5, chain5.q_boundary[:, None])
    np.testing.assert_allclose(basis.solves @ basis.boundary_tasks[:, 0],
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



@pytest.mark.parametrize("method", ["nnls", "pinv", "factored"])
def test_blend_weights_are_read_only(basis, method):
    # logs and memos keep references to weights, never copies
    Q, q = basis.boundary_tasks, basis.boundary_tasks[:, 0]
    weights = (blend_weights_matrix(factor_block(Q), q) if method == "factored"
               else blend_weights_matrix(Q, q, method=method))
    with pytest.raises(ValueError):
        weights.values[0] = 1.0
    mine = np.array([1.0, 2.0])
    TaskWeights(mine, 0.0)
    mine[0] = 3.0  # a caller's own array stays writable

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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tasks=st.integers(1, 5))
def test_composition_is_linear_in_the_weights(seed, n_tasks):
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng)
    Q = np.exp(rng.uniform(-3.0, 0.5, (lmdp.n_boundary, n_tasks)))
    basis = build_task_basis(lmdp, Q)
    a, b = rng.uniform(0.01, 2.0, (2, n_tasks))
    za, zb, zab = (compose_desirability(basis, TaskWeights(w, 0.0))
                   for w in (a, b, a + b))
    np.testing.assert_allclose(zab.interior, za.interior + zb.interior,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(zab.boundary, za.boundary + zb.boundary,
                               rtol=1e-12, atol=0)
    expected = oracles.first_exit_desirability(
        lmdp.passive.full_matrix, lmdp.n_interior, lmdp.rewards.interior,
        lmdp.rewards.temperature, Q @ (a + b))
    np.testing.assert_allclose(zab.interior, expected, rtol=1e-9, atol=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tasks=st.integers(1, 6))
def test_a_basis_composes_from_its_boundary_solves(seed, n_tasks):
    # one form of the solved basis, U = A^-1 B, for any task count up to
    # n_boundary + 2, shared bit for bit with a depth-1 stack's layer
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng)
    n_tasks = min(n_tasks, lmdp.n_boundary + 2)
    Q = np.exp(rng.uniform(-3.0, 0.5, (lmdp.n_boundary, n_tasks)))
    w = rng.uniform(0.01, 2.0, n_tasks)
    basis = build_task_basis(lmdp, Q)
    z = compose_desirability(basis, TaskWeights(w, 0.0))
    expected = oracles.first_exit_desirability(
        lmdp.passive.full_matrix, lmdp.n_interior, lmdp.rewards.interior,
        lmdp.rewards.temperature, Q @ w)
    np.testing.assert_allclose(z.interior, expected, rtol=1e-9, atol=0)
    assert basis.solves.shape == (lmdp.n_interior, lmdp.n_boundary)
    stack = build_stack(build_task_basis(lmdp, Q), [])
    np.testing.assert_array_equal(stack.layers[0].solves, basis.solves)


# ---------------------------------------------------------------------------
# factored blends


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       off=st.floats(0.0, 2.0))
def test_factored_blend_is_the_nnls_optimum(n, seed, off):
    # diagonal-heavy blocks (small off) have nonnegative exact solutions;
    # dense ones often do not, and then the blend must be scipy's NNLS
    rng = np.random.default_rng(seed)
    Q = off * rng.uniform(0.01, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 1.5, n))
    q = rng.uniform(0.01, 1.0, n)
    got = blend_weights_matrix(factor_block(Q), q)
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    assert (got.values >= 0).all()
    assert got.residual <= r_nnls + 1e-12 * (1 + np.abs(q).max())
    exact = np.linalg.solve(Q, q)
    if exact.min() < -1e-9 * np.abs(exact).max():
        np.testing.assert_array_equal(got.values, w_nnls)
        assert got.residual == r_nnls


def test_a_negative_exact_solution_falls_back_to_nnls():
    Q = default_subtask_rewards(9, -0.1, 1.0)
    q = np.exp(np.linspace(0.0, -2.0, 9))
    assert np.linalg.solve(Q, q).min() < -1.0
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    got = blend_weights_matrix(factor_block(Q), q)
    np.testing.assert_array_equal(got.values, w_nnls)
    assert got.residual == r_nnls


def test_a_certified_exact_blend_skips_nnls(monkeypatch):
    Q = default_subtask_rewards(9, -5.0, 1.0)
    q = np.exp(np.linspace(0.0, -2.0, 9))
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    calls = []
    monkeypatch.setattr(scipy.optimize, "nnls",
                        lambda *args: calls.append(args) or w_nnls)
    got = blend_weights_matrix(factor_block(Q), q)
    assert calls == []
    np.testing.assert_allclose(got.values, w_nnls, rtol=0,
                               atol=1e-14 * np.abs(w_nnls).max())
    assert got.residual <= r_nnls + 1e-12
    assert got.residual == np.linalg.norm(q - Q @ got.values)


@pytest.mark.parametrize("spoil", [lambda w: 1.001 * w, lambda w: w + np.inf],
                         ids=["inaccurate", "non-finite"])
def test_an_uncertified_exact_solution_falls_back_to_nnls(monkeypatch, spoil):
    # a nonnegative solve that misses the residual bound, or overflows, must
    # not be taken as the NNLS optimum
    Q = default_subtask_rewards(9, -5.0, 1.0)
    q = np.exp(np.linspace(0.0, -2.0, 9))
    block = factor_block(Q)
    real = multitask.lapack.dgetrs
    monkeypatch.setattr(multitask.lapack, "dgetrs",
                        lambda lu, piv, b: (spoil(real(lu, piv, b)[0]), 0))
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    got = blend_weights_matrix(block, q)
    np.testing.assert_array_equal(got.values, w_nnls)
    assert got.residual == r_nnls


@pytest.mark.parametrize("Q", [np.ones((3, 3)), np.array([[1.0, 0.5],
                                                          [0.5, 1.0],
                                                          [0.2, 0.1]])],
                         ids=["singular", "non-square"])
def test_an_unfactorable_block_blends_by_nnls_silently(capfd, Q):
    block = factor_block(Q)
    assert block.lu is None
    q = np.linspace(1.0, 2.0, Q.shape[0])
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    got = blend_weights_matrix(block, q)
    np.testing.assert_array_equal(got.values, w_nnls)
    assert got.residual == r_nnls
    assert capfd.readouterr() == ("", "")


def test_factored_blend_rejects_bad_targets():
    block = factor_block(default_subtask_rewards(4, -5.0, 1.0))
    for bad in (np.inf, np.nan):
        target = np.ones(4)
        target[2] = bad
        with pytest.raises(InvalidSpec):
            blend_weights_matrix(block, target)
    with pytest.raises(DimensionMismatch):
        blend_weights_matrix(block, np.ones(3))


def test_factor_block_rejects_malformed_blocks():
    with pytest.raises(DimensionMismatch):
        factor_block(np.ones(3))
    with pytest.raises(InvalidSpec):
        factor_block(np.array([[1.0, np.nan], [0.5, 1.0]]))
    with pytest.raises(DegenerateBasis):
        factor_block(np.array([[1.0, 0.0], [1.0, 0.0]]))


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
