"""Task bases, nonnegative blending, and composite solutions."""
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmdp import (
    ArmSpec,
    TaskWeights,
    blend_block,
    blend_weights_matrix,
    boundary_goal_tasks,
    build_stack,
    build_task_basis,
    compose_desirability,
    default_subtask_rewards,
    four_rooms_map,
    grid_from_ascii,
    make_arm,
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

from conftest import random_lmdp
import oracles


@pytest.fixture
def basis(chain5):
    tasks = np.array([[1.0, np.exp(-5.0), 0.3],
                      [np.exp(-5.0), 1.0, 0.6]])
    return build_task_basis(chain5, tasks)


def test_basis_columns_are_per_task_solutions(basis, chain5):
    for t in range(basis.n_tasks):
        np.testing.assert_allclose(
            basis.solve() @ basis.boundary_tasks[:, t],
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
    np.testing.assert_allclose(basis.solve() @ basis.boundary_tasks[:, 0],
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


@pytest.mark.parametrize("method", ["nnls", "closed-form"])
def test_blend_weights_are_read_only(basis, method):
    # logs and memos keep references to weights, never copies
    Q, q = basis.boundary_tasks, basis.boundary_tasks[:, 0]
    weights = (blend_block(default_subtask_rewards(3, -5.0, 1.0), np.ones(3))
               if method == "closed-form" else blend_weights_matrix(Q, q))
    with pytest.raises(ValueError):
        weights.values[0] = 1.0
    mine = np.array([1.0, 2.0])
    TaskWeights(mine, 0.0)
    mine[0] = 3.0  # a caller's own array stays writable


def test_unknown_blend_method_rejected(basis):
    for method in ("qr", "pinv"):  # NNLS is the one fit for an unstructured block
        with pytest.raises(InvalidSpec):
            blend_weights_matrix(basis.boundary_tasks, basis.boundary_tasks[:, 0],
                                 method=method)


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
    assert basis.solve().shape == (lmdp.n_interior, lmdp.n_boundary)
    stack = build_stack(build_task_basis(lmdp, Q), [])
    np.testing.assert_array_equal(stack.layers[0].solves, basis.solve())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_tasks=st.integers(1, 6))
def test_a_compose_is_one_solve_against_the_base_factor(seed, n_tasks):
    # weights on disjoint supports, as NNLS leaves zeros: the compose is
    # linear, matches the oracle, and agrees with U (Q w) from the same factor
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng)
    Q = np.exp(rng.uniform(-3.0, 0.5, (lmdp.n_boundary, n_tasks)))
    w = rng.uniform(0.01, 2.0, n_tasks)
    first = rng.random(n_tasks) < 0.5
    w1, w2 = np.where(first, w, 0.0), np.where(first, 0.0, w)
    basis = build_task_basis(lmdp, Q)
    z1, z2, z = (compose_desirability(basis, TaskWeights(v, 0.0)).interior
                 if v.any() else np.zeros(lmdp.n_interior) for v in (w1, w2, w))
    np.testing.assert_allclose(z, z1 + z2, rtol=1e-12, atol=0)
    expected = oracles.first_exit_desirability(
        lmdp.passive.full_matrix, lmdp.n_interior, lmdp.rewards.interior,
        lmdp.rewards.temperature, Q @ w)
    np.testing.assert_allclose(z, expected, rtol=1e-9, atol=0)
    np.testing.assert_allclose(z, basis.solve() @ (Q @ w), rtol=1e-12, atol=0)


def test_a_basis_never_holds_its_boundary_solves():
    # a dense U = A^-1 B on ArmSpec(20) is 400 x 400 float64, 1.28 MB; the
    # basis and its first compose stay below a quarter of that
    lmdp, arm_basis, _ = make_arm(ArmSpec(20))
    Q, w = arm_basis.boundary_tasks, TaskWeights(np.full(arm_basis.n_tasks, 0.5), 0.0)
    tracemalloc.start()
    try:
        compose_desirability(build_task_basis(lmdp, Q), w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lmdp.n_interior * lmdp.n_boundary * 8 / 4


# ---------------------------------------------------------------------------
# stack-block blends: a I + c 11^T in closed form, anything else by NNLS


def kkt_gap(Q, q, w):
    """Largest KKT violation of w for min ||Q w - q||, w >= 0: the gradient
    must vanish on the support and be nonnegative off it."""
    grad = Q.T @ (Q @ w - q)
    return max(np.abs(grad[w > 0]).max(initial=0.0), (-grad[w == 0]).max(initial=0.0))


_target = st.one_of(st.just(0.0), st.floats(-6.0, 2.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), log_d=st.floats(-2.0, 1.0),
       fill=st.one_of(st.just(0.0), st.floats(0.0, 0.9999, exclude_max=True)),
       data=st.data())
def test_a_structured_blend_meets_the_kkt_conditions(n, log_d, fill, data):
    d = 10.0 ** log_d
    Q = np.full((n, n), fill * d)
    np.fill_diagonal(Q, d)
    q = np.array(data.draw(st.lists(_target, min_size=n, max_size=n)))
    w = blend_block(Q, q).values
    w_nnls, _ = scipy.optimize.nnls(Q, q)
    assert (w >= 0).all()
    assert kkt_gap(Q, q, w) <= 1e-11 * np.abs(Q.T @ q).max(initial=0.0)
    # both objectives by one expression: scipy's own residual norm is off by
    # up to 1.8e-4 relative at tiny residuals (1e-24 read as 1.000178e-24)
    objective, optimum = np.sum((Q @ w - q) ** 2), np.sum((Q @ w_nnls - q) ** 2)
    assert abs(objective - optimum) <= 1e-10 * max(optimum, 1e-20 * (q @ q))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       off=st.floats(0.0, 2.0))
def test_factored_blend_is_the_nnls_optimum(n, seed, off):
    # random diagonal-heavy blocks are not a I + c 11^T (bar n = 1), so the
    # blend is scipy's NNLS itself whenever the sign constraint binds
    rng = np.random.default_rng(seed)
    Q = off * rng.uniform(0.01, 1.0, (n, n)) + np.diag(rng.uniform(0.5, 1.5, n))
    q = rng.uniform(0.01, 1.0, n)
    got = blend_block(Q, q)
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    assert (got.values >= 0).all()
    assert got.residual <= r_nnls + 1e-12 * (1 + np.abs(q).max())
    exact = np.linalg.solve(Q, q)
    if exact.min() < -1e-9 * np.abs(exact).max():
        np.testing.assert_array_equal(got.values, w_nnls)
        assert got.residual == r_nnls


def test_a_negative_exact_solution_gives_the_nnls_optimum(monkeypatch):
    # Q^-1 q has negative entries, so the constraint binds; the closed form
    # picks the support itself and never calls scipy
    Q = default_subtask_rewards(9, -0.1, 1.0)
    q = np.exp(np.linspace(0.0, -2.0, 9))
    assert np.linalg.solve(Q, q).min() < -1.0
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    monkeypatch.setattr(scipy.optimize, "nnls", None)
    got = blend_block(Q, q)
    assert ((got.values == 0) == (w_nnls == 0)).all() and (w_nnls == 0).any()
    np.testing.assert_allclose(got.values, w_nnls, rtol=0,
                               atol=1e-14 * np.abs(w_nnls).max())
    assert got.residual == pytest.approx(r_nnls, rel=1e-12)


def test_a_certified_exact_blend_skips_nnls(monkeypatch):
    # a nonnegative Q^-1 q meets the KKT conditions: it is the optimum
    Q = default_subtask_rewards(9, -5.0, 1.0)
    q = np.exp(np.linspace(0.0, -2.0, 9))
    w_nnls, r_nnls = scipy.optimize.nnls(Q, q)
    calls = []
    monkeypatch.setattr(scipy.optimize, "nnls",
                        lambda *args: calls.append(args) or w_nnls)
    got = blend_block(Q, q)
    assert calls == []
    np.testing.assert_allclose(got.values, w_nnls, rtol=0,
                               atol=1e-14 * np.abs(w_nnls).max())
    assert kkt_gap(Q, q, got.values) <= 1e-15
    assert got.residual <= r_nnls + 1e-12
    assert got.residual == pytest.approx(np.linalg.norm(q - Q @ got.values), abs=1e-15)


@pytest.mark.parametrize("n, penalty, temperature", [
    (9, -5.0, 1.0), (81, -5.0, 1.0), (243, -5.0, 0.5), (729, -5.0, 1.0),
    (27, -20.0, 1.0), (243, -20.0, 1.0), (2187, -20.0, 1.0)])
def test_library_blocks_blend_like_scipy(n, penalty, temperature):
    # default_subtask_rewards (c = e^-5) and boundary_goal_tasks (c = e^-20)
    # against their targets: a goal vector, the neutral blend's ones,
    # inpainted rewards of both signs, and a goal on 40 twins; scipy makes one
    # active-set pass per positive weight (about 9 s for a dense 2187-wide
    # target), so the widest block takes the last target only
    Q = default_subtask_rewards(n, penalty, temperature)
    rng = np.random.default_rng(n)
    goal = np.full(n, np.exp(-10.0))
    goal[n // 3] = 1.0
    goals = np.zeros(n)
    goals[rng.choice(n, min(n, 40), replace=False)] = 1.0
    targets = [goal, np.ones(n), np.exp(rng.choice([-1.0, 0.0, 1.0], n) / temperature), goals]
    for q in targets[-1:] if n > 1000 else targets:
        w = blend_block(Q, q).values
        w_nnls, _ = scipy.optimize.nnls(Q, q)
        np.testing.assert_allclose(w, w_nnls, rtol=0, atol=1e-12 * np.abs(w_nnls).max())


@pytest.mark.parametrize("Q", [np.ones((3, 3)),
                               np.array([[1.0, 0.5], [0.5, 1.0], [0.2, 0.1]]),
                               np.array([[1.0, 0.2], [0.3, 1.0]]),
                               np.array([[1.0, -0.2], [-0.2, 1.0]])],
                         ids=["singular", "non-square", "unstructured", "negative-fill"])
def test_an_unfactorable_block_blends_by_nnls_silently(capfd, Q):
    # anything but a I + c 11^T with a > 0, c >= 0 is blend_weights_matrix's
    q = np.linspace(2.0, -1.0, Q.shape[0])
    want = blend_weights_matrix(Q, q)
    got = blend_block(Q, q)
    np.testing.assert_array_equal(got.values, want.values)
    assert got.residual == want.residual
    assert capfd.readouterr() == ("", "")


def test_factored_blend_rejects_bad_targets():
    Q = default_subtask_rewards(4, -5.0, 1.0)
    for bad in (np.inf, np.nan):
        target = np.ones(4)
        target[2] = bad
        with pytest.raises(InvalidSpec):
            blend_block(Q, target)
    with pytest.raises(DimensionMismatch):
        blend_block(Q, np.ones(3))


def test_blend_block_rejects_malformed_blocks():
    with pytest.raises(DimensionMismatch):
        blend_block(np.ones(3), np.ones(3))
    with pytest.raises(InvalidSpec):
        blend_block(np.array([[1.0, np.nan], [0.5, 1.0]]), np.ones(2))
    with pytest.raises(InvalidSpec):
        blend_block(np.array([[np.inf, 1.0], [1.0, np.inf]]), np.ones(2))
    with pytest.raises(DegenerateBasis):
        blend_block(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))


def test_zero_weights_cannot_compose(basis):
    with pytest.raises(NonPositiveComposite):
        compose_desirability(basis, TaskWeights(np.zeros(basis.n_tasks), 0.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_weights_cannot_compose(basis, bad):
    w = np.ones(basis.n_tasks)
    w[0] = bad
    with pytest.raises(InvalidSpec, match="boundary values must be finite"):
        compose_desirability(basis, TaskWeights(w, 0.0))


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
