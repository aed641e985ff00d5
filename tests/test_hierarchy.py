"""State augmentation, derived layer dynamics, inpainting, and stacks."""
import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmdp import (
    Lmdp,
    PassiveDynamics,
    RewardModel,
    RingSpec,
    SubtaskStructure,
    absorption_dynamics,
    augment,
    boundary_goal_tasks,
    build_stack,
    build_task_basis,
    default_subtask_rewards,
    draw_from,
    four_rooms_map,
    goal_task_vector,
    grid_from_ascii,
    inpaint_rewards,
    make_grid,
    make_ring,
    policy_column,
    rewards_to_task_weights,
    run_episode,
    solve_interior,
    terminate_layer,
)
from lsmdp import TaskWeights, core, hierarchy, multitask
from lsmdp.domains import GridSpec
from lsmdp.errors import (
    AlreadyTerminated,
    CannotTerminateBase,
    DimensionMismatch,
    InvalidSpec,
    NoTaskSet,
    NonPositiveComposite,
    SingularFundamentalMatrix,
    UnreachableSubtasks,
)
from lsmdp.serialize import save_stack

import oracles
from conftest import four_rooms_setting, kernel_blocks, random_lmdp


def base_chain(n_interior=5, seed=43):
    """Random absorbing chain with one boundary state."""
    rng = np.random.default_rng(seed)
    P = rng.random((n_interior + 1, n_interior)) * \
        (rng.random((n_interior + 1, n_interior)) < 0.7)
    P[n_interior, :] += 0.1
    P = P / P.sum(axis=0)
    return Lmdp(PassiveDynamics(P[:n_interior], P[n_interior:]),
                RewardModel(np.full(n_interior, -1.0), [0.0], 1.0))


def dense_tasks(entry):
    """A layer's task matrix, assembled densely by the oracle from its blocks."""
    return oracles.augmented_task_matrix(entry.base_tasks, entry.subtask_tasks)


def small_augmented(n_interior=5, seed=43, weights=None):
    """Hand-sized augmented layer over a random absorbing chain."""
    lmdp = base_chain(n_interior, seed)
    basis = build_task_basis(lmdp, np.ones((1, 1)))
    if weights is None:
        weights = np.zeros((2, n_interior))
        weights[0, 1] = 0.4
        weights[1, 3] = 0.4
        weights[1, 4] = 0.2
    return augment(basis.base, basis.boundary_tasks, SubtaskStructure(weights))


# ---------------------------------------------------------------------------
# structures and default rewards


def test_structure_validation():
    with pytest.raises(DimensionMismatch):
        SubtaskStructure(np.ones(3))
    with pytest.raises(InvalidSpec):
        SubtaskStructure(np.full((1, 3), -0.5))
    with pytest.raises(DimensionMismatch):
        SubtaskStructure(np.ones((2, 3)), labels=("only-one",))
    with pytest.raises(InvalidSpec, match="at least one subtask row"):
        SubtaskStructure(np.empty((0, 3)))


def test_zero_row_warns_but_constructs():
    with pytest.warns(UnreachableSubtasks):
        structure = SubtaskStructure(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert structure.n_subtasks == 2


def test_default_rewards_examples():
    Q = default_subtask_rewards(2, -5.0, 1.0)
    np.testing.assert_allclose(
        Q, [[1.0, math.exp(-5.0)], [math.exp(-5.0), 1.0]], rtol=1e-15)
    np.testing.assert_array_equal(default_subtask_rewards(1, -5.0, 1.0), [[1.0]])
    with pytest.raises(InvalidSpec):
        default_subtask_rewards(0, -5.0, 1.0)


def test_default_rewards_diagonal_dominates_columns():
    Q = default_subtask_rewards(6, -3.0, 0.7)
    assert (np.diag(Q) == Q.max(axis=0)).all()


# ---------------------------------------------------------------------------
# augmentation


def test_single_entry_weights_gate_access():
    W = np.zeros((1, 5))
    W[0, 2] = 0.5
    aug = small_augmented(weights=W)
    _, _, to_subtasks = kernel_blocks(aug.lmdp.passive, aug.n_subtasks)
    column_mass = np.asarray(to_subtasks.sum(axis=0)).ravel()
    assert column_mass[2] > 0
    assert (column_mass[[0, 1, 3, 4]] == 0).all()


def test_zero_weights_leave_dynamics_unchanged():
    with pytest.warns(UnreachableSubtasks):
        aug = small_augmented(weights=np.zeros((2, 5)))
    base = base_chain()
    to_interior, _, to_subtasks = kernel_blocks(aug.lmdp.passive, aug.n_subtasks)
    np.testing.assert_allclose(to_interior.toarray(),
                               base.passive.to_interior.toarray(),
                               rtol=0, atol=1e-15)
    assert to_subtasks.nnz == 0
    with pytest.raises(SingularFundamentalMatrix):
        absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)


def test_augmented_columns_sum_to_one():
    lmdp, structures, tasks = make_ring(RingSpec(9, subtask_spacing=3, depth=2))
    basis = build_task_basis(lmdp, tasks)
    aug = augment(basis.base, basis.boundary_tasks, structures[0])
    total = sum(np.asarray(block.sum(axis=0)).ravel()
                for block in kernel_blocks(aug.lmdp.passive, aug.n_subtasks))
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
    # the augmented LMDP itself must agree
    full = aug.lmdp.passive.full_matrix.toarray()
    np.testing.assert_allclose(full.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_augment_extends_boundary_and_tasks():
    aug = small_augmented()
    assert aug.lmdp.n_boundary == aug.n_base_boundary + aug.n_subtasks
    assert dense_tasks(aug).shape == (aug.lmdp.n_boundary,
                                      aug.n_base_tasks + aug.n_subtasks)
    # base task columns survive unchanged on the base boundary block
    np.testing.assert_array_equal(
        dense_tasks(aug)[:aug.n_base_boundary, :aug.n_base_tasks],
        np.ones((1, 1)))
    # subtask boundary twins carry the default access penalty, -5 lambda
    np.testing.assert_allclose(
        aug.lmdp.rewards.boundary[aug.n_base_boundary:],
        -5.0 * aug.lmdp.rewards.temperature)


def test_augment_fill_is_exactly_e_to_the_fill_scale():
    # at this temperature (-20 lam) / lam != -20, so a fill that routes the
    # scale through lam lands one ulp off e^-20
    lam, scale = 0.0133, hierarchy.AUGMENT_FILL_SCALE
    assert scale * lam / lam != scale
    lmdp = base_chain()
    lmdp = dataclasses.replace(lmdp, rewards=RewardModel(
        lmdp.rewards.interior, lmdp.rewards.boundary, lam))
    weights = np.zeros((1, lmdp.n_interior))
    weights[0, 1] = 0.4
    aug = augment(lmdp, np.ones((1, 1)), SubtaskStructure(weights))
    assert aug.fill == math.exp(scale) == math.exp(-20.0)


def test_augment_rejects_wrong_width():
    lmdp, _, tasks = make_ring(RingSpec(9))
    basis = build_task_basis(lmdp, tasks)
    with pytest.raises(DimensionMismatch):
        augment(basis.base, basis.boundary_tasks, SubtaskStructure(np.ones((2, 5))))


def test_augment_rejects_a_task_matrix_of_the_wrong_shape():
    lmdp, structures, tasks = make_ring(RingSpec(9, subtask_spacing=3, depth=2))
    for bad in (tasks[:-1], tasks[:, 0], tasks[:, :0]):
        with pytest.raises(DimensionMismatch):
            augment(lmdp, bad, structures[0])
    # every task column must be a valid exponentiated reward
    for value in (0.0, -1.0, np.nan, np.inf):
        bad = tasks.copy()
        bad[2, 1] = value
        with pytest.raises(InvalidSpec, match="strictly positive and finite"):
            augment(lmdp, bad, structures[0])


# ---------------------------------------------------------------------------
# derived dynamics


def test_deterministic_corridor_derives_indicator():
    # rightward deterministic walk; subtask 0 has negligible access weight at
    # state 0 and subtask 1 near-certain weight at state 5, so a walk
    # re-entering from subtask 0 absorbs at subtask 1 almost surely
    n = 6
    P_i = np.zeros((n, n))
    for s in range(n - 1):
        P_i[s + 1, s] = 1.0
    P_b = np.zeros((1, n))
    P_b[0, n - 1] = 1.0
    lmdp = Lmdp(PassiveDynamics(P_i, P_b),
                RewardModel(np.full(n, -1.0), [0.0], 1.0))
    W = np.zeros((2, n))
    W[0, 0] = 1e-12
    W[1, n - 1] = 1e12
    basis = build_task_basis(lmdp, np.ones((1, 1)))
    aug = augment(basis.base, basis.boundary_tasks, SubtaskStructure(W))
    to_i, to_b = absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)
    np.testing.assert_allclose(to_i[:, 0], [0.0, 1.0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(to_b[:, 0], [0.0], rtol=0, atol=1e-9)


def test_derived_columns_are_stochastic():
    aug = small_augmented()
    to_i, to_b = absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)
    np.testing.assert_allclose(to_i.sum(axis=0) + to_b.sum(axis=0), 1.0,
                               rtol=0, atol=1e-10)
    for bad in (0, -1, aug.lmdp.n_boundary + 1):
        with pytest.raises(DimensionMismatch):
            absorption_dynamics(aug.lmdp.passive, bad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_subtasks=st.integers(1, 4))
def test_derived_columns_are_stochastic_and_match_the_dense_oracle(seed,
                                                                   n_subtasks):
    # a random stochastic kernel with nonnegative subtask weights, stacked
    # and renormalized columnwise as augment does
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng)
    P = lmdp.passive.full_matrix.toarray()
    W = rng.uniform(0.0, 1.0, (n_subtasks, lmdp.n_interior))
    W *= rng.random(W.shape) < 0.5
    W[np.arange(n_subtasks), rng.integers(lmdp.n_interior, size=n_subtasks)] += 0.1
    K = np.vstack([P, W])
    K /= K.sum(axis=0)
    n_i = lmdp.n_interior
    passive = PassiveDynamics(K[:n_i], K[n_i:])
    to_t, to_b = absorption_dynamics(passive, n_subtasks)
    np.testing.assert_allclose(to_t.sum(axis=0) + to_b.sum(axis=0), 1.0,
                               rtol=0, atol=1e-10)
    want_t, want_b = oracles.absorption_kernel(*kernel_blocks(passive, n_subtasks))
    np.testing.assert_allclose(to_t, want_t, rtol=0, atol=1e-10)
    np.testing.assert_allclose(to_b, want_b, rtol=0, atol=1e-10)


def test_derived_dynamics_match_simulation_on_eight_states():
    aug = small_augmented()  # 5 interior + 1 boundary + 2 subtasks
    assert aug.lmdp.n_states == 8
    to_i, to_b = absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)
    to_interior, to_boundary, to_subtasks = kernel_blocks(aug.lmdp.passive,
                                                          aug.n_subtasks)
    freq_t, freq_b = oracles.mc_absorption(
        to_interior, to_subtasks, to_boundary, n_walks=1_000_000, seed=5)
    np.testing.assert_allclose(to_i, freq_t, rtol=0, atol=0.005)
    np.testing.assert_allclose(to_b, freq_b, rtol=0, atol=0.005)


def room_of(cell):
    return (cell[0] > 5, cell[1] > 5)


def test_four_rooms_neighbors_exceed_diagonals(rooms):
    _, stack, _, _, _ = rooms
    aug = stack.layers[0]
    doors = ((2, 5), (5, 2), (5, 8), (8, 5))
    to_i, _ = absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)
    for src, src_cell in enumerate(doors):
        adjacent, diagonal = [], []
        for dst, dst_cell in enumerate(doors):
            if dst == src:
                continue
            shared = set(
                room_of((src_cell[0] + dr, src_cell[1] + dc))
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
            ) & set(
                room_of((dst_cell[0] + dr, dst_cell[1] + dc))
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
            )
            (adjacent if shared else diagonal).append(to_i[dst, src])
        assert min(adjacent) > max(diagonal)


# ---------------------------------------------------------------------------
# reward inpainting


def test_matching_columns_inpaint_nothing():
    p = np.array([0.2, 0.3, 0.5, 0.0])
    np.testing.assert_array_equal(inpaint_rewards(p, p, 1.0), np.zeros(4))


def test_inpaint_scales_linearly():
    a = np.array([0.5, 0.5, 0.0])
    p = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(inpaint_rewards(a, p, 2.0),
                               2.0 * inpaint_rewards(a, p, 1.0), rtol=1e-15)
    np.testing.assert_allclose(inpaint_rewards(a, p, 1.0).sum(), 0.0,
                               rtol=0, atol=1e-15)


def test_inpaint_restricts_to_interior_entries():
    a = np.array([0.6, 0.4, 0.0, 0.0])
    p = np.array([0.3, 0.3, 0.2, 0.2])
    out = inpaint_rewards(a, p, 1.0, n_interior=2)
    np.testing.assert_allclose(out, [0.3, 0.1], rtol=1e-14)
    with pytest.raises(DimensionMismatch, match="column shapes differ"):
        inpaint_rewards(a, p[:3], 1.0)


def corridor_stack():
    spec = GridSpec(width=9, height=1, goal_cells=((0, 8),))
    lmdp, structure, goal_q = make_grid(spec, [(0, 1), (0, 4), (0, 7)], (0, 8))
    basis = build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, spec.temperature))
    stack = build_stack(basis, [structure])
    stack.set_task(goal_q)
    return stack


def test_inpaint_points_toward_the_goal():
    stack = corridor_stack()
    lmdp1, z1 = stack.policy_state(1)
    rows, probs = policy_column(lmdp1, z1, 1)  # middle subtask state
    a = np.zeros(lmdp1.n_states)
    a[rows] = probs
    p = np.asarray(lmdp1.passive.full_matrix[:, 1].todense()).ravel()
    r_t = inpaint_rewards(a, p, stack.kappa, lmdp1.n_interior)
    assert r_t[2] > 0.0       # next subtask toward the goal
    assert r_t[0] <= 0.0      # subtask behind


def test_neutral_rewards_reproduce_current_weights():
    stack = corridor_stack()
    aug = stack.layers[0]
    current = stack.weights[0]
    updated = rewards_to_task_weights(aug, np.zeros(aug.n_subtasks), current)
    np.testing.assert_allclose(updated.values, current.values, rtol=0, atol=1e-12)


def test_own_reward_column_selects_own_task():
    stack = corridor_stack()
    aug = stack.layers[0]
    lam = aug.lmdp.rewards.temperature
    for t in range(aug.n_subtasks):
        r_t = np.full(aug.n_subtasks, stack.penalty)
        r_t[t] = 0.0
        assert np.allclose(np.exp(r_t / lam), aug.subtask_tasks[:, t])
        w = rewards_to_task_weights(aug, r_t, stack.weights[0])
        expected = np.zeros(aug.n_subtasks)
        expected[t] = 1.0
        np.testing.assert_allclose(w.values[aug.n_base_tasks:], expected,
                                   rtol=0, atol=1e-8)
        assert w.residual <= 1e-9


# ---------------------------------------------------------------------------
# stacks


def test_empty_structure_list_gives_flat_stack(chain5):
    basis = build_task_basis(chain5, chain5.q_boundary[:, None])
    stack = build_stack(basis, [])
    assert stack.depth == 1
    top = stack.layers[0]
    assert top.n_subtasks == 0
    assert top.lmdp is chain5 and top.base_tasks is basis.boundary_tasks
    assert top.subtask_range == (chain5.n_states, chain5.n_states)
    stack.set_task(chain5.q_boundary)
    with pytest.raises(InvalidSpec):
        stack.apply_inpaint(0, np.zeros(0))


def test_ring_tower_layer_sizes():
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    assert stack.depth == 3
    assert [stack.layers[k].lmdp.n_interior for k in range(3)] == [27, 9, 3]
    # every layer keeps the base boundary set
    assert all(stack.layers[k].lmdp.n_boundary >= 27 for k in (0,))
    assert stack.layers[1].lmdp.n_boundary == 27 + 3
    assert stack.layers[2].lmdp.n_boundary == 27


def ring27_stack():
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    return build_stack(build_task_basis(lmdp, tasks), structures)


@pytest.mark.parametrize("make", [ring27_stack, lambda: four_rooms_setting()[1]],
                         ids=["ring-27", "four-rooms-11"])
def test_layer_constants_are_python_ints_computed_per_layer(make):
    stack = make()
    for k, layer in enumerate(stack.layers):
        n_i, n_t = layer.lmdp.n_interior, layer.n_subtasks
        assert layer.n_base_boundary == layer.lmdp.n_boundary - n_t
        lo = n_i + layer.n_base_boundary
        assert layer.subtask_range == (lo, lo + n_t)
        assert type(layer.n_base_boundary) is int
        assert [type(end) for end in layer.subtask_range] == [int, int]
        if k == stack.depth - 1:
            assert n_t == 0 and layer.subtask_range == (layer.lmdp.n_states,) * 2
        # a replaced layer computes its own constants, never the old ones
        twin = dataclasses.replace(layer, fill=layer.fill / 2)
        assert (twin.n_base_boundary, twin.subtask_range) == (
            layer.n_base_boundary, layer.subtask_range)
        if n_t:
            fewer = dataclasses.replace(layer, fill=layer.fill / 2,
                                        neutral_weights=layer.neutral_weights[:-1])
            assert fewer.n_base_boundary == layer.n_base_boundary + 1
            assert fewer.subtask_range == (lo + 1, lo + n_t)


def test_every_layer_kernel_is_stochastic():
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    for layer in range(stack.depth):
        full = stack.layers[layer].lmdp.passive.full_matrix.toarray()
        np.testing.assert_allclose(full.sum(axis=0), 1.0, rtol=0, atol=1e-10)


def test_mismatched_structure_width_rejected(chain5):
    basis = build_task_basis(chain5, chain5.q_boundary[:, None])
    with pytest.raises(DimensionMismatch):
        build_stack(basis, [SubtaskStructure(np.ones((2, 7)))])


def test_stack_construction_is_bit_deterministic(tmp_path):
    for name in ("a", "b"):
        lmdp, structures, tasks = make_ring(RingSpec(9, subtask_spacing=3,
                                                     depth=2))
        stack = build_stack(build_task_basis(lmdp, tasks), structures)
        stack.set_task(np.exp(-np.arange(9.0)))
        save_stack(stack, tmp_path / name)
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


def test_build_stack_factors_each_kernel_once(monkeypatch):
    # depth 3: two augmented layers' and the top's boundary solves, and two
    # absorption systems; the intermediate derived layer is only augmented,
    # never solved plain
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    basis = build_task_basis(lmdp, tasks)
    solved, factorized = [], []
    real_solve, real_factorize = hierarchy.solve_interior, core._factorize

    def counting_solve(kernel, *q_boundary):
        solved.append(kernel)
        return real_solve(kernel, *q_boundary)

    def counting_factorize(A, error):
        factorized.append(A)
        return real_factorize(A, error)

    monkeypatch.setattr(hierarchy, "solve_interior", counting_solve)
    monkeypatch.setattr(multitask, "solve_interior", counting_solve)
    monkeypatch.setattr(core, "_factorize", counting_factorize)
    monkeypatch.setattr(hierarchy, "_factorize", counting_factorize)
    stack = build_stack(basis, structures)
    assert len(solved) == 3
    assert len({id(kernel) for kernel in solved}) == 3
    assert len(factorized) == 5
    assert solved[-1] is stack.layers[-1].lmdp


def test_set_task_blends_the_shared_task_matrix_once(monkeypatch):
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    for entry in stack.layers:
        np.testing.assert_array_equal(
            dense_tasks(entry)[:entry.n_base_boundary, :entry.n_base_tasks], tasks)
    blended = []
    real = hierarchy.blend_block

    def counting(*args):
        blended.append(real(*args))
        return blended[-1]

    monkeypatch.setattr(hierarchy, "blend_block", counting)
    target = np.exp(-np.arange(27.0) / 4.0)
    stack.set_task(target)
    assert len(blended) == 1
    for entry, weights in zip(stack.layers, stack.weights):
        np.testing.assert_array_equal(weights.values[:entry.n_base_tasks],
                                      blended[0].values)
    # the closed-form fit is the NNLS optimum of the shared task matrix
    w_nnls, _ = scipy.optimize.nnls(tasks, target)
    np.testing.assert_allclose(blended[0].values, w_nnls, rtol=0,
                               atol=1e-12 * np.abs(w_nnls).max())


def test_a_stack_blends_its_blocks_in_closed_form_and_episodes_skip_nnls(monkeypatch):
    # ring-27 depth 3: every block a stack blends (the shared task matrix and
    # each subtask block) is a I + c 11^T, so set_task and an episode's
    # inpaint re-blends (layer 0's 9-wide block here) never run NNLS
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    fitted, blended = [], []
    real_nnls, real_blend = scipy.optimize.nnls, hierarchy.blend_block

    def counting_nnls(*args):
        fitted.append(args)
        return real_nnls(*args)

    def counting_blend(*args):
        blended.append(args)
        return real_blend(*args)

    monkeypatch.setattr(scipy.optimize, "nnls", counting_nnls)
    monkeypatch.setattr(hierarchy, "blend_block", counting_blend)
    task = stack.clone()
    assert task.layers is stack.layers
    task.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    traj = run_episode(task.clone(), 13, np.random.default_rng(1))
    assert traj.events and len(blended) > 1  # set_task and inpaints
    assert sorted({args[0].shape for args in blended}) == [(9, 9), (27, 27)]
    assert fitted == []


def test_a_tasked_goal_reads_no_block_form_after_build(monkeypatch):
    # each layer reads the (a, c) form of its Q and Q_t once, at build;
    # set_task and every re-blend of the episodes that follow reuse it
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    for entry in stack.layers:
        assert entry.base_form == multitask.block_form(entry.base_tasks) is not None
        assert entry.subtask_form == multitask.block_form(entry.subtask_tasks)
        assert (entry.subtask_form is None) == (entry.n_subtasks == 0)
    read, blended = [], []
    real_form, real_blend = multitask.block_form, hierarchy.blend_block

    def counting_form(*args):
        read.append(args)
        return real_form(*args)

    def counting_blend(*args):
        blended.append(args)
        return real_blend(*args)

    monkeypatch.setattr(multitask, "block_form", counting_form)
    monkeypatch.setattr(hierarchy, "block_form", counting_form)
    monkeypatch.setattr(hierarchy, "blend_block", counting_blend)
    stack.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    for seed in range(8):
        run_episode(stack.clone(), 13, np.random.default_rng(seed))
    assert len(blended) > 1 and read == []


def test_an_unstructured_subtask_block_still_blends_by_nnls(monkeypatch):
    # a layer whose Q_t is not a I + c 11^T reads form None at build, and
    # its inpaint re-blends fall back to NNLS with blend_weights_matrix's weights
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=2))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    Q_t = stack.layers[0].subtask_tasks.copy()
    Q_t[0, 1] *= 1.5
    stack.layers[0] = dataclasses.replace(stack.layers[0], subtask_tasks=Q_t)
    assert stack.layers[0].subtask_form is None and stack.layers[0].base_form is not None
    stack.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    fitted = []
    real_nnls = scipy.optimize.nnls

    def counting_nnls(*args):
        fitted.append(args)
        return real_nnls(*args)

    monkeypatch.setattr(scipy.optimize, "nnls", counting_nnls)
    r_t = np.linspace(-0.5, 0.5, Q_t.shape[0])
    stack.apply_inpaint(0, r_t)
    assert len(fitted) == 1
    want = multitask.blend_weights_matrix(Q_t, np.exp(r_t / lmdp.rewards.temperature))
    got = stack.weights[0].values[stack.layers[0].n_base_tasks:]
    assert got.tobytes() == want.values.tobytes()


def test_a_binding_inpaint_reblends_without_nnls(monkeypatch):
    # ring-243 depth 2: +kappa on half the 81 subtasks and -kappa on the last
    # makes Q_t^-1 q negative, so the sign constraint binds; the closed form
    # still needs no NNLS and meets scipy's optimum
    lmdp, structures, tasks = make_ring(RingSpec(243, subtask_spacing=3, depth=2))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    stack.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    aug = stack.layers[0]
    r_t = np.zeros(aug.n_subtasks)
    r_t[:aug.n_subtasks // 2], r_t[-1] = stack.kappa, -stack.kappa
    target = np.exp(r_t / aug.lmdp.rewards.temperature)
    assert aug.n_subtasks == 81 and np.linalg.solve(aug.subtask_tasks, target).min() < 0
    w_nnls, _ = scipy.optimize.nnls(aug.subtask_tasks, target)
    fitted = []
    monkeypatch.setattr(scipy.optimize, "nnls", lambda *args: fitted.append(args))
    stack.apply_inpaint(0, r_t)
    assert fitted == []
    np.testing.assert_allclose(stack.weights[0].values[aug.n_base_tasks:], w_nnls,
                               rtol=0, atol=1e-12 * np.abs(w_nnls).max())


@pytest.mark.parametrize("lam", [1.0, 0.0133])
def test_kappa_is_lambda_and_the_penalty_minus_five_lambda(lam):
    # at 0.0133, (-5 lam) / lam != -5: the penalty is the product itself
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3,
                                                 temperature=lam))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    assert stack.kappa == lam
    assert stack.penalty == hierarchy.DEFAULT_SUBTASK_PENALTY_SCALE * lam
    for entry in stack.layers:
        # every layer transmits at the temperature kappa reads
        assert entry.lmdp.rewards.temperature == lam
        np.testing.assert_array_equal(
            entry.lmdp.rewards.boundary[entry.n_base_boundary:], stack.penalty)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_set_task_rejects_a_non_finite_or_negative_target(bad):
    stack = corridor_stack()
    old_target, memo = stack.target, stack.reblends
    slots = stack.weights + stack.z_full
    target = stack.target.copy()
    target[0] = bad
    with pytest.raises(InvalidSpec):
        stack.set_task(target)
    # the stack keeps its previous task whole
    assert stack.target is old_target and stack.reblends is memo
    assert all(new is old for new, old in zip(stack.weights + stack.z_full, slots))


def big_rooms_stack(temperature):
    """21 x 21 four rooms, goal in the top-right corner; no task set yet."""
    spec, _ = grid_from_ascii(four_rooms_map(21), goal_cells=[(0, 20)])
    spec = dataclasses.replace(spec, temperature=temperature)
    lmdp, structure, goal_q = make_grid(
        spec, [(5, 10), (10, 5), (10, 16), (16, 10)], (0, 20))
    stack = build_stack(build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, temperature)), [structure])
    return stack, goal_q, lmdp.n_interior


def test_a_composite_that_underflows_to_zero_raises():
    # at lambda = 0.02 the base composite underflows to exactly 0 on 5 of
    # 404 interior states, which would silently cut them out of the policy
    stack, goal_q, _ = big_rooms_stack(0.02)
    with pytest.raises(NonPositiveComposite, match="layer 0"):
        stack.set_task(goal_q)
    assert stack.target is None and stack.weights == stack.z_full == [None, None]
    stack, goal_q, n_i = big_rooms_stack(0.1)
    stack.set_task(goal_q)
    assert stack.z_full[0][:n_i].min() > 0


def test_policy_state_requires_task(chain5):
    fresh = build_stack(build_task_basis(chain5, chain5.q_boundary[:, None]), [])
    with pytest.raises(NoTaskSet):
        fresh.policy_state(0)
    _, untasked = ring_tower_template()
    with pytest.raises(NoTaskSet):
        untasked.apply_inpaint(0, np.zeros(untasked.layers[0].n_subtasks))


def test_inpaint_and_policy_state_reject_a_layer_out_of_range():
    # -3 once re-blended layer 0 and stored a memo key under layer -3; the
    # top layer, 2, has no subtask states to receive an inpaint
    stack = tasked_ring_tower()
    composites = list(stack.composites)
    r_t = np.zeros(stack.layers[0].n_subtasks)
    for layer in (-3, -1, 2, 5):
        with pytest.raises(InvalidSpec, match=f"no subtask layer {layer} in a depth-3"):
            stack.apply_inpaint(layer, r_t)
    assert stack.reblends == {}
    assert all(new is old for new, old in zip(stack.composites, composites))
    for layer in (-1, 3, 7):
        with pytest.raises(InvalidSpec, match=f"no layer {layer} in a depth-3"):
            stack.policy_state(layer)


@pytest.mark.parametrize("layer", [1.0, True, 0.0, False])
@pytest.mark.parametrize("call", ["policy_state", "apply_inpaint", "terminate_layer"])
def test_a_layer_index_must_be_an_integer(call, layer):
    # a float index once raised a bare TypeError from list indexing, and a
    # bool passed as the integer it equals
    lmdp, structures, tasks = make_ring(RingSpec(9, subtask_spacing=3, depth=2))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    stack.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    composites = list(stack.composites)
    calls = {
        "policy_state": lambda index: stack.policy_state(index),
        "apply_inpaint": lambda index: stack.apply_inpaint(
            index, np.zeros(stack.layers[0].n_subtasks)),
        "terminate_layer": lambda index: terminate_layer(stack, index),
    }
    with pytest.raises(InvalidSpec, match=f"layer {layer} in a depth-2 stack"):
        calls[call](layer)
    assert stack.terminated == [False, False] and stack.reblends == {}
    assert all(new is old for new, old in zip(stack.composites, composites))
    calls["policy_state"](np.int64(1))  # numpy integers are integers


def test_a_clone_shares_everything_but_its_two_lists():
    stack = tasked_ring_tower()
    clone = stack.clone()
    assert clone.composites == stack.composites
    assert clone.composites is not stack.composites
    assert clone.terminated == stack.terminated
    assert clone.terminated is not stack.terminated
    for name in ("layers", "target", "reblends", "base_terms"):
        assert getattr(clone, name) is getattr(stack, name)
    assert (clone.kappa, clone.penalty) == (stack.kappa, stack.penalty)


def test_clone_isolates_execution_state():
    template = corridor_stack()
    before = template.z_full[0].copy()
    clone = template.clone()
    terminate_layer(clone, 1)
    assert clone.terminated == [False, True]
    assert template.terminated == [False, False]
    np.testing.assert_array_equal(template.z_full[0], before)
    lo, hi = template.layers[0].subtask_range
    assert (template.z_full[0][lo:hi] > 0).all()
    assert (clone.z_full[0][lo:hi] == 0).all()


# ---------------------------------------------------------------------------
# termination


def test_terminated_subtasks_draw_no_mass():
    stack = corridor_stack()
    terminate_layer(stack, 1)
    lmdp0, z0 = stack.policy_state(0)
    lo, hi = stack.layers[0].subtask_range
    rng = np.random.default_rng(47)
    for _ in range(100_000):
        s = int(rng.integers(lmdp0.n_interior))
        rows, probs = policy_column(lmdp0, z0, s)
        nxt = draw_from(rows, probs, rng)
        assert not lo <= nxt < hi


def test_top_layer_termination_reduces_to_flat_blend():
    stack = corridor_stack()
    before = stack.z_full[0].copy()
    terminate_layer(stack, 1)
    lo, hi = stack.layers[0].subtask_range
    aug = stack.layers[0]
    boundary = dense_tasks(aug) @ stack.weights[0].values
    boundary[lo - aug.lmdp.n_interior:hi - aug.lmdp.n_interior] = 0.0
    expected = solve_interior(aug.lmdp, boundary)
    np.testing.assert_allclose(stack.z_full[0][:aug.lmdp.n_interior], expected,
                               rtol=0, atol=1e-12)
    assert not np.allclose(before, stack.z_full[0])


def test_termination_does_not_factor(monkeypatch):
    template = corridor_stack()
    factorized = []
    real = core._factorize

    def counting(*args):
        factorized.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_factorize", counting)
    first = template.clone()
    terminate_layer(first, 1)
    assert factorized == []  # the build solved every boundary state
    second = template.clone()
    terminate_layer(second, 1)
    second.apply_inpaint(0, np.zeros(second.layers[0].n_subtasks))
    assert factorized == []
    np.testing.assert_array_equal(second.z_full[0], first.z_full[0])


def test_nothing_is_solved_after_build_stack(monkeypatch):
    # ring-27 depth 3, goal 0, start 13, seed 1: its episode inpaints and
    # terminates a layer; every composite comes from the build's solves
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    template = build_stack(build_task_basis(lmdp, tasks), structures)
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((core, "_factorize"), (hierarchy, "_factorize"),
                         (hierarchy, "solve_interior"),
                         (multitask, "solve_interior")):
        counting(module, name)
    template.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    for layer in range(1, template.depth):
        stack = template.clone()
        stack.apply_inpaint(layer - 1, np.full(stack.layers[layer - 1].n_subtasks, 0.5))
        terminate_layer(stack, layer)
        stack.apply_inpaint(layer - 1, np.full(stack.layers[layer - 1].n_subtasks, -0.5))
    traj = run_episode(template.clone(), 13, np.random.default_rng(1))
    assert any(event.terminated_layer is not None for event in traj.events)
    assert calls == []


def assert_terminated_composite(stack, layer):
    """The composite of the layer below a terminated one against the oracle.

    It must equal a dense first-exit solve with the blended boundary values
    zeroed at the subtask states, entry by entry (the smallest entries are
    the ones a cancelling formula gets wrong), be exactly zero there and
    nonnegative everywhere, and tilt every interior column into a
    distribution.
    """
    below = layer - 1
    entry = stack.layers[below]
    lmdp, z = stack.policy_state(below)
    n_i = lmdp.n_interior
    lo, hi = entry.subtask_range
    q_b = dense_tasks(entry) @ stack.weights[below].values
    q_b[lo - n_i:hi - n_i] = 0.0
    expected = oracles.first_exit_desirability(
        lmdp.passive.full_matrix, n_i, lmdp.rewards.interior,
        lmdp.rewards.temperature, q_b)
    np.testing.assert_allclose(z[:n_i], expected, rtol=1e-12, atol=0)
    assert (z[lo:hi] == 0).all()
    assert (z >= 0).all()
    for s in range(n_i):
        _, probs = policy_column(lmdp, z, s)
        assert abs(probs.sum() - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(9, 2), (12, 2), (27, 3)]),
       temperature=st.sampled_from([1.0, 0.1]),
       seed=st.integers(0, 2**32 - 1), n_inpaints=st.integers(0, 6))
def test_terminated_composite_matches_dense_oracle(shape, temperature, seed,
                                                   n_inpaints):
    rng = np.random.default_rng(seed)
    n_states, depth = shape
    lmdp, structures, tasks = make_ring(RingSpec(
        n_states, subtask_spacing=3, depth=depth, temperature=temperature))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    n_b = stack.layers[0].n_base_boundary
    target = np.exp(rng.uniform(-6.0, -1.0, n_b))
    target[rng.integers(n_b)] = 1.0
    stack.set_task(target)
    layer = int(rng.integers(1, stack.depth))
    at = int(rng.integers(n_inpaints + 1))  # inpaints before the termination
    for k in range(n_inpaints):
        if k == at:
            terminate_layer(stack, layer)
        below = int(rng.integers(stack.depth - 1))
        r_t = stack.kappa * rng.uniform(-1.0, 1.0, stack.layers[below].n_subtasks)
        stack.apply_inpaint(below, r_t)
    if not stack.terminated[layer]:
        terminate_layer(stack, layer)
    assert_terminated_composite(stack, layer)


@pytest.mark.parametrize("temperature", [0.5, 0.2, 0.1])
def test_terminated_four_rooms_matches_dense_oracle(temperature):
    # at low temperature the composite spans up to 100 orders of magnitude;
    # subtracting the subtask part from the live blend leaves negative and
    # wildly wrong small entries there
    _, stack, goal_q, _, _ = four_rooms_setting(temperature=temperature)
    stack.set_task(goal_q)
    terminate_layer(stack, 1)
    assert_terminated_composite(stack, 1)


@functools.cache
def solved_stack(shape):
    """A ring stack of (n_states, depth), or four-rooms-11; no task set."""
    if shape == "rooms":
        return four_rooms_setting()[1]
    n_states, depth = shape
    lmdp, structures, tasks = make_ring(RingSpec(n_states, subtask_spacing=3,
                                                 depth=depth))
    return build_stack(build_task_basis(lmdp, tasks), structures)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(9, 2), (12, 2), (12, 3), (27, 2), (27, 3), "rooms"]),
       seed=st.integers(0, 2**32 - 1))
def test_boundary_solves_compose_every_task(shape, seed):
    # the Bellman system is linear in the boundary values, so the solve of
    # each boundary state blended by a task column is that task's solve; the
    # solves are nonnegative, and boundary values positive off the subtask
    # states (a terminated composite's) reach every interior state
    rng = np.random.default_rng(seed)
    for entry in solved_stack(shape).layers:
        lmdp, U = entry.lmdp, entry.solves
        assert U.shape == (lmdp.n_interior, lmdp.n_boundary)
        assert np.isfinite(U).all() and (U >= 0).all()
        tasks = dense_tasks(entry)
        np.testing.assert_allclose(U @ tasks, solve_interior(lmdp, tasks),
                                   rtol=1e-12, atol=0)
        z_b = np.exp(rng.uniform(-6.0, 0.0, lmdp.n_boundary))
        z_b[entry.n_base_boundary:] = 0.0
        assert (U @ z_b > 0).all()


def test_double_termination_rejected():
    stack = corridor_stack()
    terminate_layer(stack, 1)
    with pytest.raises(AlreadyTerminated):
        terminate_layer(stack, 1)


def test_base_layer_cannot_terminate():
    stack = corridor_stack()
    with pytest.raises(CannotTerminateBase):
        terminate_layer(stack, 0)
    with pytest.raises(InvalidSpec):
        terminate_layer(stack, 5)


def test_a_failed_termination_changes_nothing():
    # at lambda = 0.05 the live composite is positive, but with zero
    # desirability at the doors some interior entries underflow to 0
    stack, goal_q, _ = big_rooms_stack(0.05)
    stack.set_task(goal_q)
    z0 = stack.z_full[0]
    with pytest.raises(NonPositiveComposite, match="layer 0"):
        terminate_layer(stack, 1)
    assert stack.terminated == [False, False]
    assert stack.z_full[0] is z0


# ---------------------------------------------------------------------------
# the re-blend memo


@functools.cache
def ring_tower_template():
    """A ring-27 depth-3 stack with no task set; tests work on clones."""
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    return lmdp, build_stack(build_task_basis(lmdp, tasks), structures)


def tasked_ring_tower(goal=0):
    lmdp, template = ring_tower_template()
    stack = template.clone()
    stack.set_task(goal_task_vector(lmdp.n_boundary, goal, lmdp.rewards.temperature))
    return stack


def assert_same_execution_state(stack, twin):
    assert stack.terminated == twin.terminated
    for ours, theirs in zip(stack.weights, twin.weights):
        np.testing.assert_array_equal(ours.values, theirs.values)
        assert ours.residual == theirs.residual
    for ours, theirs in zip(stack.z_full, twin.z_full):
        np.testing.assert_array_equal(ours, theirs)


@settings(max_examples=60, deadline=None)
@given(goal=st.integers(0, 26), seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.sampled_from(["inpaint", "terminate", "episode"]),
                              st.integers(0, 5)), max_size=25))
def test_memoized_reblends_equal_fresh_ones(goal, seed, ops):
    # inpaints come from a pool of three vectors per layer, so keys repeat;
    # "episode" restarts both sides from a clone of their tasked stack,
    # which keeps the memo.  Before every op the twin empties its memo and
    # drops its records' caches and dead twins, so it composes afresh.
    tasked, twin_tasked = tasked_ring_tower(goal), tasked_ring_tower(goal)
    rng = np.random.default_rng(seed)
    pool = [[tasked.kappa * rng.uniform(-1.0, 1.0, entry.n_subtasks)
             for _ in range(3)] for entry in tasked.layers[:-1]]
    stack, twin = tasked.clone(), twin_tasked.clone()
    for op, k in ops:
        # every record the twin can reach forgets its columns and dead twin
        twin.reblends.clear()
        for composite in twin.composites + twin_tasked.composites:
            composite.columns.clear()
            composite.dead = None
        if op == "episode":
            stack, twin = tasked.clone(), twin_tasked.clone()
        elif op == "inpaint":
            layer = k % 2
            stack.apply_inpaint(layer, pool[layer][k % 3])
            twin.apply_inpaint(layer, pool[layer][k % 3])
        elif not stack.terminated[1 + k % 2]:
            terminate_layer(stack, 1 + k % 2)
            terminate_layer(twin, 1 + k % 2)
        assert_same_execution_state(stack, twin)


def test_set_task_starts_a_fresh_memo():
    # a retargeted clone neither reads nor writes the memo that the other
    # clones of its old task still share
    tasked = tasked_ring_tower(0)
    r_t = tasked.kappa * np.linspace(-1.0, 1.0, tasked.layers[0].n_subtasks)
    tasked.clone().apply_inpaint(0, r_t)
    retargeted = tasked.clone()
    retargeted.set_task(tasked_ring_tower(9).target)
    assert retargeted.reblends == {}
    retargeted.apply_inpaint(0, r_t)
    replay = tasked.clone()
    replay.apply_inpaint(0, r_t)
    for stack, goal in ((retargeted, 9), (replay, 0)):
        fresh = tasked_ring_tower(goal)
        fresh.apply_inpaint(0, r_t)
        assert_same_execution_state(stack, fresh)


def test_the_memo_keys_on_the_terminated_flag_above():
    tasked = tasked_ring_tower()
    r_t = tasked.kappa * np.linspace(-1.0, 1.0, tasked.layers[0].n_subtasks)
    tasked.clone().apply_inpaint(0, r_t)
    dead = tasked.clone()
    terminate_layer(dead, 1)
    dead.apply_inpaint(0, r_t)
    fresh = tasked_ring_tower()
    terminate_layer(fresh, 1)
    fresh.apply_inpaint(0, r_t)
    assert_same_execution_state(dead, fresh)
    assert len(tasked.reblends) == 2


def test_a_column_vector_misses_the_memo():
    stack = tasked_ring_tower()
    r_t = np.zeros(stack.layers[0].n_subtasks)
    stack.apply_inpaint(0, r_t)
    with pytest.raises(DimensionMismatch):
        stack.apply_inpaint(0, r_t[:, None])


def test_a_repeated_episode_reblends_nothing(monkeypatch):
    tasked = tasked_ring_tower()
    first = run_episode(tasked.clone(), 20, np.random.default_rng(5))
    blended = []
    real = hierarchy.blend_block

    def counting(*args):
        blended.append(args)
        return real(*args)

    monkeypatch.setattr(hierarchy, "blend_block", counting)
    second = run_episode(tasked.clone(), 20, np.random.default_rng(5))
    assert first.events and blended == []
    assert second.states == first.states
    assert second.total_return == first.total_return


def test_composites_are_read_only():
    stack = tasked_ring_tower()
    stack.apply_inpaint(0, np.zeros(stack.layers[0].n_subtasks))
    terminate_layer(stack, 2)
    # layer 0 re-blended, layer 1 recomposed dead, layer 2 from set_task
    for z in stack.z_full:
        with pytest.raises(ValueError):
            z[0] = 1.0


def test_a_failed_inpaint_changes_nothing(monkeypatch):
    stack = tasked_ring_tower()
    weights, z_full = list(stack.weights), list(stack.z_full)

    def zero_weights(aug, inpainted, current):
        return TaskWeights(np.zeros_like(current.values), 0.0)

    monkeypatch.setattr(hierarchy, "rewards_to_task_weights", zero_weights)
    with pytest.raises(NonPositiveComposite, match="layer 0"):
        stack.apply_inpaint(0, np.zeros(stack.layers[0].n_subtasks))
    assert all(new is old for new, old in zip(stack.weights, weights))
    assert all(new is old for new, old in zip(stack.z_full, z_full))
    assert stack.reblends == {}


# ---------------------------------------------------------------------------
# block-form task matrices


def test_no_augmented_layer_holds_a_dense_task_matrix():
    # every layer shares the one base block; an augmented layer keeps only
    # its subtask block beside it, never [[Q, f], [f, Q_t]] assembled
    _, stack = ring_tower_template()
    for entry in stack.layers:
        assert entry.base_tasks is stack.layers[0].base_tasks
    for entry in stack.layers[:-1]:
        dense = (entry.lmdp.n_boundary, entry.n_base_tasks + entry.n_subtasks)
        arrays = [value for value in vars(entry).values() if isinstance(value, np.ndarray)]
        assert entry.subtask_tasks.shape == (entry.n_subtasks,) * 2
        assert all(array.shape != dense for array in arrays)


_weight = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), layer=st.integers(0, 2), zero_base=st.booleans(),
       dead=st.booleans())
def test_block_composes_match_the_dense_task_matrix(data, layer, zero_base, dead):
    # z_b = T w over the dense task matrix T of the oracle, zero at the
    # subtask states when the layer above is dead, and its first-exit solve
    # inside; the clones share the base-term memo across examples, so a memo
    # keyed on anything less than the base weights would compose stale terms
    _, template = ring_tower_template()
    stack, entry = template.clone(), template.layers[layer]
    w_b = np.array(data.draw(st.lists(_weight, min_size=entry.n_base_tasks,
                                      max_size=entry.n_base_tasks)))
    if zero_base:
        w_b[:] = 0.0
    w_t = np.array(data.draw(st.lists(_weight, min_size=entry.n_subtasks,
                                      max_size=entry.n_subtasks)))
    weights = TaskWeights(np.concatenate([w_b, w_t]), 0.0)
    lmdp = entry.lmdp
    if not weights.values.any():
        with pytest.raises(NonPositiveComposite):
            stack._compose(layer, weights, dead)
        return
    for flag in (dead, not dead):
        expected = oracles.layer_desirability(
            lmdp.passive.full_matrix, lmdp.n_interior, lmdp.rewards.interior,
            lmdp.rewards.temperature, dense_tasks(entry), weights.values,
            entry.n_subtasks, flag)
        z = stack._compose(layer, weights, flag).z
        np.testing.assert_allclose(z, expected, rtol=1e-12, atol=0)
