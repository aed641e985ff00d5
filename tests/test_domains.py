"""Domain generators: ring, grid worlds, discretized 2-link arm."""
import math

import numpy as np
import pytest

from lsmdp import (
    ArmSpec,
    GridSpec,
    RingSpec,
    arm_end_effector,
    boundary_goal_tasks,
    four_rooms_map,
    goal_task_vector,
    grid_from_ascii,
    make_arm,
    make_grid,
    make_ring,
    solve_interior,
)
from lsmdp.errors import BlockedCell, EmptyTarget, InvalidSpec


def assert_stochastic(lmdp, atol=1e-12):
    total = np.asarray(lmdp.passive.full_matrix.sum(axis=0)).ravel()
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=atol)


# ---------------------------------------------------------------------------
# goal task helpers


def test_goal_tasks_are_point_masses_with_penalty_floor():
    lam = 0.5
    tasks = boundary_goal_tasks(4, lam)
    assert tasks.shape == (4, 4)
    np.testing.assert_allclose(np.diag(tasks), 1.0, rtol=1e-15)
    off = tasks[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, math.exp(-20.0), rtol=1e-12)
    goal = goal_task_vector(4, 2, lam)
    assert goal[2] == 1.0
    np.testing.assert_allclose(np.delete(goal, 2), math.exp(-10.0), rtol=1e-12)


@pytest.mark.parametrize("index", [-1, 4, 1.0, True],
                         ids=["negative", "past-end", "float", "bool"])
def test_goal_index_must_name_a_boundary_twin(index):
    # -1 used to make the last twin the goal, 4 and 1.0 to raise IndexError
    with pytest.raises(InvalidSpec, match="not a boundary index"):
        goal_task_vector(4, index, 0.5)


# ---------------------------------------------------------------------------
# rings


def test_smallest_ring_builds():
    spec = RingSpec(3, subtask_spacing=2)
    assert spec.level_sizes() == [3]
    lmdp, structures, tasks = make_ring(spec)
    assert lmdp.n_interior == 3 and lmdp.n_boundary == 3
    assert structures == []
    assert tasks.shape == (3, 3)
    assert_stochastic(lmdp)


def test_ring_spec_validation():
    with pytest.raises(InvalidSpec):
        RingSpec(2)
    with pytest.raises(InvalidSpec):
        RingSpec(5, subtask_spacing=1)
    with pytest.raises(InvalidSpec):
        RingSpec(5, depth=0)
    with pytest.raises(InvalidSpec):
        RingSpec(5, step_prob=0.5)
    with pytest.raises(InvalidSpec):
        RingSpec(5, step_prob=0.0)
    with pytest.raises(InvalidSpec):
        RingSpec(5, step_prob=0.3, exit_prob=0.5)   # stay mass is only 0.4
    with pytest.raises(InvalidSpec):
        RingSpec(9, subtask_spacing=3, depth=3).level_sizes()
    for weight in (0.0, -0.25, math.inf, math.nan):
        with pytest.raises(InvalidSpec, match="access_weight must be finite and positive"):
            RingSpec(9, subtask_spacing=3, depth=2, access_weight=weight)


def test_ring_tower_level_sizes():
    assert RingSpec(27, subtask_spacing=3, depth=3).level_sizes() == [27, 9, 3]
    lmdp, structures, _ = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    assert [w.weights.shape for w in structures] == [(9, 27), (3, 9)]
    for structure in structures:
        counts = (structure.weights > 0).sum(axis=1)
        np.testing.assert_array_equal(counts, 1)


def test_ring_passive_support():
    spec = RingSpec(7)
    lmdp, _, _ = make_ring(spec)
    P_i = lmdp.passive.to_interior.toarray()
    P_b = lmdp.passive.to_boundary.toarray()
    n = 7
    for s in range(n):
        col = P_i[:, s]
        assert col[(s - 1) % n] == pytest.approx(spec.step_prob)
        assert col[(s + 1) % n] == pytest.approx(spec.step_prob)
        assert col[s] == pytest.approx(1.0 - 2 * spec.step_prob - spec.exit_prob)
        assert np.count_nonzero(col) == 3
        assert P_b[s, s] == pytest.approx(spec.exit_prob)
        assert np.count_nonzero(P_b[:, s]) == 1


def test_ring_rotation_symmetry():
    lmdp, _, _ = make_ring(RingSpec(8))
    lam = lmdp.rewards.temperature
    z0 = solve_interior(lmdp, goal_task_vector(8, 0, lam))
    z3 = solve_interior(lmdp, goal_task_vector(8, 3, lam))
    np.testing.assert_allclose(z3, np.roll(z0, 3), rtol=1e-12)


# ---------------------------------------------------------------------------
# grids


def test_ascii_round_trip():
    spec, subtasks = grid_from_ascii("G.S\n..#")
    assert spec.width == 3 and spec.height == 2
    assert spec.walls == frozenset({(1, 2)})
    assert spec.goal_cells == ((0, 0),)
    assert subtasks == ((0, 2),)


def test_ascii_rejects_malformed_maps():
    with pytest.raises(InvalidSpec):
        grid_from_ascii("")
    with pytest.raises(InvalidSpec):
        grid_from_ascii("G.\n...")
    with pytest.raises(InvalidSpec):
        grid_from_ascii("GX\n..")
    with pytest.raises(InvalidSpec):
        grid_from_ascii(four_rooms_map(11))   # layout carries no goal cell


def test_goal_override_names_the_goal():
    spec, _ = grid_from_ascii(four_rooms_map(11), goal_cells=[(0, 10)])
    assert spec.goal_cells == ((0, 10),)


def test_grid_spec_validation():
    with pytest.raises(InvalidSpec):
        GridSpec(width=3, height=3, goal_cells=((0, 0),), stay_prob=0.5)
    with pytest.raises(InvalidSpec, match="stay_prob"):
        GridSpec(width=3, height=3, goal_cells=((0, 0),), stay_prob=math.nan)
    with pytest.raises(InvalidSpec):
        GridSpec(width=3, height=3, goal_cells=())
    with pytest.raises(BlockedCell):
        GridSpec(width=3, height=3, goal_cells=((5, 5),))
    with pytest.raises(BlockedCell):
        GridSpec(width=3, height=3, walls={(1, 1)}, goal_cells=((1, 1),))
    for width, height in ((0, 3), (3, 0), (-1, 3)):
        with pytest.raises(InvalidSpec, match="positive dimensions"):
            GridSpec(width=width, height=height, goal_cells=((0, 0),))
    # a float, bool or string dimension is named, not truncated or a TypeError
    for width, height, field in ((2.5, 3, "width"), (True, 3, "width"), ("3", 3, "width"),
                                 (3, 3.0, "height")):
        with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
            GridSpec(width=width, height=height, goal_cells=((0, 0),))


def test_four_rooms_layout():
    text = four_rooms_map(11)
    rows = text.splitlines()
    assert len(rows) == 11 and all(len(r) == 11 for r in rows)
    for k in range(11):
        assert (rows[5][k] == ".") == (k in (2, 8))
        assert (rows[k][5] == ".") == (k in (2, 8))
    assert sum(row.count("#") for row in rows) == 11 + 11 - 1 - 4
    with pytest.raises(InvalidSpec):
        four_rooms_map(10)
    with pytest.raises(InvalidSpec):
        four_rooms_map(3)


def test_disconnected_grid_is_rejected():
    spec, _ = grid_from_ascii("G#.\n.#.")
    with pytest.raises(InvalidSpec):
        make_grid(spec)


def test_grid_transition_mass():
    spec, _ = grid_from_ascii("G..\n...\n...")
    lmdp, _, _ = make_grid(spec)
    assert lmdp.n_interior == 9 and lmdp.n_boundary == 1
    assert_stochastic(lmdp)
    P_i = lmdp.passive.to_interior.toarray()
    P_b = lmdp.passive.to_boundary.toarray()
    # corner goal cell: two moves, stay absorbs the two blocked moves,
    # exit mass diverted to the twin
    assert P_b[0, 0] == pytest.approx(spec.exit_prob)
    assert P_i[0, 0] == pytest.approx(
        spec.stay_prob + 2 * spec.step_prob - spec.exit_prob)
    # interior center cell keeps plain stay mass and no twin
    center = 4
    assert P_i[center, center] == pytest.approx(spec.stay_prob)
    assert P_b[:, center].sum() == 0


def test_grid_rotation_symmetry():
    spec, _ = grid_from_ascii(".....\n.....\n..G..\n.....\n.....")
    lmdp, _, goal_q = make_grid(spec)
    z = solve_interior(lmdp, goal_q)
    cells = spec.free_cells()
    idx = {cell: k for k, cell in enumerate(cells)}
    corners = [z[idx[c]] for c in ((0, 0), (0, 4), (4, 0), (4, 4))]
    np.testing.assert_allclose(corners, corners[0], rtol=1e-12)
    edges = [z[idx[c]] for c in ((0, 2), (2, 0), (2, 4), (4, 2))]
    np.testing.assert_allclose(edges, edges[0], rtol=1e-12)


def test_subtasks_must_sit_on_free_cells():
    spec, _ = grid_from_ascii("G#.\n...")
    with pytest.raises(BlockedCell):
        make_grid(spec, [(0, 1)])
    with pytest.raises(BlockedCell):
        make_grid(spec, (), goal=(1, 2))   # free cell without a twin


def test_named_labels_follow_cells():
    spec, subtasks = grid_from_ascii("G.S")
    lmdp, structure, _ = make_grid(spec, subtasks)
    assert lmdp.partition.label(0) == "r0c0"
    assert lmdp.partition.label(3) == "goal_r0c0"
    assert structure.labels == ("door_r0c2",)


# ---------------------------------------------------------------------------
# arm


def test_forward_kinematics_at_rest():
    assert arm_end_effector(0.0, 0.0, (1.0, 1.0)) == pytest.approx((2.0, 0.0))
    x, y = arm_end_effector(math.pi / 2, 0.0, (1.0, 1.0))
    assert (x, y) == pytest.approx((0.0, 2.0), abs=1e-15)


def test_forward_kinematics_matches_complex_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(100):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        l1, l2 = rng.uniform(0.2, 2.0, 2)
        expected = l1 * np.exp(1j * t1) + l2 * np.exp(1j * (t1 + t2))
        x, y = arm_end_effector(t1, t2, (l1, l2))
        assert x == pytest.approx(expected.real, abs=1e-12)
        assert y == pytest.approx(expected.imag, abs=1e-12)


def test_angle_grid():
    angles = ArmSpec(4).angles()
    np.testing.assert_allclose(
        angles, [-math.pi, -math.pi / 2, 0.0, math.pi / 2], atol=1e-15)


def test_arm_spec_validation():
    with pytest.raises(InvalidSpec):
        ArmSpec(2)
    with pytest.raises(InvalidSpec):
        ArmSpec(5, link_lengths=(0.0, 1.0))
    with pytest.raises(InvalidSpec):
        ArmSpec(5, target_rect=(1.0, 1.0, 0.0, 1.0))
    with pytest.raises(InvalidSpec):
        ArmSpec(5, step_prob=0.25)   # four moves need step_prob below 1/4
    for links in ((1.0,), (1.0, 1.0, 1.0)):  # used to raise IndexError or ValueError
        with pytest.raises(InvalidSpec, match="two positive numbers"):
            ArmSpec(5, link_lengths=links)


@pytest.mark.parametrize("spec, field", [
    (lambda: RingSpec(5, exit_prob=-0.01), "exit_prob"),
    (lambda: RingSpec(5, exit_prob=math.nan), "exit_prob"),
    (lambda: RingSpec(5, step_prob=math.nan), "step_prob"),
    (lambda: ArmSpec(5, step_prob=-0.01), "step_prob"),
    (lambda: ArmSpec(5, step_prob=math.nan), "step_prob"),
    (lambda: ArmSpec(5, exit_prob=-0.01), "exit_prob"),
    (lambda: ArmSpec(5, exit_prob=math.nan), "exit_prob"),
    (lambda: ArmSpec(5, step_prob=0.2, exit_prob=0.5), "exit_prob"),
    (lambda: GridSpec(3, 3, goal_cells=((0, 0),), step_prob=math.nan), "step_prob"),
    (lambda: GridSpec(3, 3, goal_cells=((0, 0),), exit_prob=math.nan), "exit_prob"),
    (lambda: GridSpec(3, 3, goal_cells=((0, 0),), exit_prob=-0.01), "exit_prob"),
    (lambda: GridSpec(3, 3, goal_cells=((0, 0),), exit_prob=0.5), "exit_prob"),
], ids=["ring-exit-negative", "ring-exit-nan", "ring-step-nan", "arm-step-negative",
        "arm-step-nan", "arm-exit-negative", "arm-exit-nan", "arm-exit-over-stay",
        "grid-step-nan", "grid-exit-nan", "grid-exit-negative", "grid-exit-over-stay"])
def test_walk_probabilities_are_checked_by_field(spec, field):
    # a negative arm step used to surface as NotStochastic from the kernel, a
    # NaN one as a ValueError, and a negative exit as "exceeds stay mass";
    # an exit above the stay mass 1 - 4 * 0.2 is named as such
    with pytest.raises(InvalidSpec, match=f"^{field} must lie in .*, got (-0.01|nan|0.5)$"):
        spec()


def test_arm_target_membership_matches_kinematics():
    spec = ArmSpec(17)
    lmdp, basis, target_q = make_arm(spec)
    assert lmdp.n_interior == 289 and lmdp.n_boundary == 289
    assert basis.n_tasks == 289
    assert_stochastic(lmdp)
    angles = spec.angles()
    x0, x1, y0, y1 = spec.target_rect
    hits = 0
    for i in range(17):
        for j in range(17):
            x, y = arm_end_effector(angles[i], angles[j], spec.link_lengths)
            inside = x0 <= x <= x1 and y0 <= y <= y1
            assert (target_q[i * 17 + j] == 1.0) == inside
            hits += inside
    assert hits > 0
    assert np.all((target_q == 1.0) | np.isclose(target_q, math.exp(-10.0)))


def test_arm_wraps_both_joints():
    spec = ArmSpec(5, target_rect=(-3.0, 3.0, -3.0, 3.0))
    lmdp, _, _ = make_arm(spec)
    P_i = lmdp.passive.to_interior
    # state (0, 0) reaches (4, 0) and (0, 4) through the wrap
    col = P_i[:, 0].toarray().ravel()
    assert col[4 * 5 + 0] == pytest.approx(spec.step_prob)
    assert col[0 * 5 + 4] == pytest.approx(spec.step_prob)


def test_empty_target_is_rejected():
    with pytest.raises(EmptyTarget):
        make_arm(ArmSpec(5, target_rect=(10.0, 11.0, 10.0, 11.0)))


def test_whole_plane_target_accepts_everything():
    _, _, target_q = make_arm(ArmSpec(5, target_rect=(-3.0, 3.0, -3.0, 3.0)))
    np.testing.assert_array_equal(target_q, 1.0)
