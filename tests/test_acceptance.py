"""Acceptance suite: one test per stated criterion, at stated tolerances.

Each test carries its wall-clock budget as an assertion so a regression in
algorithmic complexity fails loudly rather than stalling the suite.  The
terminal summary hook in conftest prints one pass/fail line per criterion.
"""
import json
import math
import time

import numpy as np
import pytest

from lsmdp import (
    ArmSpec,
    GridSpec,
    Lmdp,
    PassiveDynamics,
    RewardModel,
    RingSpec,
    SubtaskStructure,
    boundary_goal_tasks,
    build_stack,
    build_task_basis,
    draw_from,
    four_rooms_map,
    goal_task_vector,
    inpaint_rewards,
    make_arm,
    make_grid,
    make_ring,
    policy_column,
    run_episode,
    solve_interior,
    solve_novel_task,
    terminate_layer,
    train,
    z_iterate,
)
from lsmdp.bench import ring_scaling
from lsmdp.cli import EXIT_OK, main
from lsmdp.hierarchy import absorption_dynamics, augment
from lsmdp.multitask import blend_weights_matrix

import oracles
from conftest import (four_rooms_setting, kernel_blocks, random_boundary_q,
                      random_lmdp)


def elapsed_under(t0, budget):
    return time.perf_counter() - t0 < budget


@pytest.fixture(scope="module")
def random_suite():
    """The 100 shared random instances criteria 1 and 2 both run over."""
    rng = np.random.default_rng(101)
    suite = []
    for _ in range(100):
        lmdp = random_lmdp(rng, max_interior=50, max_boundary=8)
        q1 = random_boundary_q(rng, lmdp.n_boundary)
        q2 = random_boundary_q(rng, lmdp.n_boundary)
        alpha, beta = rng.uniform(0.1, 2.0, 2)
        suite.append((lmdp, q1, q2, float(alpha), float(beta)))
    return suite


# ---------------------------------------------------------------------------


def test_criterion_1_composition(random_suite):
    t0 = time.perf_counter()
    for lmdp, q1, q2, alpha, beta in random_suite:
        z1 = solve_interior(lmdp, q1)
        z2 = solve_interior(lmdp, q2)
        z_mix = solve_interior(lmdp, alpha * q1 + beta * q2)
        expected = alpha * z1 + beta * z2
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(z_mix - expected).max() <= 1e-9 * scale
    assert elapsed_under(t0, 10.0)


def test_criterion_2_solver_equivalence(random_suite):
    t0 = time.perf_counter()
    tol = 1e-10
    for k, (lmdp, _, _, _, _) in enumerate(random_suite):
        z_direct = solve_interior(lmdp, lmdp.q_boundary)
        z_iter, iterations, converged = z_iterate(lmdp, lmdp.q_boundary,
                                                  tol=tol)
        assert converged
        scale = 1.0 + np.abs(z_direct).max()
        assert np.abs(z_direct - z_iter).max() <= 10 * tol * scale
        if k % 10 == 0:
            # iterates from zero increase monotonically toward the solution
            z = np.zeros(lmdp.n_interior)
            previous = z
            for _ in range(40):
                z, _, _ = z_iterate(lmdp, lmdp.q_boundary, z0=z, max_iter=1,
                                    tol=0.0)
                assert (z >= previous - 1e-15).all()
                assert (z <= z_direct + tol * scale).all()
                previous = z
    assert elapsed_under(t0, 30.0)


def test_criterion_3_derived_dynamics():
    t0 = time.perf_counter()
    instances = []

    rng = np.random.default_rng(43)
    P = rng.random((6, 5)) * (rng.random((6, 5)) < 0.7)
    P[5, :] += 0.1
    P = P / P.sum(axis=0)
    lmdp = Lmdp(PassiveDynamics(P[:5], P[5:]),
                RewardModel(np.full(5, -1.0), [0.0], 1.0))
    W = np.zeros((2, 5))
    W[0, 1] = 0.4
    W[1, 3] = 0.4
    W[1, 4] = 0.2
    basis = build_task_basis(lmdp, np.ones((1, 1)))
    instances.append(augment(basis.base, basis.boundary_tasks, SubtaskStructure(W)))

    ring, structures, tasks = make_ring(RingSpec(9, subtask_spacing=3, depth=2))
    basis = build_task_basis(ring, tasks)
    instances.append(augment(basis.base, basis.boundary_tasks, structures[0]))

    for aug in instances:
        assert aug.lmdp.n_states <= 30
        to_i, to_b = absorption_dynamics(aug.lmdp.passive, aug.n_subtasks)
        total = to_i.sum(axis=0) + to_b.sum(axis=0)
        assert np.abs(total - 1.0).max() <= 1e-10
        to_interior, to_boundary, to_subtasks = kernel_blocks(aug.lmdp.passive,
                                                              aug.n_subtasks)
        freq_t, freq_b = oracles.mc_absorption(
            to_interior, to_subtasks, to_boundary, n_walks=1_000_000, seed=17)
        assert np.abs(to_i - freq_t).max() <= 0.005
        assert np.abs(to_b - freq_b).max() <= 0.005
    assert elapsed_under(t0, 120.0)


def test_criterion_4_blend_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(50):
        n_b = int(rng.integers(2, 9))
        n_t = int(rng.integers(1, 6))
        Q = np.abs(rng.standard_normal((n_b, n_t))) + 0.01
        q = np.abs(rng.standard_normal(n_b)) + 0.01
        weights = blend_weights_matrix(Q, q, method="nnls")
        assert (weights.values >= 0).all()
        best = oracles.best_nonnegative_residual(Q, q)
        assert weights.residual <= best + 1e-9
    assert elapsed_under(t0, 10.0)


def test_criterion_5_arm_composition():
    t0 = time.perf_counter()
    lmdp, basis, target_q = make_arm(ArmSpec(17))
    z_blend, weights = solve_novel_task(basis, target_q)
    z_direct = solve_interior(lmdp, target_q)
    rel = np.abs(z_blend.interior - z_direct).max() / np.abs(z_direct).max()
    assert rel <= 1e-9
    assert (weights.values >= 0).all()
    np.testing.assert_allclose(z_blend.boundary, target_q, rtol=0,
                               atol=1e-9 * target_q.max())
    assert elapsed_under(t0, 60.0)


def test_criterion_6_ring_scaling():
    t0 = time.perf_counter()
    rows, slopes = ring_scaling([16, 32, 64, 128, 256])
    assert 1.7 <= slopes["flat_total_iterations"] <= 2.3
    assert 1.7 <= slopes["flat_nonzeros"] <= 2.3
    assert 0.9 <= slopes["hierarchical_total_iterations"] <= 1.4
    assert 0.9 <= slopes["hierarchical_nonzeros"] <= 1.4
    assert elapsed_under(t0, 600.0)


def test_criterion_7_four_rooms_learning():
    t0 = time.perf_counter()
    bfs = oracles.bfs_steps(four_rooms_map(11), (10, 0), (0, 10))
    assert bfs == 20
    lmdp, template, goal_q, spec, start = four_rooms_setting()
    n_seeds = 10
    flat_first, flat_final = [], []
    guided_first, guided_final = [], []
    for seed in range(n_seeds):
        _, curve = train(lmdp, goal_q, epochs=30, episodes_per_epoch=10,
                         seed=seed, start_state=start, max_steps=2000)
        flat_first.append(curve[0][1])
        flat_final.append(curve[-1][1])
        _, curve = train(lmdp, goal_q, epochs=30, episodes_per_epoch=10,
                         seed=seed, stack=template, start_state=start,
                         max_steps=2000)
        guided_first.append(curve[0][1])
        guided_final.append(curve[-1][1])
    gap = np.mean(flat_first) - np.mean(guided_first)
    stderr = math.sqrt(np.var(flat_first, ddof=1) / n_seeds
                       + np.var(guided_first, ddof=1) / n_seeds)
    assert gap > 3 * stderr
    assert np.mean(flat_final) <= 1.5 * bfs
    assert np.mean(guided_final) <= 1.5 * bfs
    assert elapsed_under(t0, 300.0)


def test_criterion_8_execution_protocol():
    t0 = time.perf_counter()

    # depth-1 executor draws are bit-identical to a flat policy rollout
    lmdp, _, tasks = make_ring(RingSpec(12, subtask_spacing=3, depth=1))
    flat = build_stack(build_task_basis(lmdp, tasks), [])
    flat.set_task(goal_task_vector(lmdp.n_boundary, 4,
                                   lmdp.rewards.temperature))
    target = flat.target
    z = np.concatenate([solve_interior(lmdp, target), target])
    n_i = lmdp.n_interior
    for seed in range(50):
        traj = run_episode(flat.clone(), 0, np.random.default_rng(seed),
                           max_steps=5000)
        rng = np.random.default_rng(seed)
        s, states = 0, [0]
        while True:
            rows, probs = policy_column(lmdp, z, s)
            nxt = int(draw_from(rows, probs, rng))
            states.append(nxt)
            if nxt >= n_i:
                break
            s = nxt
        assert traj.states == states

    # a terminated layer attracts no draws across 1e5 policy samples
    spec = GridSpec(width=9, height=1, goal_cells=((0, 8),))
    grid, structure, goal_q = make_grid(spec, [(0, 1), (0, 4), (0, 7)], (0, 8))
    stack = build_stack(
        build_task_basis(grid,
                         boundary_goal_tasks(grid.n_boundary,
                                             spec.temperature)),
        [structure])
    stack.set_task(goal_q)
    terminate_layer(stack, 1)
    lmdp0, z0 = stack.policy_state(0)
    lo, hi = stack.layers[0].subtask_range
    assert (z0[lo:hi] == 0).all()
    rng = np.random.default_rng(88)
    for _ in range(100_000):
        s = int(rng.integers(lmdp0.n_interior))
        rows, probs = policy_column(lmdp0, z0, s)
        assert not lo <= draw_from(rows, probs, rng) < hi

    # agreeing with the passive dynamics inpaints nothing and re-blending
    # against neutral rewards leaves weights and desirability unchanged
    fresh = build_stack(
        build_task_basis(grid,
                         boundary_goal_tasks(grid.n_boundary,
                                             spec.temperature)),
        [structure])
    fresh.set_task(goal_q)
    p = np.asarray(fresh.layers[1].lmdp.passive.full_matrix[:, 0].todense()).ravel()
    np.testing.assert_array_equal(
        inpaint_rewards(p, p, fresh.kappa, fresh.layers[1].lmdp.n_interior), 0.0)
    weights_before = [w.values.copy() for w in fresh.weights]
    z_before = [v.copy() for v in fresh.z_full]
    fresh.apply_inpaint(0, np.zeros(fresh.layers[0].n_subtasks))
    for before, after in zip(weights_before, fresh.weights):
        np.testing.assert_allclose(after.values, before, rtol=0, atol=1e-12)
    for before, after in zip(z_before, fresh.z_full):
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)

    assert elapsed_under(t0, 60.0)


def test_criterion_9_cli_determinism(tmp_path, chain5):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    ring_cfg = write("ring.json", {"type": "ring", "n_states": 12,
                                   "subtask_spacing": 3, "depth": 2,
                                   "goal": 0, "start": 6})
    rooms_cfg = write("rooms.json", {
        "type": "grid", "four_rooms": 11, "goal_cells": [[0, 10]],
        "subtask_cells": [[2, 5], [5, 2], [5, 8], [8, 5]],
        "goal": [0, 10], "start": [10, 0], "temperature": 0.5,
        "max_steps": 2000,
        "learn": {"epochs": 2, "episodes": 5, "n_seeds": 2,
                  "max_steps": 500, "conditions": ["flat", "guided"]},
    })
    arm_cfg = write("arm.json", {"type": "arm", "n_bins": 7,
                                 "target_rect": [-3.0, 3.0, -3.0, 3.0]})

    commands = {
        "solve": ["solve", "--domain", ring_cfg, "--seed", "1"],
        "blend": ["blend", "--domain", arm_cfg, "--seed", "1"],
        "stack": ["stack", "--domain", ring_cfg, "--seed", "1"],
        "simulate": ["simulate", "--domain", rooms_cfg, "--seed", "1"],
        "learn": ["learn", "--domain", rooms_cfg, "--seed", "1"],
        "bench": ["bench", "--sizes", "8,16", "--seed", "1"],
    }
    for name, argv in commands.items():
        artifacts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            files = sorted(p for p in out.rglob("*") if p.is_file())
            artifacts.append({str(p.relative_to(out)): p.read_bytes()
                              for p in files})
        assert sorted(artifacts[0]) == sorted(artifacts[1])
        for rel, blob in artifacts[0].items():
            assert artifacts[1][rel] == blob, f"{name}: {rel} differs"
        assert any(rel.endswith(".csv") or rel.endswith(".json")
                   for rel in artifacts[0])
