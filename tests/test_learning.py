"""Online desirability estimation, flat and hierarchy-guided."""
import math

import numpy as np
import pytest

import lsmdp.learning
from lsmdp import (
    LearningState,
    RingSpec,
    draw_from,
    goal_task_vector,
    make_ring,
    run_learning_episode,
    solve_interior,
    train,
    z_learning_step,
)
from lsmdp.errors import DimensionMismatch, InvalidSpec


def fresh_learner(n_interior, boundary, step_scale=50.0):
    return LearningState(np.ones(n_interior), np.asarray(boundary, float),
                         np.zeros(n_interior, dtype=np.int64),
                         step_scale=step_scale)


def ring20():
    lmdp, _, _ = make_ring(RingSpec(20, depth=1))
    goal = goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature)
    return lmdp, goal


# ---------------------------------------------------------------------------
# the update rule


def test_full_step_writes_the_sampled_backup():
    # a first visit steps by c / (c + 0) = 1 exactly
    learner = fresh_learner(2, [0.5])
    z = z_learning_step(learner, 0, -1.0, 2, 1.0)
    assert z == pytest.approx(math.exp(-1.0) * 0.5, rel=1e-15)
    assert learner.z_interior[0] == z


def test_backward_sweep_recovers_a_deterministic_chain():
    # states 0..4 walk right, state 4 exits to the single boundary state
    n = 5
    learner = fresh_learner(n, [1.0])
    for s in reversed(range(n)):  # one first visit each: full steps
        z_learning_step(learner, s, -1.0, s + 1, 1.0)
    np.testing.assert_allclose(learner.z_interior,
                               np.exp(-(n - np.arange(n, dtype=float))),
                               rtol=1e-14)


def test_visit_schedule_decays():
    learner = fresh_learner(1, [1.0], step_scale=50.0)
    assert learner.alpha(0) == 1.0
    for _ in range(50):
        z_learning_step(learner, 0, -1.0, 1, 1.0)
    assert learner.alpha(0) == pytest.approx(0.5, rel=1e-15)


def test_passive_samples_converge_to_the_solution():
    lmdp, goal = ring20()
    lam = lmdp.rewards.temperature
    z_star = solve_interior(lmdp, goal)
    n = lmdp.n_interior
    P = lmdp.passive.full_matrix
    for seed in range(3):
        learner = fresh_learner(n, goal)
        rng = np.random.default_rng(seed)
        s = int(rng.integers(n))
        for _ in range(200_000):
            lo, hi = P.indptr[s], P.indptr[s + 1]
            nxt = draw_from(P.indices[lo:hi], P.data[lo:hi], rng)
            z_learning_step(learner, s, lmdp.rewards.interior[s], nxt, lam)
            s = int(rng.integers(n)) if nxt >= n else nxt
        rel = np.abs(learner.z_interior - z_star) / z_star
        assert rel.max() < 0.35
        assert (learner.z_interior > 0).all()


# ---------------------------------------------------------------------------
# episodes


def test_episode_updates_once_per_advancing_step(monkeypatch, rooms):
    lmdp, template, goal_q, spec, start = rooms
    calls = []
    original = lsmdp.learning.z_learning_step

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(lsmdp.learning, "z_learning_step", counting)

    flat_learner = fresh_learner(lmdp.n_interior, goal_q)
    steps = run_learning_episode(lmdp, flat_learner,
                                 np.random.default_rng(0),
                                 start_state=start, max_steps=500)
    assert len(calls) == steps

    stack = template.clone()
    stack.set_task(goal_q)
    aug = stack.layers[0].lmdp
    guided_learner = fresh_learner(
        aug.n_interior,
        np.concatenate([goal_q, np.ones(stack.layers[0].n_subtasks)]))
    calls.clear()
    steps = run_learning_episode(aug, guided_learner,
                                 np.random.default_rng(0), stack=stack,
                                 start_state=start, max_steps=500)
    assert len(calls) == steps


def test_episode_rejects_bad_start(rooms):
    lmdp, _, goal_q, _, _ = rooms
    learner = fresh_learner(lmdp.n_interior, goal_q)
    with pytest.raises(InvalidSpec):
        run_learning_episode(lmdp, learner, np.random.default_rng(0),
                             start_state=lmdp.n_interior)


def test_estimates_stay_positive_during_training(rooms):
    lmdp, _, goal_q, _, start = rooms
    learner, _ = train(lmdp, goal_q, epochs=3, episodes_per_epoch=5,
                       seed=0, start_state=start, max_steps=2000)
    assert (learner.z_interior > 0).all()
    np.testing.assert_array_equal(learner.boundary_values, goal_q)


# ---------------------------------------------------------------------------
# training curves


def test_flat_training_shortens_episodes(rooms):
    lmdp, _, goal_q, _, start = rooms
    for seed in range(3):
        _, curve = train(lmdp, goal_q, epochs=10, episodes_per_epoch=10,
                         seed=seed, start_state=start, max_steps=2000)
        assert len(curve) == 10
        assert [row[0] for row in curve] == list(range(10))
        assert curve[-1][1] < curve[0][1] / 2
        assert curve[-1][1] < 60.0
        assert all(row[2] >= 0 for row in curve)


def test_zero_epochs_trains_nothing(rooms):
    # an empty learning curve would pass for a finished run, so it is refused
    lmdp, _, goal_q, _, _ = rooms
    for epochs in (0, -1):
        with pytest.raises(InvalidSpec, match="epochs"):
            train(lmdp, goal_q, epochs=epochs, episodes_per_epoch=5, seed=0)


def test_guided_training_leaves_the_template_alone(rooms):
    lmdp, template, goal_q, spec, start = rooms
    stack = template.clone()
    stack.set_task(goal_q)
    weights_before = [w.values.copy() for w in stack.weights]
    z_before = [z.copy() for z in stack.z_full]
    learner, curve = train(lmdp, goal_q, epochs=2, episodes_per_epoch=5,
                           seed=1, stack=stack, start_state=start,
                           max_steps=2000)
    assert len(curve) == 2
    assert not stack.terminated[1]
    for before, after in zip(weights_before, stack.weights):
        np.testing.assert_array_equal(before, after.values)
    for before, after in zip(z_before, stack.z_full):
        np.testing.assert_array_equal(before, after)
    # guided learner covers the augmented layer
    aug = stack.layers[0].lmdp
    assert learner.z_interior.shape == (aug.n_interior,)
    assert learner.boundary_values.shape == (aug.n_boundary,)
    np.testing.assert_array_equal(
        learner.boundary_values,
        np.concatenate([goal_q, np.ones(stack.layers[0].n_subtasks)]))


def test_wrong_goal_shape_is_rejected(rooms):
    lmdp, _, goal_q, _, _ = rooms
    with pytest.raises(DimensionMismatch):
        train(lmdp, np.ones(lmdp.n_boundary + 1), epochs=1,
              episodes_per_epoch=1, seed=0)
