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


# Criterion 7's map (lambda 0.5, 30 epochs of 10 episodes, max_steps 2000),
# seed 2.  Every step draws through policy_column/draw_from and backs up
# through z_learning_step, so any change to their arithmetic moves a length.
# Step totals: 9724 flat, 7440 guided.
PINNED_FLAT_CURVE = [
    (0, 129.3, 21.5767621914565),
    (1, 78.2, 13.263818789808948),
    (2, 50.8, 8.97007370216222),
    (3, 33.3, 3.729909143963459),
    (4, 32.9, 4.094576358496146),
    (5, 29.3, 2.103172207246314),
    (6, 30.3, 1.6265163865007803),
    (7, 27.4, 0.8459051693633013),
    (8, 26.4, 1.39204086785474),
    (9, 26.2, 0.7423685817106694),
    (10, 28.6, 1.5719768163402126),
    (11, 24.5, 0.7340905181848414),
    (12, 25.5, 1.0775486583496408),
    (13, 25.6, 1.2578641509408806),
    (14, 25.6, 1.0666666666666667),
    (15, 25.9, 0.9122621455602673),
    (16, 24.4, 0.7333333333333333),
    (17, 26.0, 0.6324555320336759),
    (18, 25.1, 0.5666666666666667),
    (19, 25.4, 1.2128936932440166),
    (20, 25.9, 1.149395976637778),
    (21, 24.2, 0.41633319989322654),
    (22, 25.9, 0.9712534856222309),
    (23, 25.0, 0.8432740427115677),
    (24, 25.4, 0.6359594676112971),
    (25, 24.4, 0.8326663997864531),
    (26, 26.1, 0.6904105059069325),
    (27, 24.1, 0.5467073155618908),
    (28, 24.7, 0.8171767114754174),
    (29, 26.0, 0.9775252199076786),
]
PINNED_GUIDED_CURVE = [
    (0, 26.3, 1.4609738000540748),
    (1, 27.6, 1.9275776393067947),
    (2, 29.8, 1.6110727964792764),
    (3, 37.0, 4.474619785213289),
    (4, 29.8, 3.5049171808253106),
    (5, 30.8, 4.783768853576063),
    (6, 29.3, 2.6036299446904674),
    (7, 28.5, 2.1563858652847823),
    (8, 24.1, 1.2423096769056148),
    (9, 24.1, 1.40988573217044),
    (10, 28.2, 2.2499382707581606),
    (11, 25.2, 1.2364824660660936),
    (12, 22.7, 0.683942817622773),
    (13, 21.8, 0.19999999999999998),
    (14, 22.0, 0.4714045207910317),
    (15, 23.7, 1.430229196861662),
    (16, 21.6, 0.30550504633038933),
    (17, 22.6, 0.5416025603090641),
    (18, 21.5, 0.26874192494328497),
    (19, 23.7, 1.4302291968616623),
    (20, 22.7, 1.3828312341794358),
    (21, 23.8, 1.4742229591663987),
    (22, 21.1, 0.09999999999999998),
    (23, 22.0, 0.7888106377466154),
    (24, 21.1, 0.09999999999999998),
    (25, 22.7, 1.0005554013202425),
    (26, 21.4, 0.22110831935702666),
    (27, 21.5, 0.22360679774997896),
    (28, 24.3, 1.8681541692269403),
    (29, 23.1, 1.3535960336164634),
]


def test_training_curves_are_pinned(rooms):
    lmdp, template, goal_q, _, start = rooms
    for stack, pinned in ((None, PINNED_FLAT_CURVE),
                          (template, PINNED_GUIDED_CURVE)):
        _, curve = train(lmdp, goal_q, epochs=30, episodes_per_epoch=10,
                         seed=2, stack=stack, start_state=start, max_steps=2000)
        assert curve == pinned


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
