"""Online desirability estimation, flat and hierarchy-guided."""
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsmdp.learning
from lsmdp import (
    LearningState,
    RingSpec,
    access_hierarchy,
    build_stack,
    build_task_basis,
    draw_from,
    goal_task_vector,
    make_ring,
    policy_column,
    run_learning_episode,
    solve_interior,
    train,
    z_learning_step,
)
from lsmdp.core import NARROW
from lsmdp.errors import DimensionMismatch, InvalidSpec, NoTaskSet
from lsmdp.core import masked_redraw_column


def fresh_learner(n_interior, boundary):
    return LearningState(np.ones(n_interior), np.asarray(boundary, float),
                         np.zeros(n_interior, dtype=np.int64))


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
    learner = fresh_learner(1, [1.0])
    assert learner.alpha(0) == 1.0
    for _ in range(50):
        z_learning_step(learner, 0, -1.0, 1, 1.0)
    assert learner.alpha(0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("state, next_state", [
    (0, -1),    # used to read the last interior estimate as the successor
    (-1, 0),    # used to update the last interior state and its visit count
    (0, 3),     # past the boundary: used to be a bare IndexError
], ids=["negative-successor", "negative-state", "successor-past-boundary"])
def test_a_transition_outside_the_states_is_rejected(state, next_state):
    learner = fresh_learner(2, [0.5])
    with pytest.raises(InvalidSpec, match="transition"):
        z_learning_step(learner, state, -1.0, next_state, 1.0)
    np.testing.assert_array_equal(learner.z_interior, [1.0, 1.0])
    np.testing.assert_array_equal(learner.visits, [0, 0])


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
    for bad in (lmdp.n_interior, -1, 1.5, np.float64(2.0), True):
        with pytest.raises(InvalidSpec, match="start state"):
            run_learning_episode(lmdp, learner, np.random.default_rng(0),
                                 start_state=bad)
    for bad in (0, 2.5, True):
        with pytest.raises(InvalidSpec, match="max_steps"):
            run_learning_episode(lmdp, learner, np.random.default_rng(0),
                                 start_state=0, max_steps=bad)


def test_episode_rejects_mismatched_inputs():
    # the flat base with a stack used to fail deep in numpy broadcasting, and
    # a short estimate was never checked on the list path
    lmdp, goal = ring20()
    rng = np.random.default_rng(0)
    ring, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=2))
    stack = build_stack(build_task_basis(ring, tasks), structures)
    q = goal_task_vector(ring.n_boundary, 0, ring.rewards.temperature)
    with pytest.raises(NoTaskSet):
        run_learning_episode(stack.layers[0].lmdp, fresh_learner(
            27, np.concatenate([q, np.ones(9)])), rng, stack=stack)
    stack.set_task(q)
    learner = fresh_learner(ring.n_interior, q)
    with pytest.raises(DimensionMismatch, match="stack base"):
        run_learning_episode(ring, learner, rng, stack=stack.clone())
    # the guided layer needs boundary values for its subtask states too
    with pytest.raises(DimensionMismatch, match="boundary_values"):
        run_learning_episode(stack.layers[0].lmdp, learner, rng, stack=stack.clone())
    assert not learner.visits.any()
    for bad in (fresh_learner(lmdp.n_interior + 1, goal),
                fresh_learner(lmdp.n_interior, goal[:-1]),
                LearningState(np.ones((lmdp.n_interior, 1)), goal,
                              np.zeros(lmdp.n_interior, dtype=np.int64))):
        with pytest.raises(DimensionMismatch, match="learner"):
            run_learning_episode(lmdp, bad, rng)


@pytest.mark.parametrize("visits, error, match", [
    (np.zeros(5, dtype=np.int64), DimensionMismatch, "learner visits"),
    (np.zeros((27, 1), dtype=np.int64), DimensionMismatch, "learner visits"),
    ([0] * 5, DimensionMismatch, "learner visits"),
], ids=["visits-short", "visits-column", "list-visits-short"])
def test_learner_inputs_are_checked_before_any_draw(visits, error, match):
    # these were a bare IndexError after some updates and a bare TypeError;
    # the episode writes visits back.  A list-backed learner, as train
    # passes, is stepped in place and checked by its lengths.
    ring, _, _ = make_ring(RingSpec(27))
    q = goal_task_vector(ring.n_boundary, 0, ring.rewards.temperature)
    if isinstance(visits, list):
        learner = LearningState([1.0] * 27, q.tolist(), visits)
    else:
        learner = LearningState(np.ones(27), q, visits)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match=match):
        run_learning_episode(ring, learner, rng, start_state=13)
    np.testing.assert_array_equal(learner.z_interior, np.ones(27))
    assert not np.any(learner.visits)
    assert rng.bit_generator.state == state


class FailingGenerator:
    """A Generator whose ``random()`` raises after ``calls`` draws."""

    def __init__(self, seed, calls):
        self.rng, self.calls = np.random.default_rng(seed), calls

    def random(self):
        if self.calls == 0:
            raise RuntimeError("generator failed")
        self.calls -= 1
        return self.rng.random()

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("guided", [False, True], ids=["flat", "guided"])
# the start is 20 steps from the goal, so every episode draws 20 times or more
@pytest.mark.parametrize("calls", [0, 1, 10, 19])
def test_an_aborted_episode_writes_its_updates_back(rooms, guided, calls):
    # the estimate and visits live in lists for an episode; a failure part
    # way through still leaves every backup made so far in the caller's arrays
    lmdp, template, goal_q, _, start = rooms
    stack, boundary = None, goal_q
    if guided:
        stack = template.clone()
        stack.set_task(goal_q)
        lmdp = stack.layers[0].lmdp
        boundary = np.concatenate([goal_q, np.ones(stack.layers[0].n_subtasks)])
    ours, theirs = (fresh_learner(lmdp.n_interior, boundary) for _ in range(2))
    for learner, episode in ((ours, run_learning_episode), (theirs, reference_episode)):
        # a trained estimate first, so the write-back is not of all ones
        for seed in range(3):
            episode(lmdp, learner, np.random.default_rng(seed),
                    stack=None if stack is None else stack.clone(),
                    start_state=start, max_steps=2000)
        before = learner.visits.sum()
        with pytest.raises(RuntimeError, match="generator failed"):
            episode(lmdp, learner, FailingGenerator(7, calls),
                    stack=None if stack is None else stack.clone(),
                    start_state=start, max_steps=2000)
        if calls >= 10:  # backups before the raise, so the write-back shows
            assert learner.visits.sum() > before
    assert ours.z_interior.tobytes() == theirs.z_interior.tobytes()
    assert ours.visits.tobytes() == theirs.visits.tobytes()


@pytest.mark.parametrize("calls", [1, 2, 5, 20])
def test_an_aborted_train_writes_its_updates_back(monkeypatch, rooms, calls):
    # train copies its learner into one list-backed state for the whole run;
    # an access that raises in a later episode still leaves every backup of
    # every episode so far in the learner's arrays
    lmdp, template, goal_q, _, start = rooms
    made, backups, accesses, at_raise = [], [], [], []

    @dataclasses.dataclass
    class Recorded(LearningState):
        def __post_init__(self):
            made.append(self)

    step, access = lsmdp.learning.z_learning_step, lsmdp.learning.access_hierarchy

    def counting(*args):
        backups.append(args[1])
        return step(*args)

    def failing(*args):
        accesses.append(args[1])
        if len(accesses) == calls:
            at_raise.extend([list(made[-1].z_interior), list(made[-1].visits)])
            raise RuntimeError("access failed")
        return access(*args)

    monkeypatch.setattr(lsmdp.learning, "LearningState", Recorded)
    monkeypatch.setattr(lsmdp.learning, "z_learning_step", counting)
    monkeypatch.setattr(lsmdp.learning, "access_hierarchy", failing)
    with pytest.raises(RuntimeError, match="access failed"):
        train(lmdp, goal_q, epochs=5, episodes_per_epoch=10, seed=3,
              stack=template, start_state=start, max_steps=2000)
    learner, work = made  # one copy for the run, none per episode
    assert isinstance(learner.z_interior, np.ndarray) and type(work.z_interior) is list
    assert learner.visits.sum() == len(backups)
    z, visits = at_raise
    assert learner.z_interior.tolist() == z
    assert learner.visits.tolist() == visits
    if calls >= 5:  # backups in earlier episodes, so the write-back shows
        assert len(backups) > 0 and learner.z_interior.min() < 1.0


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
# Step totals: 9757 flat, 7346 guided.
PINNED_FLAT_CURVE = [
    (0, 146.3, 41.86752918432135),
    (1, 74.1, 21.446289500361903),
    (2, 49.8, 4.2708313008125245),
    (3, 35.7, 2.8168145917763994),
    (4, 32.8, 2.2744962812309306),
    (5, 32.1, 2.162560211107812),
    (6, 28.5, 1.0354816378006044),
    (7, 25.4, 0.7333333333333333),
    (8, 25.1, 0.4818944098266987),
    (9, 25.5, 1.137736544391734),
    (10, 25.9, 0.604611904907235),
    (11, 25.5, 0.9803627446568494),
    (12, 27.4, 2.565584187319181),
    (13, 25.2, 0.8666666666666666),
    (14, 23.1, 0.3785938897200182),
    (15, 24.7, 0.5385164807134504),
    (16, 24.5, 0.6708203932499368),
    (17, 24.1, 0.6227180564089801),
    (18, 25.7, 1.7767010628315238),
    (19, 25.2, 0.7423685817106696),
    (20, 24.5, 0.8062257748298549),
    (21, 24.4, 0.42687494916218993),
    (22, 25.8, 0.771722460186015),
    (23, 24.2, 1.0728984626287388),
    (24, 24.6, 0.8969082698049139),
    (25, 24.8, 0.69602043392737),
    (26, 25.3, 0.5385164807134504),
    (27, 24.6, 0.3711842908553348),
    (28, 25.4, 0.7333333333333333),
    (29, 25.5, 0.9339283817414599),
]
PINNED_GUIDED_CURVE = [
    (0, 26.3, 1.4761059883656351),
    (1, 25.6, 1.0132456102380443),
    (2, 33.8, 3.241398874971525),
    (3, 29.9, 3.0421118395687627),
    (4, 33.2, 3.51441476082592),
    (5, 26.1, 0.9122621455602673),
    (6, 29.1, 3.2607088527223986),
    (7, 24.2, 1.4666666666666666),
    (8, 24.9, 1.6763054614240211),
    (9, 25.8, 2.0912516188477492),
    (10, 30.4, 3.159465496286076),
    (11, 23.8, 1.0413666234542207),
    (12, 23.3, 0.6674994798166929),
    (13, 23.4, 1.7397317800933185),
    (14, 25.4, 1.9390719429665315),
    (15, 21.6, 0.26666666666666666),
    (16, 22.3, 0.8034647195462633),
    (17, 23.7, 2.0604745947367453),
    (18, 22.6, 0.6531972647421808),
    (19, 21.7, 0.3958114029012639),
    (20, 21.5, 0.16666666666666666),
    (21, 21.6, 0.39999999999999997),
    (22, 21.2, 0.13333333333333333),
    (23, 21.4, 0.22110831935702666),
    (24, 21.4, 0.30550504633038933),
    (25, 22.8, 1.2719189352225944),
    (26, 22.6, 1.2754084313139327),
    (27, 21.2, 0.19999999999999998),
    (28, 22.3, 0.8825468196582483),
    (29, 21.5, 0.26874192494328497),
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
    for epochs in (0, -1, 2.5, True):
        with pytest.raises(InvalidSpec, match="epochs"):
            train(lmdp, goal_q, epochs=epochs, episodes_per_epoch=5, seed=0)
    for episodes in (0, 2.5, True):
        with pytest.raises(InvalidSpec, match="episodes_per_epoch"):
            train(lmdp, goal_q, epochs=1, episodes_per_epoch=episodes, seed=0)


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


def test_a_stack_built_on_another_lmdp_is_rejected():
    # train runs on the stack's base; an LMDP of another size was silently ignored
    ring9, _, _ = make_ring(RingSpec(9))
    ring27, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(ring27, tasks), structures)
    goal = goal_task_vector(ring27.n_boundary, 0, ring27.rewards.temperature)
    with pytest.raises(DimensionMismatch, match="LMDP has 9 interior states, stack base 27"):
        train(ring9, goal, epochs=1, episodes_per_epoch=1, seed=0, stack=stack)


@pytest.mark.parametrize("changes", [
    {"temperature": 3.0, "interior_reward": -5.0},
    {"temperature": 3.0},
    {"interior_reward": -5.0},
])
def test_a_stack_on_other_rewards_is_rejected(changes):
    # an LMDP of the stack's size but other rewards used to train silently
    # on the stack's base, giving the stack LMDP's curve
    spec = RingSpec(27, subtask_spacing=3, depth=3)
    ring27, structures, tasks = make_ring(spec)
    other, _, _ = make_ring(dataclasses.replace(spec, **changes))
    stack = build_stack(build_task_basis(ring27, tasks), structures)
    goal = goal_task_vector(ring27.n_boundary, 0, ring27.rewards.temperature)
    with pytest.raises(InvalidSpec, match="temperature or interior rewards"):
        train(other, goal, epochs=1, episodes_per_epoch=1, seed=0, stack=stack)


def test_a_stack_on_another_kernel_is_rejected():
    # a ring of the stack's size and rewards but another step probability
    # used to train silently on the stack's base kernel
    spec = RingSpec(27, subtask_spacing=3, depth=3)
    ring27, structures, tasks = make_ring(spec)
    other, _, _ = make_ring(dataclasses.replace(spec, step_prob=0.25))
    stack = build_stack(build_task_basis(ring27, tasks), structures)
    goal = goal_task_vector(ring27.n_boundary, 0, ring27.rewards.temperature)
    with pytest.raises(InvalidSpec, match="passive kernel"):
        train(other, goal, epochs=1, episodes_per_epoch=1, seed=0, stack=stack)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("guided", [False, True])
def test_non_finite_or_negative_goal_is_rejected(rooms, bad, guided):
    lmdp, template, goal_q, _, start = rooms
    goal = goal_q.copy()
    goal[0] = bad
    with pytest.raises(InvalidSpec, match="goal"):
        train(lmdp, goal, epochs=1, episodes_per_epoch=1, seed=0,
              stack=template if guided else None, start_state=start,
              max_steps=50)


# ---------------------------------------------------------------------------
# the list path against the array loop


def reference_episode(lmdp, learner, rng, stack=None, start_state=None,
                      max_steps=None):
    """run_learning_episode as an array loop: every draw tilts the full
    behavior array (the estimate, times the live composite when guided)
    with policy_column, and a redraw masks it; same rng use throughout."""
    n_i = lmdp.n_interior
    lo = hi = lmdp.n_states
    if stack is not None:
        lo, hi = stack.layers[0].subtask_range
    s = int(rng.integers(n_i)) if start_state is None else start_state
    max_steps = 100 * n_i if max_steps is None else max_steps
    boundary = learner.boundary_values if stack is None else np.ones(lmdp.n_boundary)
    z = np.concatenate([learner.z_interior, boundary])
    lam, r_i = lmdp.rewards.temperature, lmdp.rewards.interior.tolist()
    for t in range(max_steps):
        redraw = False
        while True:
            behave = z if stack is None else np.multiply(stack.policy_state(0)[1], z)
            rows, probs = policy_column(lmdp, behave, s)
            if redraw:
                rows, probs = masked_redraw_column(rows, probs, lo, hi)
            nxt = draw_from(rows, probs, rng)
            if lo <= nxt < hi:
                access_hierarchy(stack, nxt - lo, rng)
                redraw = True
                continue
            z[s] = z_learning_step(learner, s, r_i[s], nxt, lam)
            break
        if nxt >= n_i:
            return t + 1
        s = nxt
    return max_steps


@functools.cache
def ring_layer_one():
    """Layer 1 of the ring-27 depth-3 stack, a flat LMDP whose nine columns
    are all wider than NARROW, and goal-0 boundary values for it."""
    ring, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(ring, tasks), structures)
    q = goal_task_vector(ring.n_boundary, 0, ring.rewards.temperature)
    return stack.layers[1].lmdp, np.concatenate([q, np.ones(stack.layers[1].n_subtasks)])


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(["rooms-flat", "rooms-guided", "ring-layer-1"]),
       data=st.data())
def test_list_episodes_match_the_array_loop(rooms, case, data):
    # three episodes of one learner, so later ones tilt by trained estimates;
    # guided episodes access the stack, re-blend its base and redraw
    lmdp, template, goal_q, _, _ = rooms
    stacks = [None, None]
    boundary = goal_q
    if case == "rooms-guided":
        stacks = [template.clone(), template.clone()]
        for stack in stacks:
            stack.set_task(goal_q)
        lmdp = stacks[0].layers[0].lmdp
        boundary = np.concatenate([goal_q, np.ones(stacks[0].layers[0].n_subtasks)])
    elif case == "ring-layer-1":
        lmdp, boundary = ring_layer_one()
        assert all(column is None for column in lmdp.passive.narrow_columns)
        assert lmdp.passive.full_matrix.getnnz(axis=0).min() >= NARROW
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    start = data.draw(st.none() | st.integers(0, lmdp.n_interior - 1), label="start")
    ours, theirs = (fresh_learner(lmdp.n_interior, boundary) for _ in range(2))
    rng_ours, rng_theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        ep_ours, ep_theirs = (None if stack is None else stack.clone()
                              for stack in stacks)
        steps = run_learning_episode(lmdp, ours, rng_ours, stack=ep_ours,
                                     start_state=start, max_steps=400)
        assert steps == reference_episode(lmdp, theirs, rng_theirs, stack=ep_theirs,
                                          start_state=start, max_steps=400)
        assert ours.z_interior.tobytes() == theirs.z_interior.tobytes()
        assert ours.visits.tobytes() == theirs.visits.tobytes()
        if ep_ours is not None:
            assert ep_ours.terminated == ep_theirs.terminated
            assert [w.values.tobytes() for w in ep_ours.weights] == [
                w.values.tobytes() for w in ep_theirs.weights]
    assert rng_ours.random() == rng_theirs.random()


def reference_train(lmdp, goal_q, template, epochs, episodes, seed, start, max_steps):
    """train as a loop of run_learning_episode calls on an array-backed
    learner, one generator for the run and a fresh clone per guided episode."""
    rng = np.random.default_rng(seed)
    boundary = goal_q
    if template is not None:
        template = template.clone()
        template.set_task(goal_q)
        lmdp = template.layers[0].lmdp
        boundary = np.concatenate([goal_q, np.ones(template.layers[0].n_subtasks)])
    learner = fresh_learner(lmdp.n_interior, boundary)
    curve = []
    for epoch in range(epochs):
        lengths = np.array([
            run_learning_episode(lmdp, learner, rng,
                                 stack=None if template is None else template.clone(),
                                 start_state=start, max_steps=max_steps)
            for _ in range(episodes)], dtype=np.float64)
        stderr = lengths.std(ddof=1) / math.sqrt(episodes) if episodes > 1 else 0.0
        curve.append((epoch, float(lengths.mean()), float(stderr)))
    return learner, curve


@settings(max_examples=20, deadline=None)
@given(guided=st.booleans(), seed=st.integers(0, 2**32 - 1),
       epochs=st.integers(1, 3), episodes=st.integers(1, 4), data=st.data())
def test_train_matches_a_loop_of_array_episodes(rooms, guided, seed, epochs, episodes, data):
    # train steps one list-backed learner across its episodes; every float
    # of the curve and the learner is the per-episode array copy's
    lmdp, template, goal_q, _, start = rooms
    start = data.draw(st.sampled_from([None, start]), label="start")
    stack = template if guided else None
    ours, curve = train(lmdp, goal_q, epochs, episodes, seed, stack=stack,
                        start_state=start, max_steps=2000)
    theirs, pinned = reference_train(lmdp, goal_q, stack, epochs, episodes, seed,
                                     start, 2000)
    assert curve == pinned
    assert ours.z_interior.tobytes() == theirs.z_interior.tobytes()
    assert ours.visits.tobytes() == theirs.visits.tobytes()
    assert ours.boundary_values.tobytes() == theirs.boundary_values.tobytes()
