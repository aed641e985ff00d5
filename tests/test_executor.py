"""Hierarchical episode execution: accesses, terminations, trajectories."""
import functools
import math
from unittest import mock

import numpy as np
import pytest
import hypothesis
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lsmdp import (
    GridSpec,
    RingSpec,
    access_hierarchy,
    boundary_goal_tasks,
    build_stack,
    build_task_basis,
    draw_from,
    goal_task_vector,
    make_grid,
    make_ring,
    policy_column,
    run_episode,
    solve_interior,
    terminate_layer,
)
from lsmdp import executor, hierarchy
from lsmdp.errors import InvalidSpec, NoTaskSet, ZeroNormalizer
from lsmdp.core import masked_redraw_column

import oracles


def corridor_stack():
    """1x9 corridor, goal twin at the right end, doors at cells 1, 4, 7."""
    spec = GridSpec(width=9, height=1, goal_cells=((0, 8),))
    lmdp, structure, goal_q = make_grid(spec, [(0, 1), (0, 4), (0, 7)], (0, 8))
    basis = build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, spec.temperature))
    stack = build_stack(basis, [structure])
    stack.set_task(goal_q)
    return stack


def ring_flat_stack(n=12, goal=4):
    lmdp, _, tasks = make_ring(RingSpec(n, subtask_spacing=3, depth=1))
    stack = build_stack(build_task_basis(lmdp, tasks), [])
    stack.set_task(goal_task_vector(lmdp.n_boundary, goal,
                                    lmdp.rewards.temperature))
    return lmdp, stack


def ring_tower_stack(n=27, goal=0):
    lmdp, structures, tasks = make_ring(RingSpec(n, subtask_spacing=3, depth=3))
    stack = build_stack(build_task_basis(lmdp, tasks), structures)
    stack.set_task(goal_task_vector(lmdp.n_boundary, goal,
                                    lmdp.rewards.temperature))
    return lmdp, stack


def tasked_rooms(rooms):
    lmdp, template, goal_q, spec, start = rooms
    stack = template.clone()
    stack.set_task(goal_q)
    return lmdp, stack, spec, start


# ---------------------------------------------------------------------------
# depth-1 equivalence with a flat rollout


def test_flat_stack_reproduces_direct_rollout():
    lmdp, flat = ring_flat_stack()
    assert flat.depth == 1
    lam = lmdp.rewards.temperature
    n_i = lmdp.n_interior
    target = flat.target
    z = np.concatenate([solve_interior(lmdp, target), target])
    P = lmdp.passive.full_matrix
    for seed in range(50):
        traj = run_episode(flat.clone(), 0, np.random.default_rng(seed),
                           max_steps=5000)
        rng = np.random.default_rng(seed)
        s, states, total = 0, [0], 0.0
        while True:
            rows, probs = policy_column(lmdp, z, s)
            nxt = draw_from(rows, probs, rng)
            a = np.zeros(lmdp.n_states)
            a[rows] = probs
            p = np.asarray(P[:, s].todense()).ravel()
            total += lmdp.rewards.interior[s] - lam * oracles.kl_divergence(a, p)
            states.append(int(nxt))
            if nxt >= n_i:
                total += lam * math.log(target[nxt - n_i])
                break
            s = nxt
        assert traj.states == states
        assert traj.total_return == pytest.approx(total, rel=1e-9, abs=1e-9)
        assert traj.events == [] and traj.weight_log == []
        assert not traj.truncated and traj.length == len(states) - 1


# ---------------------------------------------------------------------------
# deep stacks against the dense reference executor


def stored_row_orders(stack):
    """Per layer, each column's rows in the order its full_matrix stores them."""
    orders = []
    for entry in stack.layers:
        P = entry.lmdp.passive.full_matrix
        orders.append([P.indices[lo:hi].tolist()
                       for lo, hi in zip(P.indptr[:-1], P.indptr[1:])])
    return orders


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from([(9, 2), (12, 2), (12, 3), (27, 2), (27, 3)]),
       data=st.data())
def test_deep_episodes_match_the_reference_executor(shape, data):
    # depth-2 chains, terminations of every layer and truncations (the
    # events tally them) against a dense executor written from the
    # executor docstring, which walks columns in the stored row order
    lmdp, template = ring_template(*shape)
    goal = data.draw(st.integers(0, lmdp.n_boundary - 1), label="goal")
    start = data.draw(st.integers(0, lmdp.n_interior - 1), label="start")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    max_steps = data.draw(st.one_of(st.none(), st.integers(1, 40)), label="max_steps")
    q = goal_task_vector(lmdp.n_boundary, goal, lmdp.rewards.temperature)
    stack = template.clone()
    stack.set_task(q)
    _, structures, tasks = make_ring(RingSpec(shape[0], subtask_spacing=3, depth=shape[1]))
    ref = oracles.reference_episode(
        lmdp.passive.full_matrix, lmdp.rewards.interior, lmdp.rewards.temperature,
        tasks, [s.weights for s in structures], stored_row_orders(stack), q, start,
        np.random.default_rng(seed), max_steps)
    assume(ref["margin"] > 1e-9)  # a draw this close to a boundary may flip
    traj = run_episode(stack, start, np.random.default_rng(seed), max_steps)
    for e in traj.events:
        hypothesis.event(f"deepest layer {e.deepest_layer}")
        hypothesis.event(f"terminated layer {e.terminated_layer}")
    hypothesis.event(f"truncated {traj.truncated}")
    assert traj.states == ref["states"]
    assert [(e.base_time, e.base_state, e.chain, e.deepest_layer, e.terminated_layer)
            for e in traj.events] == ref["events"]
    assert traj.truncated == ref["truncated"]
    assert traj.total_return == pytest.approx(ref["total_return"], rel=1e-9)


# ---------------------------------------------------------------------------
# frozen corridor trace: one access, immediate hierarchy termination


def test_corridor_trace_is_reproducible():
    stack = corridor_stack()
    traj = run_episode(stack, 0, np.random.default_rng(7), max_steps=500)
    assert traj.states == [0, 1, 2, 3, 4, 3, 4, 5, 6, 7, 8, 9]
    assert not traj.truncated
    assert traj.total_return == pytest.approx(-20.968030289965487, rel=1e-12)
    assert len(traj.events) == 1
    event = traj.events[0]
    assert event.base_time == 1
    assert event.base_state == 1          # the door cell at (0, 1)
    assert event.chain == ((1, 0),)       # entered layer 1 at its state 0
    assert event.deepest_layer == 1
    assert event.terminated_layer == 1
    assert stack.terminated[1]
    # one snapshot per layer for the single event
    assert [(eid, layer) for eid, layer, _ in traj.weight_log] == [(0, 0), (0, 1)]


def assert_pinned_ring_tower_trace(traj):
    # base, access and inpaint draws on a depth-3 tower, 33 accesses and a
    # termination of layer 1; the return sums a KL term per step, so it pins
    # the arithmetic too
    assert traj.states == [13, 12, 13, 12, 12, 12, 12, 11, 12, 12, 13, 14, 15,
                           15, 14, 15, 16, 15, 14, 15, 15, 15, 15, 15, 14, 15,
                           15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
                           15, 15, 15, 15, 15, 16, 17, 16, 17, 44]
    assert traj.total_return == -97.03690136980941
    assert [(e.base_time, e.chain, e.terminated_layer) for e in traj.events] == [
        (t, ((1, 4),), None) for t in (1, 3, 4, 5, 6, 8, 9)] + [
        (t, ((1, 5),), None) for t in (12, 13, 15, 17, 19, 20, 21, 22, 23, 25,
                                       26, 27, 28, 29, 30, 32, 33, 34, 36, 37,
                                       38, 39, 40, 41, 42)] + [
        (43, ((1, 5),), 1)]


def test_ring_tower_trace_is_pinned():
    _, stack = ring_tower_stack()
    assert_pinned_ring_tower_trace(run_episode(stack, 13, np.random.default_rng(1)))


def test_a_return_accrues_in_python_floats():
    # the interior rewards are read as one list, so the pinned return is a
    # Python float rather than an np.float64 of the same value
    _, stack = ring_tower_stack()
    traj = run_episode(stack, 13, np.random.default_rng(1))
    assert type(traj.total_return) is float
    assert traj.total_return == -97.03690136980941


def test_ring_tower_trace_is_pinned_from_the_memo():
    # a second episode clone of the tasked stack finds every inpaint
    # re-blend in the memo the first clone filled
    _, tasked = ring_tower_stack()
    run_episode(tasked.clone(), 13, np.random.default_rng(1))
    keys = set(tasked.reblends)
    assert keys
    assert_pinned_ring_tower_trace(
        run_episode(tasked.clone(), 13, np.random.default_rng(1)))
    assert set(tasked.reblends) == keys


# ---------------------------------------------------------------------------
# the column cache and the termination memo


@functools.cache
def ring_template(n, depth):
    """A ring-n stack with subtasks every 3 states and no task; use clones."""
    lmdp, structures, tasks = make_ring(RingSpec(n, subtask_spacing=3, depth=depth))
    return lmdp, build_stack(build_task_basis(lmdp, tasks), structures)


def assert_same_trajectory(traj, twin):
    assert traj.states == twin.states
    assert traj.events == twin.events
    assert traj.total_return == twin.total_return
    assert traj.truncated == twin.truncated
    assert [(e, layer) for e, layer, _ in traj.weight_log] == [
        (e, layer) for e, layer, _ in twin.weight_log]
    for (_, _, ours), (_, _, theirs) in zip(traj.weight_log, twin.weight_log):
        assert np.array_equal(ours, theirs)


def uncached_column(composite, state):
    """Composite.column with no cache: a fresh record on every read, so its
    masked redraw and transmit are made afresh too."""
    return hierarchy.Column(*policy_column(composite.layer.lmdp, composite.z, state))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(27, 3), (81, 4)]), data=st.data())
def test_warm_caches_change_no_episode(shape, data):
    # clones of a tasked stack share its column caches and memos; once other
    # episodes (and this one) have filled them, an episode must equal the
    # same episode on a cold twin that reads no cached column at all
    lmdp, template = ring_template(*shape)
    goal = data.draw(st.integers(0, lmdp.n_boundary - 1), label="goal")
    start = data.draw(st.integers(0, lmdp.n_interior - 1), label="start")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    q = goal_task_vector(lmdp.n_boundary, goal, lmdp.rewards.temperature)
    warm, cold = template.clone(), template.clone()
    warm.set_task(q)
    cold.set_task(q)
    starts = np.random.default_rng(seed).integers(lmdp.n_interior, size=4)
    for k, other in enumerate(starts):
        run_episode(warm.clone(), int(other), np.random.default_rng([seed, k]))
    first = run_episode(warm.clone(), start, np.random.default_rng(seed))
    again = run_episode(warm.clone(), start, np.random.default_rng(seed))
    with mock.patch.object(hierarchy.Composite, "column", uncached_column):
        twin = run_episode(cold.clone(), start, np.random.default_rng(seed))
    assert_same_trajectory(first, twin)
    assert_same_trajectory(again, twin)


def test_a_repeated_episode_tilts_no_column(monkeypatch):
    _, tasked = ring_tower_stack()
    first = run_episode(tasked.clone(), 13, np.random.default_rng(1))
    tilted = []
    real = hierarchy.policy_column

    def counting(*args):
        tilted.append(args[2])
        return real(*args)

    monkeypatch.setattr(hierarchy, "policy_column", counting)
    second = run_episode(tasked.clone(), 13, np.random.default_rng(1))
    assert first.events and tilted == []
    assert_same_trajectory(second, first)
    # a retargeted clone starts cold
    fresh = tasked.clone()
    fresh.set_task(tasked.target)
    run_episode(fresh, 13, np.random.default_rng(1))
    assert tilted


def test_a_repeated_episode_tilts_no_column_narrow_or_dense(monkeypatch):
    # base columns miss through narrow_tilt and the derived layers' dense
    # ones through policy_column; a warm repeat reaches neither
    _, tasked = ring_tower_stack()
    first = run_episode(tasked.clone(), 13, np.random.default_rng(1))
    tilted = {"narrow": [], "dense": []}

    def counting(kind, real):
        def tilt(*args):
            tilted[kind].append(args[2])
            return real(*args)
        return tilt

    monkeypatch.setattr(hierarchy, "narrow_tilt", counting("narrow", hierarchy.narrow_tilt))
    monkeypatch.setattr(hierarchy, "policy_column", counting("dense", hierarchy.policy_column))
    second = run_episode(tasked.clone(), 13, np.random.default_rng(1))
    assert first.events and tilted == {"narrow": [], "dense": []}
    assert_same_trajectory(second, first)
    fresh = tasked.clone()
    fresh.set_task(tasked.target)
    run_episode(fresh, 13, np.random.default_rng(1))
    assert tilted["narrow"] and tilted["dense"]
    assert tilted["narrow"][0] == 13  # the first draw's column


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_warm_caches_change_no_episode_on_a_narrow_top_layer(rooms, data):
    # the four-rooms-11 stack's top layer (its four doors) has only narrow
    # columns, so an access transmits from a list-backed record there, which
    # no ring stack's top does; warm episodes equal a cold twin's array path
    lmdp, template, goal_q, _, _ = rooms
    top = template.layers[-1].lmdp.passive
    assert None not in top.narrow_columns
    start = data.draw(st.integers(0, lmdp.n_interior - 1), label="start")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    warm, cold = template.clone(), template.clone()
    warm.set_task(goal_q)
    cold.set_task(goal_q)
    starts = np.random.default_rng(seed).integers(lmdp.n_interior, size=4)
    for k, other in enumerate(starts):
        run_episode(warm.clone(), int(other), np.random.default_rng([seed, k]))
    first = run_episode(warm.clone(), start, np.random.default_rng(seed))
    again = run_episode(warm.clone(), start, np.random.default_rng(seed))
    with mock.patch.object(hierarchy.Composite, "column", uncached_column):
        twin = run_episode(cold.clone(), start, np.random.default_rng(seed))
    assert_same_trajectory(first, twin)
    assert_same_trajectory(again, twin)
    assert all(type(col.rows) is list for col in warm.composites[-1].columns.values())


def test_a_narrow_top_layer_transmits_the_array_paths_rewards(rooms):
    # most four-rooms accesses terminate the top layer; over 60 episodes
    # some transmit, each from a list-backed record, as kappa (a - p) of
    # the array-path policy and passive columns
    lmdp, template, goal_q, _, _ = rooms
    stack = template.clone()
    stack.set_task(goal_q)
    for seed in range(60):
        run_episode(stack.clone(), seed % lmdp.n_interior, np.random.default_rng(seed))
    top = stack.composites[-1]
    sent = {entry: col for entry, col in top.columns.items() if col.transmit is not None}
    assert sent
    P, n_i = top.layer.lmdp.passive.full_matrix.toarray(), top.layer.lmdp.n_interior
    for entry, col in sent.items():
        assert type(col.rows) is list
        a = np.zeros(P.shape[0])
        rows, probs = policy_column(top.layer.lmdp, top.z, entry)
        a[rows] = probs
        expected = stack.kappa * (a[:n_i] - P[:n_i, entry])
        assert col.transmit.tobytes() == expected.tobytes()


def test_a_repeated_termination_composes_nothing(monkeypatch):
    _, tasked = ring_tower_stack()
    live = tasked.composites[0]
    dead = tasked.clone()
    terminate_layer(dead, 1)
    composed = []
    real = hierarchy.HierarchyStack._compose

    def counting(self, *args):
        composed.append(args)
        return real(self, *args)

    monkeypatch.setattr(hierarchy.HierarchyStack, "_compose", counting)
    again = tasked.clone()
    terminate_layer(again, 1)
    assert composed == []
    # the live record keeps its dead twin, column cache and all
    assert again.composites[0] is dead.composites[0] is live.dead
    assert tasked.composites[0] is live and live.dead is not live
    assert live.dead.weights is live.weights


def test_a_dead_twin_equals_a_fresh_dead_composition():
    # the twin starts from the live composite's boundary values, not a blend
    _, tasked = ring_tower_stack()
    for layer in (1, 2):
        stack = tasked.clone()
        terminate_layer(stack, layer)
        fresh = stack._compose(layer - 1, stack.composites[layer - 1].weights, True)
        assert np.array_equal(stack.composites[layer - 1].z, fresh.z)
    run_episode(tasked.clone(), 13, np.random.default_rng(1))
    twins = [(key[0], c) for key, c in tasked.reblends.items() if c.dead is not None]
    assert twins
    for layer, live in twins:
        fresh = tasked._compose(layer, live.weights, True)
        assert np.array_equal(live.dead.z, fresh.z)


def test_clones_share_caches_and_set_task_starts_fresh_ones():
    _, tasked = ring_tower_stack()
    run_episode(tasked.clone(), 13, np.random.default_rng(1))
    clone = tasked.clone()
    assert all(ours is theirs for ours, theirs in zip(clone.composites, tasked.composites))
    assert clone.reblends is tasked.reblends
    assert tasked.composites[0].columns
    assert any(c.dead is not None for c in tasked.reblends.values())
    clone.set_task(tasked.target)
    assert clone.reblends == {} and clone.reblends is not tasked.reblends
    assert all(c.columns == {} and c.dead is None for c in clone.composites)
    assert all(ours is not theirs for ours, theirs in zip(clone.composites, tasked.composites))


def test_logged_weights_are_read_only_references():
    _, stack = ring_tower_stack()
    traj = run_episode(stack, 13, np.random.default_rng(1))
    assert traj.weight_log
    for _, _, values in traj.weight_log:
        with pytest.raises(ValueError):
            values[0] = 1.0
    # the last access logged the weights the stack still holds
    last = traj.weight_log[-stack.depth:]
    assert all(values is stack.weights[layer].values for _, layer, values in last)


def test_fixed_seed_runs_identically(rooms):
    runs = []
    for _ in range(2):
        lmdp, stack, spec, start = tasked_rooms(rooms)
        runs.append(run_episode(stack, start, np.random.default_rng(11),
                                max_steps=4000))
    a, b = runs
    assert a.states == b.states
    assert a.events == b.events
    assert a.total_return == b.total_return
    assert len(a.weight_log) == len(b.weight_log)
    for (ea, la, wa), (eb, lb, wb) in zip(a.weight_log, b.weight_log):
        assert (ea, la) == (eb, lb)
        np.testing.assert_array_equal(wa, wb)


# ---------------------------------------------------------------------------
# structural invariants of trajectories and events


def collect_rooms_trajectories(rooms, n=100, max_steps=4000):
    lmdp, template, goal_q, spec, start = rooms
    out = []
    for seed in range(n):
        stack = template.clone()
        stack.set_task(goal_q)
        out.append(run_episode(stack, start, np.random.default_rng(seed),
                               max_steps=max_steps))
    return out


@pytest.fixture(scope="module")
def rooms_trajectories(rooms):
    return collect_rooms_trajectories(rooms)


def test_omniscient_hierarchy_reaches_goal_quickly(rooms, rooms_trajectories):
    bfs = oracles.bfs_steps(__import__("lsmdp").four_rooms_map(11),
                            (10, 0), (0, 10))
    assert bfs == 20
    lengths = [t.length for t in rooms_trajectories]
    assert not any(t.truncated for t in rooms_trajectories)
    assert np.mean(lengths) <= 2 * bfs


def test_accesses_consume_no_base_time(rooms, rooms_trajectories):
    lmdp, _, _, _, _ = rooms
    n_i = lmdp.n_interior
    for traj in rooms_trajectories:
        assert traj.length == len(traj.states) - 1
        assert all(0 <= s < n_i for s in traj.states[:-1])
        times = [e.base_time for e in traj.events]
        assert times == sorted(set(times))   # strictly increasing
        for e in traj.events:
            assert traj.states[e.base_time] == e.base_state


def test_terminated_hierarchy_is_never_reaccessed(rooms, rooms_trajectories):
    terminated_episodes = 0
    for traj in rooms_trajectories:
        term_at = None
        for i, e in enumerate(traj.events):
            if term_at is not None:
                pytest.fail("event after hierarchy termination")
            if e.terminated_layer is not None:
                term_at = i
                terminated_episodes += 1
    assert terminated_episodes > 10


def test_both_access_outcomes_occur(rooms_trajectories):
    transmits = sum(e.terminated_layer is None
                    for t in rooms_trajectories for e in t.events)
    terminations = sum(e.terminated_layer is not None
                       for t in rooms_trajectories for e in t.events)
    assert transmits > 10
    assert terminations > 10


def test_weight_snapshots_are_nonnegative_and_indexed(rooms_trajectories):
    for traj in rooms_trajectories:
        depth_seen = {}
        for eid, layer, values in traj.weight_log:
            assert 0 <= eid < len(traj.events)
            assert (values >= 0).all()
            depth_seen.setdefault(eid, []).append(layer)
        for eid, layers in depth_seen.items():
            assert layers == [0, 1]


def test_deep_chains_ascend_consecutively():
    lmdp, tower = ring_tower_stack()
    deep, term2, reentry = 0, 0, 0
    for seed in range(300):
        stack = tower.clone()
        traj = run_episode(stack, 13, np.random.default_rng(seed),
                           max_steps=3000)
        dead = None
        for e in traj.events:
            layers = [layer for layer, _ in e.chain]
            assert layers == list(range(1, 1 + len(layers)))
            entries = [entry for _, entry in e.chain]
            for (layer, entry) in e.chain:
                assert 0 <= entry < stack.layers[layer].lmdp.n_interior
            if e.deepest_layer >= 2:
                deep += 1
            if dead is not None and any(l >= dead for l in layers):
                reentry += 1
            if e.terminated_layer == 2:
                term2 += 1
                dead = 2
    assert deep > 50 and term2 > 50
    assert reentry == 0


# ---------------------------------------------------------------------------
# single access chains


def test_access_returns_subtask_rewards_or_none():
    transmit_seen, terminate_seen = False, False
    for seed in range(50):
        stack = corridor_stack()
        r_t, chain, deepest, terminated = access_hierarchy(
            stack, 1, np.random.default_rng(seed))
        assert chain[0] == (1, 1)
        assert deepest == 1
        if terminated is None:
            transmit_seen = True
            assert r_t.shape == (stack.layers[0].n_subtasks,)
            assert (np.abs(r_t) <= stack.kappa).all()   # probabilities differ by at most 1
        else:
            terminate_seen = True
            assert r_t is None and terminated == 1
            assert stack.terminated[1]
    assert transmit_seen and terminate_seen


def test_an_access_needs_a_tasked_stack_with_a_layer_above_the_base():
    lmdp, structures, tasks = make_ring(RingSpec(12, subtask_spacing=3, depth=2))
    untasked = build_stack(build_task_basis(lmdp, tasks), structures)
    with pytest.raises(NoTaskSet, match="set_task"):
        access_hierarchy(untasked, 0, np.random.default_rng(0))
    with pytest.raises(InvalidSpec, match="depth-1"):
        access_hierarchy(ring_flat_stack()[1], 0, np.random.default_rng(0))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("state", [1.5, 1.0, True, np.float64(1.0)], ids=repr)
def test_a_float_or_bool_state_is_no_state(state, warm):
    # 1.0 == 1 and True == 1, so a warm cache would serve state 1's column
    _, tasked = ring_tower_stack()
    if warm:
        # clones share composites: an access on one caches for the next
        access_hierarchy(tasked.clone(), 1, np.random.default_rng(0))
        assert 1 in tasked.composites[1].columns
    stack = tasked.clone()
    with pytest.raises(InvalidSpec, match="not a subtask state"):
        access_hierarchy(stack, state, np.random.default_rng(0))
    with pytest.raises(InvalidSpec, match="not an interior state"):
        policy_column(*stack.policy_state(1), state)


def test_an_access_transmits_kappa_times_policy_minus_passive():
    _, stack = ring_tower_stack()
    for layer in (1, 2):
        composite = stack.composites[layer]
        lmdp, z = stack.policy_state(layer)
        n_i = lmdp.n_interior
        for entry in range(n_i):
            rows, probs = policy_column(lmdp, z, entry)
            a = np.zeros(lmdp.n_states)
            a[rows] = probs
            p = lmdp.passive.full_matrix[:, [entry]].toarray().ravel()
            expected = hierarchy.inpaint_rewards(a[:n_i], p[:n_i], stack.kappa)
            sent = composite.transmit(entry)
            assert sent.tobytes() == expected.tobytes()
            assert not sent.flags.writeable and sent is composite.transmit(entry)


def test_masked_redraw_excludes_subtask_rows():
    rows = np.array([2, 5, 6, 9])
    probs = np.array([0.2, 0.3, 0.4, 0.1])
    kept_rows, kept_probs = masked_redraw_column(rows, probs, 5, 7)
    np.testing.assert_array_equal(kept_rows, [2, 9])
    np.testing.assert_allclose(kept_probs, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
    with pytest.raises(ZeroNormalizer):
        masked_redraw_column(rows, probs, 0, 10)


# ---------------------------------------------------------------------------
# desirability maps


def test_inpainted_reward_shifts_the_map(rooms):
    lmdp, stack, spec, start = tasked_rooms(rooms)
    free = spec.free_cells()
    doors = [free.index(d) for d in ((2, 5), (5, 2), (5, 8), (8, 5))]
    before = stack.z_full[0][:lmdp.n_interior].copy()
    lam = lmdp.rewards.temperature
    boost = np.array([5.0, -5.0, -5.0, -5.0]) * lam
    stack.apply_inpaint(0, boost)
    after = stack.z_full[0][:lmdp.n_interior]
    ratio = after[doors] / before[doors]
    assert ratio[0] > 10.0
    np.testing.assert_allclose(ratio[1:], 1.0, rtol=0.02)


def test_truncation_and_bad_start(rooms):
    lmdp, stack, spec, start = tasked_rooms(rooms)
    traj = run_episode(stack, start, np.random.default_rng(0), max_steps=1)
    assert traj.truncated
    assert traj.length <= 1
    # None, bools and floats, integral or not, are refused like out-of-range states
    for bad in (lmdp.n_interior, -1, 1.5, np.float64(2.0), True, None):
        with pytest.raises(InvalidSpec, match="start state"):
            run_episode(stack, bad, np.random.default_rng(0))
    for bad in (0, 2.5, True):
        with pytest.raises(InvalidSpec, match="max_steps"):
            run_episode(stack, start, np.random.default_rng(0), max_steps=bad)
