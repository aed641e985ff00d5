"""Construction, solvers, policies, and returns of the base LMDP type."""
import contextlib
import dataclasses
import enum
import math
import re
import warnings
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmdp import (
    ArmSpec,
    Desirability,
    RingSpec,
    PassiveDynamics,
    RewardModel,
    StatePartition,
    build_lmdp,
    build_stack,
    build_task_basis,
    draw_from,
    exponentiate_rewards,
    goal_task_vector,
    make_arm,
    make_ring,
    policy_column,
    run_episode,
    solve_direct,
    solve_interior,
    train,
    value_from_desirability,
    z_iterate,
)
from lsmdp import bench, core
from lsmdp.core import DEFAULT_MAX_ITER, DEFAULT_TOL, masked_redraw_column
from lsmdp.domains import ring_passive
from lsmdp.errors import (
    DimensionMismatch,
    InvalidSpec,
    NoAbsorption,
    NonPositiveDesirability,
    NotStochastic,
    RewardOverflow,
    SingularSystem,
    ZeroNormalizer,
)
from lsmdp.serialize import lmdp_from_dict, lmdp_to_dict

from conftest import (
    CHAIN5_MID_POLICY,
    CHAIN5_V,
    CHAIN5_Z,
    random_boundary_q,
    random_lmdp,
)
import oracles


def unit_lmdp(r_interior=-1.0, r_boundary=0.0, temperature=1.0):
    """One interior state that exits deterministically to one boundary state."""
    return build_lmdp(StatePartition(1, 1),
                      PassiveDynamics([[0.0]], [[1.0]]),
                      RewardModel([r_interior], [r_boundary], temperature))


# ---------------------------------------------------------------------------
# construction and validation


def test_smallest_instance_builds():
    lmdp = unit_lmdp()
    assert lmdp.n_interior == 1 and lmdp.n_boundary == 1 and lmdp.n_states == 2


def test_partition_requires_both_blocks():
    with pytest.raises(InvalidSpec):
        StatePartition(0, 1)
    with pytest.raises(InvalidSpec):
        StatePartition(1, 0)
    with pytest.raises(DimensionMismatch):
        StatePartition(1, 1, labels=("a",))


def test_column_sums_below_one_rejected():
    with pytest.raises(NotStochastic, match="sums to 0.9"):
        PassiveDynamics([[0.4]], [[0.5]])


def test_negative_probability_rejected():
    with pytest.raises(NotStochastic):
        PassiveDynamics([[-0.1]], [[1.1]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_entry_is_not_stochastic(bad):
    # a NaN once passed the column-sum check and was misreported as
    # NoAbsorption; either block, and the message names the column
    with pytest.raises(NotStochastic, match="column 1"):
        PassiveDynamics([[0.0, 0.0], [0.0, 0.0]], [[1.0, bad]])
    with pytest.raises(NotStochastic, match="column 1"):
        PassiveDynamics([[0.0, 0.5], [0.0, bad]], [[1.0, 0.5]])


def test_passive_blocks_must_agree_in_shape():
    with pytest.raises(DimensionMismatch, match="must be square"):
        PassiveDynamics([[0.5, 0.5]], [[0.5, 0.5]])
    with pytest.raises(DimensionMismatch, match="1 source columns"):
        PassiveDynamics([[0.0, 0.5], [0.5, 0.0]], [[1.0]])


def test_unreachable_boundary_rejected():
    to_interior = [[0.0, 1.0], [1.0, 0.0]]
    to_boundary = [[0.0, 0.0]]
    with pytest.raises(NoAbsorption):
        PassiveDynamics(to_interior, to_boundary)


def test_indirect_absorption_accepted():
    # state 1 reaches the boundary only through state 0
    to_interior = [[0.0, 1.0], [0.5, 0.0]]
    to_boundary = [[0.5, 0.0]]
    dyn = PassiveDynamics(to_interior, to_boundary)
    assert dyn.n_interior == 2


def test_reward_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        build_lmdp(StatePartition(1, 1),
                   PassiveDynamics([[0.0]], [[1.0]]),
                   RewardModel([-1.0, -1.0], [0.0], 1.0))
    with pytest.raises(DimensionMismatch, match="boundary rewards shape"):
        build_lmdp(StatePartition(1, 1),
                   PassiveDynamics([[0.0]], [[1.0]]),
                   RewardModel([-1.0], [0.0, 0.0], 1.0))
    # the partition must match the passive kernel in both blocks
    for partition, block in ((StatePartition(2, 1), "interior"),
                             (StatePartition(1, 2), "boundary")):
        with pytest.raises(DimensionMismatch, match=f"1 {block} states"):
            build_lmdp(partition, PassiveDynamics([[0.0]], [[1.0]]),
                       RewardModel([-1.0], [0.0], 1.0))


def test_nonpositive_temperature_rejected():
    with pytest.raises(InvalidSpec):
        RewardModel([-1.0], [0.0], 0.0)
    with pytest.raises(InvalidSpec):
        RewardModel([-1.0], [0.0], -2.0)


def test_nonfinite_rewards_rejected():
    with pytest.raises(InvalidSpec):
        RewardModel([np.nan], [0.0], 1.0)


@pytest.mark.parametrize("interior, boundary, temperature, field", [
    ([-1.0], [0.0], "1.0", "temperature"), ([-1.0], [0.0], True, "temperature"),
    ([-1.0], [0.0], None, "temperature"), (["-1"], [0.0], 1.0, "interior"),
    ([True], [0.0], 1.0, "interior"), ([None], [0.0], 1.0, "interior"),
    ([-1.0], ["x"], 1.0, "boundary"), ([-1.0], np.array([False]), 1.0, "boundary"),
])
def test_rewards_and_temperature_must_be_numbers(interior, boundary, temperature, field):
    # a string temperature used to raise TypeError and a bool to read as 1
    with pytest.raises(InvalidSpec, match=field):
        RewardModel(interior, boundary, temperature)
    RewardModel(np.array([-1]), [np.float32(0.0)], np.int64(2))  # numpy numbers are numbers


def test_exponentiate_examples():
    q_i, q_b = exponentiate_rewards(RewardModel([0.0], [0.0], 1.0))
    assert q_i[0] == 1.0 and q_b[0] == 1.0
    q_i, _ = exponentiate_rewards(RewardModel([-1.0], [0.0], 1.0))
    assert q_i[0] == math.exp(-1.0)
    q_i, _ = exponentiate_rewards(RewardModel([-1.0], [0.0], 0.5))
    assert q_i[0] == math.exp(-2.0)


def test_reward_overflow_rejected_at_build():
    with pytest.raises(RewardOverflow):
        build_lmdp(StatePartition(1, 1),
                   PassiveDynamics([[0.0]], [[1.0]]),
                   RewardModel([-1.0], [1e4], 0.01))


def test_desirability_must_be_positive():
    with pytest.raises(NonPositiveDesirability):
        Desirability([1.0, 0.0], [1.0])
    with pytest.raises(NonPositiveDesirability):
        Desirability([1.0], [-0.5])


# ---------------------------------------------------------------------------
# kernel entry order: every kernel stores each column's rows ascending


def unsorted_columns(M):
    """Columns of a CSC matrix whose rows do not strictly ascend, read from
    ``indices``: scipy caches has_sorted_indices, which can be stale."""
    return [s for s, (lo, hi) in enumerate(zip(M.indptr[:-1], M.indptr[1:]))
            if not (np.diff(M.indices[lo:hi]) > 0).all()]


def in_column_order(M, descending):
    """M with each column's entries stored ascending or descending by row."""
    data, indices = [], []
    for lo, hi in zip(M.indptr[:-1], M.indptr[1:]):
        order = np.argsort(M.indices[lo:hi])[::-1 if descending else 1]
        data.append(M.data[lo:hi][order])
        indices.append(M.indices[lo:hi][order])
    return sp.csc_matrix((np.concatenate(data), np.concatenate(indices), M.indptr),
                         shape=M.shape)


def test_every_kernel_the_library_builds_is_sorted(rooms, monkeypatch):
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    ring = build_stack(build_task_basis(lmdp, tasks), structures)
    arm, _, _ = make_arm(ArmSpec(7, target_rect=(-3.0, 3.0, -3.0, 3.0)))
    doc = lmdp_to_dict(lmdp)
    from_doc = lmdp_from_dict(dict(doc, passive=doc["passive"][::-1]))
    levels = []  # every level ring_scaling counts, the derived ones among them
    real = bench._level_lmdp
    monkeypatch.setattr(bench, "_level_lmdp",
                        lambda passive, lam: levels.append(passive) or real(passive, lam))
    bench.hierarchical_counts(27)
    assert len(levels) == 3
    kernels = ([entry.lmdp.passive for entry in ring.layers + rooms[1].layers]
               + [arm.passive, from_doc.passive] + levels)
    for passive in kernels:
        for M in (passive.to_interior, passive.to_boundary, passive.full_matrix):
            assert unsorted_columns(M) == []
        assert all(c is None or c[0] == sorted(c[0]) for c in passive.narrow_columns)
        # one stored kernel: the blocks are slices of full_matrix made on read
        assert [k for k, v in vars(passive).items() if sp.issparse(v)] == ["full_matrix"]
        n_i = passive.n_interior
        for block, rows in ((passive.to_interior, slice(None, n_i)),
                            (passive.to_boundary, slice(n_i, None))):
            want = passive.full_matrix[rows]
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(block, part), getattr(want, part))
    # no layer keeps its Bellman operator after the build's one solve
    ring.set_task(goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature))
    run_episode(ring, 13, np.random.default_rng(1))
    assert not any("bellman_operator" in vars(entry.lmdp) for entry in ring.layers)


def test_a_kernel_stores_given_zeros_and_repeats_merged():
    # column 0 holds an explicit zero and column 1 a repeated row: the stored
    # kernel drops the zero and sums the repeat, and the caller's arrays
    # stay as given, though the columns are scaled in place
    P_i = sp.csc_matrix((np.array([0.0, 0.5, 0.25, 0.25]), np.array([1, 0, 0, 0]),
                         np.array([0, 2, 4])), shape=(2, 2))
    given = P_i.data.copy()
    passive = PassiveDynamics(P_i, [[0.5, 0.5]])
    assert passive.full_matrix.data.tolist() == [0.5, 0.5, 0.5, 0.5]
    assert passive.full_matrix.indices.tolist() == [0, 2, 0, 2]
    assert np.array_equal(P_i.data, given)


def test_entry_order_changes_no_episode_and_no_curve():
    # one ring-27 matrix given with each column's entries ascending and then
    # descending trains the same curves and runs the same episode
    lmdp, structures, tasks = make_ring(RingSpec(27, subtask_spacing=3, depth=3))
    q = goal_task_vector(lmdp.n_boundary, 0, lmdp.rewards.temperature)
    runs = []
    for descending in (False, True):
        passive = PassiveDynamics(in_column_order(lmdp.passive.to_interior, descending),
                                  in_column_order(lmdp.passive.to_boundary, descending))
        twin = build_lmdp(lmdp.partition, passive, lmdp.rewards)
        stack = build_stack(build_task_basis(twin, tasks), structures)
        curves = [train(twin, q, epochs=2, episodes_per_epoch=10, seed=1,
                        stack=s, start_state=13)[1] for s in (None, stack)]
        stack.set_task(q)
        runs.append((curves, run_episode(stack, 13, np.random.default_rng(1)).states))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# solvers


def test_unit_instance_solution():
    z = solve_direct(unit_lmdp())
    assert z.interior[0] == pytest.approx(0.36787944117144233, abs=0.0, rel=1e-15)


def test_zero_rewards_give_unit_desirability():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lmdp = random_lmdp(rng)
        flat = dataclasses.replace(
            lmdp, rewards=RewardModel(np.zeros(lmdp.n_interior),
                                      np.zeros(lmdp.n_boundary), 1.0))
        z = solve_direct(flat)
        np.testing.assert_allclose(z.full(), 1.0, rtol=0, atol=1e-12)


def test_chain_frozen_values(chain5):
    z = solve_direct(chain5)
    np.testing.assert_allclose(z.interior, CHAIN5_Z, rtol=1e-14)
    np.testing.assert_allclose(value_from_desirability(z, 1.0)[:3],
                               CHAIN5_V, rtol=1e-14)


def test_boundary_desirability_is_exponentiated_reward(chain5):
    z = solve_direct(chain5)
    np.testing.assert_array_equal(z.boundary, chain5.q_boundary)


def test_unit_instance_exact_after_one_sweep():
    lmdp = unit_lmdp()
    z, iterations, _ = z_iterate(lmdp, lmdp.q_boundary, max_iter=1)
    assert iterations == 1
    assert z[0] == math.exp(-1.0)


def test_iteration_matches_direct(chain5):
    z_direct = solve_direct(chain5)
    z_iter, iterations, converged = z_iterate(chain5, chain5.q_boundary, tol=1e-13)
    assert converged and iterations > 1
    np.testing.assert_allclose(z_iter, z_direct.interior, rtol=0, atol=10 * 1e-13)


def test_iterates_grow_monotonically_from_zero(chain5):
    z = np.zeros(chain5.n_interior)
    exact = solve_direct(chain5).interior
    for _ in range(40):
        prev = z.copy()
        z, _, _ = z_iterate(chain5, chain5.q_boundary, z0=z, max_iter=1)
        assert (z >= prev - 1e-15).all()
        assert (z <= exact + 1e-12).all()


def test_iteration_budget_returns_partial(chain5):
    z, iterations, converged = z_iterate(chain5, chain5.q_boundary, tol=1e-12,
                                         max_iter=5)
    assert converged is False
    assert iterations == 5
    exact = solve_direct(chain5).interior
    assert (z <= exact + 1e-12).all()


def test_solve_interior_accepts_zero_boundary_entries(chain5):
    z = solve_interior(chain5, np.array([1.0, 0.0]))
    assert (z > 0).all()
    # an all-zero boundary vector gives the all-zero solution
    np.testing.assert_allclose(solve_interior(chain5, np.zeros(2)), 0.0,
                               rtol=0, atol=1e-15)


def test_solve_interior_rejects_wrong_length(chain5):
    with pytest.raises(DimensionMismatch):
        solve_interior(chain5, np.ones(3))
    with pytest.raises(DimensionMismatch):
        solve_interior(chain5, np.ones((3, 4)))
    with pytest.raises(DimensionMismatch):
        solve_interior(chain5, np.ones((2, 4, 1)))


# ---------------------------------------------------------------------------
# block solves: one factorization, many boundary columns

# Block width the multi-block tests set, so that their BLOCK + a few columns
# cross a block boundary; the default SOLVE_BYTES fits them in one block.
BLOCK = 32


@contextlib.contextmanager
def block_width(lmdp, width):
    """Size core's solve and z-iteration blocks to ``width`` columns on lmdp."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "SOLVE_BYTES", 8 * lmdp.n_states * width)
        assert core.block_width(lmdp) == width
        yield


def test_block_width_counts_every_state():
    # 512 KiB over 8-byte floats: the widths the SOLVE_BYTES comment quotes
    for n_states, width in [(1024, 64), (1800, 36), (567, 115), (105, 624),
                            (2 ** 17, 1), (2 ** 20, 1)]:  # never zero columns
        assert core.block_width(SimpleNamespace(n_states=n_states)) == width


def random_tasks(rng, lmdp, n_tasks):
    """Sparse nonnegative boundary columns, about a fifth of them all zero."""
    shape = (lmdp.n_boundary, n_tasks)
    Q = rng.exponential(1.0, shape) * (rng.random(shape) < 0.6)
    Q[:, rng.random(n_tasks) < 0.2] = 0.0
    return Q


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans(),
       n_tasks=st.sampled_from([1, 7, BLOCK, BLOCK + 9]))
def test_block_solve_matches_columnwise_solves(seed, sparse, n_tasks):
    rng = np.random.default_rng(seed)
    if sparse:
        lmdp = random_lmdp(rng, min_interior=64, max_interior=104, max_boundary=6)
    else:
        lmdp = random_lmdp(rng, max_boundary=6)
    Q = random_tasks(rng, lmdp, n_tasks)
    with block_width(lmdp, BLOCK):
        Z = solve_interior(lmdp, Q)
    assert Z.shape == (lmdp.n_interior, n_tasks)
    for t in range(n_tasks):
        z = solve_interior(lmdp, Q[:, t])
        np.testing.assert_allclose(Z[:, t], z, rtol=0,
                                   atol=1e-12 * np.abs(z).max(initial=0.0))
    W = rng.uniform(0.0, 2.0, (n_tasks, 3))
    mixed = solve_interior(lmdp, Q @ W)
    np.testing.assert_allclose(Z @ W, mixed, rtol=0,
                               atol=1e-9 * (1 + np.abs(mixed).max()))


def singular_lmdp(n_interior):
    """Self-loop 0.5, exit 0.5 and q_i = 2, so A = I - diag(q_i) P_i^T is 0."""
    return build_lmdp(StatePartition(n_interior, 1),
                      PassiveDynamics(0.5 * np.eye(n_interior),
                                      np.full((1, n_interior), 0.5)),
                      RewardModel(np.full(n_interior, math.log(2.0)), [0.0], 1.0))


@pytest.mark.parametrize("n_interior", [1, 80])
def test_singular_system_is_raised(n_interior):
    lmdp = singular_lmdp(n_interior)
    with pytest.raises(SingularSystem):
        solve_interior(lmdp, lmdp.q_boundary)
    basis = build_task_basis(lmdp, np.ones((1, 3)))  # validates, factors nothing
    with pytest.raises(SingularSystem):
        basis.solve


def test_residual_failure_names_the_failing_columns(chain5, monkeypatch):
    # every solve returns 1.001 x the exact answer, so refinement cannot
    # repair any column except the all-zero ones
    exact = core._factorize

    def inaccurate(A, error):
        solve = exact(A, error)
        return lambda rhs: 1.001 * solve(rhs)

    monkeypatch.setattr(core, "_factorize", inaccurate)
    monkeypatch.setattr(core, "SOLVE_BYTES", 8 * chain5.n_states * BLOCK)
    Q = np.zeros((2, BLOCK + 4))
    Q[:, [1, 3]] = 1.0
    with pytest.raises(SingularSystem, match=r"in columns \[1, 3\]$"):
        solve_interior(chain5, Q)
    # indices are global across blocks
    Q = np.zeros((2, BLOCK + 4))
    Q[:, BLOCK + 2] = 1.0
    with pytest.raises(SingularSystem, match=rf"in columns \[{BLOCK + 2}\]$"):
        solve_interior(chain5, Q)
    # a basis solves its boundary columns, of which chain5 has two
    with pytest.raises(SingularSystem, match=r"^residual .* in columns \[0, 1\]$"):
        build_task_basis(chain5, np.ones((2, 3))).solve()


def test_direct_solve_matches_iteration_over_random_instances():
    rng = np.random.default_rng(11)
    tol = 1e-12
    for _ in range(100):
        lmdp = random_lmdp(rng)
        z_direct = solve_direct(lmdp).interior
        z_iter, _, converged = z_iterate(lmdp, lmdp.q_boundary, tol=tol)
        assert converged
        np.testing.assert_allclose(z_iter, z_direct, rtol=0,
                                   atol=10 * tol * (1 + np.abs(z_direct).max()))


def test_composition_linearity_over_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(100):
        lmdp = random_lmdp(rng)
        q1 = random_boundary_q(rng, lmdp.n_boundary)
        q2 = random_boundary_q(rng, lmdp.n_boundary)
        a, b = rng.uniform(0.0, 2.0, 2)
        blended = solve_interior(lmdp, a * q1 + b * q2)
        parts = a * solve_interior(lmdp, q1) + b * solve_interior(lmdp, q2)
        scale = np.abs(blended).max()
        np.testing.assert_allclose(parts, blended, rtol=0, atol=1e-9 * (1 + scale))


# ---------------------------------------------------------------------------
# block z-iteration: many boundary columns per sweep


def vector_sweeps(lmdp, q_boundary, z0, tol, max_iter):
    """The one-vector sweep loop written out: z <- diag(q_i) (P_i^T z + P_b^T q_b)."""
    T = (sp.diags(lmdp.q_interior) @ lmdp.passive.to_interior.T).tocsr()
    b = lmdp.q_interior * (lmdp.passive.to_boundary.T @ q_boundary)
    z = np.zeros(lmdp.n_interior) if z0 is None else z0.copy()
    for sweep in range(1, max_iter + 1):
        z_new = T @ z + b
        if np.max(np.abs(z_new - z)) <= tol:
            return z_new, sweep, True
        z = z_new
    return z, max_iter, False


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_tasks=st.sampled_from([1, 7, BLOCK, BLOCK + 9]),
       cut_budget=st.booleans(), start=st.booleans())
def test_block_iteration_matches_columnwise_iteration(seed, n_tasks, cut_budget,
                                                      start):
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng, max_boundary=6)
    Q = random_tasks(rng, lmdp, n_tasks)
    z0 = rng.uniform(0.0, 2.0, (lmdp.n_interior, n_tasks)) if start else None
    max_iter = DEFAULT_MAX_ITER
    if cut_budget:
        # the median per-column count stops the slower half of the columns
        counts = [vector_sweeps(lmdp, Q[:, t], None if z0 is None else z0[:, t],
                                DEFAULT_TOL, max_iter)[1] for t in range(n_tasks)]
        max_iter = int(np.median(counts))
    start_copy = None if z0 is None else z0.copy()
    with block_width(lmdp, BLOCK):
        Z, iterations, converged = z_iterate(lmdp, Q, z0=z0, max_iter=max_iter)
    assert Z.shape == (lmdp.n_interior, n_tasks)
    assert type(iterations) is int
    if z0 is not None:
        assert np.array_equal(z0, start_copy)  # the start is not written to
    total, flags = 0, []
    for t in range(n_tasks):
        z0_t = None if z0 is None else z0[:, t]
        z, count, ok = z_iterate(lmdp, Q[:, t], z0=z0_t, max_iter=max_iter)
        ref_z, ref_count, ref_ok = vector_sweeps(lmdp, Q[:, t], z0_t,
                                                 DEFAULT_TOL, max_iter)
        assert np.array_equal(z, ref_z)
        assert (count, ok) == (ref_count, ref_ok)
        assert np.array_equal(Z[:, t], z)
        total += count
        flags.append(ok)
    assert iterations == total
    assert converged == all(flags)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, BLOCK]),
       n_tasks=st.sampled_from([1, 5, BLOCK, BLOCK + 7]), cut_budget=st.booleans())
def test_loose_probe_rows_change_no_bit(seed, width, n_tasks, cut_budget):
    # on a ring a change travels from state to state, and a start of both
    # signs kicked at a few states over many decades, with task columns as
    # spread, moves each column's largest change between rows from sweep to
    # sweep: probe rows go stale and then only the exact max may decide
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    passive = ring_passive((n,), rng.uniform(0.05, 0.4), rng.uniform(0.02, 0.2))
    lmdp = build_lmdp(StatePartition(n, n), passive, RewardModel(
        -rng.uniform(0.1, 2.0, n), rng.uniform(-2.0, 0.5, n), rng.uniform(0.4, 2.5)))
    shape = (n, n_tasks)
    Q = (rng.random(shape) < 0.3) * 10.0 ** rng.uniform(-8, 4, n_tasks)
    z0 = (rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-12, 4, shape)
          * (rng.random(shape) < 0.2))
    refs = [vector_sweeps(lmdp, Q[:, t], z0[:, t], DEFAULT_TOL, DEFAULT_MAX_ITER)
            for t in range(n_tasks)]
    max_iter = DEFAULT_MAX_ITER
    if cut_budget:  # stop the slower half of the columns unconverged
        max_iter = int(np.median([count for _, count, _ in refs]))
        refs = [vector_sweeps(lmdp, Q[:, t], z0[:, t], DEFAULT_TOL, max_iter)
                for t in range(n_tasks)]
    with block_width(lmdp, width):
        Z, iterations, converged = z_iterate(lmdp, Q, z0=z0, max_iter=max_iter)
    for t, (ref_z, ref_count, ref_ok) in enumerate(refs):
        assert np.array_equal(Z[:, t], ref_z)
        z, count, ok = z_iterate(lmdp, Q[:, t], z0=z0[:, t], max_iter=max_iter)
        assert np.array_equal(z, ref_z) and (count, ok) == (ref_count, ref_ok)
    assert iterations == sum(count for _, count, _ in refs)
    assert converged == all(ok for _, _, ok in refs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sparse=st.booleans(),
       n_tasks=st.integers(1, 2 * BLOCK), widths=st.lists(
           st.integers(1, 2 * BLOCK), min_size=2, max_size=2, unique=True),
       cap=st.one_of(st.none(), st.integers(1, 40)), start=st.booleans())
def test_block_width_changes_no_bit(seed, sparse, n_tasks, widths, cap, start):
    rng = np.random.default_rng(seed)
    if sparse:
        lmdp = random_lmdp(rng, min_interior=64, max_interior=104, max_boundary=6)
    else:
        lmdp = random_lmdp(rng, max_boundary=6)
    Q = random_tasks(rng, lmdp, n_tasks)
    z0 = rng.uniform(0.0, 2.0, (lmdp.n_interior, n_tasks)) if start else None
    # a cap freezes the columns still moving at that sweep, unconverged
    max_iter = DEFAULT_MAX_ITER if cap is None else cap
    runs = []
    for width in widths:
        with block_width(lmdp, width):
            runs.append((z_iterate(lmdp, Q, z0=z0, max_iter=max_iter),
                         solve_interior(lmdp, Q)))
    (iterated, solved), (iterated2, solved2) = runs
    assert np.array_equal(iterated[0], iterated2[0])
    assert iterated[1:] == iterated2[1:]  # sweep total and converged flag
    assert np.array_equal(solved, solved2)  # SuperLU solves each column alone


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan")])
def test_z_iterate_rejects_a_tolerance_no_column_can_meet(chain5, tol):
    with pytest.raises(InvalidSpec):
        z_iterate(chain5, chain5.q_boundary, tol=tol, max_iter=10)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_z_iterate_rejects_a_budget_with_no_sweep(chain5, max_iter):
    with pytest.raises(InvalidSpec, match="max_iter must be at least 1"):
        z_iterate(chain5, chain5.q_boundary, max_iter=max_iter)


@pytest.mark.parametrize("max_iter", [2.5, 3.0, np.float64(3.0), True, False,
                                      np.True_, "3", None])
def test_z_iterate_rejects_a_budget_that_is_not_an_integer(chain5, max_iter):
    # 2.5 used to run 3 sweeps and True 1, both silently
    with pytest.raises(InvalidSpec, match="max_iter must be at least 1 and an integer"):
        z_iterate(chain5, chain5.q_boundary, max_iter=max_iter)


def test_z_iterate_takes_a_numpy_integer_budget(chain5):
    assert z_iterate(chain5, chain5.q_boundary, max_iter=np.int64(3))[1:] == (3, False)


class _Level(enum.IntEnum):
    ONE = 1


# every numpy integer scalar type, np.longlong and np.ulonglong among them
NUMPY_INTEGER_TYPES = sorted({np.dtype(c).type for c in np.typecodes["AllInteger"]},
                             key=lambda t: t.__name__)


@pytest.mark.parametrize("value", [1, 2**70, _Level.ONE] + [t(1) for t in NUMPY_INTEGER_TYPES])
def test_is_integer_takes_python_and_numpy_integers(value):
    assert core.is_integer(value)


@pytest.mark.parametrize("value", [True, np.bool_(True), 1.0, np.float64(1.0),
                                   Fraction(1), "1", None])
def test_is_integer_refuses_bools_floats_and_non_numbers(value):
    assert not core.is_integer(value)


def test_z_iterate_rejects_wrong_shapes(chain5):
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones(3))
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones((3, 4)))
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones((2, 4, 1)))
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones(2), z0=np.zeros(4))
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones(2), z0=np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones((2, 5)), z0=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        z_iterate(chain5, np.ones((2, 5)), z0=np.zeros((3, 4)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_z_iterate_rejects_non_finite_inputs(chain5, bad):
    Q = np.ones((2, BLOCK + 3))
    Q[0, BLOCK + 1] = bad
    # both solvers share the boundary check
    for solve in (z_iterate, solve_interior):
        with pytest.raises(InvalidSpec, match="boundary values must be finite"):
            solve(chain5, np.array([1.0, bad]))
        with block_width(chain5, BLOCK), pytest.raises(
                InvalidSpec, match="boundary values must be finite"):
            solve(chain5, Q)
    with pytest.raises(InvalidSpec):
        z_iterate(chain5, np.ones(2), z0=np.array([0.0, bad, 0.0]))


def diverging_lmdp():
    """A recurrent pair with q_i = e: the weighted kernel's spectral radius is
    0.9 e > 1, so z-iteration grows without bound."""
    return build_lmdp(StatePartition(2, 1),
                      PassiveDynamics([[0.0, 0.9], [0.9, 0.0]], [[0.1, 0.1]]),
                      RewardModel([1.0, 1.0], [0.0], 1.0))


def test_diverging_iteration_raises_and_names_the_columns():
    lmdp = diverging_lmdp()
    with warnings.catch_warnings(), block_width(lmdp, BLOCK):
        warnings.simplefilter("error")  # no numpy overflow warnings either
        with pytest.raises(SingularSystem,
                           match=r"non-finite values in columns \[0\]$"):
            z_iterate(lmdp, lmdp.q_boundary)
        # an all-zero column converges and is frozen; the others diverge
        Q = np.ones((1, BLOCK + 3))
        Q[:, [1, BLOCK + 1]] = 0.0
        with pytest.raises(SingularSystem,
                           match=r"non-finite values in columns \[0, 2, 3,"):
            z_iterate(lmdp, Q)
        # indices are global across blocks
        Q = np.zeros((1, BLOCK + 3))
        Q[:, BLOCK + 2] = 1.0
        with pytest.raises(SingularSystem,
                           match=rf"in columns \[{BLOCK + 2}\]$"):
            z_iterate(lmdp, Q)


def test_columns_overflowing_at_different_sweeps_raise_at_the_first():
    # the 1e300 column overflows within 30 sweeps, long before the 1e150
    # column; the all-zero column converges at once and 1e-300 is far behind
    lmdp, Q = diverging_lmdp(), np.array([[1.0, 1e150, 1e300, 0.0, 1e-300]])
    with pytest.raises(SingularSystem, match=r"in columns \[2\]$"):
        z_iterate(lmdp, Q)
    with block_width(lmdp, BLOCK), pytest.raises(SingularSystem,
                                                 match=r"in columns \[2\]$"):
        z_iterate(lmdp, Q)


def test_an_overflow_away_from_the_probe_row_is_caught():
    # state 0 moves toward 1e300 for 55 sweeps and never sees state 1, which
    # overflows to inf at sweep 24: each column's probe row stays at state 0,
    # whose change stays finite, so only the block's finiteness test, run
    # every 8th sweep (here at sweep 24), can stop the run inside the budget
    lmdp = build_lmdp(StatePartition(2, 1),
                      PassiveDynamics([[0.5, 0.0], [0.0, 0.9]], [[0.5, 0.1]]),
                      RewardModel([0.0, 1.0], [0.0], 1.0))
    with pytest.raises(SingularSystem, match=r"in columns \[0\]$"):
        z_iterate(lmdp, np.array([1e300]), max_iter=40)


def test_a_budget_ending_on_an_overflowed_iterate_raises():
    # 1e300 overflows to inf at sweep 24 and inf - inf first shows at sweep
    # 25: a budget of 24 freezes an infinite iterate, which must not be returned
    with pytest.raises(SingularSystem, match=r"non-finite values in columns \[0\]$"):
        z_iterate(diverging_lmdp(), np.array([1e300]), max_iter=24)


def first_overflow(lmdp, Q, z0, max_iter):
    """The first sweep within max_iter at which some column of the sweep loop
    written out (no column stopping) holds a non-finite value, or None."""
    T = (sp.diags(lmdp.q_interior) @ lmdp.passive.to_interior.T).tocsr()
    b = lmdp.q_interior[:, None] * (lmdp.passive.to_boundary.T @ Q)
    z = np.zeros(b.shape) if z0 is None else z0
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            z = T @ z + b
            if not np.isfinite(z).all():
                return sweep
    return None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, BLOCK]),
       n_tasks=st.sampled_from([1, 4]), max_iter=st.integers(1, 2000),
       offset=st.one_of(st.none(), st.integers(-8, 8)), start=st.booleans())
def test_z_iteration_returns_finite_values_or_raises(seed, width, n_tasks, max_iter,
                                                     offset, start):
    # positive interior rewards can push the weighted kernel's spectral radius
    # past one; a ring of interior moves makes the interior irreducible, so
    # a column whose iterate overflows stays non-finite from then on.  An
    # offset ends the budget that many sweeps after the first overflow, where
    # it may freeze an infinite iterate before inf - inf shows
    rng = np.random.default_rng(seed)
    n_i, n_b = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    P = rng.random((n_i + n_b, n_i)) * (rng.random((n_i + n_b, n_i)) < 0.7)
    P[(np.arange(n_i) + 1) % n_i, np.arange(n_i)] += 0.1
    P[n_i:] += 0.05
    P /= P.sum(axis=0)
    lmdp = build_lmdp(StatePartition(n_i, n_b), PassiveDynamics(P[:n_i], P[n_i:]),
                      RewardModel(rng.uniform(-1.0, 2.0, n_i),
                                  rng.uniform(-2.0, 0.5, n_b), rng.uniform(0.4, 2.5)))
    Q = random_tasks(rng, lmdp, n_tasks) * 10.0 ** rng.uniform(0, 300, n_tasks)
    z0 = rng.uniform(0.0, 2.0, (n_i, n_tasks)) if start else None
    overflow = first_overflow(lmdp, Q, z0, 2000)
    if offset is not None and overflow is not None:
        max_iter = max(1, overflow + offset)
    with np.errstate(over="ignore", invalid="ignore"):
        refs = [vector_sweeps(lmdp, Q[:, t], None if z0 is None else z0[:, t],
                              DEFAULT_TOL, max_iter) for t in range(n_tasks)]
    overflowed = [t for t, (z, _, _) in enumerate(refs) if not np.isfinite(z).all()]
    with block_width(lmdp, width):
        if overflowed:
            with pytest.raises(SingularSystem, match=r"non-finite values in columns") as info:
                z_iterate(lmdp, Q, z0=z0, max_iter=max_iter)
            named = re.search(r"\[([0-9, ]+)\]$", str(info.value)).group(1)
            assert set(map(int, named.split(", "))) <= set(overflowed)
            return
        Z, iterations, converged = z_iterate(lmdp, Q, z0=z0, max_iter=max_iter)
    assert np.isfinite(Z).all()
    for t, ref in enumerate(refs):
        assert np.array_equal(Z[:, t], ref[0])
        z, count, ok = z_iterate(lmdp, Q[:, t], z0=None if z0 is None else z0[:, t],
                                 max_iter=max_iter)
        assert np.array_equal(z, ref[0]) and (count, ok) == ref[1:]
    assert iterations == sum(count for _, count, _ in refs)
    assert converged == all(ok for _, _, ok in refs)


# ---------------------------------------------------------------------------
# policies


def policy_matrix(lmdp, z_full):
    """policy_column at every interior source, as a dense matrix."""
    A = np.zeros((lmdp.n_states, lmdp.n_interior))
    for s in range(lmdp.n_interior):
        rows, probs = policy_column(lmdp, z_full, s)
        A[rows, s] = probs
    return A


def test_constant_desirability_recovers_passive(chain5):
    np.testing.assert_allclose(policy_matrix(chain5, np.ones(chain5.n_states)),
                               chain5.passive.full_matrix.toarray(),
                               rtol=0, atol=1e-15)


def test_deterministic_column_ignores_desirability():
    lmdp = unit_lmdp()
    for z_b in (0.01, 1.0, 100.0):
        np.testing.assert_array_equal(
            policy_matrix(lmdp, np.array([1.0, z_b]))[:, 0], [0.0, 1.0])


def test_chain_frozen_policy_column(chain5):
    z = solve_direct(chain5)
    np.testing.assert_allclose(policy_matrix(chain5, z.full())[:, 1],
                               CHAIN5_MID_POLICY, rtol=1e-14)


def test_policy_columns_stochastic_with_passive_support():
    rng = np.random.default_rng(17)
    for _ in range(100):
        lmdp = random_lmdp(rng)
        z_full = solve_direct(lmdp).full()
        A = policy_matrix(lmdp, z_full)
        np.testing.assert_allclose(A.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        P = lmdp.passive.full_matrix.toarray()
        assert (A[P == 0] == 0).all()
        np.testing.assert_allclose(A, oracles.tilted_policy(P, z_full),
                                   rtol=1e-13, atol=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_policy_column_is_a_tilted_passive_distribution(seed):
    # desirability spread over several orders of magnitude, independent of
    # any solve; columns of up to 16 entries cover both tilt paths
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng)
    z_full = np.exp(rng.uniform(-8.0, 2.0, lmdp.n_states))
    P = lmdp.passive.full_matrix
    tilted = oracles.tilted_policy(P, z_full)
    for s in range(lmdp.n_interior):
        rows, probs = policy_column(lmdp, z_full, s)
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert (probs >= 0).all()
        assert set(rows.tolist()) <= set(P.indices[P.indptr[s]:P.indptr[s + 1]].tolist())
        column = np.zeros(lmdp.n_states)
        column[rows] = probs
        np.testing.assert_allclose(column, tilted[:, s], rtol=0, atol=1e-12)


def test_policy_column_function_matches_matrix(chain5):
    z_full = solve_direct(chain5).full()
    np.testing.assert_allclose(
        policy_matrix(chain5, z_full),
        oracles.tilted_policy(chain5.passive.full_matrix, z_full),
        rtol=0, atol=1e-15)


def test_policy_column_rejects_wrong_length(chain5):
    # state 0's support is {1, 3}, so a short vector would still index
    for n in (chain5.n_states - 1, chain5.n_states + 1):
        with pytest.raises(DimensionMismatch,
                           match=f"covers {n} states, LMDP has 5"):
            policy_column(chain5, np.ones(n), 0)


def test_policy_column_rejects_a_state_outside_the_interior():
    # a negative index would otherwise select a column counted from the end
    lmdp, _, _ = make_ring(RingSpec(12))
    z_full = solve_direct(lmdp).full()
    for state in (-1, -2, lmdp.n_interior, lmdp.n_states):
        with pytest.raises(InvalidSpec, match="not an interior state"):
            policy_column(lmdp, z_full, state)


def test_values_and_desirability_are_inverse_maps():
    rng = np.random.default_rng(19)
    for _ in range(100):
        lam = float(rng.uniform(0.3, 3.0))
        v_i = rng.uniform(-5.0, 1.0, 4)
        v_b = rng.uniform(-5.0, 1.0, 2)
        z = Desirability(np.exp(v_i / lam), np.exp(v_b / lam))
        np.testing.assert_allclose(value_from_desirability(z, lam),
                                   np.concatenate([v_i, v_b]),
                                   rtol=0, atol=1e-12)


def test_unit_desirability_has_zero_value():
    np.testing.assert_array_equal(
        value_from_desirability(Desirability([1.0], [1.0]), 2.5), [0.0, 0.0])


# ---------------------------------------------------------------------------
# sampling


def test_deterministic_transition_always_taken():
    lmdp = unit_lmdp()
    rows, probs = policy_column(lmdp, solve_direct(lmdp).full(), 0)
    rng = np.random.default_rng(0)
    assert all(draw_from(rows, probs, rng) == 1 for _ in range(100))


def test_sampling_reproducible_under_seed(chain5):
    rows, probs = policy_column(chain5, solve_direct(chain5).full(), 1)
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    draws_a = [draw_from(rows, probs, rng_a) for _ in range(200)]
    draws_b = [draw_from(rows, probs, rng_b) for _ in range(200)]
    assert draws_a == draws_b
    assert len(set(draws_a)) == 2


def test_sample_frequencies_match_probabilities(chain5):
    z = solve_direct(chain5)
    rows, probs = policy_column(chain5, z.full(), 1)
    rng = np.random.default_rng(23)
    n = 100_000
    draws = np.array([draw_from(rows, probs, rng) for _ in range(n)])
    for row, p in zip(rows, probs):
        assert abs((draws == row).mean() - p) < 0.01


def reference_policy_column(lmdp, z_full, state):
    """policy_column written out with numpy only: tilt, sum, divide."""
    P = lmdp.passive.full_matrix
    lo, hi = P.indptr[state], P.indptr[state + 1]
    rows = P.indices[lo:hi]
    vals = P.data[lo:hi] * z_full[rows]
    return rows, vals / vals.sum()


def reference_draw(rows, probs, rng):
    cum = np.cumsum(probs)
    k = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return int(rows[min(k, len(rows) - 1)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_interior=st.sampled_from([2, 6, 12]))
def test_scalar_columns_match_numpy_bit_for_bit(seed, max_interior):
    # columns 1 to 16 entries wide straddle NARROW, so both paths of
    # policy_column are held to the same written-out reference, and
    # draw_from's one path to the numpy reference at every width
    rng = np.random.default_rng(seed)
    lmdp = random_lmdp(rng, max_interior=max_interior)
    P = lmdp.passive.full_matrix
    z_full = rng.exponential(1.0, lmdp.n_states) * 10.0 ** rng.integers(-3, 4, lmdp.n_states)
    special = rng.random(lmdp.n_states)
    z_full[special < 0.15] = 1e-300
    z_full[special > 0.9] = 0.0
    for s in range(lmdp.n_interior):
        lo, hi = P.indptr[s], P.indptr[s + 1]
        assert (lmdp.passive.narrow_columns[s] is None) == (hi - lo >= core.NARROW)
        with pytest.raises(ZeroNormalizer):
            policy_column(lmdp, np.zeros(lmdp.n_states), s)
        if not (P.data[lo:hi] * z_full[P.indices[lo:hi]]).sum() > 0:
            with pytest.raises(ZeroNormalizer):
                policy_column(lmdp, z_full, s)
            continue
        rows, probs = policy_column(lmdp, z_full, s)
        ref_rows, ref_probs = reference_policy_column(lmdp, z_full, s)
        assert isinstance(probs, np.ndarray)
        assert np.array_equal(rows, ref_rows) and np.array_equal(probs, ref_probs)
        narrow = lmdp.passive.narrow_columns[s]
        if narrow is not None:
            # the learner tilts, sums and draws a list of floats in one call;
            # the running sum it bisects is numpy's float for float
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            bisected = []

            def record(cum, x):
                bisected.append(cum)
                return bisect_right(cum, x)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "bisect_right", record)
                drawn = [core.narrow_draw(narrow, z_full.tolist(), s, rng_a)
                         for _ in range(50)]
            assert drawn == [reference_draw(ref_rows, ref_probs, rng_b) for _ in range(50)]
            assert len(bisected) == 50
            assert all(cum == np.cumsum(ref_probs).tolist() for cum in bisected)
        # normalized and, as learners pass them, unnormalized probabilities,
        # as an ndarray or a plain list
        for p in (probs, P.data[lo:hi], P.data[lo:hi].tolist()):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert ([draw_from(rows, p, rng_a) for _ in range(50)]
                    == [reference_draw(rows, p, rng_b) for _ in range(50)])



@pytest.mark.parametrize("probs", [
    [0.0, 0.0, 0.0],            # all zero
    [0.5, np.nan, 0.5],         # NaN
    [0.2, -0.5, 0.1],           # negative total
    [0.5, np.inf, 0.5],         # infinite total
    [],                         # empty column
], ids=["zero", "nan", "negative", "inf", "empty"])
def test_a_bad_distribution_raises(probs):
    # these used to draw the last row, or fail with a bare IndexError
    rows = np.arange(len(probs))
    with pytest.raises(ZeroNormalizer):
        draw_from(rows, np.array(probs, dtype=np.float64), np.random.default_rng(0))
    with pytest.raises(ZeroNormalizer):
        core.running_sum(probs)


def test_an_infinite_desirability_raises_on_both_tilt_paths():
    # an inf entry used to give NaN probabilities, and a draw from them the
    # last row of the column, here a boundary state of ring-12
    ring, _, _ = make_ring(RingSpec(12))
    dense = random_lmdp(np.random.default_rng(3), max_interior=12, min_interior=12)
    paths = set()
    for lmdp in (ring, dense):
        P = lmdp.passive.full_matrix
        for s in range(lmdp.n_interior):
            paths.add(lmdp.passive.narrow_columns[s] is None)
            z_full = np.ones(lmdp.n_states)
            z_full[P.indices[P.indptr[s]]] = np.inf
            with pytest.raises(ZeroNormalizer):
                policy_column(lmdp, z_full, s)
    assert paths == {False, True}


@pytest.mark.parametrize("fill", [0.0, np.inf, np.nan], ids=["zero", "inf", "nan"])
def test_narrow_draw_rejects_a_column_without_finite_positive_mass(fill):
    ring, _, _ = make_ring(RingSpec(12))
    narrow = ring.passive.narrow_columns[4]
    z = [0.0 if fill == 0.0 else 1.0] * ring.n_states
    z[narrow[0][0]] = fill
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ZeroNormalizer, match="policy column 4"):
        core.narrow_draw(narrow, z, 4, rng)
    assert rng.bit_generator.state == state


def one_column_lmdp(rows, probs, n_interior, n_states):
    """An LMDP whose interior state 0 has passive column ``probs`` at
    ``rows`` and whose other interior states exit to the last state."""
    P = np.zeros((n_states, n_interior))
    P[rows, 0] = probs
    P[n_states - 1, 1:] = 1.0
    return build_lmdp(StatePartition(n_interior, n_states - n_interior),
                      PassiveDynamics(P[:n_interior], P[n_interior:]),
                      RewardModel(np.zeros(n_interior), np.zeros(n_states - n_interior)))


def dict_kl(rows, probs, lmdp, state):
    """KL(a || p) of arrays with p read from the CSC column into a dict, the
    reference for _kl_column's narrow path."""
    P = lmdp.passive.full_matrix
    lo, hi = P.indptr[state], P.indptr[state + 1]
    p_map = dict(zip(P.indices[lo:hi].tolist(), P.data[lo:hi].tolist()))
    kl = 0.0
    for r, av in zip(rows.tolist(), probs.tolist()):
        if av > 0.0:
            kl += av * math.log(av / p_map[r])
    return kl


def same_floats(ours, theirs):
    return np.asarray(ours, dtype=np.float64).tobytes() == np.asarray(theirs).tobytes()


_positive = st.floats(min_value=1e-150, max_value=1e150)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_narrow_columns_match_the_numpy_path_bit_for_bit(data):
    # a column of 1 to 7 entries over random positive z: the Python-float
    # tilt, masked redraw, running sum and KL give numpy's floats exactly
    n_states = data.draw(st.integers(2, 12), label="n_states")
    n_interior = data.draw(st.integers(1, n_states - 1), label="n_interior")
    rows = sorted(data.draw(st.sets(st.integers(0, n_states - 1), min_size=1,
                                    max_size=min(n_states, core.NARROW - 1)), label="rows"))
    if rows == [0]:
        rows.append(n_states - 1)  # a lone self-loop never absorbs
    weights = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=len(rows),
                                          max_size=len(rows)), label="weights"))
    lmdp = one_column_lmdp(rows, weights / weights.sum(), n_interior, n_states)
    z = np.array(data.draw(st.lists(_positive, min_size=n_states, max_size=n_states),
                           label="z"))
    lo = data.draw(st.integers(0, n_states), label="lo")
    hi = data.draw(st.integers(lo, n_states), label="hi")
    narrow = lmdp.passive.narrow_columns[0]
    assert narrow is not None and narrow[0] == rows

    ref_rows, ref_probs = policy_column(lmdp, z, 0)
    for z_at in (z.item, z.tolist().__getitem__):
        got_rows, got_probs = core.narrow_tilt(narrow, z_at, 0)
        assert got_rows == ref_rows.tolist() and same_floats(got_probs, ref_probs)
    assert core.running_sum(got_probs) == core.running_sum(ref_probs)
    assert core.running_sum(got_probs) == np.cumsum(ref_probs).tolist()
    assert core._kl_column(got_rows, got_probs, lmdp, 0) == dict_kl(ref_rows, ref_probs, lmdp, 0)

    if all(lo <= r < hi for r in rows):  # all mass in the subtask rows
        with pytest.raises(ZeroNormalizer):
            masked_redraw_column(ref_rows, ref_probs, lo, hi)
        with pytest.raises(ZeroNormalizer):
            masked_redraw_column(got_rows, got_probs, lo, hi)
        return
    ref_rows, ref_probs = masked_redraw_column(ref_rows, ref_probs, lo, hi)
    got_rows, got_probs = masked_redraw_column(got_rows, got_probs, lo, hi)
    assert got_rows == ref_rows.tolist() and same_floats(got_probs, ref_probs)
    assert core.running_sum(got_probs) == np.cumsum(ref_probs).tolist()
    assert core._kl_column(got_rows, got_probs, lmdp, 0) == dict_kl(ref_rows, ref_probs, lmdp, 0)


@pytest.mark.parametrize("fill", [0.0, np.inf, np.nan], ids=["zero", "inf", "nan"])
def test_the_narrow_tilt_raises_where_policy_column_does(fill):
    lmdp = one_column_lmdp([1, 2, 3], [0.25, 0.5, 0.25], 2, 4)
    z = np.ones(4) if fill else np.zeros(4)
    z[2] = fill
    with pytest.raises(ZeroNormalizer, match="policy column 0"):
        policy_column(lmdp, z, 0)
    with pytest.raises(ZeroNormalizer, match="policy column 0"):
        core.narrow_tilt(lmdp.passive.narrow_columns[0], z.item, 0)


@pytest.mark.parametrize("rows, lo, hi", [([1, 2], 0, 4), ([1, 2], 1, 3), ([1, 2, 3], 1, 3)],
                         ids=["rows-inside", "rows-exactly", "mass-inside"])
def test_the_narrow_mask_raises_where_masked_redraw_column_does(rows, lo, hi):
    # every row of the column, or (z = 0 at row 3) all of its mass, lies in [lo, hi)
    lmdp = one_column_lmdp(rows, np.full(len(rows), 1.0 / len(rows)), 3, 5)
    z = np.ones(5)
    z[3] = 0.0
    rows, probs = core.narrow_tilt(lmdp.passive.narrow_columns[0], z.item, 0)
    with pytest.raises(ZeroNormalizer):
        masked_redraw_column(np.array(rows), np.array(probs), lo, hi)
    with pytest.raises(ZeroNormalizer):
        masked_redraw_column(rows, probs, lo, hi)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(core.NARROW, 400), seed=st.integers(0, 2**32 - 1))
def test_a_dense_running_sum_is_the_left_to_right_one(n, seed):
    # np.cumsum, which running_sum takes for an array, is sequential at
    # every width, unlike np.sum from 8 entries on
    rng = np.random.default_rng(seed)
    probs = rng.random(n) * 10.0 ** rng.integers(-12, 13, n)
    left_to_right = list(accumulate(probs.tolist()))
    assert np.cumsum(probs).tolist() == left_to_right
    assert core.running_sum(probs) == left_to_right == core.running_sum(probs.tolist())


# ---------------------------------------------------------------------------
# returns of executed episodes


def ring_stack(scale=1.0, n=12, goal=4):
    """Depth-1 stack with a goal task set, on a ring whose rewards and
    temperature are both multiplied by ``scale``; q = exp(r / lambda), the
    task vectors and so every draw are the same at any scale."""
    lmdp, _, tasks = make_ring(RingSpec(n, temperature=scale,
                                        interior_reward=-scale))
    stack = build_stack(build_task_basis(lmdp, tasks), [])
    stack.set_task(goal_task_vector(lmdp.n_boundary, goal, scale))
    return lmdp, stack


def test_passive_trajectory_return_is_reward_sum():
    # a deterministic corridor 0 -> 1 -> 2 -> exit: every policy column is
    # the passive one, so no control cost accrues and the return is the
    # interior rewards plus lambda log q at the exit, its boundary reward
    lmdp = build_lmdp(StatePartition(3, 1),
                      PassiveDynamics(np.eye(3, k=-1), [[0.0, 0.0, 1.0]]),
                      RewardModel([-1.0, -2.0, -0.5], [-5.0], 0.5))
    stack = build_stack(build_task_basis(lmdp, lmdp.q_boundary[:, None]), [])
    stack.set_task(lmdp.q_boundary)
    traj = run_episode(stack, 0, np.random.default_rng(0))
    assert traj.states == [0, 1, 2, 3]
    assert traj.total_return == pytest.approx(-1.0 - 2.0 - 0.5 - 5.0, rel=1e-12)


def test_control_cost_scales_with_temperature():
    # the control cost is lambda times the oracle KL along the path; doubling
    # rewards and temperature keeps the path and doubles every return term
    trajectories = []
    for scale in (1.0, 2.0):
        lmdp, stack = ring_stack(scale)
        traj = run_episode(stack, 0, np.random.default_rng(3))
        assert not traj.truncated
        lam, n_i = lmdp.rewards.temperature, lmdp.n_interior
        P = lmdp.passive.full_matrix.toarray()
        A = oracles.tilted_policy(P, stack.z_full[0])
        visited = traj.states[:-1]
        kl_total = sum(oracles.kl_divergence(A[:, s], P[:, s]) for s in visited)
        rewards = (lmdp.rewards.interior[visited].sum()
                   + lam * math.log(stack.target[traj.states[-1] - n_i]))
        assert kl_total > 0
        assert rewards - traj.total_return == pytest.approx(lam * kl_total,
                                                            rel=1e-9)
        trajectories.append(traj)
    assert trajectories[1].states == trajectories[0].states
    assert trajectories[1].total_return == pytest.approx(
        2 * trajectories[0].total_return, rel=1e-12)


def test_optimal_policy_beats_passive_on_average():
    # the mean KL-adjusted return from s is exactly the value lambda log z(s),
    # which is above the passive walk's expected return
    lmdp, stack = ring_stack()
    lam, n_i = lmdp.rewards.temperature, lmdp.n_interior
    values = lam * np.log(solve_interior(lmdp, stack.target))
    passive = oracles.passive_values(lmdp.passive.full_matrix, n_i,
                                     lmdp.rewards.interior,
                                     lam * np.log(stack.target))
    rng = np.random.default_rng(29)
    n = 4000
    for s in (0, 4, 7):
        trajectories = [run_episode(stack, s, rng) for _ in range(n)]
        assert not any(traj.truncated for traj in trajectories)
        returns = np.array([traj.total_return for traj in trajectories])
        stderr = returns.std(ddof=1) / math.sqrt(n)
        assert abs(returns.mean() - values[s]) < 4 * stderr
        assert values[s] > passive[s]
