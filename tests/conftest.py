"""Shared fixtures and generators for the test suite."""
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lsmdp import (
    PassiveDynamics,
    RewardModel,
    StatePartition,
    boundary_goal_tasks,
    build_lmdp,
    build_stack,
    build_task_basis,
    four_rooms_map,
    grid_from_ascii,
    make_grid,
)


def random_lmdp(rng, max_interior=12, max_boundary=4, temperature=None,
                min_interior=2):
    """Random first-exit LMDP with absorption mass in every column.

    Interior rewards are negative and boundary rewards moderate, so the
    direct solve is well conditioned at any generated temperature.
    """
    n_i = int(rng.integers(min_interior, max_interior + 1))
    n_b = int(rng.integers(1, max_boundary + 1))
    P = rng.random((n_i + n_b, n_i)) * (rng.random((n_i + n_b, n_i)) < 0.7)
    P[n_i:, :] += 0.05
    P = P / P.sum(axis=0)
    lam = float(rng.uniform(0.4, 2.5)) if temperature is None else float(temperature)
    rewards = RewardModel(-rng.uniform(0.1, 2.0, n_i),
                          rng.uniform(-2.0, 0.5, n_b), lam)
    return build_lmdp(StatePartition(n_i, n_b),
                      PassiveDynamics(P[:n_i], P[n_i:]), rewards)


def kernel_blocks(passive, n_subtasks):
    """(to_interior, to_boundary, to_subtasks) of an augmented kernel.

    The subtask rows are the last ``n_subtasks`` boundary rows, where
    ``absorption_dynamics`` reads them.
    """
    n_b = passive.n_boundary - n_subtasks
    return passive.to_interior, passive.to_boundary[:n_b], passive.to_boundary[n_b:]


def random_boundary_q(rng, n_boundary):
    """Strictly positive exponentiated boundary rewards."""
    return np.exp(rng.uniform(-3.0, 0.5, n_boundary))


# three interior states in a line between two absorbing ends, uniform step,
# unit step cost, right end penalized; frozen values from a dense solve done
# by hand with independent code
CHAIN5_Z = (0.19065976662739872, 0.036533958083000508, 0.0079594221300107425)
CHAIN5_V = (-1.6572647659424267, -3.3095130924704912, -4.8333988784934343)
CHAIN5_MID_POLICY = (0.95992621770431119, 0.0, 0.040073782295688774, 0.0, 0.0)


@pytest.fixture
def chain5():
    P_i = np.array([[0.0, 0.5, 0.0],
                    [0.5, 0.0, 0.5],
                    [0.0, 0.5, 0.0]])
    P_b = np.array([[0.5, 0.0, 0.0],
                    [0.0, 0.0, 0.5]])
    return build_lmdp(StatePartition(3, 2),
                      PassiveDynamics(P_i, P_b),
                      RewardModel([-1.0, -1.0, -1.0], [0.0, -5.0], 1.0))


# four-rooms reference setting shared by executor, learning, and acceptance
ROOMS_SIZE = 11
ROOMS_DOORS = ((2, 5), (5, 2), (5, 8), (8, 5))
ROOMS_GOAL = (0, 10)
ROOMS_START = (10, 0)
ROOMS_TEMPERATURE = 0.5


def four_rooms_setting(goal=ROOMS_GOAL, temperature=ROOMS_TEMPERATURE):
    """(lmdp, stack, goal_q, spec, start_index) for the reference grid."""
    spec, _ = grid_from_ascii(four_rooms_map(ROOMS_SIZE), goal_cells=[goal])
    spec = dataclasses.replace(spec, temperature=temperature)
    lmdp, structure, goal_q = make_grid(spec, ROOMS_DOORS, goal)
    basis = build_task_basis(
        lmdp, boundary_goal_tasks(lmdp.n_boundary, temperature))
    stack = build_stack(basis, [structure])
    start = spec.free_cells().index(ROOMS_START)
    return lmdp, stack, goal_q, spec, start


@pytest.fixture(scope="session")
def rooms():
    return four_rooms_setting()


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

ACCEPTANCE_LABELS = {
    "test_criterion_1_composition": "criterion 1: composite solves match blended solutions to 1e-9 relative",
    "test_criterion_2_solver_equivalence": "criterion 2: direct and iterative solvers agree; iterates grow monotonically from zero",
    "test_criterion_3_derived_dynamics": "criterion 3: derived layer dynamics match Monte-Carlo absorption to 0.005",
    "test_criterion_4_blend_optimality": "criterion 4: nnls blend residual matches support-enumeration optimum",
    "test_criterion_5_arm_composition": "criterion 5: arm reach task composed from the point basis equals the direct solve",
    "test_criterion_6_ring_scaling": "criterion 6: ring sweep and storage scaling slopes fall in the stated windows",
    "test_criterion_7_four_rooms_learning": "criterion 7: guided learning beats flat at epoch 1 by over 3 standard errors; both converge",
    "test_criterion_8_execution_protocol": "criterion 8: depth-1 rollouts match flat; terminated layers stay out; neutral inpaint is a no-op",
    "test_criterion_9_cli_determinism": "criterion 9: every CLI command rerun with the same config gives byte-identical CSVs",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
            if name in ACCEPTANCE_LABELS:
                outcomes[name] = outcomes.get(name, True) and passed
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        if name in outcomes:
            flag = "PASS" if outcomes[name] else "FAIL"
            terminalreporter.write_line(f"[{flag}] {label}")
