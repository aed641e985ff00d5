"""Online desirability estimation from sampled transitions.

The estimator keeps one value per interior state, pinned boundary values,
and per-state visit counts driving a step-size schedule a = c / (c + visits).
Behavior is drawn from the current estimate's policy tilt with no sampling
correction.  A hierarchy can sit on top: accesses and reward inpainting run
exactly as in the executor, and behavior then tilts by the product of the
estimate and the stack's live composite desirability.  Flat and guided runs
share the same episode loop and the same update function; the guided
branches are simply never taken when no stack is given.  An episode steps
a list-backed learner, which ``train`` copies from its arrays once per run
and a direct call on arrays once per call, writing the estimate and visits
back once, in a ``finally``; and a list of the behavior desirability (the
estimate, times the composite when guided), rebuilt only when an access
swaps the composite.  Narrow columns draw through one ``narrow_draw`` call
and redraw through ``narrow_tilt``, in numpy's floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Tuple

import numpy as np

from .core import (STOCHASTIC_ATOL, Lmdp, check_count, draw_from, masked_redraw_column,
                   narrow_draw, narrow_tilt, policy_column)
from .errors import DimensionMismatch, InvalidSpec
from .executor import access_hierarchy, rollout_budget
from .hierarchy import HierarchyStack

STEP_SCALE = 50.0  # c of the step size c / (c + visits), fixed


@dataclass
class LearningState:
    """Online desirability estimate plus the visit counts its step size reads."""

    z_interior: np.ndarray
    boundary_values: np.ndarray
    visits: np.ndarray

    def alpha(self, state: int) -> float:
        return STEP_SCALE / (STEP_SCALE + int(self.visits[state]))


def z_learning_step(learner: LearningState, state: int, reward: float,
                    next_state: int, temperature: float) -> float:
    """One stochastic backup from a sampled transition.

    z(s) <- (1 - a) z(s) + a exp(r(s)/lambda) z(s'), with the step size
    a = c / (c + visits(s)), c = STEP_SCALE, from the learner's visits.  Both
    execution conditions funnel every sampled transition through here.

    Parameters
    ----------
    learner : LearningState
        Estimate to update in place; visits(state) increments.
    state : int
        Interior state the transition left from; any other raises InvalidSpec.
    reward : float
        Interior reward at that state.
    next_state : int
        Sampled successor (interior or boundary, global index), or InvalidSpec.
    temperature : float
        Reward-to-desirability scale lambda.

    Returns
    -------
    float
        The updated estimate at ``state``.
    """
    z = learner.z_interior
    n_i, n = len(z), len(z) + len(learner.boundary_values)
    if not (0 <= state < n_i and 0 <= next_state < n):
        raise InvalidSpec(f"no transition {state} -> {next_state} in {n_i}/{n} states")
    if next_state < n_i:
        z_next = float(z[next_state])
    else:
        z_next = float(learner.boundary_values[next_state - n_i])
    a = learner.alpha(state)
    z_new = (1.0 - a) * float(z[state]) + a * math.exp(reward / temperature) * z_next
    z[state] = z_new
    learner.visits[state] += 1
    return z_new


def run_learning_episode(lmdp: Lmdp, learner: LearningState,
                         rng: np.random.Generator,
                         stack: Optional[HierarchyStack] = None,
                         start_state: Optional[int] = None,
                         max_steps: Optional[int] = None) -> int:
    """One behavior episode, updating the learner in place.

    Without a stack the behavior tilt comes from the learner's estimate
    alone.  With a stack, behavior composes the estimate with the stack's
    live composite desirability (elementwise product on interior states),
    so inpainted rewards and terminations steer the agent through the same
    access protocol the executor runs, while the estimate update itself is
    the identical code path in both conditions.  Accesses consume no time
    and do not update the estimate; every advancing draw does.  The stack
    is mutated; pass a per-episode clone.  Returns the number of advancing
    steps taken (max_steps, default 100 * n_interior and at least 1, if
    truncated).  A learner whose three fields are lists is stepped in place;
    one of arrays is copied to lists and written back in a ``finally``.
    """
    n_i = lmdp.n_interior
    lo = hi = lmdp.n_states
    if stack is not None:
        lo, hi = stack.layers[0].subtask_range
        base, _ = stack.policy_state(0)  # NoTaskSet before any draw
        if base.n_states != lmdp.n_states:
            raise DimensionMismatch(
                f"stack base has {base.n_states} states, LMDP has {lmdp.n_states}")
    sizes = (("z_interior", n_i), ("boundary_values", lmdp.n_boundary), ("visits", n_i))
    listed = all(type(getattr(learner, name)) is list for name, _ in sizes)
    for name, n in sizes:
        value = getattr(learner, name)
        shape = (len(value),) if listed else np.shape(value)
        if shape != (n,):
            raise DimensionMismatch(f"learner {name} shape {shape}, expected ({n},)")
    s = int(rng.integers(n_i)) if start_state is None else start_state
    max_steps = rollout_budget(n_i, s, max_steps)
    lam = lmdp.rewards.temperature
    r_i = lmdp.rewards.interior.tolist()
    narrow = lmdp.passive.narrow_columns
    work = learner if listed else LearningState(
        learner.z_interior.tolist(), learner.boundary_values.tolist(), learner.visits.tolist())
    # behavior desirability over every state, kept in step with the estimate;
    # a guided run builds it from the composite at its first draw
    behave = work.z_interior + work.boundary_values
    comp = None
    try:
        for t in range(max_steps):
            redraw = False
            while True:
                if stack is not None and stack.composites[0] is not comp:
                    # first draw, or an access re-blended or terminated the base;
                    # the guided estimate is 1 on every boundary state
                    comp = stack.composites[0]
                    comp_list = comp.z_list()
                    behave = list(map(mul, comp_list, work.z_interior)) + comp_list[n_i:]
                col = narrow[s]
                if col is not None and not redraw:
                    nxt = narrow_draw(col, behave, s, rng)
                else:  # a dense column as arrays, a narrow redraw as lists
                    rows, probs = (policy_column(lmdp, np.array(behave), s) if col is None
                                   else narrow_tilt(col, behave.__getitem__, s))
                    if redraw:
                        rows, probs = masked_redraw_column(rows, probs, lo, hi)
                    nxt = draw_from(rows, probs, rng)
                if not lo <= nxt < hi:
                    break
                access_hierarchy(stack, nxt - lo, rng)
                redraw = True
            z_new = z_learning_step(work, s, r_i[s], nxt, lam)
            behave[s] = z_new if comp is None else comp_list[s] * z_new
            if nxt >= n_i:
                return t + 1
            s = nxt
        return max_steps
    finally:  # every backup made, also when a draw or an access raises
        if work is not learner:
            learner.z_interior[:], learner.visits[:] = work.z_interior, work.visits


def train(lmdp: Lmdp, goal_task: np.ndarray, epochs: int,
          episodes_per_epoch: int, seed: int,
          stack: Optional[HierarchyStack] = None,
          start_state: Optional[int] = None,
          max_steps: Optional[int] = None):
    """Run epochs of episodes and record the trajectory-length curve.

    ``goal_task`` is the exponentiated boundary reward over the base
    boundary set.  A stack's base must share ``lmdp``'s interior count (else
    DimensionMismatch), temperature, interior rewards and kernel (else
    InvalidSpec; on ``lmdp``'s rows its columns, over their mass there, must
    have ``lmdp``'s sparsity and lie within STOCHASTIC_ATOL).  The goal is
    blended through the stack once and each episode runs on a fresh clone,
    so inpaints and terminations are episode-scoped.  Every episode steps
    one list-backed copy of the learner, written back in a ``finally``.

    Returns (LearningState, curve) where curve rows are
    (epoch, mean_length, stderr).  ``epochs`` and ``episodes_per_epoch``
    must be at least 1 and ``goal_task`` finite and nonnegative, or
    InvalidSpec is raised.
    """
    check_count("epochs", epochs)
    check_count("episodes_per_epoch", episodes_per_epoch)
    rng = np.random.default_rng(seed)
    goal = np.asarray(goal_task, dtype=np.float64)
    if not np.isfinite(goal).all() or (goal < 0).any():
        raise InvalidSpec("goal task must be finite and nonnegative")
    if stack is not None:
        base = stack.layers[0].lmdp
        if base.n_interior != lmdp.n_interior:
            raise DimensionMismatch(f"LMDP has {lmdp.n_interior} interior states, "
                                    f"stack base {base.n_interior}")
        if (base.rewards.temperature != lmdp.rewards.temperature
                or not np.array_equal(base.rewards.interior, lmdp.rewards.interior)):
            raise InvalidSpec("stack base differs in temperature or interior rewards")
        cut, flat = base.passive.full_matrix[:lmdp.n_states], lmdp.passive.full_matrix
        mass = np.repeat(np.asarray(cut.sum(axis=0)).ravel(), np.diff(cut.indptr))
        same = (np.array_equal(cut.indptr, flat.indptr)
                and np.array_equal(cut.indices, flat.indices))
        if not (same and np.abs(cut.data / mass - flat.data).max(initial=0.0) <= STOCHASTIC_ATOL):
            raise InvalidSpec("stack base differs in its passive kernel")
        template = stack.clone()
        template.set_task(goal)
        lmdp = template.layers[0].lmdp
        boundary = np.concatenate([goal, np.ones(template.layers[0].n_subtasks)])
    else:
        template, boundary = None, goal.copy()
    learner = LearningState(
        z_interior=np.ones(lmdp.n_interior),
        boundary_values=boundary,
        visits=np.zeros(lmdp.n_interior, dtype=np.int64),
    )
    work = LearningState([1.0] * lmdp.n_interior, boundary.tolist(), [0] * lmdp.n_interior)
    curve: List[Tuple[int, float, float]] = []
    try:
        for epoch in range(epochs):
            lengths = np.empty(episodes_per_epoch)
            for episode in range(episodes_per_epoch):
                # inpaints and terminations are episode-scoped
                ep_stack = None if template is None else template.clone()
                lengths[episode] = run_learning_episode(
                    lmdp, work, rng, stack=ep_stack,
                    start_state=start_state, max_steps=max_steps)
            stderr = (lengths.std(ddof=1) / math.sqrt(len(lengths))
                      if len(lengths) > 1 else 0.0)
            curve.append((epoch, float(lengths.mean()), float(stderr)))
    finally:  # every backup made, also when an episode raises
        learner.z_interior[:], learner.visits[:] = work.z_interior, work.visits
    return learner, curve
