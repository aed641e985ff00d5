"""Online desirability estimation from sampled transitions.

The estimator keeps one value per interior state, pinned boundary values,
and per-state visit counts driving a step-size schedule a = c / (c + visits).
Behavior is drawn from the current estimate's policy tilt with no sampling
correction.  A hierarchy can sit on top: accesses and reward inpainting run
exactly as in the executor, and behavior then tilts by the product of the
estimate and the stack's live composite desirability.  Flat and guided runs
share the same episode loop and the same update function; the guided
branches are simply never taken when no stack is given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import Lmdp, draw_from, policy_column
from .errors import DimensionMismatch, InvalidSpec
from .executor import access_hierarchy, masked_redraw_column
from .hierarchy import HierarchyStack

DEFAULT_STEP_SCALE = 50.0


@dataclass
class LearningState:
    """Online desirability estimate plus its step-size bookkeeping."""

    z_interior: np.ndarray
    boundary_values: np.ndarray
    visits: np.ndarray
    step_scale: float = DEFAULT_STEP_SCALE

    def alpha(self, state: int) -> float:
        return self.step_scale / (self.step_scale + int(self.visits[state]))


def z_learning_step(learner: LearningState, state: int, reward: float,
                    next_state: int, temperature: float) -> float:
    """One stochastic backup from a sampled transition.

    z(s) <- (1 - a) z(s) + a exp(r(s)/lambda) z(s'), with the step size
    a = c / (c + visits(s)) from the learner's visit schedule.  Both
    execution conditions funnel every sampled transition through here.

    Parameters
    ----------
    learner : LearningState
        Estimate to update in place; visits(state) increments.
    state : int
        Interior state the transition left from.
    reward : float
        Interior reward at that state.
    next_state : int
        Sampled successor (interior or boundary, global index).
    temperature : float
        Reward-to-desirability scale lambda.

    Returns
    -------
    float
        The updated estimate at ``state``.
    """
    z = learner.z_interior
    n_i = len(z)
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
    truncated).
    """
    n_i = lmdp.n_interior
    if stack is not None:
        lo, hi = stack.layers[0].subtask_range
    else:
        lo = hi = lmdp.n_states
    if start_state is None:
        s = int(rng.integers(n_i))
    elif 0 <= start_state < n_i:
        s = start_state
    else:
        raise InvalidSpec(f"start state {start_state} is not interior")
    if max_steps is None:
        max_steps = 100 * n_i
    if max_steps < 1:
        raise InvalidSpec(f"max_steps must be at least 1, got {max_steps}")
    lam = lmdp.rewards.temperature
    r_i = lmdp.rewards.interior.tolist()
    # the estimate over every state, kept in step with learner.z_interior;
    # guided behavior tilts by comp * z with boundary entries 1
    if stack is None:
        z = np.concatenate([learner.z_interior, learner.boundary_values])
    else:
        z = np.concatenate([learner.z_interior, np.ones(lmdp.n_boundary)])
        z_behave = np.empty_like(z)

    t = 0
    while t < max_steps:
        redraw = False
        while True:
            if stack is None:
                rows, probs = policy_column(lmdp, z, s)
            else:
                _, comp = stack.policy_state(0)
                rows, probs = policy_column(
                    lmdp, np.multiply(comp, z, out=z_behave), s)
            if redraw:
                rows, probs = masked_redraw_column(rows, probs, lo, hi)
            nxt = draw_from(rows, probs, rng)
            if lo <= nxt < hi:
                transmitted, _, _, _ = access_hierarchy(stack, nxt - lo, rng)
                if transmitted is not None:
                    stack.apply_inpaint(0, transmitted)
                redraw = True
                continue
            z[s] = z_learning_step(learner, s, r_i[s], nxt, lam)
            break
        if nxt >= n_i:
            return t + 1
        s = nxt
        t += 1
    return max_steps


def train(lmdp: Lmdp, goal_task: np.ndarray, epochs: int,
          episodes_per_epoch: int, seed: int,
          stack: Optional[HierarchyStack] = None,
          start_state: Optional[int] = None,
          max_steps: Optional[int] = None,
          step_scale: float = DEFAULT_STEP_SCALE):
    """Run epochs of episodes and record the trajectory-length curve.

    ``goal_task`` is the exponentiated boundary reward over the base
    boundary set.  With a stack, the goal is blended through the stack once
    and each episode runs against a fresh clone, so inpaints and
    terminations are episode-scoped; the returned lengths are then
    comparable across conditions because both run on the same base rewards.

    Returns (LearningState, curve) where curve rows are
    (epoch, mean_length, stderr).  ``epochs`` and ``episodes_per_epoch``
    must be at least 1, ``step_scale`` finite and positive and
    ``goal_task`` finite and nonnegative, or InvalidSpec is raised.
    """
    if epochs < 1:
        raise InvalidSpec(f"epochs must be at least 1, got {epochs}")
    if episodes_per_epoch < 1:
        raise InvalidSpec(
            f"episodes_per_epoch must be at least 1, got {episodes_per_epoch}")
    if not (math.isfinite(step_scale) and step_scale > 0):
        raise InvalidSpec(f"step_scale must be finite and positive, got {step_scale}")
    rng = np.random.default_rng(seed)
    goal = np.asarray(goal_task, dtype=np.float64)
    if not np.isfinite(goal).all() or (goal < 0).any():
        raise InvalidSpec("goal task must be finite and nonnegative")
    if stack is not None:
        template = stack.clone()
        template.set_task(goal)
        lmdp = template.layers[0].lmdp
        boundary = np.concatenate([goal, np.ones(template.layers[0].n_subtasks)])
    else:
        template = None
        boundary = goal.copy()
    if boundary.shape != (lmdp.n_boundary,):
        raise DimensionMismatch(
            f"boundary values shape {boundary.shape}, "
            f"expected ({lmdp.n_boundary},)"
        )
    learner = LearningState(
        z_interior=np.ones(lmdp.n_interior),
        boundary_values=boundary,
        visits=np.zeros(lmdp.n_interior, dtype=np.int64),
        step_scale=step_scale,
    )
    curve: List[Tuple[int, float, float]] = []
    for epoch in range(epochs):
        lengths = np.empty(episodes_per_epoch)
        for episode in range(episodes_per_epoch):
            ep_stack = None
            if template is not None:
                # inpaints and terminations are episode-scoped
                ep_stack = template.clone()
            lengths[episode] = run_learning_episode(
                lmdp, learner, rng, stack=ep_stack,
                start_state=start_state, max_steps=max_steps)
        stderr = (lengths.std(ddof=1) / math.sqrt(len(lengths))
                  if len(lengths) > 1 else 0.0)
        curve.append((epoch, float(lengths.mean()), float(stderr)))
    return learner, curve
