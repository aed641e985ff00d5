"""Episode execution against a hierarchy stack.

Per base time step the agent draws from the current base policy column,
which the layer's ``Composite`` serves (``column``):

* interior state: advance one step (step cost accrues),
* boundary state: absorb, episode over (terminal reward accrues),
* subtask state: access the layer above at the co-located state.  No time
  passes.  The accessed layer draws once from its own policy: an interior
  draw transmits inpainted rewards down (``transmit``), a subtask draw
  ascends further before transmitting, and a boundary draw terminates that
  layer for the rest of the episode (nothing is transmitted).  Higher layers
  keep no state between accesses.

After an access the base redraws with subtask rows masked out (``redraw``),
so each time step carries at most one access and access times strictly
increase.  How a composite holds its columns stays inside ``hierarchy``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# policy_column and draw_from are not called here, but perfbench/spans.py
# patches both names on this module and fails on a missing one
from .core import _kl_column, check_count, draw_at, draw_from, is_integer, policy_column
from .errors import InvalidSpec, NoTaskSet
from .hierarchy import HierarchyStack, terminate_layer


@dataclass(frozen=True)
class AccessEvent:
    """One access chain: which layers were entered and what they decided."""

    base_time: int
    base_state: int
    chain: Tuple[Tuple[int, int], ...]  # (layer, entry state), innermost last
    deepest_layer: int
    terminated_layer: Optional[int]


@dataclass
class HierarchicalTrajectory:
    """A full episode: base states, access events, and weight snapshots."""

    states: List[int]
    events: List[AccessEvent]
    weight_log: List[Tuple[int, int, np.ndarray]]  # (event_id, layer, values)
    total_return: float
    truncated: bool

    @property
    def length(self) -> int:
        return len(self.states) - 1


def _access(stack: HierarchyStack, layer: int, entry: int,
            rng: np.random.Generator, chain: list):
    """Enter a layer at one of its interior states and draw once.

    Returns (rewards for the layer below or None, deepest layer reached,
    terminated layer or None).  Termination is applied to the stack here;
    the caller only has to skip its inpaint when None comes back.
    """
    chain.append((layer, entry))
    col = stack.composites[layer].column(entry)
    nxt = draw_at(col.rows, col.cum, rng)
    lo, hi = stack.layers[layer].subtask_range
    if lo <= nxt < hi:
        inner, deepest, terminated = _access(stack, layer + 1, nxt - lo, rng, chain)
        if inner is not None:
            stack.apply_inpaint(layer, inner)
        # transmit from the policy as re-blended by the inner chain
        return stack.composites[layer].transmit(entry), deepest, terminated
    if nxt >= stack.layers[layer].lmdp.n_interior:
        terminate_layer(stack, layer)
        return None, layer, layer
    return stack.composites[layer].transmit(entry), layer, None


def access_hierarchy(stack: HierarchyStack, entry_subtask: int,
                     rng: np.random.Generator):
    """Run one access chain starting at the first layer above the base.

    ``entry_subtask`` indexes the base layer's subtask states (equivalently
    the first layer's interior states).  Unless the chain terminated the
    first layer, the base is re-blended with the rewards it transmitted.
    Returns (those rewards or None, visited chain, deepest layer,
    terminated layer or None); InvalidSpec at depth 1 or for a float or bool
    entry (1.0 == 1 would read state 1's cached column), NoTaskSet with no task.
    """
    if len(stack.layers) < 2:
        raise InvalidSpec("a depth-1 stack has no layer above the base to access")
    n_1 = stack.layers[1].lmdp.n_interior
    if not (is_integer(entry_subtask) and 0 <= entry_subtask < n_1):
        raise InvalidSpec(f"entry {entry_subtask} is not a subtask state (0..{n_1 - 1})")
    if stack.composites[1] is None:
        raise NoTaskSet("set_task must run before an access")
    chain: list = []
    r_t, deepest, terminated = _access(stack, 1, entry_subtask, rng, chain)
    if r_t is not None:
        stack.apply_inpaint(0, r_t)
    return r_t, tuple(chain), deepest, terminated


def rollout_budget(n_interior: int, start_state: int,
                   max_steps: Optional[int]) -> int:
    """A rollout's checked step budget, by default 100 * n_interior, from
    ``start_state``, which must be an integer interior state."""
    if not (is_integer(start_state) and 0 <= start_state < n_interior):
        raise InvalidSpec(f"start state {start_state} is not a base interior state")
    return 100 * n_interior if max_steps is None else check_count("max_steps", max_steps)


def run_episode(stack: HierarchyStack, start_state: int,
                rng: np.random.Generator,
                max_steps: Optional[int] = None) -> HierarchicalTrajectory:
    """Execute one episode from an interior base state.

    The return accrues r(s) - lambda KL(a || p) per advancing step, using
    the distribution the draw actually came from (masked after an access),
    plus lambda log target at the absorbing twin: the boundary reward of
    the task set on the stack, not the domain's placeholder rewards.
    Accesses consume no time.  The episode truncates after max_steps
    (default 100 * n_interior, at least 1) advancing steps without
    absorption.

    Mutates the stack (blends, terminations); clone it to keep a pristine
    copy across episodes.
    """
    lmdp, _ = stack.policy_state(0)
    n_i = lmdp.n_interior
    lo, hi = stack.layers[0].subtask_range
    max_steps = rollout_budget(n_i, start_state, max_steps)
    r_i = lmdp.rewards.interior.tolist()
    lam = lmdp.rewards.temperature

    states = [start_state]
    events: List[AccessEvent] = []
    weight_log: List[Tuple[int, int, np.ndarray]] = []
    total = 0.0
    s = start_state
    for t in range(max_steps):
        col = stack.composites[0].column(s)
        nxt = draw_at(col.rows, col.cum, rng)
        while lo <= nxt < hi:
            _, chain, deepest, terminated = access_hierarchy(stack, nxt - lo, rng)
            events.append(AccessEvent(t, s, chain, deepest, terminated))
            eid = len(events) - 1
            for layer, composite in enumerate(stack.composites):
                weight_log.append((eid, layer, composite.weights.values))
            col = stack.composites[0].redraw(s)
            nxt = draw_at(col.rows, col.cum, rng)
        if col.kl is None:
            col.kl = _kl_column(col.rows, col.probs, lmdp, s)
        total += r_i[s] - lam * col.kl
        states.append(nxt)
        if nxt >= n_i:
            q_term = stack.target[nxt - n_i]
            total += lam * math.log(q_term) if q_term > 0 else float("-inf")
            return HierarchicalTrajectory(states, events, weight_log, total, False)
        s = nxt
    return HierarchicalTrajectory(states, events, weight_log, total, True)
