"""Episode execution against a hierarchy stack.

Per base time step the agent draws from the current base policy column:

* interior state: advance one step (step cost accrues),
* boundary state: absorb, episode over (terminal reward accrues),
* subtask state: access the layer above at the co-located state.  No time
  passes.  The accessed layer draws once from its own policy: an interior
  draw transmits inpainted rewards down, a subtask draw ascends further
  before transmitting, and a boundary draw terminates that layer for the
  rest of the episode (nothing is transmitted).  Higher layers keep no
  state between accesses.

After an access the base redraws with subtask rows masked out, so each
time step carries at most one access and access times strictly increase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import _kl_column, draw_from, policy_column
from .errors import InvalidSpec, ZeroNormalizer
from .hierarchy import HierarchyStack, inpaint_rewards, terminate_layer


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


def _transmit(stack: HierarchyStack, layer: int, entry: int,
              rows: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Inpainted rewards a layer sends down from its policy column (rows,
    probs) at entry, over its interior: the subtask states of the layer below."""
    P = stack.layers[layer].lmdp.passive.to_interior
    n_i = P.shape[0]
    inner = rows < n_i
    a = np.zeros(n_i)
    a[rows[inner]] = probs[inner]
    p_lo, p_hi = P.indptr[entry], P.indptr[entry + 1]
    p = np.zeros(n_i)
    p[P.indices[p_lo:p_hi]] = P.data[p_lo:p_hi]
    return inpaint_rewards(a, p, stack.kappa)


def _access(stack: HierarchyStack, layer: int, entry: int,
            rng: np.random.Generator, chain: list):
    """Enter a layer at one of its interior states and draw once.

    Returns (rewards for the layer below or None, deepest layer reached,
    terminated layer or None).  Termination is applied to the stack here;
    the caller only has to skip its inpaint when None comes back.
    """
    chain.append((layer, entry))
    lmdp, z = stack.policy_state(layer)
    rows, probs = policy_column(lmdp, z, entry)
    nxt = draw_from(rows, probs, rng)
    lo, hi = stack.layers[layer].subtask_range
    if lo <= nxt < hi:
        inner, deepest, terminated = _access(stack, layer + 1, nxt - lo, rng, chain)
        if inner is not None:
            stack.apply_inpaint(layer, inner)
        # transmit from the policy as re-blended by the inner chain
        rows, probs = policy_column(*stack.policy_state(layer), entry)
        return _transmit(stack, layer, entry, rows, probs), deepest, terminated
    if nxt >= lmdp.n_interior:
        terminate_layer(stack, layer)
        return None, layer, layer
    return _transmit(stack, layer, entry, rows, probs), layer, None


def access_hierarchy(stack: HierarchyStack, entry_subtask: int,
                     rng: np.random.Generator):
    """Run one access chain starting at the first layer above the base.

    ``entry_subtask`` indexes the base layer's subtask states (equivalently
    the first layer's interior states).  Returns (inpainted rewards for the
    base or None, visited chain, deepest layer, terminated layer or None).
    The base's own re-blend is left to the caller: the executor and the
    learner both feed the rewards into it with ``stack.apply_inpaint(0, ...)``.
    """
    chain: list = []
    r_t, deepest, terminated = _access(stack, 1, entry_subtask, rng, chain)
    return r_t, tuple(chain), deepest, terminated


def masked_redraw_column(rows: np.ndarray, probs: np.ndarray, lo: int, hi: int):
    """Drop subtask rows [lo, hi) and renormalize; used after an access."""
    keep = (rows < lo) | (rows >= hi)
    rows, probs = rows[keep], probs[keep]
    mass = probs.sum()
    if not mass > 0:
        raise ZeroNormalizer("no probability mass outside subtask states")
    return rows, probs / mass


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
    if not 0 <= start_state < n_i:
        raise InvalidSpec(f"start state {start_state} is not a base interior state")
    if max_steps is None:
        max_steps = 100 * n_i
    if max_steps < 1:
        raise InvalidSpec(f"max_steps must be at least 1, got {max_steps}")
    r_i = lmdp.rewards.interior
    lam = lmdp.rewards.temperature

    states = [start_state]
    events: List[AccessEvent] = []
    weight_log: List[Tuple[int, int, np.ndarray]] = []
    total = 0.0
    s = start_state
    t = 0
    truncated = True
    while t < max_steps:
        guided = False
        while True:
            lmdp0, z = stack.policy_state(0)
            rows, probs = policy_column(lmdp0, z, s)
            if guided:
                rows, probs = masked_redraw_column(rows, probs, lo, hi)
            nxt = draw_from(rows, probs, rng)
            if not lo <= nxt < hi:
                break
            r_t, chain, deepest, terminated = access_hierarchy(stack, nxt - lo, rng)
            if r_t is not None:
                stack.apply_inpaint(0, r_t)
            events.append(AccessEvent(t, s, chain, deepest, terminated))
            eid = len(events) - 1
            for layer in range(stack.depth):
                w = stack.weights[layer]
                if w is not None:
                    weight_log.append((eid, layer, w.values.copy()))
            guided = True
        total += r_i[s] - lam * _kl_column(rows, probs, lmdp0, s)
        states.append(nxt)
        if nxt >= n_i:
            q_term = stack.target[nxt - n_i]
            total += lam * math.log(q_term) if q_term > 0 else float("-inf")
            truncated = False
            break
        s = nxt
        t += 1
    return HierarchicalTrajectory(states, events, weight_log, total, truncated)
