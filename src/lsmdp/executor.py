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

# draw_from is not called here, but callers that patch this module's names use it
from .core import (_kl_column, check_count, draw_at, draw_from, is_integer,
                   policy_column, running_sum)
from .errors import InvalidSpec, NoTaskSet, ZeroNormalizer
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


class Column:
    """A cached policy column (rows, probs) and the running sum draws bisect;
    the step ``kl``, ``masked`` redraw and ``transmit`` fill on first use."""

    __slots__ = ("rows", "probs", "cum", "kl", "masked", "transmit")

    def __init__(self, rows: np.ndarray, probs: np.ndarray):
        self.rows, self.probs, self.cum = rows, probs, running_sum(probs)
        self.kl = self.masked = self.transmit = None


def _column(stack: HierarchyStack, layer: int, state: int) -> Column:
    """The record of the layer's current composite at ``state``, from its
    cache; a miss tilts the column with ``policy_column``."""
    cache = stack.composites[layer].columns
    if state not in cache:
        cache[state] = Column(*policy_column(*stack.policy_state(layer), state))
    return cache[state]


def _transmit(stack: HierarchyStack, layer: int, entry: int) -> np.ndarray:
    """Inpainted rewards (read-only) a layer sends down from its current policy
    column at entry, over its interior: the subtask states of the layer below."""
    col = _column(stack, layer, entry)
    if col.transmit is None:
        P = stack.layers[layer].lmdp.passive.to_interior
        n_i = P.shape[0]
        inner = col.rows < n_i
        a = np.zeros(n_i)
        a[col.rows[inner]] = col.probs[inner]
        p_lo, p_hi = P.indptr[entry], P.indptr[entry + 1]
        p = np.zeros(n_i)
        p[P.indices[p_lo:p_hi]] = P.data[p_lo:p_hi]
        col.transmit = inpaint_rewards(a, p, stack.kappa)
        col.transmit.flags.writeable = False
    return col.transmit


def _access(stack: HierarchyStack, layer: int, entry: int,
            rng: np.random.Generator, chain: list):
    """Enter a layer at one of its interior states and draw once.

    Returns (rewards for the layer below or None, deepest layer reached,
    terminated layer or None).  Termination is applied to the stack here;
    the caller only has to skip its inpaint when None comes back.
    """
    chain.append((layer, entry))
    col = _column(stack, layer, entry)
    nxt = draw_at(col.rows, col.cum, rng)
    lo, hi = stack.layers[layer].subtask_range
    if lo <= nxt < hi:
        inner, deepest, terminated = _access(stack, layer + 1, nxt - lo, rng, chain)
        if inner is not None:
            stack.apply_inpaint(layer, inner)
        # transmit from the policy as re-blended by the inner chain
        return _transmit(stack, layer, entry), deepest, terminated
    if nxt >= stack.layers[layer].lmdp.n_interior:
        terminate_layer(stack, layer)
        return None, layer, layer
    return _transmit(stack, layer, entry), layer, None


def access_hierarchy(stack: HierarchyStack, entry_subtask: int,
                     rng: np.random.Generator):
    """Run one access chain starting at the first layer above the base.

    ``entry_subtask`` indexes the base layer's subtask states (equivalently
    the first layer's interior states).  Unless the chain terminated the
    first layer, the base is re-blended with the rewards it transmitted.
    Returns (those rewards or None, visited chain, deepest layer,
    terminated layer or None); InvalidSpec at depth 1, NoTaskSet with no task.
    """
    if len(stack.layers) < 2:
        raise InvalidSpec("a depth-1 stack has no layer above the base to access")
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
    max_steps = rollout_budget(n_i, start_state, max_steps)
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
            col = _column(stack, 0, s)
            if guided:
                if col.masked is None:
                    col.masked = Column(*masked_redraw_column(col.rows, col.probs, lo, hi))
                col = col.masked
            nxt = draw_at(col.rows, col.cum, rng)
            if not lo <= nxt < hi:
                break
            _, chain, deepest, terminated = access_hierarchy(stack, nxt - lo, rng)
            events.append(AccessEvent(t, s, chain, deepest, terminated))
            eid = len(events) - 1
            for layer, composite in enumerate(stack.composites):
                weight_log.append((eid, layer, composite.weights.values))
            guided = True
        if col.kl is None:
            col.kl = _kl_column(col.rows, col.probs, lmdp, s)
        total += r_i[s] - lam * col.kl
        states.append(nxt)
        if nxt >= n_i:
            q_term = stack.target[nxt - n_i]
            total += lam * math.log(q_term) if q_term > 0 else float("-inf")
            truncated = False
            break
        s = nxt
        t += 1
    return HierarchicalTrajectory(states, events, weight_log, total, truncated)
