"""Independent reference computations the tests check the library against.

Everything here is written from first principles on dense arrays, without
calling the library's own solvers, so that agreement is evidence rather
than tautology.
"""
from collections import deque

import numpy as np


def _dense(M):
    return M.toarray() if hasattr(M, "toarray") else np.asarray(M, dtype=np.float64)


def mc_absorption(to_interior, to_subtasks, to_boundary, n_walks, seed,
                  chunk=200_000):
    """Monte-Carlo absorption frequencies of an augmented first-exit walk.

    Walks start from the renormalized entry distribution of each subtask
    (its row of ``to_subtasks``, normalized) and step through the full
    augmented kernel until they land on a subtask or boundary row.

    Parameters
    ----------
    to_interior, to_subtasks, to_boundary : array or sparse matrix
        Column-stochastic blocks of the augmented kernel, column = source.
    n_walks : int
        Walks per start subtask.
    seed : int
        Generator seed.

    Returns
    -------
    (freq_subtasks, freq_boundary)
        Arrays of shapes (n_subtasks, n_subtasks) and (n_boundary,
        n_subtasks); column t holds the absorption frequencies of walks
        re-entering from subtask t.
    """
    Pi, Pt, Pb = _dense(to_interior), _dense(to_subtasks), _dense(to_boundary)
    n_i, n_t, n_b = Pi.shape[0], Pt.shape[0], Pb.shape[0]
    # absorbing rows stacked after the interior: subtasks first, boundary last
    cdf = np.cumsum(np.vstack([Pi, Pt, Pb]), axis=0)
    rng = np.random.default_rng(seed)
    freq_t = np.zeros((n_t, n_t))
    freq_b = np.zeros((n_b, n_t))
    for t in range(n_t):
        entry_cdf = np.cumsum(Pt[t] / Pt[t].sum())
        remaining = n_walks
        while remaining:
            m = min(chunk, remaining)
            remaining -= m
            active = np.searchsorted(entry_cdf, rng.random(m), side="right")
            active = np.minimum(active, n_i - 1)
            while active.size:
                nxt = (cdf[:, active] < rng.random(active.size)).sum(axis=0)
                # roundoff in the column totals could push an index past the
                # last row; clamp, the draw was heading into the final block
                nxt = np.minimum(nxt, n_i + n_t + n_b - 1)
                done = nxt >= n_i
                landed = nxt[done] - n_i
                sub = landed < n_t
                np.add.at(freq_t[:, t], landed[sub], 1.0)
                np.add.at(freq_b[:, t], landed[~sub] - n_t, 1.0)
                active = nxt[~done]
    return freq_t / n_walks, freq_b / n_walks


def best_nonnegative_residual(Q, q):
    """Global optimum of min ||Q w - q||_2 subject to w >= 0.

    Enumerates every support set and solves the unconstrained least-squares
    problem on it; candidates whose solution is nonnegative are feasible,
    and the optimum's own support always appears among them.
    """
    Q = np.asarray(Q, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n_t = Q.shape[1]
    best = float(np.linalg.norm(q))  # empty support, w = 0
    for mask in range(1, 1 << n_t):
        idx = [k for k in range(n_t) if mask >> k & 1]
        w, *_ = np.linalg.lstsq(Q[:, idx], q, rcond=None)
        if (w >= -1e-12).all():
            w = np.clip(w, 0.0, None)
            best = min(best, float(np.linalg.norm(Q[:, idx] @ w - q)))
    return best


def bfs_steps(map_text, start, goal):
    """Shortest 4-neighbor path length between two free cells of a map."""
    rows = [line for line in map_text.splitlines() if line.strip()]
    free = {(r, c) for r, row in enumerate(rows)
            for c, ch in enumerate(row) if ch != "#"}
    start, goal = tuple(start), tuple(goal)
    queue = deque([(start, 0)])
    seen = {start}
    while queue:
        (r, c), d = queue.popleft()
        if (r, c) == goal:
            return d
        for cell in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if cell in free and cell not in seen:
                seen.add(cell)
                queue.append((cell, d + 1))
    raise ValueError(f"no path from {start} to {goal}")


def kl_divergence(a, p):
    """KL(a || p) for dense probability vectors over the same index set."""
    a = np.asarray(a, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    mask = a > 0
    return float(np.sum(a[mask] * np.log(a[mask] / p[mask])))


def tilted_policy(passive, z_full):
    """Optimal policy of an LMDP as a dense (n_states, n_interior) matrix.

    Every passive column (column = source) is tilted by next-state
    desirability and renormalized: a(s'|s) = p(s'|s) z(s') / sum_t p(t|s) z(t).
    """
    A = _dense(passive) * np.asarray(z_full, dtype=np.float64)[:, None]
    return A / A.sum(axis=0)


def passive_values(passive, n_interior, r_interior, r_terminal):
    """Expected return of the uncontrolled walk from each interior state.

    The walk collects r_interior at every interior visit and r_terminal at
    the boundary state it exits to: v = r_i + P_i^T v + P_b^T r_terminal,
    solved densely on the (n_states, n_interior) passive kernel.
    """
    P = _dense(passive)
    P_i, P_b = P[:n_interior], P[n_interior:]
    return np.linalg.solve(np.eye(n_interior) - P_i.T,
                           np.asarray(r_interior) + P_b.T @ np.asarray(r_terminal))


def first_exit_desirability(passive, n_interior, r_interior, temperature,
                            q_boundary):
    """Interior desirability of a first-exit LMDP for given boundary values.

    Solves z = exp(r_i / lambda) * (P_i^T z + P_b^T q_b) over the interior
    as one dense linear system on the (n_states, n_interior) passive kernel
    (column = source).  q_boundary may be zero at some boundary states.
    """
    P = _dense(passive)
    P_i, P_b = P[:n_interior], P[n_interior:]
    q_i = np.exp(np.asarray(r_interior, dtype=np.float64) / temperature)
    rhs = q_i * (P_b.T @ np.asarray(q_boundary, dtype=np.float64))
    return np.linalg.solve(np.eye(n_interior) - q_i[:, None] * P_i.T, rhs)


def absorption_kernel(to_interior, to_boundary, to_subtasks):
    """Where a walk re-entering from each subtask first leaves the interior.

    Column t starts from subtask t's entry distribution (its row of
    ``to_subtasks``, normalized), visits the interior (I - P_i)^-1 times,
    and exits through ``to_subtasks`` or ``to_boundary``.  Returns
    (to_subtasks_next, to_boundary_next) as dense arrays.
    """
    Pi, Pb, Pt = _dense(to_interior), _dense(to_boundary), _dense(to_subtasks)
    entries = Pt.T / Pt.sum(axis=1)
    visits = np.linalg.inv(np.eye(Pi.shape[0]) - Pi) @ entries
    return Pt @ visits, Pb @ visits


def augmented_task_matrix(base_tasks, subtask_tasks, fill=np.exp(-20.0)):
    """An augmented layer's dense task matrix [[Q, f 11^T], [f 11^T, Q_t]].

    Rows are the base boundary states, then the subtask states; columns the
    base tasks, then one task per subtask.  The cross blocks price base tasks
    at subtask states and subtask tasks at base boundary states with the
    constant fill f, by default e^-20 (reward -20 lambda at temperature
    lambda).  A layer with no subtasks gets Q back.
    """
    Q, Q_t = _dense(base_tasks), _dense(subtask_tasks)
    (n_b, n_k), n_t = Q.shape, Q_t.shape[0]
    T = np.full((n_b + n_t, n_k + n_t), fill)
    T[:n_b, :n_k] = Q
    T[n_b:, n_k:] = Q_t
    return T


def layer_desirability(passive, n_interior, r_interior, temperature,
                       task_matrix, weights, n_subtasks, dead):
    """Full desirability of a layer blended by ``weights`` over its tasks.

    The boundary values are ``task_matrix @ weights``, zero at the last
    ``n_subtasks`` boundary states when ``dead`` (the layer above is
    terminated); the interior is their dense first-exit solve.
    """
    z_b = _dense(task_matrix) @ np.asarray(weights, dtype=np.float64)
    if dead:
        z_b[len(z_b) - n_subtasks:] = 0.0
    z_i = first_exit_desirability(passive, n_interior, r_interior, temperature, z_b)
    return np.concatenate([z_i, z_b])


def reference_episode(kernel, r_interior, temperature, tasks, subtask_weights,
                      row_orders, target, start, rng, max_steps=None):
    """One hierarchical episode, run densely from the executor's protocol.

    ``kernel`` is the base's (n_states, n_interior) passive kernel, boundary
    rows last, and the stack is rebuilt from it.  Layer k + 1 has the
    absorption kernel (``absorption_kernel``) of layer k's kernel with
    ``subtask_weights[k]`` stacked under it and renormalized, and reward -1
    per step; every layer keeps the base boundary set.  A layer's boundary
    values are its task matrix (``augmented_task_matrix`` of ``tasks`` and
    Q_t, 1 on the diagonal and e^-5 off it; ``tasks`` alone at the top)
    times its weights, zero at its subtask states while the layer
    above is terminated, and its interior is U z_b with U = A^-1 B by dense
    inverse.  Weights are NNLS fits (``scipy.optimize.nnls``): the base
    block to ``target`` at every layer, the subtask block to ones after
    set_task and to exp(r / lambda) when rewards r are inpainted.

    Per base step the base policy column is drawn: an interior state
    advances, a base boundary state absorbs, a subtask state accesses the
    layer above.  An accessed layer draws once: a subtask state accesses
    further and re-blends against what comes back, a base boundary state
    terminates the layer (nothing goes down) and any other state sends
    kappa (a - p), kappa = lambda, over the layer's interior from its
    current policy column.  The base then redraws without its subtask rows.  The return adds
    r(s) - lambda KL(a || p) per advancing step, with a the distribution of
    the draw, and lambda log target at the absorbing twin.

    Every draw takes u uniform on [0, total) from ``rng`` and the first row
    whose running sum exceeds u, walking column s of layer k in the row
    order ``row_orders[k][s]``: the library's stored order, which decides
    the row a draw picks.  Returns a dict of ``states``, ``events`` (base
    time, base state, chain of (layer, entry), deepest layer, terminated
    layer or None), ``total_return``, ``truncated`` and ``margin``, the
    smallest distance of any u from a running sum, relative to the total.
    """
    from scipy.optimize import nnls

    lam = kappa = float(temperature)
    Q = _dense(tasks)
    n_b = Q.shape[0]
    w_b = nnls(Q, np.asarray(target, dtype=np.float64))[0]
    P = _dense(kernel)
    r_i = np.asarray(r_interior, dtype=np.float64)
    layers = []  # (kernel, n_interior, n_subtasks, U, task matrix, Q_t)
    for W in list(subtask_weights) + [None]:
        n_i = P.shape[1]
        if W is None:
            aug, n_t, T, Q_t = P, 0, Q, None
        else:
            W = _dense(W)
            n_t = W.shape[0]
            aug = np.vstack([P, W])
            aug = aug / aug.sum(axis=0)
            Q_t = np.full((n_t, n_t), np.exp(-5.0))
            np.fill_diagonal(Q_t, 1.0)
            T = augmented_task_matrix(Q, Q_t)
        q_i = np.exp(r_i / lam)
        U = np.linalg.inv(np.eye(n_i) - q_i[:, None] * aug[:n_i].T) @ (
            q_i[:, None] * aug[n_i:].T)
        layers.append((aug, n_i, n_t, U, T, Q_t))
        if W is not None:
            to_t, to_b = absorption_kernel(aug[:n_i], aug[n_i:n_i + n_b], aug[n_i + n_b:])
            P = np.vstack([to_t, to_b])
            P = P / P.sum(axis=0)
            r_i = np.full(n_t, -1.0)
    depth = len(layers)
    weights = [np.concatenate([w_b, nnls(Q_t, np.ones(n_t))[0]]) if n_t else w_b
               for _, _, n_t, _, _, Q_t in layers]
    terminated = [False] * depth
    margin = np.inf

    def column(k, s):
        aug, n_i, n_t, U, T, _ = layers[k]
        z_b = T @ weights[k]
        if n_t and terminated[k + 1]:
            z_b[n_b:] = 0.0
        z = np.concatenate([U @ z_b, z_b])
        rows = np.asarray(row_orders[k][s])
        if set(np.flatnonzero(aug[:, s])) - set(rows.tolist()):
            raise ValueError(f"row order of layer {k} column {s} misses its support")
        v = aug[rows, s] * z[rows]
        return rows, v / v.sum()

    def draw(rows, probs):
        nonlocal margin
        cum = np.cumsum(probs)
        u = rng.random() * cum[-1]
        margin = min(margin, float(np.abs(cum - u).min() / cum[-1]))
        return int(rows[min(int(np.searchsorted(cum, u, side="right")), len(rows) - 1)])

    def transmit(k, e):
        aug, n_i = layers[k][:2]
        rows, probs = column(k, e)
        a = np.zeros(aug.shape[0])
        a[rows] = probs
        return kappa * (a[:n_i] - aug[:n_i, e])

    def reblend(k, r):
        weights[k] = np.concatenate([w_b, nnls(layers[k][5], np.exp(r / lam))[0]])

    def access(k, e, chain):
        chain.append((k, e))
        n_i, n_t = layers[k][1:3]
        nxt = draw(*column(k, e))
        if n_i + n_b <= nxt < n_i + n_b + n_t:
            r, deepest, ended = access(k + 1, nxt - n_i - n_b, chain)
            if r is not None:
                reblend(k, r)
            return transmit(k, e), deepest, ended
        if nxt >= n_i:
            terminated[k] = True
            return None, k, k
        return transmit(k, e), k, None

    base, n_i, n_t = layers[0][:3]
    r_base = np.asarray(r_interior, dtype=np.float64)
    budget = 100 * n_i if max_steps is None else max_steps
    states, events, total, s = [start], [], 0.0, start
    for t in range(budget):
        rows, probs = column(0, s)
        nxt = draw(rows, probs)
        if n_i + n_b <= nxt < n_i + n_b + n_t:
            chain = []
            r, deepest, ended = access(1, nxt - n_i - n_b, chain)
            if r is not None:
                reblend(0, r)
            events.append((t, s, tuple(chain), deepest, ended))
            rows, probs = column(0, s)
            keep = rows < n_i + n_b
            rows, probs = rows[keep], probs[keep] / probs[keep].sum()
            nxt = draw(rows, probs)
        total += r_base[s] - lam * kl_divergence(probs, base[rows, s])
        states.append(nxt)
        if nxt >= n_i:
            total += lam * np.log(target[nxt - n_i])
            return dict(states=states, events=events, total_return=total,
                        truncated=False, margin=margin)
        s = nxt
    return dict(states=states, events=events, total_return=total, truncated=True,
                margin=margin)
