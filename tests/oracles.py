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
