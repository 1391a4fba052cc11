"""Hot numeric loops over numpy arrays: policy runners and the simplex pivot.

The policy runners step through an arrival sequence one request at a time;
the pivot loop updates the simplex tableau a row at a time.
"""

from __future__ import annotations

import numpy as np


def protection_run(fare_idx, levels):
    """Run a nested protection-level policy over an arrival sequence.

    ``fare_idx`` holds 0-based fare classes, ``levels`` the nondecreasing
    cumulative booking limits.  An arrival of class ``p`` is accepted at the
    largest fraction that keeps every cumulative count at or below its level.
    Returns the per-step accepted fractions and the final cumulative counts.
    """
    m = levels.shape[0]
    T = fare_idx.shape[0]
    q = np.zeros(m)
    w = np.zeros(T)
    for t in range(T):
        p = fare_idx[t]
        room = 1.0
        for k in range(p, m):
            slack = levels[k] - q[k]
            if slack < room:
                room = slack
        if room < 0.0:
            room = 0.0
        if room > 0.0:
            for k in range(p, m):
                q[k] += room
        w[t] = room
    return w, q


def switch_run(
    fare_idx,
    advice_counts,
    ell0,
    base_levels,
    fallback_levels,
    trigger_mult,
    cap_phase1,
    eq_tol,
):
    """Run the two-phase switching policy over an arrival sequence.

    Phase 1 books against ``base_levels`` (cumulative limits derived from an
    LP solution).  The first arrival of a class strictly above ``ell0``
    (0-based lowest advised class) whose running count exceeds
    ``trigger_mult`` times its advised count flips the policy, which then
    books against the row of ``fallback_levels`` that ``fallback_search``
    picks.

    When ``cap_phase1`` is nonzero, phase 1 additionally rejects arrivals of
    classes above ``ell0`` whose running count already exceeds the advised
    count (used by the relaxed variant, whose trigger fires later).

    Returns per-step fractions, final cumulative counts, arrival counts,
    the 1-based trigger step (0 if never), 1-based start and chosen rows of
    the fallback search (0 if never), and the number of search iterations.
    """
    m = advice_counts.shape[0]
    T = fare_idx.shape[0]
    q = np.zeros(m)
    a = np.zeros(m)
    w = np.zeros(T)
    switched = False
    tau = 0
    s_row = 0
    k_row = 0
    search_iters = 0
    for t in range(T):
        p = fare_idx[t]
        a[p] += 1.0
        if (not switched) and p > ell0 and a[p] > trigger_mult * advice_counts[p]:
            switched = True
            tau = t + 1
            s0, k, search_iters = fallback_search(q, base_levels, fallback_levels, eq_tol)
            s_row = s0 + 1
            k_row = k + 1
        if not switched:
            if cap_phase1 != 0 and p > ell0 and a[p] > advice_counts[p]:
                room = 0.0
            else:
                room = 1.0
                for j in range(p, m):
                    slack = base_levels[j] - q[j]
                    if slack < room:
                        room = slack
        else:
            room = 1.0
            for j in range(p, m):
                slack = fallback_levels[k_row - 1, j] - q[j]
                if slack < room:
                    room = slack
        if room < 0.0:
            room = 0.0
        if room > 0.0:
            for j in range(p, m):
                q[j] += room
        w[t] = room
    return w, q, a, tau, s_row, k_row, search_iters


def fallback_search(q, base_levels, fallback_levels, eq_tol):
    """Pick the fallback row the switching policy books against after its
    trigger, given the cumulative bookings ``q`` at that moment.

    The search starts from the highest class filled to its base level and
    moves to the first class whose bookings exceed the current row, until
    a row dominates ``q`` or the moves exceed ``m``.  Returns the
    0-based start and chosen rows and the number of moves.
    """
    m = base_levels.shape[0]
    s0 = 0
    for j in range(m):
        if base_levels[j] - q[j] <= eq_tol:
            s0 = j
    k = s0
    iters = 0
    while True:
        bad = -1
        for j in range(m):
            if q[j] > fallback_levels[k, j] + eq_tol:
                bad = j
                break
        if bad < 0:
            break
        k = bad
        iters += 1
        if iters > m:
            break
    return s0, k, iters


def simplex_iterate(T, basis, ncols, cost_tol, pivot_tol):
    """Run Bland-rule pivots on a dense minimization tableau in place.

    The last tableau row holds reduced costs with ``-objective`` in the
    right-hand-side slot; only columns below ``ncols`` may enter.  Returns
    0 when optimal, 1 when unbounded, 2 when the iteration cap is hit.
    """
    nrows = T.shape[0] - 1
    rhs = T.shape[1] - 1
    max_iters = 50000
    for _ in range(max_iters):
        candidates = np.flatnonzero(T[nrows, :ncols] < -cost_tol)
        if candidates.size == 0:
            return 0
        enter = candidates[0]
        rows = np.flatnonzero(T[:nrows, enter] > pivot_tol)
        ratios = T[rows, rhs] / T[rows, enter]
        leave = -1
        best = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-15:
                best = ratio
                leave = i
            elif ratio <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]:
                leave = i
        if leave < 0:
            return 1
        _pivot(T, leave, enter)
        basis[leave] = enter
    return 2


def _pivot(T, row, col):
    """Pivot the tableau in place on entry ``(row, col)``: scale the row to
    a unit pivot, then clear the column from every other row."""
    T[row] /= T[row, col]
    # Rows with a zero factor are skipped: subtracting 0 * x could turn
    # a +0.0 entry into -0.0.
    f = T[:, col].copy()
    f[row] = 0.0
    nz = np.flatnonzero(f)
    T[nz] -= f[nz, None] * T[row]
