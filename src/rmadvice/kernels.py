"""Hot numeric loops: policy runners and the simplex pivot.

The policy runners book on Python lists through one booking rule
(``_book``).  The switching policy has one loop over runs of same-class
arrivals (``_switch_runs``): a replay in any order passes runs of one
arrival, a block instance one run per class.  The pivot loop updates the
simplex tableau a row at a time.
"""

from __future__ import annotations

import math

import numpy as np


def protection_run(fare_idx, levels):
    """Run a nested protection-level policy over an arrival sequence.

    ``fare_idx`` holds 0-based fare classes, ``levels`` the nondecreasing
    cumulative booking limits.  An arrival of class ``p`` is accepted at the
    largest fraction that keeps every cumulative count at or below its level.
    Returns the per-step accepted fractions and the final cumulative counts.
    """
    q = [0.0] * levels.shape[0]
    limits = levels.tolist()
    w = [_book(q, limits, p, 1) for p in fare_idx.tolist()]
    return np.array(w, dtype=float), np.array(q)


def switch_run(fare_idx, advice_counts, ell0, base_levels, fallback_levels, trigger_mult,
               cap_phase1, eq_tol):
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
    classes = fare_idx.tolist()
    # Runs of one arrival, at fares of 0: the caller prices ``w`` itself.
    w, q, seen, tau, s_row, k_row, iters, _ = _switch_runs(
        classes, [1] * len(classes), [0.0] * base_levels.shape[0],
        advice_counts.tolist(), ell0, base_levels.tolist(), fallback_levels.tolist(),
        trigger_mult, cap_phase1, eq_tol,
    )
    return (np.array(w, dtype=float), np.array(q), np.array(seen, dtype=float),
            tau, s_row, k_row, iters)


def _switch_runs(
    classes, counts, fares, advice_counts, ell0, base, fallback, trigger_mult, cap_phase1, eq_tol
):
    """``switch_run`` over runs of arrivals, on lists: run ``r`` is
    ``counts[r]`` arrivals of class ``classes[r]``.

    Before the trigger, a run above ``ell0`` keeps in phase 1 the arrivals
    that bring the class count up to ``floor(trigger_mult * A_p)`` (with
    ``cap_phase1``, books only those up to ``A_p``); the next arrival
    triggers, and the rest of the run books against the chosen row.
    Returns the amount booked per run, ``q``, the arrivals per class, the
    trigger step and rows as ``switch_run`` does, and the revenue at
    ``fares``, added once per booked part.
    """
    q = [0.0] * len(base)
    seen = [0] * len(base)
    booked = []
    limits = base
    arrived = tau = s_row = k_row = iters = 0
    revenue = 0.0
    for p, c in zip(classes, counts):
        take, rest = 0, c
        if tau == 0 and p > ell0:
            bound = trigger_mult * advice_counts[p]
            before = c if not bound < math.inf else min(c, max(0, math.floor(bound) - seen[p]))
            first = min(before, max(0, advice_counts[p] - seen[p])) if cap_phase1 else before
            rest = c - before
            if first:
                take = _book(q, limits, p, first)
                revenue += take * fares[p]
            if rest:
                tau = arrived + before + 1
                s0, k, iters = fallback_search(q, base, fallback, eq_tol)
                s_row, k_row = s0 + 1, k + 1
                limits = fallback[k]
        if rest:
            more = _book(q, limits, p, rest)
            revenue += more * fares[p]
            take = take + more if take else more  # a lone part keeps its -0.0
        seen[p] += c
        arrived += c
        booked.append(take)
    return booked, q, seen, tau, s_row, k_row, iters, revenue


def _book(q, limits, p, count):
    """Book up to ``count`` arrivals of class ``p`` against cumulative
    ``limits``: as many as every count from class ``p`` up has room for,
    added to each of them.  Returns the amount booked."""
    room = count
    for k in range(p, len(q)):
        slack = limits[k] - q[k]
        if slack < room:
            room = slack
    if room < 0.0:
        room = 0.0
    if room > 0.0:
        for k in range(p, len(q)):
            q[k] += room
    return room


def fallback_search(q, base_levels, fallback_levels, eq_tol):
    """Pick the fallback row the switching policy books against after its
    trigger, given the cumulative bookings ``q`` at that moment.

    The search starts from the highest class filled to its base level and
    moves to the first class whose bookings exceed the current row, until
    a row dominates ``q`` or the moves exceed ``m``.  Returns the
    0-based start and chosen rows and the number of moves.
    """
    m = len(base_levels)
    s0 = max((j for j in range(m) if base_levels[j] - q[j] <= eq_tol), default=0)
    k = s0
    for moves in range(m + 1):
        bad = next((j for j in range(m) if q[j] > fallback_levels[k][j] + eq_tol), -1)
        if bad < 0:
            return s0, k, moves
        k = bad
    return s0, k, m + 1


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
