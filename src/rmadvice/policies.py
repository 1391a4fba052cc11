"""Online booking policies: nested protection levels and LP-based switching.

A protection-level policy is a nondecreasing vector of cumulative booking
limits ``Q_1 <= ... <= Q_m <= n``; an arrival of class ``p`` is accepted at
the largest fraction keeping every cumulative count within its limit.

The switching policy books phase 1 against limits derived from an LP
solution and, once the arrival counts contradict the advice, switches
permanently to one row of a fallback limit table chosen by a short
dominance search.  A relaxed variant tolerates multiplicative advice error
before switching.

Both policies book through one rule (``_book``): a class books on top of
the classes below it, as far as every cumulative limit from its own class
up allows.  The step runners replay arrivals in any order, one request at
a time, on Python lists made from the instance's steps.  The switching
policy has one loop over runs of same-class arrivals (``_switch_runs``):
a replay passes runs of one arrival, a block instance one run per class.
On increasing block instances, given as per-class counts, both policies
cost O(m) work: ``block_revenue`` is a closed form over count arrays, and
``switch_block_revenue`` runs the switching loop on each count row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core, lp


@dataclass(frozen=True)
class ProtectionLevels:
    """Nondecreasing cumulative booking limits, one per fare class."""

    levels: tuple[float, ...]


@dataclass
class SwitchPlan:
    """Limits driving the switching policy.

    ``base[i-1]`` is the phase-1 cumulative limit for classes up to ``i``
    (partial sums of the LP's ``x``); ``fallback[k-1, i-1]`` the post-switch
    limit when the search settles on row ``k``.
    """

    base: np.ndarray
    fallback: np.ndarray


@dataclass
class PolicyTrace:
    """Full record of one policy run."""

    fare_indices: tuple[int, ...]
    accepted: np.ndarray  # per-step accepted fraction
    q: np.ndarray  # final cumulative accepted counts per class
    revenue: float
    trigger_time: int | None = None  # 1-based step of the phase switch
    chosen_k: int | None = None  # fallback row actually used
    search_iterations: int = 0


def _eq_tol(ladder: core.FareLadder) -> float:
    return 1e-9 * max(1.0, float(ladder.capacity))


def bq_levels(ladder: core.FareLadder) -> ProtectionLevels:
    """Best advice-free protection levels for the ladder.

    ``Q_i = [sum_{j<=i} (1 - f_{j-1}/f_j)] * bq_bound * n`` with ``f_0 = 0``;
    the resulting policy is worst-case optimal at ratio ``bq_bound``.
    """
    f = ladder.fares
    c = core.bq_bound(ladder)
    running = 0.0
    levels = []
    for i in range(ladder.m):
        prev = f[i - 1] if i > 0 else 0.0
        running += 1.0 - prev / f[i]
        levels.append(running * c * ladder.capacity)
    return ProtectionLevels(levels=tuple(levels))


def block_revenue(fares, levels, counts):
    """Revenue of a protection-level policy on increasing block instances.

    ``counts[..., j]`` arrivals of class ``j+1`` arrive in increasing fare
    order; the policy then fills each block up to its cumulative limit, so
    the run collapses to a closed form, evaluated over the last axis of
    ``counts`` like ``core.count_opt``.  No feasibility check is applied:
    the levels come from ``bq_levels`` or ``optimal_protection_levels``.
    """
    counts = np.asarray(counts, dtype=float)
    q = rev = 0.0
    for j, f in enumerate(fares):
        take = np.minimum(counts[..., j], np.maximum(levels[j] - q, 0.0))
        rev += take * f
        q += take
    return rev


def levels_consistency(ladder: core.FareLadder, advice: core.Advice, levels) -> float:
    """Consistency of static ``ProtectionLevels``: their revenue share on
    the advice instance."""
    revenue = block_revenue(ladder.fares, levels.levels, advice.cap_counts)
    return float(revenue / core.advice_opt(ladder, advice))


def run_protection_policy(
    ladder: core.FareLadder, levels: ProtectionLevels, instance: core.Instance
) -> PolicyTrace:
    """Run a protection-level policy over an arrival sequence."""
    limits = [float(v) for v in levels.levels]
    if len(limits) != ladder.m:
        raise ValueError("levels length must equal the number of fare classes")
    tol = _eq_tol(ladder)
    # Each check is written so that NaN fails it.
    if not (all(v >= -tol for v in limits)
            and all(hi - lo >= -tol for lo, hi in zip(limits, limits[1:]))):
        raise ValueError("levels must be nonnegative and nondecreasing")
    if not limits[-1] <= ladder.capacity + tol:
        raise ValueError("levels must not exceed capacity")
    classes = [s - 1 for s in instance.steps]
    q = [0.0] * ladder.m
    accepted = [_book(q, limits, p, 1) for p in classes]
    return _trace(ladder, instance, classes, accepted, q)


def _trace(ladder, instance, classes, accepted, q, tau=0, k_row=0, iters=0):
    """The ``PolicyTrace`` of a step run; a row and trigger step of 0 mean
    "never"."""
    accepted = np.array(accepted, dtype=float)
    return PolicyTrace(
        fare_indices=instance.steps,
        accepted=accepted,
        q=np.array(q),
        revenue=float(np.dot(accepted, np.asarray(ladder.fares)[classes])),
        trigger_time=tau or None,
        chosen_k=k_row or None,
        search_iterations=iters,
    )


def derive_switch_plan(solution: lp.LPSolution) -> SwitchPlan:
    """Turn an LP solution into phase-1 and fallback booking limits.

    Base limits are partial sums of ``x``; fallback row ``k`` caps classes
    at the phase-1 limit frozen at ``k`` plus partial sums of ``y(k)``.
    """
    base = np.cumsum(solution.x)
    classes = np.arange(len(base))
    frozen = base[np.minimum.outer(classes, classes)]
    return SwitchPlan(base=base, fallback=frozen + np.cumsum(solution.y, axis=1))


def _switch_inputs(ladder, advice, plan, epsilon):
    """The arguments of ``_switch_runs`` after the runs, for the switching
    policy with slack ``epsilon`` (0 for ``run_lp_optimal``)."""
    return (ladder.fares, advice.counts, advice.lowest_index - 1, plan.base.tolist(),
            plan.fallback.tolist(), 1.0 + epsilon, epsilon > 0.0, _eq_tol(ladder))


def _run_switch(ladder, advice, instance, plan, epsilon) -> PolicyTrace:
    classes = [s - 1 for s in instance.steps]
    # ``_trace`` prices ``accepted`` with one ``np.dot``; the loop's
    # running revenue sums in another order and may differ in the last bit.
    accepted, q, tau, k_row, iters, _ = _switch_runs(
        classes, [1] * len(classes), *_switch_inputs(ladder, advice, plan, epsilon)
    )
    return _trace(ladder, instance, classes, accepted, q, tau, k_row, iters)


def switch_block_revenue(ladder: core.FareLadder, advice: core.Advice, plan: SwitchPlan,
                         counts, epsilon: float = 0.0):
    """Revenue of a switching policy on increasing block instances.

    ``counts[..., j]`` arrivals of class ``j+1`` arrive in increasing fare
    order; one revenue per instance along the last axis.  ``epsilon = 0``
    gives the policy of ``run_lp_optimal``, ``epsilon > 0`` that of
    ``run_relaxed_optimal``; the run loop takes each block as one run, so
    each instance costs O(m) work and equals their revenue on the same
    arrivals up to summation order.
    """
    if not epsilon >= 0.0:
        raise ValueError("epsilon must be nonnegative")
    counts = np.asarray(counts)
    inputs = _switch_inputs(ladder, advice, plan, epsilon)
    revenue = [_switch_runs(range(ladder.m), row, *inputs)[-1]
               for row in counts.reshape(-1, ladder.m).tolist()]
    return np.array(revenue).reshape(counts.shape[:-1])[()]  # a scalar for one row


def _switch_runs(
    classes, counts, fares, advice_counts, ell0, base, fallback, trigger_mult, cap_phase1, eq_tol
):
    """Run the switching policy over runs of arrivals, on lists: run ``r``
    is ``counts[r]`` arrivals of 0-based class ``classes[r]``.

    Phase 1 books against ``base``.  The first arrival of a class above
    ``ell0`` (the 0-based lowest advised class) whose running count
    exceeds ``trigger_mult`` times its advised count ``A_p`` flips the
    policy, which then books against the row of ``fallback`` that
    ``fallback_search`` picks.  With ``cap_phase1`` (the relaxed variant,
    whose trigger fires later), phase 1 books a class above ``ell0`` only
    up to ``A_p``.

    Before the trigger, a run above ``ell0`` keeps in phase 1 the arrivals
    that bring the class count up to ``floor(trigger_mult * A_p)``; the
    next arrival triggers, and the rest of the run books against the
    chosen row.  Returns the amount booked per run, ``q``, the 1-based
    trigger step and chosen row of the fallback search (0 if never), its
    number of moves, and the revenue at ``fares``, added once per booked
    part.
    """
    q = [0.0] * len(base)
    seen = [0] * len(base)
    booked = []
    limits = base
    arrived = tau = k_row = iters = 0
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
                k, iters = fallback_search(q, base, fallback, eq_tol)
                k_row = k + 1
                limits = fallback[k]
        if rest:
            more = _book(q, limits, p, rest)
            revenue += more * fares[p]
            take = take + more if take else more  # a lone part keeps its -0.0
        seen[p] += c
        arrived += c
        booked.append(take)
    return booked, q, tau, k_row, iters, revenue


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
    a row dominates ``q``.  Returns the 0-based chosen row and the number
    of moves; raises ``RuntimeError`` if no row dominates ``q``
    within ``m`` moves.
    """
    m = len(base_levels)
    k = max((j for j in range(m) if base_levels[j] - q[j] <= eq_tol), default=0)
    for moves in range(m + 1):
        bad = next((j for j in range(m) if q[j] > fallback_levels[k][j] + eq_tol), -1)
        if bad < 0:
            return k, moves
        k = bad
    raise RuntimeError(f"fallback search found no row dominating the bookings in {m} moves")


def run_lp_optimal(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma: float,
    instance: core.Instance,
    plan: SwitchPlan | None = None,
) -> PolicyTrace:
    """Run the Pareto-optimal switching policy.

    When ``plan`` is omitted it comes from ``lp.water_fill_plan`` at
    ``(advice, gamma)``.
    """
    if plan is None:
        plan = derive_switch_plan(lp.water_fill_plan(ladder, advice, gamma))
    return _run_switch(ladder, advice, instance, plan, 0.0)


def run_relaxed_optimal(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma: float,
    epsilon: float,
    instance: core.Instance,
    plan: SwitchPlan | None = None,
) -> PolicyTrace:
    """Run the error-tolerant switching policy.

    The switch fires only once a class count exceeds ``(1 + epsilon)``
    times its advised value; until then phase 1 never books a class above
    the lowest advised one beyond its advised count.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if plan is None:
        plan = derive_switch_plan(lp.water_fill_plan(ladder, advice, gamma))
    return _run_switch(ladder, advice, instance, plan, epsilon)

