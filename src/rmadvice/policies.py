"""Online booking policies: nested protection levels and LP-based switching.

A protection-level policy is a nondecreasing vector of cumulative booking
limits ``Q_1 <= ... <= Q_m <= n``; an arrival of class ``p`` is accepted at
the largest fraction keeping every cumulative count within its limit.

The switching policy books phase 1 against limits derived from an LP
solution and, once the arrival counts contradict the advice, switches
permanently to one row of a fallback limit table chosen by a short
dominance search.  A relaxed variant tolerates multiplicative advice error
before switching.

Arrivals in any order are replayed one request at a time.  On increasing
block instances, given as per-class counts, both policies also have closed
forms (``block_revenue``, ``switch_block_revenue``) costing O(m) work.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import core, lp
from .kernels import fallback_search, protection_run, switch_run


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
    arrivals: np.ndarray  # arrivals seen per class
    revenue: float
    trigger_time: int | None = None  # 1-based step of the phase switch
    switch_base_index: int | None = None  # start row of the fallback search
    chosen_k: int | None = None  # fallback row actually used
    search_iterations: int = 0


def _as_fare_idx(instance: core.Instance) -> np.ndarray:
    return np.array([s - 1 for s in instance.steps], dtype=np.int64)


def _revenue(ladder: core.FareLadder, fare_idx: np.ndarray, accepted: np.ndarray) -> float:
    fares = np.asarray(ladder.fares)
    return float(np.dot(accepted, fares[fare_idx])) if fare_idx.size else 0.0


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


def block_revenue(fares, levels, counts) -> float:
    """Revenue of a protection-level policy on an increasing block instance.

    ``counts[j]`` arrivals of class ``j+1`` arrive in increasing fare order;
    the policy then fills each block up to its cumulative limit, so the run
    collapses to a closed form.  No feasibility check is applied, which lets
    partially built level vectors be evaluated.
    """
    q = 0.0
    rev = 0.0
    for j in range(len(fares)):
        take = min(float(counts[j]), max(0.0, levels[j] - q))
        rev += take * fares[j]
        q += take
    return rev


def run_protection_policy(
    ladder: core.FareLadder, levels: ProtectionLevels, instance: core.Instance
) -> PolicyTrace:
    """Run a protection-level policy over an arrival sequence."""
    vec = np.asarray(levels.levels, dtype=float)
    if vec.shape[0] != ladder.m:
        raise ValueError("levels length must equal the number of fare classes")
    tol = _eq_tol(ladder)
    if np.any(vec < -tol) or np.any(np.diff(vec) < -tol):
        raise ValueError("levels must be nonnegative and nondecreasing")
    if vec[-1] > ladder.capacity + tol:
        raise ValueError("levels must not exceed capacity")
    fare_idx = _as_fare_idx(instance)
    accepted, q = protection_run(fare_idx, vec)
    return PolicyTrace(
        fare_indices=instance.steps,
        accepted=accepted,
        q=q,
        arrivals=core.fare_counts(instance, ladder.m).astype(float),
        revenue=_revenue(ladder, fare_idx, accepted),
    )


def derive_switch_plan(solution: lp.LPSolution) -> SwitchPlan:
    """Turn an LP solution into phase-1 and fallback booking limits.

    Base limits are partial sums of ``x``; fallback row ``k`` caps classes
    at the phase-1 limit frozen at ``k`` plus partial sums of ``y(k)``.
    """
    if solution.status != "optimal":
        raise ValueError("switch plan requires an optimal LP solution")
    m = solution.m
    base = np.cumsum(solution.x)
    fallback = np.empty((m, m))
    for k in range(1, m + 1):
        ycum = np.cumsum(solution.y[k - 1])
        for i in range(1, m + 1):
            fallback[k - 1, i - 1] = base[min(i, k) - 1] + ycum[i - 1]
    return SwitchPlan(base=base, fallback=fallback)


def _run_switch(
    ladder: core.FareLadder,
    advice: core.Advice,
    instance: core.Instance,
    plan: SwitchPlan,
    trigger_mult: float,
    cap_phase1: bool,
) -> PolicyTrace:
    fare_idx = _as_fare_idx(instance)
    counts = np.asarray(advice.counts, dtype=float)
    accepted, q, arrivals, tau, s_row, k_row, iters = switch_run(
        fare_idx,
        counts,
        advice.lowest_index - 1,
        np.asarray(plan.base, dtype=float),
        np.asarray(plan.fallback, dtype=float),
        trigger_mult,
        1 if cap_phase1 else 0,
        _eq_tol(ladder),
    )
    return PolicyTrace(
        fare_indices=instance.steps,
        accepted=accepted,
        q=q,
        arrivals=arrivals,
        revenue=_revenue(ladder, fare_idx, accepted),
        trigger_time=tau if tau > 0 else None,
        switch_base_index=s_row if s_row > 0 else None,
        chosen_k=k_row if k_row > 0 else None,
        search_iterations=int(iters),
    )


def switch_block_revenue(
    ladder: core.FareLadder,
    advice: core.Advice,
    plan: SwitchPlan,
    counts,
    epsilon: float = 0.0,
) -> float:
    """Revenue of a switching policy on an increasing block instance.

    ``counts[j]`` arrivals of class ``j+1`` arrive in increasing fare order.
    ``epsilon = 0`` gives the policy of ``run_lp_optimal``, ``epsilon > 0``
    that of ``run_relaxed_optimal``; on the same arrivals the result equals
    theirs up to summation order.  The run collapses to a closed form: all
    bookings so far lie in classes at or below the current block's, so every
    cumulative count from its class up equals the seats ``Q`` sold so far,
    and the block books ``min(eligible, max(0, limit - Q))``.  Above the
    lowest advised class phase 1 books at most the advised count (later
    arrivals trigger the strict policy and are capped by the relaxed one),
    and the trigger fires in the first such block holding more than
    ``(1 + epsilon)`` times its advised count, after the first
    ``floor((1 + epsilon) A_p)`` of its arrivals.  The rest of the instance
    books against the fallback row chosen there.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    fares = ladder.fares
    mult = 1.0 + epsilon
    ell0 = advice.lowest_index - 1
    limit = _room_limits(plan.base)
    booked = []  # seats sold after each block: cumulative bookings per class
    sold = 0.0
    rev = 0.0
    for p in range(ladder.m):
        c = counts[p]
        a = advice.counts[p]
        eligible = c if p <= ell0 else min(c, a)
        take = min(eligible, max(0.0, limit[p] - sold))
        rev += take * fares[p]
        sold += take
        if p > ell0 and c > mult * a:
            q = booked + [sold] * (ladder.m - p)
            _, k, _ = fallback_search(q, plan.base, plan.fallback, _eq_tol(ladder))
            limit = _room_limits(plan.fallback[k])
            rest = [c - math.floor(mult * a)] + list(counts[p + 1 :])
            for j, arrivals in enumerate(rest, start=p):
                take = min(arrivals, max(0.0, limit[j] - sold))
                rev += take * fares[j]
                sold += take
            break
        booked.append(sold)
    return rev


def _room_limits(levels) -> list[float]:
    """Cumulative limit binding an arrival of each class: the smallest
    level at or above it."""
    return np.minimum.accumulate(np.asarray(levels)[::-1])[::-1].tolist()


def run_lp_optimal(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma: float,
    instance: core.Instance,
    plan: SwitchPlan | None = None,
) -> PolicyTrace:
    """Run the Pareto-optimal switching policy.

    When ``plan`` is omitted the LP is solved internally for
    ``(advice, gamma)``.
    """
    if plan is None:
        plan = derive_switch_plan(lp.optimal_consistency(ladder, advice, gamma))
    return _run_switch(ladder, advice, instance, plan, 1.0, cap_phase1=False)


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
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if plan is None:
        plan = derive_switch_plan(lp.optimal_consistency(ladder, advice, gamma))
    return _run_switch(ladder, advice, instance, plan, 1.0 + epsilon, cap_phase1=True)


def trace_to_csv(ladder: core.FareLadder, trace: PolicyTrace) -> str:
    """Per-step CSV: fare, accepted fraction, cumulative counts, phase."""
    m = ladder.m
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "fare_index", "fare", "accepted_fraction"]
        + [f"q_{i}" for i in range(1, m + 1)]
        + ["switched", "revenue_so_far"]
    )
    q = np.zeros(m)
    revenue = 0.0
    for t, p in enumerate(trace.fare_indices):
        w = float(trace.accepted[t])
        q[p - 1 :] += w
        revenue += w * ladder.fares[p - 1]
        switched = int(
            trace.trigger_time is not None and t + 1 >= trace.trigger_time
        )
        writer.writerow(
            [t + 1, p, f"{ladder.fares[p - 1]:.17g}", f"{w:.17g}"]
            + [f"{v:.17g}" for v in q]
            + [switched, f"{revenue:.17g}"]
        )
    return buf.getvalue()
