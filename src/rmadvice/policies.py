"""Online booking policies: nested protection levels and LP-based switching.

A protection-level policy is a nondecreasing vector of cumulative booking
limits ``Q_1 <= ... <= Q_m <= n``; an arrival of class ``p`` is accepted at
the largest fraction keeping every cumulative count within its limit.

The switching policy books phase 1 against limits derived from an LP
solution and, once the arrival counts contradict the advice, switches
permanently to one row of a fallback limit table chosen by a short
dominance search.  A relaxed variant tolerates multiplicative advice error
before switching.

Both policies replay arrivals in any order one request at a time
(``kernels``).  On increasing block instances, given as per-class counts,
they cost O(m) work: ``block_revenue`` is a closed form, and
``switch_block_revenue`` runs the switching loop with one run per class.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import core, lp
from .kernels import _switch_runs, protection_run, switch_run


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


def switch_block_revenue(ladder: core.FareLadder, advice: core.Advice, plan: SwitchPlan,
                         counts, epsilon: float = 0.0) -> float:
    """Revenue of a switching policy on an increasing block instance.

    ``counts[j]`` arrivals of class ``j+1`` arrive in increasing fare order.
    ``epsilon = 0`` gives the policy of ``run_lp_optimal``, ``epsilon > 0``
    that of ``run_relaxed_optimal``; the run loop takes each block as one
    run, so this costs O(m) work and equals their revenue on the same
    arrivals up to summation order.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    return _switch_runs(
        range(ladder.m), counts, ladder.fares, advice.counts, advice.lowest_index - 1,
        plan.base.tolist(), plan.fallback.tolist(), 1.0 + epsilon, epsilon > 0.0,
        _eq_tol(ladder),
    )[-1]


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
