"""Best protection-level policy for a given competitiveness target.

Protection levels cannot switch plans mid-sequence, so their best
consistency ``beta_pl`` generally falls short of the LP optimum.  This
module finds it: a forward pass grows the levels class by class with the
minimal increments that (a) keep the policy ``gamma``-competitive on every
all-fares block instance and (b) reach a target consistency ``beta`` on the
advice-shaped instance; a binary search then finds the largest feasible
``beta`` (levels fitting within capacity).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import core
from .policies import ProtectionLevels


@dataclass
class LevelsCandidate:
    """Output of one forward growing pass."""

    levels: tuple[float, ...]
    competitive_increments: tuple[float, ...]  # per-class, for the gamma target
    consistency_increments: tuple[float, ...]  # per-class, for the beta target
    feasible: bool  # top level fits within capacity


def grow_levels_for_beta(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma: float,
    beta: float,
    terms: tuple | None = None,
) -> LevelsCandidate:
    """Forward pass: minimal levels hitting both performance targets.

    For each class ``k`` in increasing order the level is raised first by
    the smallest amount restoring ``gamma``-competitiveness on the block
    instance ending at ``k``, then — only if even selling every remaining
    predicted seat could not reach ``beta`` times the advice revenue — by
    the smallest amount closing that consistency gap.  ``terms`` carries
    the per-advice inputs (``_advice_terms``) across the passes of one
    search; they are computed here when omitted.
    """
    n = ladder.capacity
    fares = ladder.fares
    prefix, blocks, opt_advice, tails = (
        _advice_terms(ladder, advice) if terms is None else terms
    )
    goal = beta * opt_advice
    levels: list[float] = []
    comp_inc: list[float] = []
    cons_inc: list[float] = []
    for k, fk in enumerate(fares):
        # Classes from k up share one level while class k is grown; the
        # revenues are ``block_revenue`` on the levels so far, inlined.
        level = levels[-1] if k else 0.0
        have = 0.0
        if k:
            q = 0.0
            for j, c in enumerate(blocks[k - 1]):
                take = min(float(c), max(0.0, (levels[j] if j < k else level) - q))
                have += take * fares[j]
                q += take
        target = gamma * n * fk  # offline optimum of the block instance
        comp = max(0.0, (target - have) / fk)
        level += comp

        have_advice = 0.0
        q = 0.0
        for j, c in enumerate(prefix[k]):
            take = min(float(c), max(0.0, (levels[j] if j < k else level) - q))
            have_advice += take * fares[j]
            q += take
        cons = 0.0
        if have_advice + tails[k] < goal:
            cons = (goal - have_advice - tails[k]) / fk
            level += cons
        levels.append(level)
        comp_inc.append(comp)
        cons_inc.append(cons)

    feasible = bool(levels[-1] <= n + 1e-9 * max(1.0, n))
    return LevelsCandidate(
        levels=tuple(levels),
        competitive_increments=tuple(comp_inc),
        consistency_increments=tuple(cons_inc),
        feasible=feasible,
    )


def _advice_terms(ladder: core.FareLadder, advice: core.Advice) -> tuple:
    """What the growing pass needs of an advice, whatever gamma and beta.

    The rows of ``core.hard_counts`` (prefixes, then blocks), the advice
    revenue, and per class ``k`` the revenue of the advised caps above it.
    """
    prefix, blocks = core.hard_counts(ladder, advice)
    caps = advice.cap_counts
    fares = ladder.fares
    tails = [
        sum(caps[i] * fares[i] for i in range(k, ladder.m))
        for k in range(1, ladder.m + 1)
    ]
    return prefix.tolist(), blocks.tolist(), core.advice_opt(ladder, advice), tails


def optimal_protection_levels(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma: float,
    epsilon: float = 1e-6,
) -> tuple[ProtectionLevels, float]:
    """Binary-search the largest consistency attainable at ratio ``gamma``.

    Searches ``beta`` over ``[bq_bound, 1]`` to accuracy ``epsilon``, or
    until no double lies between the endpoints, and returns the levels
    grown at the proven-feasible lower endpoint together with that
    endpoint (a consistency guarantee, within ``epsilon`` of the true
    protection-level optimum).
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    core.check_gamma(ladder, gamma)
    bound = core.bq_bound(ladder)
    terms = _advice_terms(ladder, advice)
    lo = bound
    if not grow_levels_for_beta(ladder, advice, gamma, lo, terms).feasible:
        raise RuntimeError("growing pass infeasible at the worst-case bound")
    hi = 1.0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no double left between the endpoints
            break
        if grow_levels_for_beta(ladder, advice, gamma, mid, terms).feasible:
            lo = mid
        else:
            hi = mid
    candidate = grow_levels_for_beta(ladder, advice, gamma, lo, terms)
    n = float(ladder.capacity)
    levels = tuple(min(v, n) for v in candidate.levels)
    return ProtectionLevels(levels=levels), lo


def levels_to_json(
    ladder: core.FareLadder,
    gamma: float,
    beta_lower: float,
    candidate: LevelsCandidate,
) -> str:
    """Serialize an optimized level vector with its provenance."""
    payload = {
        "fares": list(ladder.fares),
        "capacity": ladder.capacity,
        "gamma": gamma,
        "beta_lower": beta_lower,
        "levels": list(candidate.levels),
        "competitive_increments": list(candidate.competitive_increments),
        "consistency_increments": list(candidate.consistency_increments),
        "feasible": candidate.feasible,
    }
    return json.dumps(payload, indent=2, default=float) + "\n"
