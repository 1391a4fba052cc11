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
from dataclasses import dataclass

import numpy as np

from . import core
from .policies import ProtectionLevels, block_revenue


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
    m = ladder.m
    n = ladder.capacity
    fares = ladder.fares
    prefix, blocks, opt_advice, tails = (
        _advice_terms(ladder, advice) if terms is None else terms
    )
    levels = np.zeros(m)
    comp_inc = np.zeros(m)
    cons_inc = np.zeros(m)
    for k in range(1, m + 1):
        fk = fares[k - 1]
        levels[k - 1 :] = levels[k - 2] if k > 1 else 0.0

        target = gamma * n * fk  # offline optimum of the block instance
        have = block_revenue(fares, levels, blocks[k - 2]) if k > 1 else 0.0
        comp_inc[k - 1] = max(0.0, (target - have) / fk)
        levels[k - 1 :] += comp_inc[k - 1]

        have_advice = block_revenue(fares, levels, prefix[k - 1])
        tail = tails[k - 1]
        if have_advice + tail < beta * opt_advice:
            cons_inc[k - 1] = (beta * opt_advice - have_advice - tail) / fk
            levels[k - 1 :] += cons_inc[k - 1]

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

    Searches ``beta`` over ``[bq_bound, 1]`` to accuracy ``epsilon`` and
    returns the levels grown at the proven-feasible lower endpoint together
    with that endpoint (a consistency guarantee, within ``epsilon`` of the
    true protection-level optimum).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    bound = core.bq_bound(ladder)
    if gamma < 0.0 or gamma > bound + 1e-12:
        raise ValueError("gamma must lie in [0, bq_bound(ladder)]")
    terms = _advice_terms(ladder, advice)
    lo = bound
    if not grow_levels_for_beta(ladder, advice, gamma, lo, terms).feasible:
        raise RuntimeError("growing pass infeasible at the worst-case bound")
    hi = 1.0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
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
