"""Best protection-level policy for a given competitiveness target.

Protection levels cannot switch plans mid-sequence, so their best
consistency ``beta_pl`` generally falls short of the LP optimum.  This
module finds it: a forward pass grows the levels class by class with the
minimal increments that (a) keep the policy ``gamma``-competitive on every
all-fares block instance and (b) reach a target consistency ``beta`` on the
advice-shaped instance; a root search on the pass's linear pieces then
finds the largest feasible ``beta`` (levels fitting within capacity).

The pass is the greedy water-filling of the paper's lemma.  Each class
fills on top of the classes below it, so the pass keeps two running
fills, one for the all-fares blocks and one for the advice prefix, and
costs O(m) per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .policies import ProtectionLevels, _eq_tol


@dataclass
class LevelsCandidate:
    """Output of one forward growing pass."""

    levels: tuple[float, ...]
    competitive_increments: tuple[float, ...]  # per-class, for the gamma target
    consistency_increments: tuple[float, ...]  # per-class, for the beta target
    feasible: bool  # top level fits within capacity
    # Beta at which the top level meets capacity on this pass's linear
    # piece: above beta where feasible, below it where not; +-inf where the
    # level does not grow with beta.
    root: float = math.nan
    # Where the top level meets capacity without the check's tolerance, on
    # this pass's piece, if it passed on the tolerance alone; else beta.
    settle: float = math.nan


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

    Every quantity is piecewise linear in ``beta``, so each running value
    carries its slope on ``beta``'s piece (the ``d`` names): they give the
    candidate's ``root`` and leave the values' arithmetic as it is.
    """
    n = float(ladder.capacity)
    caps, opt_advice, tails = _advice_terms(ladder, advice) if terms is None else terms
    goal = beta * opt_advice
    # Running fills of the classes below k at their final levels:
    # ``have``/``q`` on the all-fares block (n seats per class),
    # ``have_advice``/``q_advice`` on the advice prefix (the caps).
    have = q = have_advice = q_advice = level = 0.0
    dhave = dq = dhave_advice = dq_advice = dlevel = 0.0
    grown = []  # (level, competitive, consistency increment) per class
    for fk, cap, tail in zip(ladder.fares, caps, tails):
        # gamma * n * fk is gamma times the block instance's offline optimum.
        comp = max(0.0, (gamma * n * fk - have) / fk)
        level += comp
        if comp > 0.0:
            dlevel -= dhave / fk
        room = level - q_advice
        reach = have_advice + min(cap, max(0.0, room)) * fk
        dreach = dhave_advice + ((dlevel - dq_advice) * fk if 0.0 < room < cap else 0.0)
        cons = 0.0
        if reach + tail < goal:
            cons = (goal - reach - tail) / fk
            level += cons
            dlevel += (opt_advice - dreach) / fk
        grown.append((level, comp, cons))
        room = level - q
        take = min(n, max(0.0, room))
        dtake = dlevel - dq if 0.0 < room < n else 0.0
        have += take * fk
        dhave += dtake * fk
        q += take
        dq += dtake
        room = level - q_advice
        take = min(cap, max(0.0, room))
        dtake = dlevel - dq_advice if 0.0 < room < cap else 0.0
        have_advice += take * fk
        dhave_advice += dtake * fk
        q_advice += take
        dq_advice += dtake
    levels, comp_inc, cons_inc = zip(*grown)
    limit = n + _eq_tol(ladder)
    feasible = bool(level <= limit)  # top level fits
    if dlevel > 0.0:
        root = beta + (limit - level) / dlevel
    else:
        root = math.inf if feasible else -math.inf
    return LevelsCandidate(
        levels=levels,
        competitive_increments=comp_inc,
        consistency_increments=cons_inc,
        feasible=feasible,
        root=root,
        settle=beta + (n - level) / dlevel if n < level and dlevel > 0.0 else beta,
    )


def _advice_terms(ladder: core.FareLadder, advice: core.Advice) -> tuple:
    """What the growing pass needs of an advice, whatever gamma and beta:
    its acceptance caps, its revenue, and per class ``k`` the revenue of
    the advised caps above ``k``."""
    caps = [float(c) for c in advice.cap_counts]
    priced = list(zip(caps, ladder.fares))
    tails = [sum(c * f for c, f in priced[k:]) for k in range(1, ladder.m + 1)]
    return caps, core.advice_opt(ladder, advice), tails


def optimal_protection_levels(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma,
    epsilon: float | None = None,
):
    """The largest consistency attainable at ratio ``gamma`` and the
    levels grown at it, capped at capacity: ``beta_pl``.

    ``core.largest_feasible`` finds the last double in [c(F), 1] whose pass
    fits the top level within capacity plus a tolerance.  That tolerance
    keeps the search from stalling where the top level is flat and tight
    (at gamma = c(F)), but on near-equal fares it is wide in beta, so the
    answer is pulled back to the pass's slack-free root (``settle``) and
    the levels grown again there, a few times at most, until the top level
    fits or the root stops moving.  An array of gammas (lanes) gives a list
    of such pairs, one per lane.  ``epsilon`` is ignored; it is kept only
    for callers that pass it positionally.
    """
    core.check_gamma(ladder, gamma)
    terms = _advice_terms(ladder, advice)
    # The upper end is never tried: one double above 1 lets beta reach 1.
    lo, hi, n = core.bq_bound(ladder), math.nextafter(1.0, 2.0), float(ladder.capacity)
    found = []
    for g in np.ravel(gamma).tolist():
        def trial(beta, g=g):
            candidate = grow_levels_for_beta(ladder, advice, g, beta, terms)
            return (candidate if candidate.feasible else None), candidate.root

        beta, candidate = core.largest_feasible(trial, lo, hi)
        if candidate is None:
            raise RuntimeError(f"growing pass infeasible at beta={beta!r}")
        for _ in range(4):
            if not candidate.settle < beta:  # the top level fits, or the root stays
                break
            beta = candidate.settle
            candidate = grow_levels_for_beta(ladder, advice, g, beta, terms)
        found.append((ProtectionLevels(levels=tuple(min(v, n) for v in candidate.levels)), beta))
    return found[0] if np.ndim(gamma) == 0 else found
