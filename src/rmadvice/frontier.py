"""Consistency-competitiveness frontiers and advice-grid sweeps.

For a fixed advice, ``beta_lp(gamma)`` is the LP-optimal consistency at
competitiveness target ``gamma`` and ``beta_pl(gamma)`` the best attainable
with static protection levels.  The relative suboptimality of protection
levels for an advice is the largest relative gap between the two curves
over a gamma grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, lp, protect
from .policies import bq_levels, levels_consistency


@dataclass
class FrontierCurve:
    gammas: np.ndarray
    beta_lp: np.ndarray
    beta_pl: np.ndarray
    bq_consistency: float  # consistency of the advice-free worst-case levels


def default_gamma_grid(ladder: core.FareLadder, points: int = 41) -> np.ndarray:
    """Evenly spaced competitiveness targets from 0 to the worst-case bound."""
    if points < 2:
        raise ValueError("grid needs at least two points")
    return np.linspace(0.0, core.bq_bound(ladder), points)


def consistency_frontier(ladder: core.FareLadder, advice: core.Advice, gamma_grid) -> FrontierCurve:
    """Evaluate both consistency curves over a gamma grid.

    ``beta_lp`` comes from ``lp.water_fill_plan``, whose points must pass
    ``lp.verify``.  Each search takes the whole grid as lanes in one call.
    """
    gammas = np.asarray(gamma_grid, dtype=float)
    plans = lp.water_fill_plan(ladder, advice, gammas)
    levels = protect.optimal_protection_levels(ladder, advice, gammas)
    return FrontierCurve(
        gammas=gammas,
        beta_lp=np.array([plan.beta_star for plan in plans]),
        beta_pl=np.array([beta for _, beta in levels]),
        bq_consistency=levels_consistency(ladder, advice, bq_levels(ladder)),
    )


def relative_suboptimality(ladder: core.FareLadder, advice: core.Advice, gamma_grid) -> float:
    """Largest relative gap between the LP and protection-level curves."""
    curve = consistency_frontier(ladder, advice, gamma_grid)
    gaps = (curve.beta_lp - curve.beta_pl) / curve.beta_lp
    return float(max(0.0, np.max(gaps)))


def advice_grid(ladder: core.FareLadder, step: int) -> list[core.Advice]:
    """All advice vectors with entries in multiples of ``step`` summing to
    capacity, adjusted so the cheapest class always has mass.

    When a grid point has no class-1 customers the single-seat adjustment
    moves one seat into class 1 from the highest predicted class, keeping
    the total at capacity.
    """
    n = ladder.capacity
    if step < 1 or n % step != 0:
        raise ValueError("step must be a positive divisor of the capacity")

    def compose(remaining: int, slots: int) -> list[list[int]]:
        if slots == 1:
            return [[remaining]]
        return [[v, *rest] for v in range(0, remaining + 1, step)
                for rest in compose(remaining - v, slots - 1)]

    advices = []
    for counts in compose(n, ladder.m):
        if counts[0] == 0:
            counts[0] = 1
            counts[max(i for i, v in enumerate(counts) if i > 0 and v > 0)] -= 1
        advices.append(core.make_advice(ladder, counts))
    return advices
