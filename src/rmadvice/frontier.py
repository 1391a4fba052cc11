"""Consistency-competitiveness frontiers and advice-grid sweeps.

For a fixed advice, ``beta_lp(gamma)`` is the LP-optimal consistency at
competitiveness target ``gamma`` and ``beta_pl(gamma)`` the best attainable
with static protection levels.  The relative suboptimality of protection
levels for an advice is the largest relative gap between the two curves
over a gamma grid.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import core, lp, protect


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


def _bq_consistency(ladder: core.FareLadder, advice: core.Advice) -> float:
    from .policies import bq_levels, block_revenue  # local to avoid cycle

    levels = np.asarray(bq_levels(ladder).levels)
    return block_revenue(ladder.fares, levels, advice.cap_counts) / core.advice_opt(
        ladder, advice
    )


def consistency_frontier(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma_grid=None,
    epsilon: float = 1e-6,
) -> FrontierCurve:
    """Evaluate both consistency curves over a gamma grid.

    ``beta_lp`` takes one LP solve per gamma, without the tie-break of
    ``lp.solve_lp`` (which moves the plan, not beta), and its point must
    pass ``lp.verify``.
    """
    if gamma_grid is None:
        gamma_grid = default_gamma_grid(ladder)
    gammas = np.asarray(gamma_grid, dtype=float)
    beta_lp = np.empty_like(gammas)
    beta_pl = np.empty_like(gammas)
    for i, g in enumerate(gammas):
        model = lp.build_pareto_lp(ladder, advice, float(g))
        result = lp.solve_beta(model)
        lp.verify(model, result.status, result.x)
        beta_lp[i] = result.x[0]
        _, beta_pl[i] = protect.optimal_protection_levels(
            ladder, advice, float(g), epsilon
        )
    return FrontierCurve(
        gammas=gammas,
        beta_lp=beta_lp,
        beta_pl=beta_pl,
        bq_consistency=_bq_consistency(ladder, advice),
    )


def relative_suboptimality(
    ladder: core.FareLadder,
    advice: core.Advice,
    gamma_grid=None,
    epsilon: float = 1e-6,
) -> float:
    """Largest relative gap between the LP and protection-level curves."""
    curve = consistency_frontier(ladder, advice, gamma_grid, epsilon)
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
    m = ladder.m
    if step < 1 or n % step != 0:
        raise ValueError("step must be a positive divisor of the capacity")

    points: list[tuple[int, ...]] = []

    def compose(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            points.append(tuple(prefix + [remaining]))
            return
        for v in range(0, remaining + 1, step):
            compose(prefix + [v], remaining - v, slots - 1)

    compose([], n, m)
    advices = []
    for counts in points:
        counts = list(counts)
        if counts[0] == 0:
            counts[0] = 1
            top = max(i for i, v in enumerate(counts[1:], start=1) if v > 0)
            counts[top] -= 1
        advices.append(core.make_advice(ladder, counts))
    return advices


def frontier_to_csv(curve: FrontierCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["gamma", "beta_lp", "beta_pl", "bq_consistency"])
    for g, bl, bp in zip(curve.gammas, curve.beta_lp, curve.beta_pl):
        writer.writerow(
            [f"{g:.17g}", f"{bl:.17g}", f"{bp:.17g}", f"{curve.bq_consistency:.17g}"]
        )
    return buf.getvalue()


def rs_grid_to_csv(advices: list[core.Advice], rs_values) -> str:
    m = advices[0].m
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"A_{i}" for i in range(1, m + 1)] + ["rs"])
    for advice, rs in zip(advices, rs_values):
        writer.writerow(list(advice.counts) + [f"{rs:.17g}"])
    return buf.getvalue()
