"""Consistency/competitiveness LP for seat allocation with advice.

For a fare ladder, an advice vector, and a target competitive ratio
``gamma``, the LP maximizes the consistency ``beta`` (fraction of the
advice's revenue secured when the advice is realized) subject to remaining
``gamma``-competitive on every instance of the adversarial family.

Variables, in fixed order: ``beta``, per-class phase-1 acceptances
``x_1..x_m``, and per-trigger-block fallback acceptances ``y(k)_j`` for
``k, j = 1..m``.  Rows, in fixed order: first all ``m`` rows of one kind
for ``k = 1..m``, then all ``m`` of the other:

* capacity: ``sum_{j<=k} x_j + sum_j y(k)_j <= n``
* prefix competitiveness: ``sum_{j<=k} f_j x_j >= gamma * Opt(prefix_k)``

then the consistency link ``sum_j f_j x_j - beta * Opt(advice) >= 0`` and,
for each ``(k, i)``, continuation competitiveness
``sum_{j<=k} f_j x_j + sum_{j<=i} f_j y(k)_j >= gamma * Opt(prefix_k + block_i)``.

Fares are rescaled so the top fare is 1 before rows are built; the
variables (counts and ``beta``) are scale-invariant so no unscaling is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core
from .simplex import SimplexResult, solve_simplex


@dataclass
class LPModel:
    objective: np.ndarray
    rows: np.ndarray
    senses: list[str]
    rhs: np.ndarray
    upper: np.ndarray
    labels: list[str]
    m: int
    gamma: float
    capacity: int
    advice_opt_scaled: float  # advice revenue under the rescaled fares
    scaled_fares: tuple[float, ...] = ()


@dataclass
class LPSolution:
    status: str
    beta_star: float
    x: np.ndarray  # (m,) phase-1 acceptances per class
    y: np.ndarray  # (m, m): y[k-1, j-1] fallback acceptances
    gamma: float
    m: int
    max_violation: float = np.nan


def build_pareto_lp(ladder: core.FareLadder, advice: core.Advice, gamma: float) -> LPModel:
    """Assemble the LP for one (ladder, advice, gamma) triple."""
    if gamma < 0.0 or gamma > core.bq_bound(ladder) + 1e-12:
        raise ValueError("gamma must lie in [0, bq_bound(ladder)]")
    m = ladder.m
    n = ladder.capacity
    scale = ladder.fares[-1]
    sf = tuple(f / scale for f in ladder.fares)
    scaled = core.FareLadder(fares=sf, capacity=n)
    opt_advice = core.advice_opt(scaled, advice)

    prefix, blocks = core.hard_counts(scaled, advice)
    opt_prefix = core.count_opt(scaled, prefix)
    opt_continued = core.count_opt(scaled, prefix[:, None] + blocks[None])

    # Columns: beta, x, then y(k) row-major.  Row k-1 of ``lower`` marks
    # classes 1..k, and of ``revenue`` holds their scaled fares.
    lower = np.tri(m)
    revenue = lower * np.asarray(sf)
    fallback = np.zeros((m, m, m, m))  # continuation row (k, i), column y(k)_j
    fallback[np.arange(m), :, np.arange(m), :] = revenue
    rows = np.vstack([
        np.hstack([np.zeros((m, 1)), lower, np.repeat(np.eye(m), m, axis=1)]),
        np.hstack([np.zeros((m, 1)), revenue, np.zeros((m, m * m))]),
        np.concatenate([[-opt_advice], sf, np.zeros(m * m)]),
        np.hstack([
            np.zeros((m * m, 1)), np.repeat(revenue, m, axis=0), fallback.reshape(m * m, m * m)
        ]),
    ])
    rhs = np.concatenate([
        np.full(m, float(n)), gamma * opt_prefix, [0.0], gamma * opt_continued.ravel()
    ])

    nvars = 1 + m + m * m
    upper = np.full(nvars, np.inf)
    upper[0] = 1.0
    upper[1 : 1 + m] = advice.cap_counts

    objective = np.zeros(nvars)
    objective[0] = 1.0

    labels = ["beta"] + [f"x_{j}" for j in range(1, m + 1)] + [
        f"y_{k}_{j}" for k in range(1, m + 1) for j in range(1, m + 1)
    ]
    return LPModel(
        objective=objective,
        rows=rows,
        senses=["<="] * m + [">="] * (m + 1 + m * m),
        rhs=rhs,
        upper=upper,
        labels=labels,
        m=m,
        gamma=gamma,
        capacity=n,
        advice_opt_scaled=opt_advice,
        scaled_fares=sf,
    )


def check_point(model: LPModel, point: np.ndarray) -> float:
    """Largest normalized constraint violation of a candidate point.

    Independent of the solver: evaluates every row and bound of the model
    directly.  Each row's violation is divided by its largest coefficient
    magnitude (including the rhs).  A NaN anywhere makes the result NaN.
    """
    point = np.asarray(point, dtype=float)
    lhs = model.rows @ point
    ge = np.array([s == ">=" for s in model.senses], dtype=bool)
    violation = np.where(ge, model.rhs - lhs, lhs - model.rhs)
    norm = np.maximum(np.abs(model.rows).max(axis=1), np.abs(model.rhs))
    bounded = np.isfinite(model.upper)
    u = model.upper[bounded]
    worst = np.max(np.concatenate([
        violation / np.maximum(norm, 1e-300),
        -point,
        (point[bounded] - u) / np.maximum(np.abs(u), 1.0),
    ]))
    return 0.0 if worst <= 0.0 else float(worst)


def solve_beta(model: LPModel) -> SimplexResult:
    """Maximize beta: the first solve of ``solve_lp``, without its tie-break."""
    return solve_simplex(
        model.objective, model.rows, model.senses, model.rhs,
        upper=model.upper, maximize=True,
    )


def solve_lp(model: LPModel) -> LPSolution:
    """Maximize beta, then break ties toward the most robust optimum.

    The model is usually degenerate: many (x, y) pairs attain the best
    beta, and some leave fallback capacity unsold.  A second solve fixes
    beta at its optimum (within 1e-9) and maximizes the revenue-weighted
    fallback mass, so the policy derived from the solution keeps selling
    after a switch whenever the constraints allow it.
    """
    result = solve_beta(model)
    m = model.m
    if result.status != "optimal":
        return LPSolution(
            status=result.status,
            beta_star=np.nan,
            x=np.full(m, np.nan),
            y=np.full((m, m), np.nan),
            gamma=model.gamma,
            m=m,
        )
    beta_star = float(result.x[0])
    point = result.x

    nvars = model.rows.shape[1]
    secondary = np.zeros(nvars)
    secondary[1 + m :] = np.tile(model.scaled_fares, m)
    floor_row = np.zeros(nvars)
    floor_row[0] = 1.0
    refined = solve_simplex(
        secondary,
        np.vstack([model.rows, floor_row]),
        list(model.senses) + [">="],
        np.append(model.rhs, beta_star - 1e-9),
        upper=model.upper,
        maximize=True,
    )
    if refined.status == "optimal":
        point = refined.x

    return LPSolution(
        status="optimal",
        beta_star=beta_star,
        x=point[1 : 1 + m].copy(),
        y=point[1 + m :].reshape(m, m).copy(),
        gamma=model.gamma,
        m=m,
        max_violation=check_point(model, point),
    )


def optimal_consistency(
    ladder: core.FareLadder, advice: core.Advice, gamma: float
) -> LPSolution:
    """Build and solve the LP in one call."""
    return solve_lp(build_pareto_lp(ladder, advice, gamma))


def dump_model(model: LPModel) -> str:
    """Plain-text dump: objective then one row per line with sense, rhs,
    and sparse ``label:coefficient`` pairs."""
    lines = [
        "maximize "
        + " ".join(
            f"{model.labels[j]}:{model.objective[j]:.17g}"
            for j in range(len(model.labels))
            if model.objective[j] != 0.0
        )
    ]
    for row, sense, b in zip(model.rows, model.senses, model.rhs):
        pairs = " ".join(
            f"{model.labels[j]}:{row[j]:.17g}" for j in np.nonzero(row)[0]
        )
        lines.append(f"{sense} {b:.17g} {pairs}")
    for j, u in enumerate(model.upper):
        if np.isfinite(u):
            lines.append(f"<= {u:.17g} {model.labels[j]}:1")
    return "\n".join(lines) + "\n"
