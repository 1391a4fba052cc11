"""Consistency/competitiveness LP for seat allocation with advice.

For a fare ladder, an advice vector, and a target competitive ratio
``gamma``, the LP maximizes the consistency ``beta`` (fraction of the
advice's revenue secured when the advice is realized) subject to remaining
``gamma``-competitive on every instance of the adversarial family.

Variables, in fixed order: ``beta``, per-class phase-1 acceptances
``x_1..x_m``, and per-trigger-block fallback acceptances ``y(k)_j`` for
``k, j = 1..m``.  Rows, in fixed order for each ``k = 1..m``:

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
from .simplex import solve_simplex


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


def _var_index(m: int, kind: str, k: int = 0, j: int = 0) -> int:
    """Column of a variable: beta, then x_j, then y(k)_j row-major."""
    if kind == "beta":
        return 0
    if kind == "x":
        return j  # j is 1-based
    return 1 + m + (k - 1) * m + (j - 1)


def build_pareto_lp(ladder: core.FareLadder, advice: core.Advice, gamma: float) -> LPModel:
    """Assemble the LP for one (ladder, advice, gamma) triple."""
    if gamma < 0.0 or gamma > core.bq_bound(ladder) + 1e-12:
        raise ValueError("gamma must lie in [0, bq_bound(ladder)]")
    m = ladder.m
    n = ladder.capacity
    scale = ladder.fares[-1]
    sf = tuple(f / scale for f in ladder.fares)
    scaled = core.FareLadder(fares=sf, capacity=n)
    caps = advice.cap_counts
    opt_advice = core.advice_opt(scaled, advice)

    prefix, blocks = core.hard_counts(scaled, advice)
    opt_prefix = core.count_opt(scaled, prefix)
    opt_continued = core.count_opt(scaled, prefix[:, None] + blocks[None])

    nvars = 1 + m + m * m
    rows: list[np.ndarray] = []
    senses: list[str] = []
    rhs: list[float] = []

    for k in range(1, m + 1):
        row = np.zeros(nvars)
        for j in range(1, k + 1):
            row[_var_index(m, "x", j=j)] = 1.0
        for j in range(1, m + 1):
            row[_var_index(m, "y", k=k, j=j)] = 1.0
        rows.append(row)
        senses.append("<=")
        rhs.append(float(n))

    for k in range(1, m + 1):
        row = np.zeros(nvars)
        for j in range(1, k + 1):
            row[_var_index(m, "x", j=j)] = sf[j - 1]
        rows.append(row)
        senses.append(">=")
        rhs.append(gamma * opt_prefix[k - 1])

    link = np.zeros(nvars)
    for j in range(1, m + 1):
        link[_var_index(m, "x", j=j)] = sf[j - 1]
    link[_var_index(m, "beta")] = -opt_advice
    rows.append(link)
    senses.append(">=")
    rhs.append(0.0)

    for k in range(1, m + 1):
        for i in range(1, m + 1):
            row = np.zeros(nvars)
            for j in range(1, k + 1):
                row[_var_index(m, "x", j=j)] = sf[j - 1]
            for j in range(1, i + 1):
                row[_var_index(m, "y", k=k, j=j)] = sf[j - 1]
            rows.append(row)
            senses.append(">=")
            rhs.append(gamma * opt_continued[k - 1, i - 1])

    upper = np.full(nvars, np.inf)
    upper[0] = 1.0
    for j in range(1, m + 1):
        upper[_var_index(m, "x", j=j)] = float(caps[j - 1])

    objective = np.zeros(nvars)
    objective[0] = 1.0

    labels = ["beta"] + [f"x_{j}" for j in range(1, m + 1)] + [
        f"y_{k}_{j}" for k in range(1, m + 1) for j in range(1, m + 1)
    ]
    return LPModel(
        objective=objective,
        rows=np.array(rows),
        senses=senses,
        rhs=np.array(rhs),
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

    Independent of the solver: walks every row and bound directly.  Each
    row's violation is divided by its largest coefficient magnitude
    (including the rhs).
    """
    point = np.asarray(point, dtype=float)
    worst = 0.0
    for row, sense, b in zip(model.rows, model.senses, model.rhs):
        lhs = float(row @ point)
        violation = lhs - b if sense == "<=" else b - lhs
        norm = max(np.max(np.abs(row)), abs(b), 1e-300)
        worst = max(worst, violation / norm)
    for j, u in enumerate(model.upper):
        worst = max(worst, -point[j])
        if np.isfinite(u):
            worst = max(worst, (point[j] - u) / max(abs(u), 1.0))
    return worst


def solve_lp(model: LPModel) -> LPSolution:
    """Maximize beta, then break ties toward the most robust optimum.

    The model is usually degenerate: many (x, y) pairs attain the best
    beta, and some leave fallback capacity unsold.  A second solve fixes
    beta at its optimum (within 1e-9) and maximizes the revenue-weighted
    fallback mass, so the policy derived from the solution keeps selling
    after a switch whenever the constraints allow it.
    """
    result = solve_simplex(
        model.objective, model.rows, model.senses, model.rhs,
        upper=model.upper, maximize=True,
    )
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
