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

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .simplex import SimplexResult, SolverError, solve_simplex


@dataclass
class LPModel:
    objective: np.ndarray
    rows: np.ndarray
    senses: list[str]
    rhs: np.ndarray  # (rows,), or (rows, lanes) for an array of gammas
    upper: np.ndarray
    labels: list[str]
    m: int
    gamma: float  # or the array of the lanes' gammas
    capacity: int
    advice_opt_scaled: float  # advice revenue under the rescaled fares
    scaled_fares: tuple[float, ...] = ()
    family_opt: np.ndarray | None = None  # Opt(prefix_k), then Opt(prefix_k + block_i)


@dataclass
class LPSolution:
    status: str
    beta_star: float
    x: np.ndarray  # (m,) phase-1 acceptances per class
    y: np.ndarray  # (m, m): y[k-1, j-1] fallback acceptances
    gamma: float
    m: int
    max_violation: float = np.nan


def build_pareto_lp(ladder: core.FareLadder, advice: core.Advice, gamma) -> LPModel:
    """Assemble the LP for one (ladder, advice, gamma) triple.  Only the rhs
    depends on gamma: given an array of gammas (lanes), the rest is built
    once and the rhs holds one column per lane."""
    core.check_gamma(ladder, gamma)
    model = _gamma_free_part(ladder, advice)
    m, opt, n, lanes = model.m, model.family_opt, float(model.capacity), np.shape(gamma)
    model.rhs = np.concatenate([
        np.full((m, *lanes), n), np.multiply.outer(opt[:m], gamma),
        np.zeros((1, *lanes)), np.multiply.outer(opt[m:], gamma),
    ])
    model.gamma = np.asarray(gamma, dtype=float) if lanes else gamma
    return model


def _gamma_free_part(ladder: core.FareLadder, advice: core.Advice) -> LPModel:
    m, n, scale = ladder.m, ladder.capacity, ladder.fares[-1]
    sf = tuple(f / scale for f in ladder.fares)
    scaled = core.FareLadder(fares=sf, capacity=n)
    opt_advice = core.advice_opt(scaled, advice)

    prefix, blocks = core.hard_counts(scaled, advice)
    opt_prefix = core.count_opt(scaled, prefix)
    opt_continued = core.count_opt(scaled, prefix[:, None] + blocks[None])

    # Columns: beta, x, then y(k) row-major.  Row k-1 of ``lower`` marks
    # classes 1..k, and of ``revenue`` holds their scaled fares.
    nvars, cls = 1 + m + m * m, np.arange(m)
    lower = np.tri(m)
    revenue = lower * np.asarray(sf)
    rows = np.zeros((2 * m + 1 + m * m, nvars))
    rows[:m, 1 : 1 + m] = lower
    rows[:m, 1 + m :].reshape(m, m, m)[cls, cls] = 1.0  # capacity row k: all of y(k)
    rows[m : 2 * m, 1 : 1 + m] = revenue
    rows[2 * m, 0], rows[2 * m, 1 : 1 + m] = -opt_advice, sf
    continued = rows[2 * m + 1 :].reshape(m, m, nvars)  # continuation row (k, i)
    continued[..., 1 : 1 + m] = revenue[:, None]
    continued[..., 1 + m :].reshape(m, m, m, m)[cls, :, cls] = revenue  # its y(k) columns

    upper = np.concatenate([[1.0], advice.cap_counts, np.full(m * m, np.inf)])
    objective = np.eye(1, nvars)[0]  # maximize beta

    labels = ["beta"] + [f"x_{j}" for j in range(1, m + 1)] + [
        f"y_{k}_{j}" for k in range(1, m + 1) for j in range(1, m + 1)
    ]
    return LPModel(  # gamma and the rhs are set by ``build_pareto_lp``
        objective=objective, rows=rows, senses=["<="] * m + [">="] * (m + 1 + m * m), rhs=None,
        upper=upper, labels=labels, m=m, gamma=math.nan, capacity=n, advice_opt_scaled=opt_advice,
        scaled_fares=sf, family_opt=np.concatenate([opt_prefix, opt_continued.ravel()]),
    )


def check_point(model: LPModel, point: np.ndarray):
    """Largest normalized constraint violation of a candidate point.

    Independent of the solver: evaluates every row and bound of the model
    directly, for a lane model on its points stacked on the last axis (one
    ``rows @ point`` product).  Each row's violation is divided by its
    largest coefficient magnitude (including the rhs).  A NaN anywhere
    makes the result NaN.
    """
    point = np.asarray(point, dtype=float)
    col = (slice(None),) + (None,) * (point.ndim - 1)  # a row's value, for every lane
    lhs = model.rows @ point
    ge = np.array([s == ">=" for s in model.senses], dtype=bool)[col]
    violation = np.where(ge, model.rhs - lhs, lhs - model.rhs)
    norm = np.maximum(np.abs(model.rows).max(axis=1)[col], np.abs(model.rhs))
    bounded = np.isfinite(model.upper)
    u = model.upper[bounded][col]
    worst = np.max(np.concatenate([
        violation / np.maximum(norm, 1e-300),
        -point,
        (point[bounded] - u) / np.maximum(np.abs(u), 1.0),
    ]), axis=0)
    if point.ndim > 1:
        return np.where(worst <= 0.0, 0.0, worst)
    return 0.0 if worst <= 0.0 else float(worst)


def verify(model: LPModel, status: str, point):
    """Gate a point returned for the model: raise ``SolverError`` unless
    the solve was optimal and ``check_point`` finds the point violating no
    row or bound by more than 1e-9 (a NaN fails), naming a lane model's
    first failing gamma.  Returns the violation."""
    if status != "optimal":
        raise SolverError(f"LP not optimal at gamma={model.gamma}: {status}")
    violation = check_point(model, point)
    for gamma, v in zip(np.ravel(model.gamma).tolist(), np.ravel(violation).tolist()):
        if not v <= 1e-9:
            raise SolverError(f"LP point at gamma={gamma} violates the model by {v}")
    return violation


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
    after a switch whenever the constraints allow it.  The first solve's
    point must pass ``verify``, else ``SolverError`` is raised; a tie-break
    solve that fails, or whose point fails ``verify``, gives way to the
    first solve's point.
    """
    result = solve_beta(model)
    violation = verify(model, result.status, result.x)
    m = model.m
    beta_star = float(result.x[0])
    point = result.x
    secondary = np.concatenate([np.zeros(1 + m), np.tile(model.scaled_fares, m)])
    floor_row = np.eye(1, model.rows.shape[1])[0]  # beta
    try:
        refined = solve_simplex(
            secondary,
            np.vstack([model.rows, floor_row]),
            list(model.senses) + [">="],
            np.append(model.rhs, beta_star - 1e-9),
            upper=model.upper,
            maximize=True,
        )
        violation, point = verify(model, refined.status, refined.x), refined.x
    except SolverError:
        pass
    x, y = point[1 : 1 + m].copy(), point[1 + m :].reshape(m, m).copy()
    return LPSolution("optimal", beta_star, x, y, model.gamma, m, violation)


def water_fill_plan(ladder: core.FareLadder, advice: core.Advice, gamma):
    """The LP's best beta and a plan attaining it, without a simplex: the
    largest beta in [c(F), 1] that the water-fill pass passes, the pass's x,
    and the least fallback y(k) for it, with the seats left unsold at class
    m.  ``core.largest_feasible`` finds the last passing double from the
    pass's predicted roots; beta is then pulled back from it to the
    slack-free root of its binding check where that lies on its piece.
    The point must pass ``verify``; a pass failing at c(F) raises
    ``SolverError``.  An array of gammas (lanes) gives a list of one
    solution per lane: the model is built once, each lane searched as a
    lone gamma is, and the plans finished and gated together."""
    model = build_pareto_lp(ladder, advice, gamma)
    # The upper end is never tried: one double above 1 lets beta reach 1.
    lo, hi, found = core.bq_bound(ladder), math.nextafter(1.0, 2.0), []
    for g, lane in zip(np.ravel(model.gamma).tolist(), _lanes(model)):
        _, plan = core.largest_feasible(_water_fill(lane), lo, hi)
        if plan is None:
            raise SolverError(f"water-fill pass infeasible at gamma={g} and beta=c(F)")
        found.append(plan)
    m, f, count = model.m, np.array(model.scaled_fares), len(found)
    x, beta = np.array([p[0] for p in found]).reshape(count, m), [p[1] for p in found]
    paid = np.cumsum(f * x, axis=1)[..., None]  # P_k, summed as in the pass
    steps = np.zeros((count, m, m + 1))  # row k-1: S_0 = 0, then S_1..S_m of a trigger at k
    targets = np.reshape(model.rhs.T[..., 2 * m + 1 :], (count, m, m))
    steps[..., 1:] = np.maximum(0.0, targets - paid)
    y = np.diff(steps) / f
    y[..., -1] += np.maximum(0.0, model.capacity - np.cumsum(x, axis=1) - y.sum(axis=2))
    point = np.concatenate([[beta], x.T, y.reshape(count, m * m).T])  # a column per lane
    if model.rhs.ndim == 1:  # one gamma
        violation = verify(model, "optimal", point[:, 0])
        return LPSolution("optimal", beta[0], x[0], y[0], gamma, m, violation)
    violation = np.broadcast_to(verify(model, "optimal", point), count)
    return [LPSolution("optimal", *fields, m, v)
            for *fields, v in zip(beta, x, y, model.gamma.tolist(), violation)]


def _lanes(model: LPModel) -> list:
    """Each lane's inputs to ``_water_fill``, from one ``tolist`` of the rhs."""
    m, n, f = model.m, float(model.capacity), model.scaled_fares
    opt_advice = model.advice_opt_scaled
    caps = model.upper[1 : 1 + m].tolist()
    tails = [sum(c * fj for c, fj in zip(caps[k + 1 :], f[k + 1 :])) for k in range(m)]
    weights = [1.0 / a - 1.0 / b for a, b in zip(f, f[1:])] + [1.0 / f[-1]]
    lanes = []
    for rhs in np.reshape(model.rhs.T, (-1, len(model.rhs))).tolist():
        floors, targets = rhs[m : 2 * m], rhs[2 * m + 1 :]
        # beta at which the consistency term overtakes gamma Opt(prefix_k)
        bends = [(floor + tail) / opt_advice for floor, tail in zip(floors, tails)]
        fallback = [list(zip(weights, targets[k * m : k * m + m])) for k in range(m)]
        lanes.append((n, opt_advice, list(zip(f, caps, floors, tails, fallback, bends))))
    return lanes


def _water_fill(lane):
    """The paper's water-filling at one lane's gamma (``lane`` is one of
    ``_lanes``), as a trial of beta for ``core.largest_feasible``.

    Classes fill in increasing order on top of the revenue P_{k-1} below:
    x_k is the least amount reaching gamma Opt(prefix_k) and, with the
    advised revenue T_k the classes above can still add, beta Opt(A).  A
    trigger at k needs fallback revenue S_j = (gamma C_kj - P_k)^+ by
    class j, C_kj = Opt(prefix_k + block_j); booking each step of S at its
    own fare, y(k)_j = (S_j - S_{j-1}) / f_j, takes the fewest seats, sum_j
    w_j S_j with w_j = 1/f_j - 1/f_{j+1} > 0 (summation by parts).  Beta
    fails if x_k overflows its cap or a trigger row its n seats, with a
    slack of 1e-12 n (relative to n: a rounding error on a zero cap is no
    failure).  The lemma's induction shows that no feasible plan holds less
    revenue than the pass below any class.  That the least fill also leaves
    the most fallback room is not proved; the LP oracle tests (beta against
    the simplex, feasibility monotone in beta) are the evidence.

    Every quantity above is piecewise linear in beta.  The pass carries
    each running value's slope on beta's piece (the ``d`` names) beside the
    value, whose arithmetic it leaves as it is, and the piece's lower end
    ``low``: the nearest beta below at which a max, a clamp or a fallback
    term switches.  A failing beta returns ``(None, root)``, the root of
    the check that failed on its piece; a passing one ``((x, settle),
    root)``, with ``root`` where its first check reaches its limit and
    ``settle`` the slack-free root of that binding check, or beta itself
    where that root lies above beta or below the check's piece (on another
    piece the line says nothing, and a near-flat one can throw it far).  A
    root short of the piece by rounding alone settles at the piece's end.
    """
    n, opt_advice, classes = lane
    slack = 1e-12 * n
    inf = math.inf

    def fill(beta):
        goal = beta * opt_advice
        x, paid, seats = [], 0.0, 0.0
        dpaid = dseats = 0.0
        low = -inf
        ahead, drop, drop_low = inf, 0.0, -inf  # the binding check so far
        for fk, cap, floor, tail, fallback, bend in classes:
            need = max(floor, goal - tail) - paid
            dneed = -dpaid
            if goal - tail > floor:
                dneed += opt_advice
                low = max(low, bend)
            if need > 0.0:
                xk = need / fk
                dx = dneed / fk
                if dx > 0.0:
                    low = max(low, beta - xk / dx)
            else:
                xk = dx = 0.0
            if xk > cap + slack:
                return None, beta - (xk - cap - slack) / dx if dx > 0.0 else -inf
            if dx > 0.0 and (cap + slack - xk) / dx < ahead:
                ahead, drop, drop_low = (cap + slack - xk) / dx, (cap - xk) / dx, low
            if xk > cap:  # within the slack: x_k stays at its cap
                if dx > 0.0:
                    low = max(low, beta - (xk - cap) / dx)
                dx = 0.0
            x.append(min(xk, cap))
            paid += fk * x[-1]
            seats += x[-1]
            dpaid += fk * dx
            dseats += dx
            used = seats  # with the least fallback after a trigger at k
            weight, below = 0.0, -inf  # active weight; the largest inactive target
            for w, t in fallback:
                if t > paid:
                    used += w * (t - paid)
                    weight += w
                elif t > below:
                    below = t
            dused = dseats - weight * dpaid
            if dpaid > 0.0 and below > -inf:
                low = max(low, beta - (paid - below) / dpaid)
            if used > n + slack:
                return None, beta - (used - n - slack) / dused if dused > 0.0 else -inf
            if dused > 0.0 and (n + slack - used) / dused < ahead:
                ahead, drop, drop_low = (n + slack - used) / dused, (n - used) / dused, low
        settle = beta
        if drop < 0.0:  # beta passes on the slack alone: pull it back
            if beta + drop >= drop_low:
                settle = beta + drop
            elif drop_low - beta - drop <= -1e-3 * drop:
                # Short of the piece by rounding (the checks are off by
                # about 1e-16 n, the slack is 1e-12 n): the root is its end.
                settle = min(drop_low, beta)
        return (x, settle), beta + ahead

    return fill


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
