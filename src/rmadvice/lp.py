"""Consistency/competitiveness LP for seat allocation with advice.

For a fare ladder, an advice vector, and a target competitive ratio
``gamma``, the LP maximizes the consistency ``beta`` (fraction of the
advice's revenue secured when the advice is realized) subject to remaining
``gamma``-competitive on every instance of the hard family (``hard_family``).

Variables, in fixed order: ``beta``, per-class phase-1 acceptances
``x_1..x_m``, and per-trigger-block fallback acceptances ``y(k)_j`` for
``k, j = 1..m``.  With ``P_k = sum_{j<=k} f_j x_j``, the row families, in
the dense LP's order (``k``, then ``i``, from 1 to ``m``):

* capacity: ``sum_{j<=k} x_j + sum_j y(k)_j <= n``;
* prefix: ``P_k >= gamma Opt(prefix_k)``;
* consistency: ``P_m >= beta Opt(A)``;
* continuation: ``P_k + sum_{j<=i} f_j y(k)_j >= gamma Opt(prefix_k + block_i)``;

with the bounds ``beta <= 1``, ``x_j <= cap_j`` and every variable ``>= 0``.
Fares are rescaled so the top fare is 1; the variables (counts and
``beta``) are scale-invariant, so no unscaling is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .simplex import SimplexResult, SolverError, reoptimize, solve_simplex


@dataclass
class HardFamily:
    """The LP's data (rescaled fares): its rows and its gate use no other."""

    fares: np.ndarray  # (m,) scaled fares f_j
    capacity: float  # n
    caps: np.ndarray  # (m,) acceptance caps: x_j <= caps[j-1]
    advice_opt: float  # Opt(A), the advice's revenue
    prefix_opt: np.ndarray  # (m,): Opt(prefix_k)
    continued_opt: np.ndarray  # (m, m): [k-1, i-1] is Opt(prefix_k + block_i)


@dataclass
class LPModel:
    objective: np.ndarray
    rows: np.ndarray
    senses: list[str]
    rhs: np.ndarray
    upper: np.ndarray
    labels: list[str]
    gamma: float
    family: HardFamily


@dataclass
class LPSolution:
    status: str
    beta_star: float
    x: np.ndarray  # (m,) phase-1 acceptances per class
    y: np.ndarray  # (m, m): y[k-1, j-1] fallback acceptances
    max_violation: float = np.nan


def hard_family(ladder: core.FareLadder, advice: core.Advice) -> HardFamily:
    """``core.hard_counts`` and ``count_opt`` on the rescaled fares, with
    the caps and the advice's revenue."""
    scale = ladder.fares[-1]
    scaled = core.FareLadder(fares=tuple(f / scale for f in ladder.fares), capacity=ladder.capacity)
    prefix, blocks = core.hard_counts(scaled, advice)
    return HardFamily(
        fares=np.array(scaled.fares), capacity=float(ladder.capacity),
        caps=np.array(advice.cap_counts, dtype=float), advice_opt=core.advice_opt(scaled, advice),
        prefix_opt=core.count_opt(scaled, prefix),
        continued_opt=core.count_opt(scaled, prefix[:, None] + blocks[None]),
    )


def build_pareto_lp(ladder: core.FareLadder, advice: core.Advice, gamma: float) -> LPModel:
    """Assemble the dense LP for one (ladder, advice, gamma) triple from its
    hard family: the rows the simplex of ``solve_lp`` pivots on."""
    core.check_gamma(ladder, gamma)
    family = hard_family(ladder, advice)
    m, f = len(family.fares), family.fares
    # Columns: beta, x, then y(k) row-major.  Row k-1 of ``lower`` marks
    # classes 1..k, and of ``revenue`` holds their scaled fares.
    nvars, cls = 1 + m + m * m, np.arange(m)
    lower = np.tri(m)
    revenue = lower * f
    rows = np.zeros((2 * m + 1 + m * m, nvars))
    rows[:m, 1 : 1 + m] = lower
    rows[:m, 1 + m :].reshape(m, m, m)[cls, cls] = 1.0  # capacity row k: all of y(k)
    rows[m : 2 * m, 1 : 1 + m] = revenue
    rows[2 * m, 0], rows[2 * m, 1 : 1 + m] = -family.advice_opt, f
    continued = rows[2 * m + 1 :].reshape(m, m, nvars)  # continuation row (k, i)
    continued[..., 1 : 1 + m] = revenue[:, None]
    continued[..., 1 + m :].reshape(m, m, m, m)[cls, :, cls] = revenue  # its y(k) columns
    rhs = np.concatenate([np.full(m, family.capacity), gamma * family.prefix_opt, [0.0],
                          gamma * family.continued_opt.ravel()])
    labels = ["beta"] + [f"x_{j}" for j in range(1, m + 1)] + [
        f"y_{k}_{j}" for k in range(1, m + 1) for j in range(1, m + 1)]
    return LPModel(
        objective=np.eye(1, nvars)[0], rows=rows, senses=["<="] * m + [">="] * (m + 1 + m * m),
        rhs=rhs, upper=np.concatenate([[1.0], family.caps, np.full(m * m, np.inf)]),
        labels=labels, gamma=gamma, family=family,
    )


def check_point(family: HardFamily, gamma, point):
    """Largest normalized violation of a candidate point of the LP at
    ``gamma``: each row family and bound of the module's list checked from
    its definition, independent of the solver and of the dense rows.  Each
    row's violation is divided by its largest coefficient or rhs magnitude.
    Points are in the LP's column order, with lanes on leading axes and
    ``gamma`` one per lane; the result is an array over the lanes (0-d for
    one point).  A NaN anywhere makes the result NaN.
    """
    point = np.asarray(point, dtype=float)
    f, n, m, lead = family.fares, family.capacity, len(family.fares), point.shape[:-1]
    g = np.asarray(gamma, dtype=float)[..., None]
    beta, x, y = point[..., :1], point[..., 1 : 1 + m], point[..., 1 + m :].reshape(*lead, m, m)
    paid = np.cumsum(f * x, axis=-1)
    floors, targets = g * family.prefix_opt, g[..., None] * family.continued_opt
    continued = targets - paid[..., None] - np.cumsum(f * y, axis=-1)
    worst = np.concatenate([
        (np.cumsum(x, axis=-1) + y.sum(axis=-1) - n) / n,
        (floors - paid) / np.maximum(f, floors),
        (beta * family.advice_opt - paid[..., -1:]) / max(family.advice_opt, f[-1]),
        (continued / np.maximum(np.maximum.outer(f, f), targets)).reshape(*lead, m * m),
        beta - 1.0, (x - family.caps) / np.maximum(family.caps, 1.0), -point,
    ], axis=-1).max(axis=-1)
    return np.where(worst <= 0.0, 0.0, worst)


def verify(family: HardFamily, gamma, status: str, point):
    """Gate a point returned for the LP at ``gamma``: raise ``SolverError``
    unless the solve was optimal and ``check_point`` finds the point
    violating no row or bound by more than 1e-9 (a NaN fails), naming the
    first failing lane's gamma.  Returns the violation."""
    if status != "optimal":
        raise SolverError(f"LP not optimal at gamma={gamma}: {status}")
    violation = check_point(family, gamma, point)
    for g, v in zip(np.ravel(gamma).tolist(), np.ravel(violation).tolist()):
        if not v <= 1e-9:
            raise SolverError(f"LP point at gamma={g} violates the model by {v}")
    return violation


def solve_beta(model: LPModel) -> SimplexResult:
    """Maximize beta: the first solve of ``solve_lp``, without its tie-break."""
    return solve_simplex(model.objective, model.rows, model.senses, model.rhs, upper=model.upper)


def solve_lp(model: LPModel) -> LPSolution:
    """Maximize beta, then break ties toward the most robust optimum.

    The model is usually degenerate: many (x, y) pairs attain the best
    beta, and some leave fallback capacity unsold.  The tie-break adds the
    row beta >= beta* - 1e-9 and maximizes the revenue-weighted fallback
    mass, so the policy derived from the solution keeps selling after a
    switch whenever the constraints allow it: one phase 2 (``reoptimize``)
    from the first solve's final tableau.  The first solve's point must
    pass ``verify``, else ``SolverError`` is raised; a tie-break that
    fails, or whose point fails ``verify``, gives way to the first point.
    """
    family, gamma, m = model.family, model.gamma, len(model.family.fares)
    first = solve_beta(model)
    violation = verify(family, gamma, first.status, first.x)
    beta_star, point = float(first.x[0]), first.x
    secondary = np.concatenate([np.zeros(1 + m), np.tile(family.fares, m)])
    try:
        refined = reoptimize(first, secondary, beta_star - 1e-9)
        violation, point = verify(family, gamma, refined.status, refined.x), refined.x
    except SolverError:
        pass
    x, y = point[1 : 1 + m].copy(), point[1 + m :].reshape(m, m).copy()
    return LPSolution("optimal", beta_star, x, y, float(violation))


def water_fill_plan(ladder: core.FareLadder, advice: core.Advice, gamma):
    """The LP's best beta and a plan attaining it, without a simplex: the
    largest beta in [c(F), 1] that the water-fill pass passes, the pass's x,
    and the least fallback y(k) for it, with the seats left unsold at class
    m.  ``core.largest_feasible`` finds the last passing double from the
    pass's predicted roots; beta is then pulled back from it to the
    slack-free root of its binding check where that lies on its piece.
    Everything is read off the hard family; the point must pass ``verify``,
    and a pass failing at c(F) raises ``SolverError``.  An array of gammas
    (lanes) gives a list of one solution per lane: the family is built
    once, each lane searched as a lone gamma is, and the plans finished and
    gated together; a lone gamma is one lane, unwrapped at the return."""
    core.check_gamma(ladder, gamma)
    family = hard_family(ladder, advice)
    gammas = np.ravel(np.asarray(gamma, dtype=float))
    # The upper end is never tried: one double above 1 lets beta reach 1.
    lo, hi, found = core.bq_bound(ladder), math.nextafter(1.0, 2.0), []
    for g, lane in zip(gammas.tolist(), _lanes(family, gammas)):
        _, plan = core.largest_feasible(_water_fill(lane), lo, hi)
        if plan is None:
            raise SolverError(f"water-fill pass infeasible at gamma={g} and beta=c(F)")
        found.append(plan)
    m, f, count = len(family.fares), family.fares, len(found)
    x, beta = np.array([p[0] for p in found]).reshape(count, m), [p[1] for p in found]
    paid = np.cumsum(f * x, axis=1)[..., None]  # P_k, summed as in the pass
    steps = np.zeros((count, m, m + 1))  # row k-1: S_0 = 0, then S_1..S_m of a trigger at k
    steps[..., 1:] = np.maximum(0.0, np.multiply.outer(gammas, family.continued_opt) - paid)
    y = np.diff(steps) / f
    y[..., -1] += np.maximum(0.0, family.capacity - np.cumsum(x, axis=1) - y.sum(axis=2))
    point = np.concatenate([np.reshape(beta, (count, 1)), x, y.reshape(count, m * m)], axis=1)
    violation = verify(family, gammas, "optimal", point)
    plans = [LPSolution("optimal", *fields) for fields in zip(beta, x, y, violation.tolist())]
    return plans[0] if np.ndim(gamma) == 0 else plans


def _lanes(family: HardFamily, gammas) -> list:
    """Each lane's inputs to ``_water_fill``, one lane per gamma, from one
    ``tolist`` of the lanes' floors and targets."""
    f, caps = family.fares.tolist(), family.caps.tolist()
    n, opt_advice, m = family.capacity, family.advice_opt, len(f)
    tails = [sum(c * fj for c, fj in zip(caps[k + 1 :], f[k + 1 :])) for k in range(m)]
    weights = [1.0 / a - 1.0 / b for a, b in zip(f, f[1:])] + [1.0 / f[-1]]
    lanes = []
    for floors, targets in zip(np.multiply.outer(gammas, family.prefix_opt).tolist(),
                               np.multiply.outer(gammas, family.continued_opt).tolist()):
        # beta at which the consistency term overtakes gamma Opt(prefix_k)
        bends = [(floor + tail) / opt_advice for floor, tail in zip(floors, tails)]
        fallback = [list(zip(weights, row)) for row in targets]
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
    def pairs(row):
        return " ".join(f"{model.labels[j]}:{row[j]:.17g}" for j in np.nonzero(row)[0])

    lines = [f"maximize {pairs(model.objective)}"]
    for row, sense, b in zip(model.rows, model.senses, model.rhs):
        lines.append(f"{sense} {b:.17g} {pairs(row)}")
    for j, u in enumerate(model.upper):
        if np.isfinite(u):
            lines.append(f"<= {u:.17g} {model.labels[j]}:1")
    return "\n".join(lines) + "\n"
