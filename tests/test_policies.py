"""Booking policies: protection levels, switching policy, relaxed variant."""

import argparse
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmadvice import cli, core, experiments, lp, policies
from rmadvice.policies import (
    ProtectionLevels,
    SwitchPlan,
    _eq_tol,
    _run_switch,
    _switch_runs,
    bq_levels,
    block_revenue,
    derive_switch_plan,
    fallback_search,
    run_lp_optimal,
    run_protection_policy,
    run_relaxed_optimal,
    switch_block_revenue,
)

from . import oracles
from .oracles import (
    advice_instance,
    hard_instances,
    reference_block_revenue,
    reference_protection_run,
    reference_switch_block_revenue,
    reference_switch_run,
    replay_protection,
    rounding_report,
    same_bits,
)


class TestProtectionPolicy:
    def test_basic_acceptance(self):
        # [DERIVED] limits (1, 3) on arrivals 1,1,2,2,2: one class-1 seat,
        # then class 2 fills to the top limit.
        lad = core.make_fare_ladder([1.0, 2.0], 3)
        levels = ProtectionLevels(levels=(1.0, 3.0))
        trace = run_protection_policy(lad, levels, core.make_instance(lad, [1, 1, 2, 2, 2]))
        assert list(trace.accepted) == [1.0, 0.0, 1.0, 1.0, 0.0]
        assert trace.revenue == pytest.approx(5.0)

    def test_fractional_levels(self):
        # [DERIVED] limit 1.5 on two class-1 arrivals: 1 then 0.5.
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        levels = ProtectionLevels(levels=(1.5, 2.0))
        trace = run_protection_policy(lad, levels, core.make_instance(lad, [1, 1, 1]))
        assert list(trace.accepted) == pytest.approx([1.0, 0.5, 0.0])

    def test_high_class_consumes_low_room(self):
        # accepting class 2 counts against every higher cumulative limit.
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        levels = ProtectionLevels(levels=(1.0, 2.0))
        trace = run_protection_policy(lad, levels, core.make_instance(lad, [2, 2, 1]))
        assert list(trace.accepted) == [1.0, 1.0, 0.0]

    def test_infeasible_levels_rejected(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            run_protection_policy(
                lad, ProtectionLevels(levels=(1.0, 3.0)), core.Instance(steps=())
            )
        with pytest.raises(ValueError):
            run_protection_policy(
                lad, ProtectionLevels(levels=(2.0, 1.0)), core.Instance(steps=())
            )
        for levels in [(2.0,), (1.0, 1.0, 2.0)]:  # one level per class
            with pytest.raises(ValueError, match="length"):
                run_protection_policy(lad, ProtectionLevels(levels=levels), core.Instance(steps=()))

    def test_nan_levels_rejected(self):
        # NaN passes any check written as "fail when below the bound"; at
        # capacity 10 such levels once booked all 20 class-1 arrivals.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        inst = core.make_instance(lad, [1] * 20)
        nan = math.nan
        for levels in [(nan, nan, nan), (nan, 5.0, 10.0), (0.0, nan, 10.0), (0.0, 5.0, nan)]:
            with pytest.raises(ValueError):
                run_protection_policy(lad, ProtectionLevels(levels=levels), inst)

    def test_matches_naive_replay_on_random_runs(self):
        rng = np.random.default_rng(5)
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 6)
        for _ in range(100):
            raw = np.sort(rng.uniform(0.0, 6.0, size=3))
            levels = ProtectionLevels(levels=tuple(raw))
            steps = tuple(rng.integers(1, 4, size=rng.integers(0, 20)))
            trace = run_protection_policy(lad, levels, core.Instance(steps=steps))
            ref_rev, ref_q = replay_protection(lad.fares, raw, steps)
            assert trace.revenue == pytest.approx(ref_rev, abs=1e-9)
            assert trace.q == pytest.approx(ref_q, abs=1e-9)

    def test_block_revenue_matches_executor(self):
        # the closed form used by the level optimizer equals a real run on
        # the same increasing block instance.
        rng = np.random.default_rng(17)
        lad = core.make_fare_ladder([1.0, 2.0, 4.0, 8.0], 10)
        for _ in range(100):
            raw = np.sort(rng.uniform(0.0, 10.0, size=4))
            counts = rng.integers(0, 11, size=4)
            steps = []
            for i, cnt in enumerate(counts, start=1):
                steps.extend([i] * int(cnt))
            trace = run_protection_policy(
                lad, ProtectionLevels(levels=tuple(raw)), core.Instance(steps=tuple(steps))
            )
            closed = block_revenue(lad.fares, raw, counts)
            assert closed == pytest.approx(trace.revenue, abs=1e-9)


class TestBqLevels:
    def test_three_fares(self):
        # [DERIVED] fares {1,2,4}, n=100 -> (50, 75, 100).
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        assert bq_levels(lad).levels == pytest.approx((50.0, 75.0, 100.0), abs=1e-9)

    def test_four_fares(self):
        # [DERIVED] fares {100,200,400,800}, n=100 -> (40, 60, 80, 100).
        lad = core.make_fare_ladder([100.0, 200.0, 400.0, 800.0], 100)
        assert bq_levels(lad).levels == pytest.approx((40.0, 60.0, 80.0, 100.0), abs=1e-9)

    def test_worst_case_guarantee_on_random_instances(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        levels = bq_levels(lad)
        bound = core.bq_bound(lad)
        rng = np.random.default_rng(23)
        for _ in range(300):
            steps = tuple(rng.integers(1, 4, size=rng.integers(1, 40)))
            inst = core.Instance(steps=steps)
            trace = run_protection_policy(lad, levels, inst)
            assert trace.revenue >= bound * core.opt_revenue(lad, inst) - 1e-9


class TestSwitchPlan:
    def test_base_is_prefix_sums(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        sol = lp.optimal_consistency(lad, adv, 2.0 / 3.0)
        plan = derive_switch_plan(sol)
        assert plan.base == pytest.approx(np.cumsum(sol.x))

    def test_fallback_freezes_base_at_k(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 6)
        adv = core.make_advice(lad, [0, 2, 4])
        sol = lp.optimal_consistency(lad, adv, 0.3)
        plan = derive_switch_plan(sol)
        m = lad.m
        for k in range(1, m + 1):
            ycum = np.cumsum(sol.y[k - 1])
            for i in range(1, m + 1):
                expect = plan.base[min(i, k) - 1] + ycum[i - 1]
                assert plan.fallback[k - 1, i - 1] == pytest.approx(expect)


class TestSwitchingPolicy:
    def test_consistency_on_advice_instance(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        for g in (0.0, 0.25, 0.5):
            sol = lp.optimal_consistency(lad, adv, g)
            plan = derive_switch_plan(sol)
            inst = advice_instance(lad, adv)
            trace = run_lp_optimal(lad, adv, g, inst, plan)
            opt_a = core.advice_opt(lad, adv)
            assert trace.revenue >= sol.beta_star * opt_a - 1e-6 * opt_a
            assert trace.trigger_time is None

    def test_consistency_on_permuted_conforming_instances(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 8)
        adv = core.make_advice(lad, [1, 3, 4])
        g = 0.3
        sol = lp.optimal_consistency(lad, adv, g)
        plan = derive_switch_plan(sol)
        opt_a = core.advice_opt(lad, adv)
        rng = np.random.default_rng(3)
        steps = list(advice_instance(lad, adv).steps)
        for _ in range(100):
            rng.shuffle(steps)
            inst = core.Instance(steps=tuple(steps))
            assert oracles.conforms(adv, inst)
            trace = run_lp_optimal(lad, adv, g, inst, plan)
            assert trace.revenue >= sol.beta_star * opt_a - 1e-6 * opt_a

    def test_competitiveness_on_hard_family(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 6)
        adv = core.make_advice(lad, [0, 2, 4])
        for g in (0.1, 0.3, 0.5):
            plan = derive_switch_plan(lp.optimal_consistency(lad, adv, g))
            for inst in hard_instances(lad, adv):
                trace = run_lp_optimal(lad, adv, g, inst, plan)
                opt = core.opt_revenue(lad, inst)
                assert trace.revenue >= g * opt - 1e-9 * max(1.0, opt)

    def test_competitiveness_on_random_instances(self):
        lad = core.make_fare_ladder([1.0, 3.0, 9.0], 6)
        adv = core.make_advice(lad, [0, 1, 5])
        g = 0.25
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, g))
        rng = np.random.default_rng(41)
        for _ in range(300):
            steps = tuple(rng.integers(1, 4, size=rng.integers(1, 30)))
            inst = core.Instance(steps=steps)
            trace = run_lp_optimal(lad, adv, g, inst, plan)
            opt = core.opt_revenue(lad, inst)
            assert trace.revenue >= g * opt - 1e-9 * max(1.0, opt)

    def test_shipped_plans_keep_their_guarantees(self):
        # Criteria 6 and 7 check simplex plans, but simulate and robustness
        # run the water-fill plans of experiments._policy_setup.  Forty of
        # them (m = 2-5) must meet gamma (lp_optimal) and gamma / (1 + eps)
        # (lp_relaxed) on the hard family and 100 random general-order
        # instances each, and beta_lp on shuffled advice instances.
        rng = np.random.default_rng(2020)
        for _ in range(40):
            m, n = int(rng.integers(2, 6)), int(rng.integers(5, 21))
            lad = core.make_fare_ladder(np.cumsum(rng.uniform(0.5, 10.0, m)), n)
            counts = rng.multinomial(n - 1, np.full(m, 1.0 / m))
            counts[0] += 1
            adv = core.make_advice(lad, counts)
            gamma = float(rng.uniform(0.0, core.bq_bound(lad)))
            eps = float(rng.choice([0.05, 0.1, 0.3]))
            setups = experiments._policy_setup(lad, adv, ["lp_optimal", "lp_relaxed"], gamma, eps)
            floors = [gamma - 1e-9, gamma / (1.0 + eps) - 1e-9]
            instances = hard_instances(lad, adv) + [
                core.Instance(tuple(rng.integers(1, m + 1, size=rng.integers(1, 3 * n + 1))))
                for _ in range(100)
            ]
            for inst in instances:
                opt = core.opt_revenue(lad, inst)
                for setup, floor in zip(setups, floors):
                    assert _run_switch(lad, adv, inst, *setup).revenue / opt >= floor
            beta = lp.water_fill_plan(lad, adv, gamma).beta_star
            opt_a = core.advice_opt(lad, adv)
            steps = list(advice_instance(lad, adv).steps)
            for _ in range(10):
                rng.shuffle(steps)
                inst = core.Instance(tuple(steps))
                for setup in setups:
                    revenue = _run_switch(lad, adv, inst, *setup).revenue
                    assert revenue >= beta * opt_a - 1e-9 * opt_a

    def test_fallback_search_without_a_dominating_row_fails(self):
        # Each row lies below q = [1, 1] in the other's class, so the
        # search moves back and forth between them.
        with pytest.raises(RuntimeError, match="no row dominating"):
            fallback_search([1.0, 1.0], [0.0, 0.0], [[10.0, 0.5], [0.5, 10.0]], 1e-9)

    def test_trigger_requires_class_above_lowest(self):
        # arrivals of the lowest advised class never flip the policy, no
        # matter how many show up.
        lad = core.make_fare_ladder([1.0, 2.0], 4)
        adv = core.make_advice(lad, [0, 4])
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, 0.5))
        inst = core.Instance(steps=(2,) * 12)
        trace = run_lp_optimal(lad, adv, 0.5, inst, plan)
        assert trace.trigger_time is None
        # capacity still caps the take at the phase-1 limit.
        assert trace.revenue <= 2.0 * lad.capacity + 1e-9

    def test_single_class_ladder_run(self):
        # [DERIVED] one fare class, capacity 2, three arrivals: revenue 2.
        lad = core.make_fare_ladder([1.0], 2)
        adv = core.make_advice(lad, [2])
        trace = run_lp_optimal(lad, adv, 1.0, core.Instance(steps=(1, 1, 1)))
        assert trace.revenue == pytest.approx(2.0, abs=1e-9)

    def test_trigger_fires_once_and_search_is_short(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 6)
        adv = core.make_advice(lad, [0, 2, 4])
        g = 0.4
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, g))
        rng = np.random.default_rng(77)
        fired = 0
        for _ in range(300):
            steps = tuple(rng.integers(1, 4, size=rng.integers(1, 30)))
            trace = run_lp_optimal(lad, adv, g, core.Instance(steps=steps), plan)
            assert trace.search_iterations <= lad.m
            if trace.trigger_time is not None:
                fired += 1
                # The search starts at the highest class filled to its base
                # level by the bookings before the trigger, and only moves up.
                q = [0.0] * lad.m
                for s, w in zip(steps[: trace.trigger_time - 1], trace.accepted):
                    for k in range(s - 1, lad.m):
                        q[k] += w
                start = 1 + max((j for j in range(lad.m)
                                 if plan.base[j] - q[j] <= _eq_tol(lad)), default=0)
                assert trace.chosen_k >= start
        assert fired > 0

    def test_increasing_order_is_worst_for_levels(self):
        # sorting an instance into increasing fare order never helps a
        # protection-level policy.
        rng = np.random.default_rng(13)
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 5)
        for _ in range(1000):
            raw = np.sort(rng.uniform(0.0, 5.0, size=3))
            levels = ProtectionLevels(levels=tuple(raw))
            steps = list(rng.integers(1, 4, size=rng.integers(0, 20)))
            rev = run_protection_policy(lad, levels, core.Instance(steps=tuple(steps))).revenue
            rev_inc = run_protection_policy(
                lad, levels, core.Instance(steps=tuple(sorted(steps)))
            ).revenue
            assert rev_inc <= rev + 1e-9

    def test_prefix_revenue_rewrite_identity(self):
        # sum_{j<=k} f_j x_j == sum_{p<=k} (Q'_k - Q'_{p-1})(f_p - f_{p-1})
        rng = np.random.default_rng(29)
        fares = np.array([1.0, 2.0, 4.0, 8.0])
        for _ in range(1000):
            x = rng.uniform(0.0, 5.0, size=4)
            qp = np.concatenate([[0.0], np.cumsum(x)])
            for k in range(1, 5):
                lhs = float(np.dot(fares[:k], x[:k]))
                rhs = sum(
                    (qp[k] - qp[p - 1]) * (fares[p - 1] - (fares[p - 2] if p > 1 else 0.0))
                    for p in range(1, k + 1)
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestRelaxedPolicy:
    def test_identical_to_strict_on_conforming(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 8)
        adv = core.make_advice(lad, [1, 3, 4])
        g = 0.3
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, g))
        rng = np.random.default_rng(53)
        steps = list(advice_instance(lad, adv).steps)
        for eps in (0.01, 0.2, 1.0):
            for _ in range(50):
                rng.shuffle(steps)
                inst = core.Instance(steps=tuple(steps))
                strict = run_lp_optimal(lad, adv, g, inst, plan)
                relaxed = run_relaxed_optimal(lad, adv, g, eps, inst, plan)
                assert relaxed.accepted == pytest.approx(strict.accepted, abs=1e-12)

    def test_phase1_caps_excess_above_lowest(self):
        # [DERIVED] advice (0,10) with 11 top-fare arrivals: the 11th is
        # rejected whatever the slack, since phase 1 never books past the
        # advised count (and capacity).
        lad = core.make_fare_ladder([1.0, 2.0], 10)
        adv = core.make_advice(lad, [0, 10])
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, 0.3))
        inst = core.Instance(steps=(2,) * 11)
        trace = run_relaxed_optimal(lad, adv, 0.3, 0.5, inst, plan)
        assert trace.accepted[-1] == pytest.approx(0.0, abs=1e-7)
        assert trace.revenue == pytest.approx(20.0, abs=1e-6)

    def test_trigger_waits_for_relative_excess(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 8, 2])
        g = 0.3
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, g))
        # 3 arrivals of class 3 against an advised 2: strict flips at the
        # third, relaxed with eps=1 needs a fifth (> (1+1)*2).
        inst = core.Instance(steps=(3,) * 3)
        strict = run_lp_optimal(lad, adv, g, inst, plan)
        relaxed = run_relaxed_optimal(lad, adv, g, 1.0, inst, plan)
        assert strict.trigger_time == 3
        assert relaxed.trigger_time is None
        longer = core.Instance(steps=(3,) * 5)
        relaxed2 = run_relaxed_optimal(lad, adv, g, 1.0, longer, plan)
        assert relaxed2.trigger_time == 5

    def test_default_plan_is_water_fill_plan(self):
        # Without a plan both switching runners take the water-fill plan.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 8, 2])
        g, inst = 0.3, core.Instance(steps=(1, 3, 2, 3, 3, 2, 1, 3))
        plan = derive_switch_plan(lp.water_fill_plan(lad, adv, g))
        for run, args in [(run_lp_optimal, (g,)), (run_relaxed_optimal, (g, 0.2))]:
            alone, planned = run(lad, adv, *args, inst), run(lad, adv, *args, inst, plan)
            assert same_bits(alone.accepted, planned.accepted)
            assert (alone.trigger_time, alone.chosen_k) == (planned.trigger_time, planned.chosen_k)

    def test_epsilon_must_be_positive(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        for epsilon in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                run_relaxed_optimal(lad, adv, 0.5, epsilon, core.Instance(steps=()))

    def test_relaxed_guarantee_on_near_conforming(self):
        # instances within multiplicative slack (mu, nu), mu below the
        # trigger slack: revenue at least beta/((1+mu)(1+nu)) of optimum.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 12)
        adv = core.make_advice(lad, [0, 6, 6])
        g, eps, mu, nu = 0.3, 0.2, 0.1, 0.3
        sol = lp.optimal_consistency(lad, adv, g)
        plan = derive_switch_plan(sol)
        params = oracles.ConformanceParams(mu=mu, nu=nu)
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 200:
            counts = [
                int(rng.integers(0, 13)),
                int(rng.integers(int(np.ceil(6 / (1 + nu))), int(np.floor(6 * (1 + mu))) + 1)),
                int(rng.integers(int(np.ceil(6 / (1 + nu))), int(np.floor(6 * (1 + mu))) + 1)),
            ]
            steps = [i for i, cnt in enumerate(counts, start=1) for _ in range(cnt)]
            rng.shuffle(steps)
            inst = core.Instance(steps=tuple(steps))
            if not oracles.conforms_relaxed(adv, inst, params):
                continue
            trace = run_relaxed_optimal(lad, adv, g, eps, inst, plan)
            opt = core.opt_revenue(lad, inst)
            bound = sol.beta_star / ((1 + mu) * (1 + nu)) * opt
            assert trace.revenue >= bound - 1e-6 * max(1.0, opt)
            checked += 1

    def test_relaxed_guarantee_on_arbitrary_instances(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 12)
        adv = core.make_advice(lad, [0, 6, 6])
        g, eps = 0.3, 0.2
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, g))
        rng = np.random.default_rng(67)
        for _ in range(200):
            steps = tuple(rng.integers(1, 4, size=rng.integers(1, 40)))
            inst = core.Instance(steps=steps)
            trace = run_relaxed_optimal(lad, adv, g, eps, inst, plan)
            opt = core.opt_revenue(lad, inst)
            assert trace.revenue >= g / (1 + eps) * opt - 1e-6 * max(1.0, opt)


# Fixed example sequence, no example database: tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def block_steps(counts):
    """Increasing block instance: ``counts[i-1]`` arrivals of class ``i``."""
    return core.Instance(steps=tuple(np.repeat(np.arange(1, len(counts) + 1), counts).tolist()))


def plan_from(x, y):
    """Switch plan of an arbitrary nonnegative (x, y), as from an LP solution."""
    m = len(x)
    sol = lp.LPSolution(status="optimal", beta_star=0.0, x=np.asarray(x),
                        y=np.asarray(y).reshape(m, m))
    return derive_switch_plan(sol)


def step_revenue(lad, adv, plan, epsilon, inst):
    if epsilon == 0.0:
        return run_lp_optimal(lad, adv, 0.0, inst, plan)
    return run_relaxed_optimal(lad, adv, 0.0, epsilon, inst, plan)


def assert_close(closed, stepped):
    assert abs(closed - stepped) <= 1e-12 * max(abs(stepped), 1e-300)


@st.composite
def block_cases(draw):
    """Ladder, advice (zero leading classes allowed) and block counts."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    fares = np.cumsum(draw(st.lists(st.floats(0.05, 10.0), min_size=m, max_size=m)))
    lad = core.make_fare_ladder(fares, n)
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    adv = core.make_advice(lad, np.diff([0] + cuts + [n]))
    counts = draw(st.lists(st.integers(0, 3 * n), min_size=m, max_size=m))
    return lad, adv, counts


def draw_plan(data, lad, adv):
    """The LP plan at a drawn gamma, or the plan of an arbitrary (x, y)."""
    m, n = lad.m, lad.capacity
    if data.draw(st.booleans(), label="lp_plan"):
        gamma = data.draw(st.floats(0.0, core.bq_bound(lad)), label="gamma")
        return derive_switch_plan(lp.optimal_consistency(lad, adv, gamma))
    x = data.draw(st.lists(st.floats(0.0, n / 2), min_size=m, max_size=m), label="x")
    y = data.draw(st.lists(st.floats(0.0, n / 2), min_size=m * m, max_size=m * m), label="y")
    return plan_from(x, y)


# An infinite slack never triggers.
EPSILONS = st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0, math.inf])


def switch_args(lad, adv, plan, epsilon, steps):
    """``reference_switch_run`` arguments of the policy ``step_revenue`` runs."""
    return (np.array(steps, dtype=np.int64), np.asarray(adv.counts, dtype=float),
            adv.lowest_index - 1, plan.base, plan.fallback, 1.0 + epsilon,
            1 if epsilon > 0.0 else 0, _eq_tol(lad))


# Fewer examples than PROPERTY: each draws a plan and a whole sequence.
RUNS_PROPERTY = settings(PROPERTY, max_examples=100)


def long_case(data, rng):
    """A ladder with up to 8 classes and capacity up to 1000, advice, and a
    shuffled conforming sequence or up to 3n uniform arrivals."""
    m, n = data.draw(st.integers(1, 8), label="m"), int(rng.integers(1, 1001))
    lad = core.make_fare_ladder(np.cumsum(rng.uniform(0.05, 10.0, m)), n)
    adv = core.make_advice(lad, rng.multinomial(n, np.full(m, 1.0 / m)))
    if data.draw(st.booleans(), label="conforming"):
        counts = np.array(adv.counts)
        counts[adv.lowest_index - 1] += rng.integers(0, n + 1)
        steps = rng.permutation(np.repeat(np.arange(m), counts))
    else:
        steps = rng.integers(0, m, size=rng.integers(0, 3 * n + 1))
    return lad, adv, steps


def signed_zeros(values, rng):
    """``values`` with a random prefix set to 0.0 and -0.0 entries, which
    keeps nondecreasing values nondecreasing."""
    values = np.array(values, dtype=float)
    z = rng.integers(0, len(values) + 1)
    values[:z] = rng.choice([0.0, -0.0], size=z)
    return values


def lone_bookings(monkeypatch):
    """Patch ``policies._book`` to record the class and amount of each call."""
    calls, book = [], policies._book

    def recording(q, limits, p, count):
        calls.append((int(p), float(book(q, limits, p, count))))
        return calls[-1][1]

    monkeypatch.setattr(policies, "_book", recording)
    return calls


def assert_runs_match_references(lad, adv, plan, epsilon, levels, steps):
    """Both step runners on ``steps`` against their references, bit for bit."""
    inst = core.Instance(tuple((np.asarray(steps, dtype=int) + 1).tolist()))
    fares = np.asarray(lad.fares)[np.asarray(steps, dtype=np.int64)]
    trace = step_revenue(lad, adv, plan, epsilon, inst)
    with np.errstate(invalid="ignore"):  # the reference's inf * 0 (A_p = 0)
        want = reference_switch_run(*switch_args(lad, adv, plan, epsilon, steps))
    for a, b in zip((trace.accepted, trace.q), want[:2]):
        assert same_bits(a, b)
    assert (trace.trigger_time or 0, trace.chosen_k or 0, trace.search_iterations) == want[2:]
    assert same_bits(trace.revenue, np.dot(want[0], fares))
    levelled = run_protection_policy(lad, ProtectionLevels(tuple(levels.tolist())), inst)
    want = reference_protection_run(np.asarray(steps, dtype=np.int64), levels)
    for a, b in zip((levelled.accepted, levelled.q), want):
        assert same_bits(a, b)
    assert same_bits(levelled.revenue, np.dot(want[0], fares))
    return trace, levelled


class TestRunLoop:
    """The step runners against the numpy-scalar step loops they replaced
    (bit for bit), and runs longer than one arrival against the step replay
    of their expansion."""

    @RUNS_PROPERTY
    @given(block_cases(), st.data())
    def test_switch_step_path_matches_reference_bitwise(self, case, data):
        lad, adv, _ = case
        plan = draw_plan(data, lad, adv)
        epsilon = data.draw(EPSILONS, label="epsilon")
        steps = data.draw(st.lists(st.integers(0, lad.m - 1), max_size=40), label="steps")
        trace = step_revenue(lad, adv, plan, epsilon, core.Instance(tuple(p + 1 for p in steps)))
        # The numpy-scalar reference warns on inf * 0 (infinite slack, A_p = 0).
        with np.errstate(invalid="ignore"):
            want = reference_switch_run(*switch_args(lad, adv, plan, epsilon, steps))
        for a, b in zip((trace.accepted, trace.q), want[:2]):
            assert same_bits(a, b)
        # trigger step, chosen row, search moves: equal ints
        got = (trace.trigger_time or 0, trace.chosen_k or 0, trace.search_iterations)
        assert got == want[2:] and all(type(v) is int for v in got)
        fares = np.asarray(lad.fares)[np.array(steps, dtype=np.int64)]
        assert same_bits(trace.revenue, np.dot(want[0], fares))

    @RUNS_PROPERTY
    @given(block_cases(), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.lists(st.integers(0, 4), max_size=40))
    def test_protection_step_path_matches_reference_bitwise(self, case, shares, steps):
        lad, _, _ = case
        levels = np.cumsum(shares[: lad.m])
        levels *= lad.capacity / max(levels[-1], 1.0)
        fare_idx = np.array([p % lad.m for p in steps], dtype=np.int64)
        trace = run_protection_policy(lad, ProtectionLevels(tuple(levels.tolist())),
                                      core.Instance(tuple(p + 1 for p in fare_idx.tolist())))
        want = reference_protection_run(fare_idx, levels)
        for a, b in zip((trace.accepted, trace.q), want):
            assert same_bits(a, b)
        assert same_bits(trace.revenue, np.dot(want[0], np.asarray(lad.fares)[fare_idx]))

    @RUNS_PROPERTY
    @given(block_cases(), st.data())
    def test_runs_match_step_replay_of_expansion(self, case, data):
        lad, adv, _ = case
        plan = draw_plan(data, lad, adv)
        epsilon = data.draw(EPSILONS, label="epsilon")
        runs = data.draw(
            st.lists(st.tuples(st.integers(0, lad.m - 1), st.integers(1, 6)), max_size=12),
            label="runs",
        )
        steps = [p for p, c in runs for _ in range(c)]
        encoded = [(p, len(list(g))) for p, g in itertools.groupby(steps)]
        booked, q, tau, k_row, _, revenue = _switch_runs(
            [p for p, _ in encoded], [c for _, c in encoded], lad.fares, adv.counts,
            adv.lowest_index - 1, plan.base.tolist(), plan.fallback.tolist(),
            1.0 + epsilon, epsilon > 0.0, _eq_tol(lad),
        )
        trace = step_revenue(lad, adv, plan, epsilon, core.Instance(tuple(p + 1 for p in steps)))
        assert_close(revenue, trace.revenue)
        ends = np.cumsum([c for _, c in encoded], dtype=int)
        for take, stop, (_, c) in zip(booked, ends, encoded):
            assert_close(take, float(np.sum(trace.accepted[stop - c : stop])))
        for a, b in zip(q, trace.q):
            assert_close(a, b)
        assert tau == (trace.trigger_time or 0)
        assert k_row == (trace.chosen_k or 0)

    def test_trigger_arrival_keeps_negative_zero(self):
        # [DERIVED] A_2 = 0, so the first class-2 arrival triggers with
        # nothing booked; the chosen row holds -0.0, so the slack is
        # -0.0 - 0.0 = -0.0 and the step books -0.0, as the reference does.
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [2, 0])
        plan = SwitchPlan(base=np.zeros(2), fallback=np.full((2, 2), -0.0))
        trace = run_lp_optimal(lad, adv, 0.0, core.Instance((2,)), plan)
        want = reference_switch_run(*switch_args(lad, adv, plan, 0.0, [1]))
        assert want[0].tobytes() == np.array([-0.0]).tobytes()
        for a, b in zip((trace.accepted, trace.q), want[:2]):
            assert same_bits(a, b)
        assert trace.trigger_time == 1

    @RUNS_PROPERTY
    @given(st.data())
    def test_long_replays_match_references_bitwise(self, data):
        # Replays of up to 3n arrivals fill batches; plans and levels on
        # whole seats and with 0.0 and -0.0 entries give exact 0 slacks.
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        lad, adv, steps = long_case(data, rng)
        m, n = lad.m, lad.capacity
        whole = np.floor if data.draw(st.booleans(), label="whole") else np.asarray
        if data.draw(st.booleans(), label="lp_plan"):
            gamma = rng.uniform(0.0, core.bq_bound(lad))
            plan = derive_switch_plan(lp.optimal_consistency(lad, adv, gamma))
        else:
            plan = plan_from(signed_zeros(whole(rng.uniform(0.0, n / 2, m)), rng),
                             signed_zeros(whole(rng.uniform(0.0, n / 2, m * m)), rng))
        epsilon = data.draw(st.sampled_from([0.0, 0.1, math.inf]), label="epsilon")
        levels = np.cumsum(rng.uniform(0.0, 1.0, m))
        levels = signed_zeros(whole(levels * n / levels[-1]), rng)
        assert_runs_match_references(lad, adv, plan, epsilon, levels, steps)

    def test_batch_ends_on_a_partial_booking(self, monkeypatch):
        # [DERIVED] level 2.5 for class 1: the third class-1 arrival finds
        # half a seat, and only it is booked alone (the switching run's
        # plan leaves whole seats only).
        lad = core.make_fare_ladder([1.0, 2.0], 10)
        adv = core.make_advice(lad, [5, 5])
        calls = lone_bookings(monkeypatch)
        _, levelled = assert_runs_match_references(
            lad, adv, plan_from([5.0, 5.0], [0.0] * 4), 0.0, np.array([2.5, 10.0]),
            [0, 0, 0, 0, 1, 1])
        assert same_bits(levelled.accepted, [1.0, 1.0, 0.5, 0.0, 1.0, 1.0])
        assert calls == [(0, 0.5)]

    def test_full_class_turns_partial_after_a_higher_booking(self, monkeypatch):
        # [DERIVED] levels (5, 5.5): class 1 has room 5 at the start, but
        # five class-2 bookings leave it half a seat of the top level (the
        # switching run's plan leaves whole seats only).
        lad = core.make_fare_ladder([1.0, 2.0], 10)
        adv = core.make_advice(lad, [5, 5])
        calls = lone_bookings(monkeypatch)
        _, levelled = assert_runs_match_references(
            lad, adv, plan_from([5.0, 5.0], [0.0] * 4), 0.0, np.array([5.0, 5.5]),
            [1, 1, 1, 1, 1, 0, 0])
        assert same_bits(levelled.accepted, [1.0] * 5 + [0.5, 0.0])
        assert calls == [(0, 0.5)]

    @pytest.mark.parametrize("advice, steps, tau", [
        ([4, 0], [1, 0, 0, 1], 1),  # A_2 = 0: the first arrival triggers
        ([2, 2], [0, 1, 0, 1, 1], 5),  # the third class-2 arrival is the last
    ])
    def test_trigger_at_first_and_last_arrival(self, advice, steps, tau):
        lad = core.make_fare_ladder([1.0, 2.0], 4)
        adv = core.make_advice(lad, advice)
        plan = plan_from([2.0, 2.0], [0.0, 1.0, 0.0, 1.0])
        trace, _ = assert_runs_match_references(lad, adv, plan, 0.0, np.array([2.0, 4.0]), steps)
        assert trace.trigger_time == tau

    def test_empty_instance(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 5)
        adv = core.make_advice(lad, [1, 2, 2])
        plan = plan_from([1.0, 2.0, 2.0], [0.0] * 9)
        for epsilon in (0.0, 0.1):
            for trace in assert_runs_match_references(lad, adv, plan, epsilon,
                                                      np.array([1.0, 3.0, 5.0]), []):
                assert trace.accepted.shape == (0,) and trace.revenue == 0.0
                assert same_bits(trace.q, np.zeros(3)) and trace.trigger_time is None

    def test_relaxed_books_nothing_beyond_advice(self):
        # [DERIVED] epsilon 0.5, A_2 = 4: the 5th and 6th class-2 arrivals
        # book 0.0 with base room left, and the 7th (7 > 1.5 * 4) triggers.
        lad = core.make_fare_ladder([1.0, 2.0], 10)
        adv = core.make_advice(lad, [6, 4])
        plan = plan_from([6.0, 4.0], [0.0] * 4)
        trace, _ = assert_runs_match_references(lad, adv, plan, 0.5, np.array([6.0, 10.0]),
                                                [1] * 7 + [0])
        assert same_bits(trace.accepted[:6], [1.0] * 4 + [0.0] * 2)
        assert trace.trigger_time == 7

    @pytest.mark.parametrize("step", [0, -1, 3])
    def test_steps_outside_the_ladder_rejected(self, step):
        # Both runners once booked step 0 at the top fare; numpy would wrap
        # -1 around too.
        lad = core.make_fare_ladder([1.0, 2.0], 4)
        adv = core.make_advice(lad, [2, 2])
        inst = core.Instance((1, step, 2))
        plan = plan_from([2.0, 2.0], [0.0] * 4)
        runs = [lambda: run_protection_policy(lad, bq_levels(lad), inst),
                lambda: run_lp_optimal(lad, adv, 0.0, inst, plan),
                lambda: run_relaxed_optimal(lad, adv, 0.0, 0.1, inst, plan)]
        for run in runs:
            with pytest.raises(ValueError, match="fare-class indices"):
                run()

    @pytest.mark.parametrize("conforming", [True, False])
    def test_long_replay_books_few_arrivals_alone(self, monkeypatch, conforming):
        # 3,000 arrivals at m = 6: each runner books a handful of arrivals
        # through ``_book``, not one call per arrival.
        lad = core.make_fare_ladder([1.5 ** i for i in range(6)], 1000)
        adv = core.make_advice(lad, [300, 250, 200, 120, 80, 50])
        rng = np.random.default_rng(3)
        counts = np.array(adv.counts) + [2000, 0, 0, 0, 0, 0]
        steps = (rng.permutation(np.repeat(np.arange(1, 7), counts)) if conforming
                 else rng.integers(1, 7, size=3000))
        inst = core.Instance(tuple(steps.tolist()))
        gamma = 0.5 * core.bq_bound(lad)
        plan = derive_switch_plan(lp.optimal_consistency(lad, adv, gamma))
        calls = lone_bookings(monkeypatch)
        for run in (lambda: run_protection_policy(lad, bq_levels(lad), inst),
                    lambda: run_lp_optimal(lad, adv, gamma, inst, plan),
                    lambda: run_relaxed_optimal(lad, adv, gamma, 0.1, inst, plan)):
            calls.clear()
            assert len(run().accepted) == 3000
            assert len(calls) <= 24

    def test_row_below_bookings_books_nothing(self):
        # [DERIVED] phase 1 sells 5 + 5 seats, filling base (5, 10); the
        # 6th class-2 arrival triggers, and the fallback rows sit 1e-12
        # below q, inside the search's tolerance.  The slack is negative,
        # so the arrival books 0, not -1e-12: revenue stays 5 + 2 * 5.
        lad = core.make_fare_ladder([1.0, 2.0], 10)
        adv = core.make_advice(lad, [5, 5])
        plan = SwitchPlan(base=np.array([5.0, 10.0]), fallback=np.full((2, 2), 10.0 - 1e-12))
        plan.fallback[:, 0] = 5.0
        trace = run_lp_optimal(lad, adv, 0.0, block_steps([5, 6]), plan)
        assert trace.trigger_time == 11 and trace.chosen_k == 2
        assert same_bits(trace.accepted[-1], 0.0)
        assert trace.revenue == 15.0
        assert switch_block_revenue(lad, adv, plan, [5, 6]) == 15.0


class TestBlockClosedForms:
    """Closed forms on increasing block counts against the step runners."""

    @PROPERTY
    @given(block_cases(), st.data())
    def test_switching_matches_step_runner(self, case, data):
        lad, adv, counts = case
        plan = draw_plan(data, lad, adv)
        epsilon = data.draw(EPSILONS, label="epsilon")
        closed = switch_block_revenue(lad, adv, plan, counts, epsilon)
        assert same_bits(closed, reference_switch_block_revenue(lad, adv, plan, counts, epsilon))
        stepped = step_revenue(lad, adv, plan, epsilon, block_steps(counts)).revenue
        assert_close(closed, stepped)

    @PROPERTY
    @given(block_cases(), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_protection_matches_step_runner(self, case, shares):
        lad, _, counts = case
        levels = np.cumsum(shares[: lad.m])
        levels *= lad.capacity / max(levels[-1], 1.0)
        stepped = run_protection_policy(lad, ProtectionLevels(tuple(levels)), block_steps(counts))
        assert_close(block_revenue(lad.fares, levels, counts), stepped.revenue)

    # Base limits (2.5, 6.5, 9.5): half a seat in class 1.  Fallback rows
    # (2.5, 2.75, 3), (2.5, 6.75, 7), (2.5, 6.75, 10).
    PLAN = ([2.5, 4.0, 3.0], [[0.0, 0.25, 0.25]] * 3)

    @pytest.mark.parametrize(
        "advice, counts, epsilon, inside, capped, partial",
        [
            # strict trigger at the 4th of 6 class-2 arrivals
            ([2, 3, 5], [4, 6, 3], 0.0, True, False, True),
            # relaxed: the 4th class-2 arrival is capped, the 5th triggers
            ([2, 3, 5], [4, 6, 3], 0.5, True, True, True),
            # relaxed, count within (1 + epsilon) A: capped, no trigger
            ([2, 3, 5], [4, 4, 3], 0.5, False, True, True),
            # lowest advised class is 2: its excess never triggers
            ([0, 4, 6], [7, 9, 2], 0.0, False, False, True),
            ([0, 4, 6], [0, 9, 8], 0.1, True, False, True),
            # zero blocks before the trigger class
            ([2, 3, 5], [0, 0, 9], 0.0, True, False, False),
            ([2, 3, 5], [3, 0, 0], 0.0, False, False, True),
        ],
    )
    def test_hand_cases(self, advice, counts, epsilon, inside, capped, partial):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, advice)
        plan = plan_from(*self.PLAN)
        inst = block_steps(counts)
        trace = step_revenue(lad, adv, plan, epsilon, inst)
        # check that the case has the shape it is listed for
        starts = np.cumsum([0] + counts)
        tau = trace.trigger_time
        assert inside == any(
            tau is not None and s + 1 < tau <= e for s, e in zip(starts, starts[1:])
        )
        acc = trace.accepted
        sold_before = np.cumsum(acc) - acc
        room = plan.base[np.array(inst.steps) - 1] - sold_before
        phase1 = np.arange(1, len(acc) + 1) < (tau or np.inf)
        assert capped == bool(np.any(phase1 & (acc == 0.0) & (room > 0.0)))
        assert partial == bool(np.any((acc > 0.0) & (acc < 1.0)))
        closed = switch_block_revenue(lad, adv, plan, counts, epsilon)
        assert same_bits(closed, reference_switch_block_revenue(lad, adv, plan, counts, epsilon))
        assert_close(closed, trace.revenue)

    def test_negative_epsilon_rejected(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [1, 1])
        for epsilon in (-0.1, math.nan):
            with pytest.raises(ValueError):
                switch_block_revenue(lad, adv, plan_from([1.0, 1.0], [0.0] * 4), [1, 1], epsilon)


def level_values(n):
    """Levels at -0.0, on whole seats (so a level often equals the seats
    sold below it) or anywhere in [0, 3n]."""
    return st.one_of(st.sampled_from([-0.0, 0.0]), st.integers(0, 3 * n).map(float),
                     st.floats(0.0, 3.0 * n))


def count_arrays(data, lad):
    """A (trials, m) count array whose last row is all zeros."""
    rows = data.draw(st.lists(st.lists(st.integers(0, 3 * lad.capacity), min_size=lad.m,
                                       max_size=lad.m), max_size=8), label="rows")
    return np.array(rows + [[0] * lad.m], dtype=np.int64)


class TestCountArrays:
    """Both block evaluators over a (trials, m) count array against their
    per-row references, bit for bit."""

    @PROPERTY
    @given(block_cases(), st.data())
    def test_protection_rows_match_reference_bitwise(self, case, data):
        lad, _, _ = case
        counts = count_arrays(data, lad)
        levels = data.draw(st.lists(level_values(lad.capacity), min_size=lad.m,
                                    max_size=lad.m), label="levels")
        got = block_revenue(lad.fares, levels, counts)
        assert got.shape == (counts.shape[0],)
        want = [reference_block_revenue(lad.fares, levels, row) for row in counts.tolist()]
        assert same_bits(got, want)
        assert same_bits(block_revenue(lad.fares, levels, counts[0]), want[0])

    @RUNS_PROPERTY
    @given(block_cases(), st.data())
    def test_switching_rows_match_reference_bitwise(self, case, data):
        lad, adv, _ = case
        counts = count_arrays(data, lad)
        plan = draw_plan(data, lad, adv)
        epsilon = data.draw(EPSILONS, label="epsilon")
        got = switch_block_revenue(lad, adv, plan, counts, epsilon)
        assert got.shape == (counts.shape[0],)
        want = [reference_switch_block_revenue(lad, adv, plan, row, epsilon)
                for row in counts.tolist()]
        assert same_bits(got, want)
        assert same_bits(switch_block_revenue(lad, adv, plan, counts[0], epsilon), want[0])

    def test_protection_hand_rows(self):
        # [DERIVED] levels (-0.0, 2, 2) book no class-1 seat.  Row 1:
        # class 2 sells 2 seats, then class 3 finds its level equal to the
        # seats sold (2 - 2 = 0) and books nothing.  Row 2: class 3 sells
        # its one arrival.  Row 3 has no arrivals.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 4)
        counts = np.array([[0, 2, 3], [3, 0, 1], [0, 0, 0]])
        got = block_revenue(lad.fares, (-0.0, 2.0, 2.0), counts)
        assert same_bits(got, [4.0, 4.0, 0.0])


class TestTraceOutputs:
    def test_csv_shape_and_totals(self):
        # The trace CSV of the ``simulate`` command, which replays the
        # trace's cumulative counts and revenue step by step.
        lad = core.make_fare_ladder([1.0, 2.0], 3)
        inst = core.make_instance(lad, [1, 2, 2, 1])
        trace = run_protection_policy(lad, bq_levels(lad), inst)
        cfg = {"fares": [1.0, 2.0], "capacity": 3, "advice": [1, 2], "instance": list(inst.steps),
               "policy": "bq"}
        text = cli.cmd_simulate(cfg, argparse.Namespace(seed=0, epsilon=1e-6))["trace.csv"]
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(inst.steps)
        header = lines[0].split(",")
        assert header[:4] == ["step", "fare_index", "fare", "accepted_fraction"]
        last = lines[-1].split(",")
        assert float(last[-1]) == pytest.approx(trace.revenue)

    def test_rounding_report(self):
        lad = core.make_fare_ladder([1.0, 2.0], 4)
        levels = ProtectionLevels(levels=(1.5, 4.0))
        trace = run_protection_policy(lad, levels, core.make_instance(lad, [1, 1, 1]))
        report = rounding_report(lad, trace)
        assert report["fractional_steps"] == 1
        assert report["relative_degradation_bound"] == pytest.approx(0.5)
