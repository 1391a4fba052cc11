"""Booking policies: protection levels, switching policy, relaxed variant."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmadvice import core, kernels, lp
from rmadvice.policies import (
    ProtectionLevels,
    SwitchPlan,
    _eq_tol,
    bq_levels,
    block_revenue,
    derive_switch_plan,
    run_lp_optimal,
    run_protection_policy,
    run_relaxed_optimal,
    switch_block_revenue,
    trace_to_csv,
)

from . import oracles
from .oracles import (
    advice_instance,
    hard_instances,
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
                assert trace.chosen_k >= trace.switch_base_index
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

    def test_epsilon_must_be_positive(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        with pytest.raises(ValueError):
            run_relaxed_optimal(lad, adv, 0.5, 0.0, core.Instance(steps=()))

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
                        y=np.asarray(y).reshape(m, m), gamma=0.0, m=m)
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
    """``kernels.switch_run`` arguments of the policy ``step_revenue`` runs."""
    return (np.array(steps, dtype=np.int64), np.asarray(adv.counts, dtype=float),
            adv.lowest_index - 1, plan.base, plan.fallback, 1.0 + epsilon,
            1 if epsilon > 0.0 else 0, _eq_tol(lad))


# Fewer examples than PROPERTY: each draws a plan and a whole sequence.
RUNS_PROPERTY = settings(PROPERTY, max_examples=100)


class TestRunLoop:
    """The list-based run loop against the numpy-scalar step loops it
    replaced (bit for bit), and runs longer than one arrival against the
    step replay of their expansion."""

    @RUNS_PROPERTY
    @given(block_cases(), st.data())
    def test_switch_step_path_matches_reference_bitwise(self, case, data):
        lad, adv, _ = case
        plan = draw_plan(data, lad, adv)
        epsilon = data.draw(EPSILONS, label="epsilon")
        steps = data.draw(st.lists(st.integers(0, lad.m - 1), max_size=40), label="steps")
        args = switch_args(lad, adv, plan, epsilon, steps)
        got = kernels.switch_run(*args)
        # The numpy-scalar reference warns on inf * 0 (infinite slack, A_p = 0).
        with np.errstate(invalid="ignore"):
            want = reference_switch_run(*args)
        for a, b in zip(got[:3], want[:3]):
            assert same_bits(a, b)
        # trigger step, start and chosen rows, search moves: equal ints
        assert got[3:] == want[3:] and all(type(v) is int for v in got[3:])

    @RUNS_PROPERTY
    @given(block_cases(), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.lists(st.integers(0, 4), max_size=40))
    def test_protection_step_path_matches_reference_bitwise(self, case, shares, steps):
        lad, _, _ = case
        levels = np.cumsum(shares[: lad.m])
        levels *= lad.capacity / max(levels[-1], 1.0)
        fare_idx = np.array([p % lad.m for p in steps], dtype=np.int64)
        for a, b in zip(kernels.protection_run(fare_idx, levels),
                        reference_protection_run(fare_idx, levels)):
            assert same_bits(a, b)

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
        booked, q, seen, tau, _, k_row, _, revenue = kernels._switch_runs(
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
        assert seen == trace.arrivals.tolist()
        assert tau == (trace.trigger_time or 0)
        assert k_row == (trace.chosen_k or 0)

    def test_trigger_arrival_keeps_negative_zero(self):
        # [DERIVED] A_2 = 0, so the first class-2 arrival triggers with
        # nothing booked; the chosen row holds -0.0, so the slack is
        # -0.0 - 0.0 = -0.0 and the step books -0.0, as the reference does.
        args = (np.array([1]), np.array([2.0, 0.0]), 0, np.zeros(2), np.full((2, 2), -0.0),
                1.0, 0, 1e-9)
        got, want = kernels.switch_run(*args), reference_switch_run(*args)
        assert want[0].tobytes() == np.array([-0.0]).tobytes()
        for a, b in zip(got[:3], want[:3]):
            assert same_bits(a, b)

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
        with pytest.raises(ValueError):
            switch_block_revenue(lad, adv, plan_from([1.0, 1.0], [0.0] * 4), [1, 1], -0.1)


class TestTraceOutputs:
    def test_csv_shape_and_totals(self):
        lad = core.make_fare_ladder([1.0, 2.0], 3)
        levels = ProtectionLevels(levels=(1.0, 3.0))
        inst = core.make_instance(lad, [1, 2, 2, 1])
        trace = run_protection_policy(lad, levels, inst)
        text = trace_to_csv(lad, trace)
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(inst)
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
