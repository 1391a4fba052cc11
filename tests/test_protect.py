"""Protection-level optimizer: growing pass and binary search."""

import json

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmadvice import core, protect
from rmadvice.policies import ProtectionLevels, block_revenue, run_protection_policy

from .oracles import (
    advice_instance,
    expected_search_passes,
    hard_instances,
    protection_consistency,
    reference_grow_levels,
    same_bits,
)
from .test_core import ladders_and_advice


def tiny():
    lad = core.make_fare_ladder([1.0, 2.0], 2)
    adv = core.make_advice(lad, [0, 2])
    return lad, adv


def steep():
    eta = 1000.0
    lad = core.make_fare_ladder([1.0, eta, eta * eta], 90)
    adv = core.make_advice(lad, [1, 30, 59])
    return lad, adv


class TestGrowingPass:
    def test_tiny_case_at_beta_two_thirds(self):
        # [DERIVED] gamma=2/3, beta=2/3: increments c=(4/3, 2/3), d=0,
        # levels (4/3, 2) — exactly feasible.
        lad, adv = tiny()
        cand = protect.grow_levels_for_beta(lad, adv, 2.0 / 3.0, 2.0 / 3.0)
        assert cand.competitive_increments == pytest.approx((4.0 / 3.0, 2.0 / 3.0), abs=1e-12)
        assert cand.consistency_increments == pytest.approx((0.0, 0.0), abs=1e-12)
        assert cand.levels == pytest.approx((4.0 / 3.0, 2.0), abs=1e-12)
        assert cand.feasible

    def test_tiny_case_at_beta_one_infeasible(self):
        # [DERIVED] at beta=1 the consistency gap forces the top level to
        # 8/3 > n = 2.
        lad, adv = tiny()
        cand = protect.grow_levels_for_beta(lad, adv, 2.0 / 3.0, 1.0)
        assert cand.consistency_increments[-1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert cand.levels[-1] == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert not cand.feasible

    def test_steep_case_competitive_increments(self):
        # [DERIVED] gamma=1/3 on the steep ladder: c_1 = 30 and the later
        # competitive increments are 30*(1 - 1/eta).
        lad, adv = steep()
        eta = 1000.0
        cand = protect.grow_levels_for_beta(lad, adv, 1.0 / 3.0, core.bq_bound(lad))
        assert cand.competitive_increments[0] == pytest.approx(30.0, abs=1e-9)
        assert cand.competitive_increments[1] == pytest.approx(30.0 * (1 - 1 / eta), rel=1e-9)
        assert cand.competitive_increments[2] == pytest.approx(30.0 * (1 - 1 / eta), rel=1e-9)

    def test_levels_nondecreasing(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        for beta in (0.5, 0.7, 0.9, 1.0):
            cand = protect.grow_levels_for_beta(lad, adv, 0.3, beta)
            assert np.all(np.diff(cand.levels) >= -1e-12)

    def test_feasibility_monotone_in_beta(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        feas = [
            protect.grow_levels_for_beta(lad, adv, 0.4, b).feasible
            for b in np.linspace(core.bq_bound(lad), 1.0, 21)
        ]
        # once infeasible, stays infeasible.
        assert feas == sorted(feas, reverse=True)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        case=ladders_and_advice(min_m=2, max_m=6, max_n=200),
        gamma_share=st.floats(0.0, 1.0),
        beta_share=st.floats(0.0, 1.0),
    )
    def test_matches_numpy_reference_bitwise(self, case, gamma_share, beta_share):
        # The pass runs on Python floats with block_revenue inlined; the
        # reference runs on numpy arrays and calls block_revenue.  Same
        # operations in the same order, so every bit must agree.
        lad, adv = case
        bound = core.bq_bound(lad)
        gamma = gamma_share * bound
        beta = bound + beta_share * (1.0 - bound)
        got = protect.grow_levels_for_beta(lad, adv, gamma, beta)
        ref = reference_grow_levels(lad, adv, gamma, beta)
        assert same_bits(got.levels, ref.levels)
        assert same_bits(got.competitive_increments, ref.competitive_increments)
        assert same_bits(got.consistency_increments, ref.consistency_increments)
        assert got.feasible is ref.feasible


class TestBinarySearch:
    def test_tiny_optimum(self):
        lad, adv = tiny()
        levels, beta = protect.optimal_protection_levels(lad, adv, 2.0 / 3.0)
        assert beta == pytest.approx(2.0 / 3.0, abs=2e-6)
        assert levels.levels[-1] <= lad.capacity + 1e-9

    def test_gamma_zero_reaches_full_consistency(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        _, beta = protect.optimal_protection_levels(lad, adv, 0.0)
        assert beta >= 1.0 - 2e-6

    def test_steep_case_stays_low(self):
        # protection levels cannot be very consistent on the steep ladder.
        lad, adv = steep()
        _, beta = protect.optimal_protection_levels(lad, adv, 1.0 / 3.0)
        assert beta <= 0.54

    def test_beta_nonincreasing_in_gamma(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        betas = [
            protect.optimal_protection_levels(lad, adv, float(g))[1]
            for g in np.linspace(0.0, core.bq_bound(lad), 9)
        ]
        for lo_b, hi_b in zip(betas, betas[1:]):
            assert hi_b <= lo_b + 2e-6

    def test_pass_count(self):
        lad, adv = tiny()
        calls = {"n": 0}
        original = protect.grow_levels_for_beta

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        protect.grow_levels_for_beta = counting
        try:
            protect.optimal_protection_levels(lad, adv, 0.5, epsilon=1e-6)
        finally:
            protect.grow_levels_for_beta = original
        # one probe at the lower endpoint, the bisection passes, and the
        # final pass at the returned endpoint.
        expected = expected_search_passes(lad, 1e-6)
        assert calls["n"] == expected + 2

    def test_tiny_epsilon_stops_at_double_resolution(self, monkeypatch):
        # Below one ulp the interval cannot shrink, so the search must stop
        # once the midpoint equals an endpoint rather than loop forever.
        lad, adv = tiny()
        calls = {"n": 0}
        original = protect.grow_levels_for_beta

        def counting(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 200:
                raise AssertionError("bisection did not stop after 200 passes")
            return original(*args, **kwargs)

        monkeypatch.setattr(protect, "grow_levels_for_beta", counting)
        levels, beta = protect.optimal_protection_levels(lad, adv, 0.5, epsilon=1e-300)
        monkeypatch.undo()
        assert protect.grow_levels_for_beta(lad, adv, 0.5, beta).feasible
        assert not protect.grow_levels_for_beta(
            lad, adv, 0.5, math.nextafter(beta, 2.0)
        ).feasible
        _, coarse = protect.optimal_protection_levels(lad, adv, 0.5, epsilon=1e-6)
        assert coarse <= beta <= coarse + 1e-6

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_epsilon_rejected(self, epsilon):
        lad, adv = tiny()
        with pytest.raises(ValueError):
            protect.optimal_protection_levels(lad, adv, 0.5, epsilon=epsilon)

    def test_invalid_inputs(self):
        lad, adv = tiny()
        with pytest.raises(ValueError):
            protect.optimal_protection_levels(lad, adv, 0.5, epsilon=0.0)
        with pytest.raises(ValueError):
            protect.optimal_protection_levels(lad, adv, 0.9)

    def test_nan_gamma_rejected(self):
        lad, adv = tiny()
        with pytest.raises(ValueError):
            protect.optimal_protection_levels(lad, adv, float("nan"))


class TestGuarantees:
    def test_levels_competitive_on_hard_and_random_instances(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 8)
        adv = core.make_advice(lad, [1, 3, 4])
        rng = np.random.default_rng(71)
        for g in (0.1, 0.3, 0.5):
            levels, beta = protect.optimal_protection_levels(lad, adv, g)
            for inst in hard_instances(lad, adv):
                trace = run_protection_policy(lad, levels, inst)
                opt = core.opt_revenue(lad, inst)
                assert trace.revenue >= g * opt - 1e-6 * max(1.0, opt)
            for _ in range(200):
                steps = tuple(rng.integers(1, 4, size=rng.integers(1, 30)))
                inst = core.Instance(steps=steps)
                trace = run_protection_policy(lad, levels, inst)
                opt = core.opt_revenue(lad, inst)
                assert trace.revenue >= g * opt - 1e-6 * max(1.0, opt)

    def test_consistency_meets_returned_bound(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 8)
        adv = core.make_advice(lad, [1, 3, 4])
        for g in (0.0, 0.2, 0.4, 0.5):
            levels, beta = protect.optimal_protection_levels(lad, adv, g)
            trace = run_protection_policy(lad, levels, advice_instance(lad, adv))
            opt_a = core.advice_opt(lad, adv)
            assert trace.revenue >= beta * opt_a - 1e-9 * opt_a

    def test_matches_exhaustive_search_on_small_case(self):
        # brute-force the best feasible consistency over a fine level grid
        # and confirm the optimizer is not noticeably worse.
        lad = core.make_fare_ladder([1.0, 2.0], 4)
        adv = core.make_advice(lad, [1, 3])
        g = 0.4
        opt_a = core.advice_opt(lad, adv)
        bound = core.bq_bound(lad)
        best = 0.0
        grid = np.linspace(0.0, 4.0, 161)
        counts_a = [4.0, 3.0]
        for q1 in grid:
            for q2 in grid:
                if q2 < q1:
                    continue
                levels = np.array([q1, q2])
                # gamma-competitive on the two block instances?
                if block_revenue(lad.fares, levels, [4.0, 0.0]) < g * 4.0 - 1e-12:
                    continue
                if block_revenue(lad.fares, levels, [4.0, 4.0]) < g * 8.0 - 1e-12:
                    continue
                best = max(best, block_revenue(lad.fares, levels, counts_a) / opt_a)
        _, beta = protect.optimal_protection_levels(lad, adv, g)
        assert beta >= best - 0.02  # grid resolution slack
        cons = protection_consistency(lad, adv, g)
        assert cons >= best - 0.02

    def test_protection_consistency_at_least_lower_bound(self):
        lad = core.make_fare_ladder([1.0, 3.0, 9.0], 9)
        adv = core.make_advice(lad, [0, 4, 5])
        for g in (0.0, 0.15, 0.3):
            _, beta = protect.optimal_protection_levels(lad, adv, g)
            assert protection_consistency(lad, adv, g) >= beta - 1e-9


class TestSerialization:
    def test_levels_json_round_trip(self):
        lad, adv = tiny()
        levels, beta = protect.optimal_protection_levels(lad, adv, 0.5)
        cand = protect.grow_levels_for_beta(lad, adv, 0.5, beta)
        payload = json.loads(protect.levels_to_json(lad, 0.5, beta, cand))
        assert payload["capacity"] == 2
        assert payload["beta_lower"] == beta
        assert payload["levels"] == pytest.approx(list(cand.levels))
        assert payload["feasible"] is True
