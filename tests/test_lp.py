"""Consistency/competitiveness LP: shape, known optima, cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmadvice import core, lp
from rmadvice.policies import bq_levels, run_protection_policy

from .oracles import (
    advice_instance,
    advice_prefix,
    block_instance,
    concat,
    hard_instances,
    reference_build_pareto_lp,
    reference_check_point,
    reference_opt,
    same_bits,
    vertex_enumeration_lp,
)
from .test_core import PROPERTY, ladders_and_advice, relative_gap


def tiny():
    lad = core.make_fare_ladder([1.0, 2.0], 2)
    adv = core.make_advice(lad, [0, 2])
    return lad, adv


def big_gap():
    # steep three-fare ladder with a mostly-high-fare advice; the LP can be
    # far more consistent than any protection-level policy here.
    eta = 1000.0
    lad = core.make_fare_ladder([1.0, eta, eta * eta], 90)
    adv = core.make_advice(lad, [1, 30, 59])
    return lad, adv


class TestModelShape:
    def test_dimensions(self):
        lad, adv = tiny()
        model = lp.build_pareto_lp(lad, adv, 0.5)
        m = lad.m
        assert model.rows.shape == (m + m + 1 + m * m, 1 + m + m * m)
        assert len(model.labels) == 1 + m + m * m
        assert model.labels[0] == "beta"
        assert model.labels[1] == "x_1"
        assert model.labels[-1] == f"y_{m}_{m}"

    def test_bounds(self):
        lad, adv = tiny()
        model = lp.build_pareto_lp(lad, adv, 0.5)
        assert model.upper[0] == 1.0  # beta <= 1
        # x caps: capacity through the lowest advised class, counts above.
        assert model.upper[1] == lad.capacity
        assert model.upper[2] == adv.counts[1]

    def test_gamma_out_of_range_rejected(self):
        lad, adv = tiny()
        with pytest.raises(ValueError):
            lp.build_pareto_lp(lad, adv, core.bq_bound(lad) + 1e-3)
        with pytest.raises(ValueError):
            lp.build_pareto_lp(lad, adv, -0.1)

    def test_nan_gamma_rejected(self):
        lad, adv = tiny()
        with pytest.raises(ValueError):
            lp.optimal_consistency(lad, adv, float("nan"))

    def test_capacity_row_hand_check(self):
        # [DERIVED] k=1 capacity row: x_1 + y(1)_1 + y(1)_2 <= n.
        lad, adv = tiny()
        model = lp.build_pareto_lp(lad, adv, 0.5)
        row = model.rows[0]
        expect = np.zeros(7)
        expect[1] = 1.0  # x_1
        expect[3] = 1.0  # y_1_1
        expect[4] = 1.0  # y_1_2
        assert row == pytest.approx(expect)
        assert model.senses[0] == "<="
        assert model.rhs[0] == lad.capacity

    def test_dump_round_structure(self):
        lad, adv = tiny()
        model = lp.build_pareto_lp(lad, adv, 0.5)
        text = lp.dump_model(model)
        lines = text.strip().splitlines()
        assert lines[0].startswith("maximize beta:1")
        # one line per row plus one per finite bound.
        finite = int(np.isfinite(model.upper).sum())
        assert len(lines) == 1 + model.rows.shape[0] + finite


class TestRhs:
    @PROPERTY
    @given(ladders_and_advice(), st.floats(0.0, 1.0))
    def test_rhs_is_gamma_times_family_opt(self, case, share):
        ladder, advice = case
        gamma = share * core.bq_bound(ladder)
        model = lp.build_pareto_lp(ladder, advice, gamma)
        m = ladder.m
        scaled = core.FareLadder(fares=model.scaled_fares, capacity=ladder.capacity)
        family = hard_instances(scaled, advice)
        # rows: m capacity, m prefix, the consistency link, m*m continuations
        rhs = np.concatenate([model.rhs[m : 2 * m], model.rhs[2 * m + 1 :]])
        assert len(rhs) == len(family)
        for b, inst in zip(rhs, family):
            assert relative_gap(b, gamma * reference_opt(scaled, inst)) <= 1e-12


class TestKnownOptima:
    def test_tiny_case(self):
        # [DERIVED] fares {1,2}, n=2, advice (0,2), gamma=2/3:
        # best consistency is 2/3 with x=(4/3, 2/3).
        lad, adv = tiny()
        sol = lp.optimal_consistency(lad, adv, 2.0 / 3.0)
        assert sol.status == "optimal"
        assert sol.beta_star == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert sol.max_violation <= 1e-9

    def test_gamma_zero_fully_consistent(self):
        lad, adv = tiny()
        sol = lp.optimal_consistency(lad, adv, 0.0)
        assert sol.beta_star == pytest.approx(1.0, abs=1e-9)

    def test_beta_at_least_gamma(self):
        # serving gamma times the offline optimum of the advice instance is
        # always available, so the frontier never dips below the diagonal.
        lad = core.make_fare_ladder([1.0, 3.0, 9.0], 12)
        adv = core.make_advice(lad, [2, 4, 6])
        for g in np.linspace(0.0, core.bq_bound(lad), 7):
            sol = lp.optimal_consistency(lad, adv, float(g))
            assert sol.beta_star >= g - 1e-9

    def test_beta_nonincreasing_in_gamma(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        betas = [
            lp.optimal_consistency(lad, adv, float(g)).beta_star
            for g in np.linspace(0.0, core.bq_bound(lad), 9)
        ]
        for lo_b, hi_b in zip(betas, betas[1:]):
            assert hi_b <= lo_b + 1e-9

    def test_big_gap_point_feasible(self):
        # [ORACLE] hand-built feasible point for the steep
        # ladder: x=(30,10,50), y(1)=(0,30,30), y(2)=(0,20,30), y(3)=0,
        # beta = its consistency ratio.  Checked row by row, not via the
        # solver.
        lad, adv = big_gap()
        gamma = 1.0 / 3.0
        model = lp.build_pareto_lp(lad, adv, gamma)
        eta = 1000.0
        beta = (30.0 + 10.0 * eta + 50.0 * eta * eta) / (
            1.0 + 30.0 * eta + 59.0 * eta * eta
        )
        point = np.zeros(1 + 3 + 9)
        point[0] = beta
        point[1:4] = [30.0, 10.0, 50.0]
        point[4:7] = [0.0, 30.0, 30.0]  # y(1)
        point[7:10] = [0.0, 20.0, 30.0]  # y(2)
        point[10:13] = [0.0, 0.0, 0.0]  # y(3)
        assert lp.check_point(model, point) <= 1e-9

    def test_big_gap_optimum(self):
        lad, adv = big_gap()
        sol = lp.optimal_consistency(lad, adv, 1.0 / 3.0)
        assert sol.status == "optimal"
        assert sol.beta_star >= 0.847 - 1e-6
        assert sol.max_violation <= 1e-9


class TestCrossChecks:
    def test_small_models_match_vertex_enumeration(self):
        # m <= 2, n <= 3: the full LP is small enough to brute-force.
        cases = [
            ([1.0, 2.0], 2, [0, 2], 0.5),
            ([1.0, 2.0], 2, [1, 1], 0.6),
            ([1.0, 3.0], 3, [0, 3], 0.4),
            ([2.0, 5.0], 3, [2, 1], 0.7),
        ]
        for fares, n, counts, frac in cases:
            lad = core.make_fare_ladder(fares, n)
            adv = core.make_advice(lad, counts)
            gamma = frac * core.bq_bound(lad)
            model = lp.build_pareto_lp(lad, adv, gamma)
            sol = lp.solve_lp(model)
            assert sol.status == "optimal"
            ref_val, _ = vertex_enumeration_lp(
                model.objective, model.rows, model.senses, model.rhs,
                upper=model.upper,
            )
            assert sol.beta_star == pytest.approx(ref_val, abs=1e-8)

    def test_bq_policy_gives_feasible_point_at_worst_case_gamma(self):
        # the advice-free worst-case levels induce a feasible LP point at
        # gamma equal to the worst-case bound: x from their run on the
        # advice instance, y(k) from the continuation portion of their run
        # on (prefix k) + (full block instance).
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 8)
        adv = core.make_advice(lad, [1, 3, 4])
        gamma = core.bq_bound(lad)
        model = lp.build_pareto_lp(lad, adv, gamma)
        levels = bq_levels(lad)
        m = lad.m

        def per_class(trace):
            return np.concatenate([[trace.q[0]], np.diff(trace.q)])

        full = run_protection_policy(lad, levels, advice_instance(lad, adv))
        x = per_class(full)
        point = np.zeros(1 + m + m * m)
        point[0] = full.revenue / core.advice_opt(lad, adv)
        point[1 : 1 + m] = x
        for k in range(1, m + 1):
            prefix = advice_prefix(lad, adv, k)
            pre = run_protection_policy(lad, levels, prefix)
            combined = run_protection_policy(
                lad, levels, concat(prefix, block_instance(lad, m))
            )
            y_k = per_class(combined) - per_class(pre)
            point[1 + m + (k - 1) * m : 1 + m + k * m] = y_k
        assert lp.check_point(model, point) <= 1e-7
        # and the solver can only do better than this witness.
        sol = lp.solve_lp(model)
        assert sol.status == "optimal"
        assert sol.beta_star >= point[0] - 1e-9
        assert sol.beta_star >= gamma - 1e-9


class TestArrayForms:
    """The builder and the checker work on whole arrays; the references in
    ``oracles`` fill and walk one row at a time."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(case=ladders_and_advice(max_m=6, max_n=40), share=st.floats(0.0, 1.0))
    def test_builder_matches_row_by_row_reference_bitwise(self, case, share):
        lad, adv = case
        gamma = share * core.bq_bound(lad)
        model = lp.build_pareto_lp(lad, adv, gamma)
        ref = reference_build_pareto_lp(lad, adv, gamma)
        for name in ("objective", "rows", "rhs", "upper"):
            assert same_bits(getattr(model, name), getattr(ref, name))
        assert model.senses == ref.senses
        assert model.labels == ref.labels
        assert same_bits(model.advice_opt_scaled, ref.advice_opt_scaled)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(
        case=ladders_and_advice(min_m=2, max_m=6, max_n=40),
        share=st.floats(0.0, 1.0),
        noise=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_check_point_matches_row_by_row_reference(self, case, share, noise, seed):
        # Only the summation order of each row's dot product differs.
        lad, adv = case
        model = lp.build_pareto_lp(lad, adv, share * core.bq_bound(lad))
        point = lp.solve_beta(model).x
        point = point + noise * np.random.default_rng(seed).normal(size=point.size)
        got = lp.check_point(model, point)
        assert got >= 0.0
        assert abs(got - reference_check_point(model, point)) <= 1e-12

    def test_check_point_nan_point_is_nan(self):
        lad, adv = tiny()
        model = lp.build_pareto_lp(lad, adv, 0.5)
        point = np.full(model.rows.shape[1], np.nan)
        assert np.isnan(lp.check_point(model, point))

    def test_solve_lp_beta_is_solve_beta(self):
        lad, adv = big_gap()
        model = lp.build_pareto_lp(lad, adv, 1.0 / 3.0)
        first = lp.solve_beta(model)
        assert first.status == "optimal"
        assert same_bits(first.x[0], lp.solve_lp(model).beta_star)
