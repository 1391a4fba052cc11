"""Consistency/competitiveness LP: shape, known optima, cross-checks."""

import json
import re
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmadvice import cli, core, experiments, frontier, lp, policies, protect, simplex
from rmadvice.policies import bq_levels, run_protection_policy
from rmadvice.simplex import SimplexResult

from .oracles import (
    advice_instance,
    advice_prefix,
    block_instance,
    concat,
    count_calls,
    hard_instances,
    ladders_and_advice,
    reference_build_pareto_lp,
    reference_check_point,
    reference_opt,
    reference_tie_break,
    reference_water_fill_beta,
    same_bits,
    tie_break_objective,
    vertex_enumeration_lp,
)
from .test_core import PROPERTY, relative_gap


def tiny():
    lad = core.make_fare_ladder([1.0, 2.0], 2)
    adv = core.make_advice(lad, [0, 2])
    return lad, adv


def solved(fares, n, counts):
    lad = core.make_fare_ladder(fares, n)
    return lad, core.make_advice(lad, counts)


# Ladders on which the simplex's ratio test once stopped at gamma = c(F):
# a rounding-level negative rhs (-4e-17, -1e-13) over a column just above
# PIVOT_TOL gave a ratio below -1e-9.
ROUNDING_RHS_CASES = (
    solved([1.0, 67.0, 67.001, 98.001], 1, [0, 0, 1, 0]),
    solved([1.0, 1.001, 2.251, 66.251, 67.626], 1, [0, 1, 0, 0, 0]),
    solved([1.0, 1.25, 48.25, 48.75, 49.75, 55.75, 56.75], 2, [0, 0, 0, 0, 0, 1, 1]),
    solved([1.0, 1.25, 47.25, 47.75, 48.75, 54.75, 55.75], 2, [0, 0, 0, 0, 0, 1, 1]),
)


# Near-equal ladders at gamma = c(F) on which solve_beta's point violates
# the model, by 1.5e-9 and by 146.6, so that solve_lp refuses it: pivots as
# small as PIVOT_TOL lie on the simplex's path.  Water-fill solves both.
VIOLATING_FIRST_SOLVES = (
    solved([1.0, 42.86168238656758, 42.86268238656758], 4, [1, 3, 0]),
    solved([97.21148792314668, 97.71148792314668, 158.97679198319673, 158.97779198319674,
            182.97779198319674, 229.97779198319674, 292.1314642297328, 293.1314642297328], 4,
           [0, 0, 1, 1, 0, 1, 1, 0]),
)

# Ladders on which, at gamma = 0, the warm tie-break gives way and the cold
# one does not: fares within 1e-7 of each other, and a pair 2e-4 apart
# above a bottom fare of 0.01.
WARM_FALLBACKS = (
    solved([13.707575502930284, 13.707576873687836, 13.707578244445523, 13.707578258153104], 39,
           [0, 0, 0, 39]),
    solved([0.01, 38.01, 38.7053125, 38.7365625, 38.744375], 5, [0, 0, 1, 1, 3]),
)


def plan_point(plan):
    """A solution's point in the LP's column order."""
    return np.concatenate([[plan.beta_star], plan.x, plan.y.ravel()])


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
        scaled = core.FareLadder(fares=tuple(model.family.fares.tolist()), capacity=ladder.capacity)
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
        assert lp.check_point(model.family, gamma, point) <= 1e-9

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
        assert lp.check_point(model.family, gamma, point) <= 1e-7
        # and the solver can only do better than this witness.
        sol = lp.solve_lp(model)
        assert sol.status == "optimal"
        assert sol.beta_star >= point[0] - 1e-9
        assert sol.beta_star >= gamma - 1e-9


# What ``TestArrayForms`` breaks in a feasible point: one row family or
# one bound, or nothing.
BROKEN = ("none", "capacity", "prefix", "consistency", "continuation", "beta<=1", "x<=cap",
          "nonnegative")


def broken_point(point, family, broken, size, k, i):
    """``point`` with ``broken`` pushed out by about ``size`` (relative),
    at class ``k`` and, for a continuation row, block ``i`` (0-based)."""
    m, n = len(family.fares), family.capacity
    point = point.copy()
    beta, x, y = point[:1], point[1 : 1 + m], point[1 + m :].reshape(m, m)
    if broken == "capacity":
        y[k, -1] += size * n  # trigger row k holds n seats
    elif broken == "prefix":
        x[: k + 1] *= 1.0 - size
    elif broken == "consistency":
        beta += size
    elif broken == "continuation":
        y[k, : i + 1] *= 1.0 - size
    elif broken == "beta<=1":
        beta[:] = 1.0 + size
    elif broken == "x<=cap":
        x[k] = family.caps[k] + size * max(family.caps[k], 1.0)
    elif broken == "nonnegative":
        point[(k * m + i) % point.size] = -size
    return point


class TestArrayForms:
    """The builder and the gate work on whole arrays; the references in
    ``oracles`` fill and walk the dense LP one row at a time."""

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
        for field in fields(lp.HardFamily):
            assert same_bits(getattr(model.family, field.name), getattr(ref.family, field.name))

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(
        case=st.booleans().flatmap(
            lambda near: ladders_and_advice(max_m=12, max_n=100, near_equal=near)
        ),
        where=st.sampled_from(("zero", "bound", "interior")),
        share=st.floats(0.0, 1.0),
        broken=st.sampled_from(BROKEN),
        # Not 1e-9 itself: a break of exactly the gate's tolerance lands
        # on it, and rounding alone decides.
        size=st.sampled_from((1e-12, 1e-10, 5e-10, 3e-9, 1e-6, 0.5)),
        data=st.data(),
    )
    def test_check_point_matches_row_by_row_reference(self, case, where, share, broken, size,
                                                       data):
        # The gate checks each row family from its definition; the oracle
        # walks the dense rows.  Only the summation order of a row differs.
        lad, adv = case
        bound = core.bq_bound(lad)
        gamma = {"zero": 0.0, "bound": bound, "interior": share * bound}[where]
        family = lp.hard_family(lad, adv)
        k, i = data.draw(st.integers(0, lad.m - 1)), data.draw(st.integers(0, lad.m - 1))
        point = plan_point(lp.water_fill_plan(lad, adv, gamma))
        point = broken_point(point, family, broken, size, k, i)
        got = lp.check_point(family, gamma, point)
        ref = reference_check_point(reference_build_pareto_lp(lad, adv, gamma), point)
        assert got >= 0.0 and abs(got - ref) <= 1e-15
        assert (got <= 1e-9) == (ref <= 1e-9)
        if broken in ("capacity", "beta<=1", "x<=cap", "nonnegative") and size >= 1e-6:
            assert got >= 0.5 * size  # these breaks always show
        # A stack of lanes gives each lane's one-lane result, bit for bit.
        lanes = np.array([plan_point(lp.water_fill_plan(lad, adv, bound)), point, point])
        stacked = lp.check_point(family, [bound, gamma, 0.0], lanes)
        assert same_bits(stacked, [lp.check_point(family, g, p)
                                   for g, p in zip([bound, gamma, 0.0], lanes)])

    def test_check_point_nan_point_is_nan(self):
        lad, adv = tiny()
        family = lp.hard_family(lad, adv)
        point = np.full(1 + lad.m + lad.m ** 2, np.nan)
        assert np.isnan(lp.check_point(family, 0.5, point))
        assert np.isnan(lp.check_point(family, [0.5, 0.0], [point, point])).all()
        point[1] = np.nan  # one NaN among feasible values
        point[[0, 2, *range(3, 7)]] = 0.0
        assert np.isnan(lp.check_point(family, 0.0, point))

    def test_solve_lp_beta_is_solve_beta(self):
        lad, adv = big_gap()
        model = lp.build_pareto_lp(lad, adv, 1.0 / 3.0)
        first = lp.solve_beta(model)
        assert first.status == "optimal"
        assert same_bits(first.x[0], lp.solve_lp(model).beta_star)


def count_passes(monkeypatch):
    """Count the water-fill passes of every pass built from now on; returns
    the live count, a one-item list."""
    build, calls = lp._water_fill, [0]

    def counted_build(lane):
        fill = build(lane)

        def counted(beta):
            calls[0] += 1
            return fill(beta)

        return counted

    monkeypatch.setattr(lp, "_water_fill", counted_build)
    return calls


class TestWaterFill:
    """``water_fill_plan`` against the simplex: the LP oracle for the part
    of the water-fill argument that is not proved."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(
        # up to 16 classes in one case of ten, since their simplex solves are slow
        case=st.sampled_from((8,) * 9 + (16,)).flatmap(
            lambda max_m: ladders_and_advice(max_m=max_m, max_n=100)
        ),
        where=st.sampled_from(("zero", "bound", "interior")),
        share=st.floats(0.0, 1.0),
    )
    @example(case=ROUNDING_RHS_CASES[0], where="bound", share=0.0)
    @example(case=ROUNDING_RHS_CASES[1], where="bound", share=0.0)
    @example(case=ROUNDING_RHS_CASES[2], where="bound", share=0.0)
    @example(case=ROUNDING_RHS_CASES[3], where="bound", share=0.0)
    def test_beta_agrees_with_simplex(self, case, where, share):
        lad, adv = case
        bound = core.bq_bound(lad)
        gamma = {"zero": 0.0, "bound": bound, "interior": share * bound}[where]
        plan = lp.water_fill_plan(lad, adv, gamma)
        model = lp.build_pareto_lp(lad, adv, gamma)
        # solve_beta is the first solve of solve_lp, which takes its beta*
        assert relative_gap(plan.beta_star, lp.solve_beta(model).x[0]) <= 1e-9
        assert lp.check_point(model.family, gamma, plan_point(plan)) == plan.max_violation <= 1e-9

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        case=ladders_and_advice(max_m=8, max_n=100),
        share=st.floats(0.0, 1.0),
        shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_feasibility_is_monotone_in_beta(self, case, share, shares):
        # The bisection needs every beta below a feasible one to be feasible:
        # the pass succeeds exactly below beta*.  Within 1e-8 of beta* the
        # seat test sits on its 1e-12 n slack and rounding decides (one ulp
        # below beta* fails at fares (1, 2, 5, 6), n = 7, advice (0, 0, 7, 0),
        # gamma = c(F)), so that band is left out.
        lad, adv = case
        bound = core.bq_bound(lad)
        fill = lp._water_fill(*lp._lanes(lp.hard_family(lad, adv), [share * bound]))
        beta = lp.water_fill_plan(lad, adv, share * bound).beta_star
        betas = [bound + s * (1.0 - bound) for s in shares] + [1.0, beta * (1 - 2e-8)]
        betas = sorted(b for b in betas if bound <= b and abs(b - beta) > 1e-8 * beta)
        assert [fill(b)[0] is not None for b in betas] == [b < beta for b in betas]
        assert fill(bound)[0] is not None and fill(beta)[0] is not None

    def test_zero_cap_rounding_is_not_a_failure(self):
        # Classes 2 and 5 lie above the lowest advised class with count 0,
        # so their cap is 0; their consistency term rounds to about +1e-16.
        # A slack relative to the cap makes beta fail there, feasibility
        # non-monotone, and the bisection stop at 0.7998.
        fares = [0.5127383149094269, 2.567087989921003, 2.912939627211326,
                 3.2389749209789476, 5.581050032647681, 5.9134242150629275]
        lad = core.make_fare_ladder(fares, 10)
        adv = core.make_advice(lad, [3, 0, 1, 5, 0, 1])
        gamma = 0.39492541833378997
        plan = lp.water_fill_plan(lad, adv, gamma)
        beta_star = lp.optimal_consistency(lad, adv, gamma).beta_star
        assert relative_gap(plan.beta_star, beta_star) <= 1e-9
        assert plan.beta_star == pytest.approx(0.91084, abs=1e-5)
        fill = lp._water_fill(*lp._lanes(lp.hard_family(lad, adv), [gamma]))
        assert all(fill(b)[0] is not None for b in np.linspace(core.bq_bound(lad), beta_star, 200))

    def test_infeasible_pass_raises(self, monkeypatch):
        lad, adv = tiny()
        monkeypatch.setattr(lp, "_water_fill", lambda lane: lambda beta: (None, np.nan))
        with pytest.raises(lp.SolverError, match="infeasible"):
            lp.water_fill_plan(lad, adv, 0.5)

    def test_plan_fills_every_trigger_row(self):
        # The seats a trigger row leaves unsold go to the top class, as the
        # simplex's tie-break puts them.
        lad, adv = big_gap()
        plan = lp.water_fill_plan(lad, adv, 1.0 / 3.0)
        ref = lp.optimal_consistency(lad, adv, 1.0 / 3.0)
        assert np.cumsum(plan.x) + plan.y.sum(axis=1) == pytest.approx([90.0] * 3)
        assert np.cumsum(plan.x) == pytest.approx(np.cumsum(ref.x), abs=1e-6)
        assert np.cumsum(plan.y, axis=1) == pytest.approx(np.cumsum(ref.y, axis=1), abs=1e-6)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(case=ladders_and_advice(max_m=6, max_n=40), shares=st.lists(st.floats(0.0, 1.0)))
    def test_rhs_rebuild_matches_fresh_build_bitwise(self, case, shares):
        # Each lane's pass inputs are a fresh one-gamma LP's rhs, bit for
        # bit, and its plan's targets too: both read the one hard family.
        lad, adv = case
        m, gammas = lad.m, [share * core.bq_bound(lad) for share in shares]
        family = lp.hard_family(lad, adv)
        lanes = lp._lanes(family, gammas)
        assert len(lanes) == len(gammas)
        for gamma, (n, opt_advice, classes) in zip(gammas, lanes):
            fresh = lp.build_pareto_lp(lad, adv, gamma)
            assert n == fresh.family.capacity and same_bits(fresh.rhs[:m], [n] * m)
            assert same_bits(opt_advice, -fresh.rows[2 * m, 0])
            assert same_bits([c[2] for c in classes], fresh.rhs[m : 2 * m])
            targets = [t for c in classes for _, t in c[4]]
            assert same_bits(targets, fresh.rhs[2 * m + 1 :])
            assert lp._lanes(family, [gamma]) == [(n, opt_advice, classes)]


class TestLanes:
    """An array of gammas (lanes) against one call per gamma: every lane
    is searched as a lone gamma is, so both searches agree bit for bit; the
    lanes are gated together by one call of the gate."""

    @staticmethod
    def stacked(plans):
        """The plans' points, one row per lane."""
        return np.array([plan_point(p) for p in plans])

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        case=st.booleans().flatmap(
            lambda near: ladders_and_advice(max_m=12, max_n=100, near_equal=near)
        ),
        shares=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_lanes_match_one_gamma_calls_bitwise(self, case, shares, data):
        lad, adv = case
        bound = core.bq_bound(lad)
        gammas = [0.0, bound] + [share * bound for share in shares]
        gammas = data.draw(st.permutations(gammas + gammas[1::2]))  # with repeats
        plans = lp.water_fill_plan(lad, adv, np.array(gammas))
        searched = protect.optimal_protection_levels(lad, adv, np.array(gammas))
        family = lp.hard_family(lad, adv)
        gate = lp.check_point(family, gammas, self.stacked(plans))
        assert len(plans) == len(searched) == len(gate) == len(gammas)
        for gamma, plan, (levels, beta_pl), violation in zip(gammas, plans, searched, gate):
            one = lp.water_fill_plan(lad, adv, gamma)
            for name in ("beta_star", "x", "y"):
                assert same_bits(getattr(plan, name), getattr(one, name))
            assert same_bits(plan.max_violation, violation)
            # The lone gamma's violation is check_point's on its point, and
            # the lane's.
            assert lp.check_point(family, gamma, plan_point(one)) == one.max_violation
            assert same_bits(violation, one.max_violation)
            one_levels, one_beta = protect.optimal_protection_levels(lad, adv, gamma)
            assert same_bits(beta_pl, one_beta)
            assert same_bits(levels.levels, one_levels.levels)

    def test_perturbed_lane_names_its_gamma(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        adv = core.make_advice(lad, [10, 20, 70])
        gammas = np.linspace(0.0, core.bq_bound(lad), 5)
        family = lp.hard_family(lad, adv)
        points = self.stacked(lp.water_fill_plan(lad, adv, gammas))
        assert np.all(lp.verify(family, gammas, "optimal", points) <= 1e-9)
        points[3:, 1] += 1.0  # x_1 one seat over in lanes 3 and 4: both overbook
        assert np.all(lp.check_point(family, gammas, points)[3:] > 1e-9)
        with pytest.raises(lp.SolverError, match=re.escape(f"gamma={gammas[3]} violates")):
            lp.verify(family, gammas, "optimal", points)

    def test_one_gamma_keeps_its_return_types(self):
        lad, adv = big_gap()
        plan = lp.water_fill_plan(lad, adv, 0.25)
        assert isinstance(plan, lp.LPSolution) and plan.x.shape == (3,)
        assert plan.y.shape == (3, 3) and isinstance(plan.max_violation, float)
        levels, beta = protect.optimal_protection_levels(lad, adv, 0.25)
        assert isinstance(beta, float) and len(levels.levels) == 3
        assert lp.water_fill_plan(lad, adv, []) == []
        assert protect.optimal_protection_levels(lad, adv, []) == []

    def test_bad_lane_is_named(self):
        lad, adv = big_gap()
        with pytest.raises(ValueError, match=r"gamma 0\.9 must lie"):
            lp.water_fill_plan(lad, adv, [0.1, 0.9, 1.5])
        with pytest.raises(ValueError, match=r"gamma nan must lie"):
            protect.optimal_protection_levels(lad, adv, [0.1, float("nan")])


class TestRootSearch:
    """``water_fill_plan``'s root search against the bisection it replaced
    and the simplex, on the cases that broke earlier versions of it."""

    @staticmethod
    def at_bound(fares, n, counts):
        lad = core.make_fare_ladder(fares, n)
        return lad, core.make_advice(lad, counts), core.bq_bound(lad)

    @pytest.mark.parametrize("fares, n, counts", [
        # Near-equal fares: the seats barely move with beta, so the 1e-12 n
        # slack let the last passing double overshoot the LP by 4.0e-9.
        ((4.0, 4.001, 4.002), 91, (70, 21, 0)),
        # The bisection's last double sits 0.99997e-9 above the LP; one
        # double higher it was 1.00004e-9.
        ((1.0, 24.0, 24.0625, 66.0625), 1, (0, 1, 0, 0)),
        # The slack-free root falls 2e-15 short of its piece, whose lower
        # end is the LP's beta: beta settles there, not 2.6e-9 above it.
        ((40.0, 40.25, 40.265625), 1, (0, 1, 0)),
    ])
    def test_pull_back_removes_the_slack(self, fares, n, counts):
        lad, adv, gamma = self.at_bound(fares, n, counts)
        beta = lp.water_fill_plan(lad, adv, gamma).beta_star
        assert relative_gap(beta, lp.solve_beta(lp.build_pareto_lp(lad, adv, gamma)).x[0]) <= 1e-11

    def test_pull_back_stays_on_its_piece(self):
        # A slack-band case on which a pull-back that ignored the pieces
        # was seen to land at beta = -1.06, far off the LP's 0.93664.
        lad = core.make_fare_ladder(
            [1.6110696977081844, 4.053000057996788, 6.706125318243805], 10
        )
        adv = core.make_advice(lad, [4, 3, 3])
        gamma = 0.5004687852597134
        beta = lp.water_fill_plan(lad, adv, gamma).beta_star
        assert relative_gap(beta, lp.solve_beta(lp.build_pareto_lp(lad, adv, gamma)).x[0]) <= 1e-9
        assert beta == pytest.approx(0.93664, abs=1e-5)

    def test_flat_piece_stays_within_the_bisection_budget(self, monkeypatch):
        # Near-equal fares give near-flat pieces, on which the predicted
        # roots crawl; a plain secant took 105 passes here.
        lad, adv, gamma = self.at_bound((4.0, 4.001, 4.002), 91, (70, 21, 0))
        _, bisection_passes = reference_water_fill_beta(lad, adv, gamma)
        calls = count_passes(monkeypatch)
        lp.water_fill_plan(lad, adv, gamma)
        assert calls[0] <= min(bisection_passes, 64) + 4

    def test_pass_budget_on_rs_grid(self, monkeypatch):
        # The step-10 rs-grid of the README ladder: 66 advices x 41 gammas,
        # 52.5 bisection passes per search on average.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        grid = frontier.default_gamma_grid(lad, 41)
        advices = frontier.advice_grid(lad, 10)
        calls = count_passes(monkeypatch)
        for adv in advices:
            lp.water_fill_plan(lad, adv, grid)
        assert calls[0] <= 10 * len(advices) * len(grid)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        case=ladders_and_advice(max_m=12, max_n=100),
        where=st.sampled_from(("zero", "bound", "interior")),
        share=st.floats(0.0, 1.0),
    )
    def test_against_bisection_and_simplex(self, case, where, share):
        # beta within 1e-9 of the simplex's, with at most four passes more
        # than the bisection made.  The bisection's own beta is no oracle:
        # its last passing double overshoots the LP by up to the slack.
        lad, adv = case
        bound = core.bq_bound(lad)
        gamma = {"zero": 0.0, "bound": bound, "interior": share * bound}[where]
        _, ref_passes = reference_water_fill_beta(lad, adv, gamma)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_passes(mp)
            plan = lp.water_fill_plan(lad, adv, gamma)
        assert relative_gap(plan.beta_star, lp.solve_beta(lp.build_pareto_lp(lad, adv, gamma)).x[0]) <= 1e-9
        assert calls[0] <= ref_passes + 4


class TestTieBreak:
    def test_violating_tie_break_gives_way_to_beta_point(self, monkeypatch):
        # The tie-break solve once lost primal feasibility here (without
        # the ratio test's check it returned "optimal" with a point
        # violating the model by 0.83).  Re-optimized from the first
        # solve's tableau it solves, and its point passes the gate; a
        # violating tie-break point gives way to solve_beta's own point.
        lad = core.make_fare_ladder([0.03125, 39.03125, 39.28125, 40.28125], 1)
        adv = core.make_advice(lad, [0, 0, 0, 1])
        model = lp.build_pareto_lp(lad, adv, core.bq_bound(lad))
        first = lp.solve_beta(model)
        sol = lp.solve_lp(model)
        assert same_bits(sol.beta_star, first.x[0]) and sol.max_violation <= 1e-9
        bad = SimplexResult("optimal", np.full(first.x.size, -1.0))
        monkeypatch.setattr(lp, "solve_beta", lambda model: first)
        monkeypatch.setattr(lp, "reoptimize", lambda *args, **kwargs: bad)
        sol = lp.solve_lp(model)
        assert same_bits(sol.beta_star, first.x[0])
        assert same_bits(sol.x, first.x[1:5])
        assert sol.max_violation <= 1e-9

    def test_violating_first_point_is_refused(self, monkeypatch):
        # Without the ratio test's check, solve_beta returned "optimal"
        # here with beta -0.857 and a point violating the model by 3.69.
        # The check then stopped on a rounding-level negative rhs; counted
        # as 0, the LP solves to water-fill's beta.  A violating first
        # point is still refused, whatever the tie-break finds.
        lad = core.make_fare_ladder([45.679057933118905, 45.6800579331189, 46.179057933118905], 2)
        adv = core.make_advice(lad, [1, 1, 0])
        gamma = core.bq_bound(lad)
        model = lp.build_pareto_lp(lad, adv, gamma)
        start = time.perf_counter()
        sol = lp.solve_lp(model)
        assert time.perf_counter() - start < 2.0
        assert relative_gap(sol.beta_star, lp.water_fill_plan(lad, adv, gamma).beta_star) <= 1e-9
        point = np.full(model.rows.shape[1], -1.0)  # breaks every x >= 0
        assert lp.check_point(model.family, gamma, point) > 1e-9
        monkeypatch.setattr(lp, "solve_beta", lambda model: SimplexResult("optimal", point))
        with pytest.raises(lp.SolverError, match="violates the model"):
            lp.solve_lp(model)

    def test_lost_feasibility_case_solves_fast(self):
        # The rhs went to rounding-level negatives after 182 phase-1 pivots
        # here: without the ratio test's check the solve pivoted 50,000
        # times to its iteration cap, and with a check on the ratio alone
        # it stopped.  Counted as 0, such an rhs lets the LP solve.
        fares = [0.0625, 2.8125, 5.25, 9.0, 13.0, 13.6875, 13.75, 14.25, 15.375, 18.8125,
                 22.5625, 24.8125]
        lad = core.make_fare_ladder(fares, 1)
        adv = core.make_advice(lad, [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
        gamma = core.bq_bound(lad)
        start = time.perf_counter()
        sol = lp.optimal_consistency(lad, adv, gamma)
        assert time.perf_counter() - start < 2.0
        plan = lp.water_fill_plan(lad, adv, gamma)
        assert relative_gap(sol.beta_star, plan.beta_star) <= 1e-9
        assert max(sol.max_violation, plan.max_violation) <= 1e-9


    def test_tie_break_runs_no_second_phase_1(self, monkeypatch):
        # The first solve's two phases, then one phase 2 from its tableau:
        # a cold tie-break would run two more pivot loops.
        lad, adv = big_gap()
        model = lp.build_pareto_lp(lad, adv, 1.0 / 3.0)
        first = lp.solve_beta(model)
        assert first.tableau.shape[1] - 1 > first.ncols  # the LP has artificials
        loops = count_calls(monkeypatch, simplex, "simplex_iterate")
        lp.solve_lp(model)
        assert loops[0] == 3

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        case=st.booleans().flatmap(
            lambda near: ladders_and_advice(max_m=8, max_n=100, near_equal=near)),
        where=st.sampled_from(("zero", "bound", "interior")),
        share=st.floats(0.0, 1.0),
    )
    @example(case=VIOLATING_FIRST_SOLVES[0], where="bound", share=0.0)
    @example(case=VIOLATING_FIRST_SOLVES[1], where="bound", share=0.0)
    @example(case=WARM_FALLBACKS[0], where="zero", share=0.0)
    @example(case=WARM_FALLBACKS[1], where="zero", share=0.0)
    def test_warm_tie_break_matches_cold_solve(self, case, where, share):
        # The tie-break re-optimized from the first solve's tableau against
        # the same LP solved from scratch, as solve_lp once did.  Where both
        # pass the gate they reach the same optimum; where one gives way,
        # solve_lp's point is solve_beta's.  Either can give way alone (see
        # test_warm_tie_break_passes_gate_where_cold_does).
        lad, adv = case
        bound = core.bq_bound(lad)
        gamma = {"zero": 0.0, "bound": bound, "interior": share * bound}[where]
        model = lp.build_pareto_lp(lad, adv, gamma)
        warm = []

        def recording(*args):
            warm.append(None)  # stays None if reoptimize raises
            warm[-1] = simplex.reoptimize(*args)
            return warm[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "reoptimize", recording)
            try:
                sol = lp.solve_lp(model)
            except lp.SolverError:
                # solve_beta failed or its point is refused, before any tie-break
                assert not warm
                with pytest.raises(lp.SolverError):
                    first = lp.solve_beta(model)
                    lp.verify(model.family, gamma, first.status, first.x)
                return
        first = lp.solve_beta(model)
        assert same_bits(sol.beta_star, first.x[0]) and len(warm) == 1
        try:
            cold = reference_tie_break(model, sol.beta_star)
        except lp.SolverError:
            cold = None
        point = warm[0].x if tie_break_passes(model, warm[0]) else first.x
        assert same_bits(sol.x, point[1 : 1 + len(sol.x)])
        assert sol.max_violation <= 1e-9
        if tie_break_passes(model, warm[0]) and tie_break_passes(model, cold):
            # Two pivot paths stop at optima that agree up to the simplex's
            # optimality tolerance (reduced costs down to -COST_TOL remain)
            # and up to the worth of the floor's 1e-9, which one path may
            # use and the other not: beta 1e-9 lower frees at most
            # 1e-9 Opt(A) / f_1 seats for each of the m trigger rows.
            family, mass = model.family, tie_break_objective(model)
            tol = simplex.COST_TOL * max(abs(mass @ cold.x), family.capacity)
            tol += 1e-9 * len(family.fares) * family.advice_opt / family.fares[0]
            assert abs(mass @ warm[0].x - mass @ cold.x) <= tol

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the warm tie-break's point violates the model")
    @pytest.mark.parametrize("case", WARM_FALLBACKS, ids=["near-equal", "near-equal-pair"])
    def test_warm_tie_break_passes_gate_where_cold_does(self, case):
        # At gamma = 0 the cold tie-break's point passes the gate; the warm
        # one pivots on an entry of 2.6e-11 or 2.9e-11, rounding noise in
        # the first solve's tableau just above PIVOT_TOL, and violates the
        # model by 2.4e-7 or 4.0, so solve_lp keeps solve_beta's point.
        # Such splits go both ways: the cold tie-break also gives way alone
        # on other ladders.  A Harris ratio test, taking the largest pivot
        # among near-tied ratios, is the open fix.
        lad, adv = case
        model = lp.build_pareto_lp(lad, adv, 0.0)
        first = lp.solve_beta(model)
        assert tie_break_passes(model, reference_tie_break(model, first.x[0]))
        m = len(lad.fares)
        secondary = np.concatenate([np.zeros(1 + m), np.tile(model.family.fares, m)])
        assert tie_break_passes(model, simplex.reoptimize(first, secondary, first.x[0] - 1e-9))


@pytest.mark.xfail(strict=True, raises=lp.SolverError,
                   reason="solve_beta's point violates the model")
@pytest.mark.parametrize("case", VIOLATING_FIRST_SOLVES, ids=["3-class", "8-class"])
def test_near_equal_ladder_reaches_water_fill_beta(case):
    # solve_lp refuses solve_beta's point here.  A Harris ratio test, taking
    # the largest pivot among near-tied ratios, is the open fix.
    lad, adv = case
    gamma = core.bq_bound(lad)
    sol = lp.optimal_consistency(lad, adv, gamma)
    assert relative_gap(sol.beta_star, lp.water_fill_plan(lad, adv, gamma).beta_star) <= 1e-9


def tie_break_passes(model, result):
    """Whether a tie-break result (``None`` for a ``SolverError``) passes
    ``lp.verify``."""
    return (result is not None and result.status == "optimal"
            and lp.check_point(model.family, model.gamma, result.x) <= 1e-9)


class TestPlanPath:
    """Plans and their gate read the hard family; only ``solve-lp`` and
    ``optimal_consistency`` build the dense LP."""

    def test_no_dense_model_on_the_plan_path(self, tmp_path, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("dense LP built")

        monkeypatch.setattr(lp, "build_pareto_lp", no_build)
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 3, 7])
        frontier.consistency_frontier(lad, adv, frontier.default_gamma_grid(lad, 5))
        noise = experiments.NoiseConfig(v=0.5, trials=5, seed=1)
        experiments.average_cr(lad, adv, "lp_optimal", 0.3, noise, check_bound=True)
        experiments.robustness_sweep(lad, [adv], gammas=[0.2, 0.4], v_list=[0.5], trials=5,
                                     seed=3)
        instance = core.make_instance(lad, [1, 2, 3, 3, 2, 1, 3, 3, 3, 3, 2])
        policies.run_lp_optimal(lad, adv, 0.3, instance)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fares": [1.0, 2.0, 4.0], "capacity": 10, "advice": [0, 3, 7],
                                   "gamma": 0.3, "instance": [1, 2, 3, 3, 2, 1, 3],
                                   "policy": "lp_optimal"}))
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_frontier_at_64_classes_within_a_second(self, monkeypatch):
        # 41 lanes over one hard family: the dense model would hold
        # (2m + 1 + m^2) x (1 + m + m^2) = 4225 x 4161 doubles.
        lad = core.make_fare_ladder([1.0 + 0.25 * i for i in range(64)], 200)
        adv = core.make_advice(lad, [100] + [0] * 62 + [100])
        families = count_calls(monkeypatch, lp, "hard_family")
        start = time.perf_counter()
        curve = frontier.consistency_frontier(lad, adv, frontier.default_gamma_grid(lad, 41))
        assert time.perf_counter() - start <= 1.0
        assert families[0] == 1 and curve.beta_lp.shape == (41,)
