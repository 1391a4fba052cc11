"""Frontier curves, advice grids, and relative suboptimality."""

import argparse

import numpy as np
import pytest

from rmadvice import cli, core, frontier, lp, protect

from .oracles import count_calls, same_bits
from .test_core import relative_gap

ARGS = argparse.Namespace(seed=0)  # the CLI's defaults


class TestGammaGrid:
    def test_default_span(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        grid = frontier.default_gamma_grid(lad)
        assert grid.shape == (41,)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(core.bq_bound(lad))

    def test_too_few_points_rejected(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            frontier.default_gamma_grid(lad, points=1)


class TestFrontierCurve:
    def test_tiny_curve_shape(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        curve = frontier.consistency_frontier(lad, adv, np.linspace(0.0, 2 / 3, 5))
        assert curve.beta_lp[0] == pytest.approx(1.0, abs=1e-6)
        assert curve.beta_lp[-1] == pytest.approx(2 / 3, abs=1e-6)
        assert curve.beta_pl[-1] == pytest.approx(2 / 3, abs=2e-6)
        # LP dominates levels dominates the advice-free baseline.
        for bl, bp in zip(curve.beta_lp, curve.beta_pl):
            assert bl >= bp - 2e-6
            assert bp >= curve.bq_consistency - 2e-6

    def test_curves_nonincreasing(self):
        lad = core.make_fare_ladder([1.0, 3.0, 9.0], 9)
        adv = core.make_advice(lad, [0, 4, 5])
        curve = frontier.consistency_frontier(
            lad, adv, np.linspace(0.0, core.bq_bound(lad), 9)
        )
        assert np.all(np.diff(curve.beta_lp) <= 1e-9)
        assert np.all(np.diff(curve.beta_pl) <= 2e-6)

    @pytest.mark.parametrize(
        "fares, n, counts",
        [([1.0, 2.0, 4.0], 10, [0, 3, 7]), ([1.0, 1.7, 2.9, 5.3], 40, [9, 11, 7, 13])],
    )
    def test_beta_lp_agrees_with_the_lp_optimum(self, fares, n, counts):
        # beta_lp is the water-fill plan's beta, which agrees with the
        # simplex's beta* to 1e-9 relative at every grid point.
        lad = core.make_fare_ladder(fares, n)
        adv = core.make_advice(lad, counts)
        grid = frontier.default_gamma_grid(lad, 11)
        curve = frontier.consistency_frontier(lad, adv, grid)
        for g, beta in zip(grid, curve.beta_lp):
            assert same_bits(beta, lp.water_fill_plan(lad, adv, float(g)).beta_star)
            assert relative_gap(beta, lp.optimal_consistency(lad, adv, float(g)).beta_star) <= 1e-9

    def test_one_build_gate_and_terms_per_advice(self, monkeypatch):
        # The fixed costs of a frontier are paid once per advice, not once
        # per gamma: one hard family, one gate call over all 41 lanes, and
        # one set of the protection-level pass's advice terms.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        adv = core.make_advice(lad, [10, 20, 70])
        builds = count_calls(monkeypatch, lp, "hard_family")
        terms = count_calls(monkeypatch, protect, "_advice_terms")
        gate, gated = lp.check_point, []
        monkeypatch.setattr(lp, "check_point", lambda family, gamma, point: gated.append(
            (np.shape(gamma), np.shape(point))) or gate(family, gamma, point))
        curve = frontier.consistency_frontier(lad, adv, frontier.default_gamma_grid(lad, 41))
        assert curve.beta_lp.shape == curve.beta_pl.shape == (41,)
        assert (builds[0], terms[0], gated) == (1, 1, [((41,), (41, 1 + 3 + 9))])

    @pytest.mark.parametrize("violation", [1.0, 2e-9, float("nan")])
    def test_violating_lp_point_raises(self, monkeypatch, violation):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        monkeypatch.setattr(lp, "check_point", lambda family, gamma, point: violation)
        with pytest.raises(RuntimeError, match="violates"):
            frontier.consistency_frontier(lad, adv, [0.0, 0.5])

    def test_non_optimal_lp_raises(self, monkeypatch):
        # The water-fill pass fails at every beta, c(F) included.
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        monkeypatch.setattr(lp, "_water_fill", lambda lane: lambda beta: (None, np.nan))
        with pytest.raises(RuntimeError, match="infeasible"):
            frontier.consistency_frontier(lad, adv, [0.0, 0.5])


class TestRelativeSuboptimality:
    def test_nonnegative_and_zero_when_curves_match(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [0, 2])
        rs = frontier.relative_suboptimality(lad, adv, np.linspace(0.0, 2 / 3, 5))
        assert 0.0 <= rs < 1e-4

    def test_large_gap_on_steep_ladder(self):
        eta = 1000.0
        lad = core.make_fare_ladder([1.0, eta, eta * eta], 90)
        adv = core.make_advice(lad, [1, 30, 59])
        rs = frontier.relative_suboptimality(lad, adv, [1.0 / 3.0])
        assert rs >= 0.25


class TestAdviceGrid:
    def test_count_for_default_setup(self):
        # [DERIVED] compositions of 100 into 3 parts in multiples of 10:
        # C(12, 2) = 66 grid points.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        grid = frontier.advice_grid(lad, 10)
        assert len(grid) == 66

    def test_all_points_valid_and_class_one_positive(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        for adv in frontier.advice_grid(lad, 10):
            assert sum(adv.counts) == 100
            assert adv.counts[0] >= 1

    def test_adjustment_moves_one_seat(self):
        # (0, 10, 90) becomes (1, 10, 89): seat taken from the highest
        # predicted class.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        grid = frontier.advice_grid(lad, 10)
        counts = {a.counts for a in grid}
        assert (1, 10, 89) in counts
        assert (0, 10, 90) not in counts
        assert (1, 0, 99) in counts  # from (0, 0, 100)

    def test_bad_step_rejected(self):
        lad = core.make_fare_ladder([1.0, 2.0], 100)
        with pytest.raises(ValueError):
            frontier.advice_grid(lad, 3)


class TestCsv:
    """The CSV files of the ``frontier`` and ``rs-grid`` commands."""

    def test_frontier_csv(self):
        cfg = {"fares": [1.0, 2.0], "capacity": 2, "advice": [0, 2], "gamma_grid": [0.0, 0.5]}
        text = cli.cmd_frontier(cfg, ARGS)["frontier.csv"]
        lines = text.strip().split("\n")
        assert lines[0] == "gamma,beta_lp,beta_pl,bq_consistency"
        assert len(lines) == 3
        assert "\r" not in text

    def test_rs_grid_csv(self):
        lad = core.make_fare_ladder([1.0, 2.0], 4)
        advices = frontier.advice_grid(lad, 2)
        cfg = {"fares": [1.0, 2.0], "capacity": 4, "advice_step": 2, "gamma_grid": [0.0, 0.5]}
        text = cli.cmd_rs_grid(cfg, ARGS)["rs_grid.csv"]
        lines = text.strip().split("\n")
        assert lines[0] == "A_1,A_2,rs"
        assert len(lines) == 1 + len(advices)
