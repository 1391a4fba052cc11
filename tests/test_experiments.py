"""Monte-Carlo harness: sampling, averages, sweeps, robustness bound."""

import argparse
import hashlib
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmadvice import cli, core, experiments, lp, protect
from rmadvice.experiments import (
    NoiseConfig,
    RobustnessBoundError,
    average_cr,
    check_robustness_bound,
    robustness_sweep,
    sample_counts,
)
from rmadvice.policies import (
    block_revenue,
    bq_levels,
    derive_switch_plan,
    run_lp_optimal,
    run_protection_policy,
    run_relaxed_optimal,
)
from rmadvice.rng import derive_key

from .oracles import count_calls, sample_instance

# Fixed example sequence, no example database: tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def setup_case():
    lad = core.make_fare_ladder([1.0, 2.0, 4.0], 20)
    adv = core.make_advice(lad, [2, 8, 10])
    return lad, adv


def consistency(lad, adv, levels):
    return block_revenue(lad.fares, levels.levels, adv.cap_counts) / core.advice_opt(lad, adv)


class TestNoiseConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(v=1.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            NoiseConfig(v=-0.1, trials=10, seed=0)
        with pytest.raises(ValueError):
            NoiseConfig(v=0.5, trials=0, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True, "3", float("nan"), None])
    def test_trials_must_be_whole(self, trials):
        with pytest.raises(ValueError):
            NoiseConfig(v=0.5, trials=trials, seed=0)

    def test_whole_float_trials_become_int(self):
        noise = NoiseConfig(v=0.5, trials=3.0, seed=0)
        assert noise.trials == 3 and type(noise.trials) is int

    @pytest.mark.parametrize(
        "seed", [-1, 2**64, 2**64 + 5, 5.5, True, "5", None, float("nan"), np.int64(-3)]
    )
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(v=0.5, trials=3, seed=seed)

    @pytest.mark.parametrize("seed", [0, 5.0, np.int64(3), np.uint64(2**64 - 1), 2**64 - 1])
    def test_whole_seed_becomes_int(self, seed):
        noise = NoiseConfig(v=0.5, trials=3, seed=seed)
        assert noise.seed == int(seed) and type(noise.seed) is int
        lad, adv = setup_case()
        same = sample_counts(lad, adv, NoiseConfig(v=0.5, trials=3, seed=int(seed)))
        assert np.array_equal(sample_counts(lad, adv, noise), same)


class TestSampling:
    def test_deterministic(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.5, trials=10, seed=42)
        a = sample_counts(lad, adv, noise)
        b = sample_counts(lad, adv, noise)
        assert a.shape == (10, lad.m) and a.dtype == np.int64
        assert np.array_equal(a, b)
        assert not np.array_equal(a[3], a[4])

    def test_zero_noise_recovers_advice_counts(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.0, trials=3, seed=1)
        for row in sample_counts(lad, adv, noise):
            assert row[0] == lad.capacity  # class 1 always arrives in full
            assert list(row[1:]) == list(adv.counts[1:])

    def test_zero_advised_count_stays_zero(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [2, 0, 8])
        noise = NoiseConfig(v=0.9, trials=20, seed=5)
        assert np.all(sample_counts(lad, adv, noise)[:, 1] == 0)

    def test_increasing_order(self):
        # a count row stands for the trial's instance in increasing fare order.
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.5, trials=8, seed=9)
        inst = sample_instance(lad, adv, noise, 7)
        assert list(inst.steps) == sorted(inst.steps)
        assert sample_counts(lad, adv, noise)[7].tolist() == core.fare_counts(inst, lad.m).tolist()

    def test_counts_never_negative(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.9, trials=50, seed=11)
        assert np.all(sample_counts(lad, adv, noise) >= 0)

    @PROPERTY
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=5),
        st.sampled_from([0.0, 0.3, 0.9, 0.999]),
        st.integers(0, 2**64 - 1),
        st.integers(1, 12),
    )
    def test_rows_equal_per_trial_draws(self, extra, v, seed, trials):
        # same streams and scalar Box-Muller draws as one instance per trial
        lad = core.make_fare_ladder([2.0 ** i for i in range(len(extra) + 1)], 1 + sum(extra))
        adv = core.make_advice(lad, [1] + extra)
        noise = NoiseConfig(v=v, trials=trials, seed=seed)
        rows = sample_counts(lad, adv, noise)
        for t in range(trials):
            expected = core.fare_counts(sample_instance(lad, adv, noise, t), lad.m)
            assert rows[t].tobytes() == expected.astype(np.int64).tobytes()


def oracle_counts(lad, adv, noise):
    """The per-trial oracle's counts, one instance at a time."""
    return np.array(
        [core.fare_counts(sample_instance(lad, adv, noise, t), lad.m) for t in range(noise.trials)],
        dtype=np.int64,
    ).reshape(noise.trials, lad.m)


class TestSamplingOracle:
    """``sample_counts`` against one scalar stream per trial, byte for byte."""

    @pytest.mark.parametrize("advice", [[2, 8, 10], [2, 8, 10, 5], [1, 0, 7, 3, 9, 4]],
                             ids=["m-1-even", "m-1-odd", "m-1-odd-zero-class"])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("v", [0.0, 0.5, 0.999])
    def test_both_parities_seeds_and_noise(self, advice, seed, v):
        # m - 1 odd drops the last pair's sine
        lad = core.make_fare_ladder([2.0 ** i for i in range(len(advice))], sum(advice))
        adv = core.make_advice(lad, advice)
        noise = NoiseConfig(v=v, trials=7, seed=seed)
        assert sample_counts(lad, adv, noise).tobytes() == oracle_counts(lad, adv, noise).tobytes()

    def test_single_class_draws_nothing(self):
        lad = core.make_fare_ladder([3.0], 5)
        adv = core.make_advice(lad, [5])
        counts = sample_counts(lad, adv, NoiseConfig(v=0.5, trials=4, seed=3))
        assert counts.shape == (4, 1) and counts.dtype == np.int64
        assert counts.tolist() == [[5]] * 4

    def test_thousand_trials(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0, 8.0, 16.0], 50)
        adv = core.make_advice(lad, [10, 15, 5, 12, 8])
        noise = NoiseConfig(v=0.9, trials=1000, seed=2**64 - 1)
        assert sample_counts(lad, adv, noise).tobytes() == oracle_counts(lad, adv, noise).tobytes()

    def test_frozen_digest(self):
        # [FROZEN] SHA-256 of one count array; any change moves every
        # recorded robustness sweep.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0, 8.0], 40)
        adv = core.make_advice(lad, [10, 10, 12, 8])
        counts = sample_counts(lad, adv, NoiseConfig(v=0.5, trials=500, seed=2**64 - 1))
        assert counts.shape == (500, 4) and counts.dtype == np.int64
        assert hashlib.sha256(counts.tobytes()).hexdigest() == (
            "80bd3a7938c7712a247c6e5d588da78174797490cf21d1f14aa6b79bb0cf0a4e"
        )


def replayed_ratios(lad, adv, policy, gamma, noise, relaxed_epsilon=0.1):
    """Per-trial realized ratios from the step-by-step runners."""
    if policy in ("lp_optimal", "lp_relaxed"):
        plan = derive_switch_plan(lp.water_fill_plan(lad, adv, gamma))
    elif policy == "optimal_pl":
        levels, _ = protect.optimal_protection_levels(lad, adv, gamma)
    else:
        levels = bq_levels(lad)
    ratios = []
    for t in range(noise.trials):
        inst = sample_instance(lad, adv, noise, t)
        if policy == "lp_optimal":
            trace = run_lp_optimal(lad, adv, gamma, inst, plan)
        elif policy == "lp_relaxed":
            trace = run_relaxed_optimal(lad, adv, gamma, relaxed_epsilon, inst, plan)
        else:
            trace = run_protection_policy(lad, levels, inst)
        ratios.append(trace.revenue / core.opt_revenue(lad, inst))
    return np.array(ratios)


class TestAverageCr:
    def test_reproducible(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.5, trials=30, seed=42)
        a = average_cr(lad, adv, "bq", 0.3, noise)
        b = average_cr(lad, adv, "bq", 0.3, noise)
        assert a == b

    def test_ratios_within_unit_interval(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.7, trials=50, seed=1)
        for policy in experiments.POLICIES:
            mean, std = average_cr(lad, adv, policy, 0.25, noise)
            assert 0.0 <= mean <= 1.0 + 1e-9
            assert std >= 0.0

    def test_bq_beats_its_bound_on_average(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.5, trials=100, seed=3)
        mean, _ = average_cr(lad, adv, "bq", 0.3, noise)
        assert mean >= core.bq_bound(lad) - 1e-9

    def test_unknown_policy_rejected(self):
        lad, adv = setup_case()
        with pytest.raises(ValueError):
            average_cr(lad, adv, "nope", 0.3, NoiseConfig(v=0.1, trials=1, seed=0))

    @pytest.mark.parametrize("policy", ["lp_optimal", "lp_relaxed", "optimal_pl", "bq"])
    def test_matches_step_runner_replay(self, policy):
        lad = core.make_fare_ladder([1.0, 1.5, 3.0, 7.0], 25)
        for counts, gamma in (([4, 6, 7, 8], 0.2), ([0, 5, 12, 8], 0.35)):
            adv = core.make_advice(lad, counts)
            noise = NoiseConfig(v=0.6, trials=40, seed=17)
            ratios = replayed_ratios(lad, adv, policy, gamma, noise)
            mean, std = average_cr(lad, adv, policy, gamma, noise)
            assert mean == pytest.approx(np.mean(ratios), rel=1e-12)
            assert std == pytest.approx(np.std(ratios, ddof=1), rel=1e-12, abs=1e-15)

    def test_relaxed_policy_supported(self):
        lad, adv = setup_case()
        noise = NoiseConfig(v=0.4, trials=30, seed=8)
        mean, _ = average_cr(lad, adv, "lp_relaxed", 0.3, noise, relaxed_epsilon=0.2)
        assert mean >= 0.3 / 1.2 - 1e-9
        with pytest.raises(ValueError, match="positive"):
            average_cr(lad, adv, "lp_relaxed", 0.3, noise, relaxed_epsilon=0.0)


class TestRobustnessBound:
    def test_holds_on_sampled_instances(self):
        lad, adv = setup_case()
        levels = bq_levels(lad)
        counts = sample_counts(lad, adv, NoiseConfig(v=0.8, trials=200, seed=13))
        realized = [
            block_revenue(lad.fares, levels.levels, row) / core.count_opt(lad, row)
            for row in counts
        ]
        check_robustness_bound(lad, adv, consistency(lad, adv, levels), realized, counts)

    def test_holds_on_arbitrary_instances(self):
        lad, adv = setup_case()
        levels = bq_levels(lad)
        cons = consistency(lad, adv, levels)
        rng = np.random.default_rng(31)
        for _ in range(500):
            inst = core.Instance(steps=tuple(rng.integers(1, 4, size=rng.integers(1, 60))))
            realized = run_protection_policy(lad, levels, inst).revenue / core.opt_revenue(lad, inst)
            check_robustness_bound(lad, adv, cons, realized, core.fare_counts(inst, lad.m))

    def test_violation_raises(self):
        lad, adv = setup_case()
        on_advice = np.array([adv.cap_counts, [20, 8, 11]])  # distances 0 and 1
        check_robustness_bound(lad, adv, 1.0, [1.0, 1.0 - 8.0], on_advice)
        with pytest.raises(RobustnessBoundError):
            check_robustness_bound(lad, adv, 1.0, [1.0, 1.0 - 8.0 - 1e-6], on_advice)
        with pytest.raises(RobustnessBoundError):
            check_robustness_bound(lad, adv, 1.0, 0.5, adv.cap_counts)


class TestSweep:
    def test_rows_and_csv(self):
        lad, adv = setup_case()
        rows = robustness_sweep(
            lad, [adv], gammas=[0.2, 0.4], v_list=[0.0, 0.5], trials=10, seed=7
        )
        assert len(rows) == 2 * 2 * len(experiments.POLICIES)
        # The same sweep through the CLI, which owns the CSV format.
        cfg = {"fares": list(lad.fares), "capacity": lad.capacity, "advice": list(adv.counts),
               "gamma_grid": [0.2, 0.4], "noise": {"v_list": [0.0, 0.5], "trials": 10}}
        text = cli.cmd_robustness(cfg, argparse.Namespace(seed=7))["sweep.csv"]
        lines = text.strip().split("\n")
        assert lines[0] == "v,gamma,policy,mean_cr,std_cr,trials"
        assert len(lines) == 1 + len(rows)
        assert text == cli._csv(lines[0].split(","), map(astuple, rows))

    def test_sweep_deterministic(self):
        lad, adv = setup_case()
        kwargs = dict(gammas=[0.3], v_list=[0.5], trials=15, seed=99)
        a = robustness_sweep(lad, [adv], **kwargs)
        b = robustness_sweep(lad, [adv], **kwargs)
        assert cli._csv([], map(astuple, a)) == cli._csv([], map(astuple, b))

    def test_plans_and_levels_set_up_once_per_advice_and_gamma(self, monkeypatch):
        # The criterion-10 noise sweep: 3 advices x 10 noise levels at one
        # gamma needs one LP plan and one level search per advice.
        calls = {"lp": 0, "levels": 0}
        solve, search = lp.water_fill_plan, protect.optimal_protection_levels

        def counting_solve(*args, **kwargs):
            calls["lp"] += 1
            return solve(*args, **kwargs)

        def counting_search(*args, **kwargs):
            calls["levels"] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(lp, "water_fill_plan", counting_solve)
        monkeypatch.setattr(protect, "optimal_protection_levels", counting_search)
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        advices = [core.make_advice(lad, a) for a in ([70, 20, 10], [15, 70, 15], [10, 20, 70])]
        rows = robustness_sweep(
            lad, advices, gammas=[0.4], v_list=[round(0.1 * i, 1) for i in range(10)],
            trials=5, seed=1357,
        )
        assert len(rows) == 3 * 10 * 3
        assert calls == {"lp": 3, "levels": 3}

    def test_switching_policies_share_one_lane_call_per_advice(self, monkeypatch):
        # lp_optimal and lp_relaxed share their plans, and each search takes
        # an advice's gammas as lanes in one call; the rows are those of
        # policies set up on their own.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
        advices = [core.make_advice(lad, a) for a in ([70, 20, 10], [10, 20, 70])]
        kwargs = dict(gammas=[0.0, 0.2, 0.2, 0.4, core.bq_bound(lad)], v_list=[0.0, 0.5],
                      trials=20, seed=3)
        alone = {p: robustness_sweep(lad, advices, policies=(p,), **kwargs)
                 for p in ("lp_optimal", "lp_relaxed", "optimal_pl", "bq")}
        plans = count_calls(monkeypatch, lp, "water_fill_plan")
        levels = count_calls(monkeypatch, protect, "optimal_protection_levels")
        rows = robustness_sweep(lad, advices, policies=tuple(alone), **kwargs)
        assert (plans[0], levels[0]) == (2, 2)
        for policy, own in alone.items():
            assert [r for r in rows if r.policy == policy] == own

    @pytest.mark.parametrize("v_list, trials", [([0.5, 1.5], 5), ([-0.1], 5), ([0.5], 0)])
    def test_bad_noise_fails_before_any_set_up(self, monkeypatch, v_list, trials):
        calls = []
        setup = experiments._policy_setup
        monkeypatch.setattr(
            experiments, "_policy_setup", lambda *a, **k: calls.append(a) or setup(*a, **k)
        )
        lad, adv = setup_case()
        with pytest.raises(ValueError):
            robustness_sweep(lad, [adv, adv], gammas=[0.2], v_list=v_list, trials=trials, seed=0)
        assert calls == []

    def test_cells_match_average_cr(self):
        # one sample per (advice, v) cell, reused by every gamma and policy
        lad, adv = setup_case()
        rows = robustness_sweep(lad, [adv], gammas=[0.1, 0.3], v_list=[0.4], trials=12, seed=5)
        noise = NoiseConfig(v=0.4, trials=12, seed=derive_key(5, 0))
        for r in rows:
            assert (r.mean_cr, r.std_cr) == average_cr(lad, adv, r.policy, r.gamma, noise)

    def test_instances_shared_across_policies(self):
        # zero noise: every policy sees the exact advice realization, so
        # lp_optimal attains its full consistency.
        lad, adv = setup_case()
        rows = robustness_sweep(
            lad, [adv], gammas=[0.0], v_list=[0.0], trials=3, seed=0
        )
        by_policy = {r.policy: r for r in rows}
        assert by_policy["lp_optimal"].mean_cr == pytest.approx(1.0, abs=1e-6)
        assert by_policy["lp_optimal"].std_cr == pytest.approx(0.0, abs=1e-9)
