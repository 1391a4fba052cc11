"""Domain model: ladders, advice, instances, and hard-instance builders."""

import numpy as np
import pytest

from rmadvice import core


def ladder(fares=(1.0, 2.0, 4.0), n=4):
    return core.make_fare_ladder(fares, n)


class TestValidation:
    def test_fares_must_increase(self):
        with pytest.raises(ValueError):
            core.make_fare_ladder([1.0, 1.0, 2.0], 3)
        with pytest.raises(ValueError):
            core.make_fare_ladder([2.0, 1.0], 3)

    def test_fares_must_be_positive(self):
        with pytest.raises(ValueError):
            core.make_fare_ladder([0.0, 1.0], 3)
        with pytest.raises(ValueError):
            core.make_fare_ladder([-1.0, 1.0], 3)

    def test_fares_must_be_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                core.make_fare_ladder([1.0, bad], 3)

    def test_capacity_positive_integer(self):
        for bad in (0, 2.5, True, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                core.make_fare_ladder([1.0, 2.0], bad)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            core.make_fare_ladder([], 3)

    def test_advice_mass_must_equal_capacity(self):
        lad = ladder()
        with pytest.raises(ValueError):
            core.make_advice(lad, [1, 1, 1])
        with pytest.raises(ValueError):
            core.make_advice(lad, [1, 1, 3])

    def test_advice_counts_nonnegative(self):
        with pytest.raises(ValueError):
            core.make_advice(ladder(), [-1, 2, 3])

    def test_advice_length_must_match(self):
        with pytest.raises(ValueError):
            core.make_advice(ladder(), [2, 2])

    def test_instance_indices_in_range(self):
        lad = ladder()
        with pytest.raises(ValueError):
            core.make_instance(lad, [0, 1])
        with pytest.raises(ValueError):
            core.make_instance(lad, [4])


class TestBqBound:
    def test_single_fare(self):
        # [TRIVIAL] one fare class: accepting greedily is optimal.
        assert core.bq_bound(core.make_fare_ladder([5.0], 3)) == 1.0

    def test_two_fares(self):
        # [DERIVED] 1 / (1 + (1 - 1/2)) = 2/3.
        assert core.bq_bound(core.make_fare_ladder([1.0, 2.0], 2)) == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    def test_scale_invariance(self):
        a = core.bq_bound(core.make_fare_ladder([1.0, 3.0, 9.0], 5))
        b = core.bq_bound(core.make_fare_ladder([7.0, 21.0, 63.0], 5))
        assert a == pytest.approx(b, abs=1e-15)


class TestOptRevenue:
    def test_takes_top_fares(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 2)
        inst = core.make_instance(lad, [1, 3, 2, 3])
        # [DERIVED] top two of (1, 4, 2, 4) is 8.
        assert core.opt_revenue(lad, inst) == pytest.approx(8.0)

    def test_short_instance(self):
        lad = core.make_fare_ladder([1.0, 2.0], 5)
        inst = core.make_instance(lad, [2, 1])
        assert core.opt_revenue(lad, inst) == pytest.approx(3.0)

    def test_empty_instance(self):
        assert core.opt_revenue(ladder(), core.Instance(steps=())) == 0.0

    def test_permutation_invariant(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        rng = np.random.default_rng(7)
        steps = list(rng.integers(1, 4, size=10))
        base = core.opt_revenue(lad, core.make_instance(lad, steps))
        for _ in range(20):
            rng.shuffle(steps)
            assert core.opt_revenue(lad, core.make_instance(lad, steps)) == pytest.approx(base)


class TestAdvice:
    def test_lowest_index(self):
        lad = ladder()
        assert core.make_advice(lad, [0, 1, 3]).lowest_index == 2
        assert core.make_advice(lad, [1, 0, 3]).lowest_index == 1
        assert core.make_advice(lad, [0, 0, 4]).lowest_index == 3

    def test_cap_counts(self):
        lad = ladder()
        adv = core.make_advice(lad, [0, 1, 3])
        # capacity through the lowest predicted class, advised counts above.
        assert adv.cap_counts == (4, 4, 3)

    def test_advice_opt(self):
        lad = ladder()
        adv = core.make_advice(lad, [0, 1, 3])
        assert core.advice_opt(lad, adv) == pytest.approx(2.0 + 12.0)


class TestConstructions:
    def test_advice_instance_blocks(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.advice_instance(lad, adv)
        # n copies of each class up to the lowest predicted (2), then counts.
        assert inst.steps == (1, 1, 1, 2, 2, 2, 3, 3)

    def test_advice_prefix(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        assert core.advice_prefix(lad, adv, 1).steps == (1, 1, 1)
        assert core.advice_prefix(lad, adv, 2).steps == (1, 1, 1, 2, 2, 2)
        assert core.advice_prefix(lad, adv, 3) == core.advice_instance(lad, adv)

    def test_block_instance(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        assert core.block_instance(lad, 1).steps == (1, 1)
        assert core.block_instance(lad, 2).steps == (1, 1, 2, 2)

    def test_concat(self):
        a = core.Instance(steps=(1, 2))
        b = core.Instance(steps=(3,))
        assert core.concat(a, b).steps == (1, 2, 3)

    def test_hard_family_size(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        family = core.hard_instances(lad, adv)
        assert len(family) == lad.m ** 2 + lad.m

    def test_hard_family_conformance(self):
        # the full advice prefix realizes the advice; shorter prefixes do not.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        assert core.conforms(adv, core.advice_prefix(lad, adv, 3))
        assert not core.conforms(adv, core.advice_prefix(lad, adv, 2))


class TestConformance:
    def test_exact_counts_conform(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 3, 3])
        assert core.conforms(adv, inst)

    def test_extra_lowest_class_still_conforms(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 2, 2, 3, 3, 1])
        assert core.conforms(adv, inst)

    def test_excess_above_lowest_breaks_conformance(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 3, 3, 3])
        assert not core.conforms(adv, inst)

    def test_relaxed_widens_exact(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 4, 6])
        params = core.ConformanceParams(mu=0.5, nu=0.5)
        inst = core.make_instance(lad, [2] * 3 + [3] * 7)  # undershoot 4->3, over 6->7
        assert not core.conforms(adv, inst)
        assert core.conforms_relaxed(adv, inst, params)

    def test_relaxed_params_validated(self):
        with pytest.raises(ValueError):
            core.ConformanceParams(mu=-0.1, nu=0.0)

    def test_zero_slack_matches_exact_on_random_instances(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 6)
        adv = core.make_advice(lad, [0, 2, 4])
        params = core.ConformanceParams(mu=0.0, nu=0.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            inst = core.Instance(steps=tuple(rng.integers(1, 4, size=rng.integers(0, 15))))
            exact = core.conforms(adv, inst)
            relaxed = core.conforms_relaxed(adv, inst, params)
            # exact conformance never requires more than zero-slack relaxed.
            assert relaxed or not exact


class TestAdviceDistance:
    def test_zero_on_conforming(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        assert core.advice_distance(adv, core.advice_instance(lad, adv)) == 0

    def test_counts_mismatch(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [3, 3, 3])  # class 2 short by 1, class 3 over by 1
        assert core.advice_distance(adv, inst) == 2

    def test_surplus_at_lowest_class_is_free(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 2, 2, 3, 3])
        assert core.advice_distance(adv, inst) == 0
