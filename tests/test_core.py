"""Domain model: ladders, advice, instances, hard-family counts, offline optimum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmadvice import core

from . import oracles
from .oracles import hard_instances, ladders_and_advice, reference_opt

# Fixed example sequence, no example database: tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def relative_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300) if b != 0.0 else abs(a)


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

    # float() read "124" as fares (1, 2, 4) and True as 1.
    @pytest.mark.parametrize(
        "bad", ["124", ["1", "2", "4"], [True, 2.0], [1.0, None], [1, 10**400]]
    )
    def test_fares_must_be_numbers(self, bad):
        with pytest.raises(ValueError, match="finite numbers"):
            core.make_fare_ladder(bad, 3)

    def test_numpy_fares_accepted(self):
        lad = core.make_fare_ladder([np.float32(1.5), np.int64(2)], 3)
        assert lad.fares == (1.5, 2.0)
        assert all(type(f) is float for f in lad.fares)
        assert core.make_fare_ladder(np.array([1, 2]), 3).fares == (1.0, 2.0)

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

    # int() turned most of these into a valid input; nan and None raised
    # other errors.
    @pytest.mark.parametrize("bad", [
        [1.5, 1, 2], [True, 1, 2], [1, 1, 2.5], [1, float("nan"), 2], [1, None, 2], ["1", 1, 2],
    ])
    def test_advice_counts_must_be_whole(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            core.make_advice(ladder(), bad)

    @pytest.mark.parametrize("bad", [[1, 2.7], [True, 2], [1, float("inf")], [None], ["2"]])
    def test_instance_steps_must_be_whole(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            core.make_instance(ladder(), bad)

    def test_whole_floats_and_numpy_ints_accepted(self):
        lad = ladder()
        assert core.make_advice(lad, [1.0, 1, 2.0]).counts == (1, 1, 2)
        assert core.make_advice(lad, np.array([1, 1, 2])).counts == (1, 1, 2)
        assert core.make_instance(lad, [3.0, np.int64(1)]).steps == (3, 1)


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


class TestCountForm:
    @PROPERTY
    @given(ladders_and_advice())
    def test_hard_counts_match_family(self, case):
        ladder, advice = case
        prefix, blocks = core.hard_counts(ladder, advice)
        rows = list(prefix) + [prefix[k] + blocks[i] for k in range(ladder.m)
                               for i in range(ladder.m)]
        family = hard_instances(ladder, advice)
        assert len(rows) == len(family)
        for row, inst in zip(rows, family):
            assert row.tolist() == core.fare_counts(inst, ladder.m).tolist()

    @PROPERTY
    @given(ladders_and_advice(), st.data())
    def test_count_opt_matches_sort_and_sum(self, case, data):
        ladder, _ = case
        # any order, from empty up to three times the capacity in arrivals
        steps = data.draw(st.lists(st.integers(1, ladder.m), max_size=3 * ladder.capacity))
        inst = core.make_instance(ladder, steps)
        expected = reference_opt(ladder, inst)
        assert relative_gap(core.opt_revenue(ladder, inst), expected) <= 1e-12
        counts = core.fare_counts(inst, ladder.m)
        assert relative_gap(float(core.count_opt(ladder, counts)), expected) <= 1e-12

    def test_count_opt_batches_last_axis(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        counts = np.array([[[0, 0, 0], [5, 0, 0]], [[1, 1, 1], [0, 2, 4]]])
        assert core.count_opt(lad, counts).tolist() == [[0.0, 3.0], [7.0, 12.0]]


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


def from_counts(counts):
    """Block-ordered instance: ``counts[i-1]`` arrivals of class ``i``, in order."""
    steps = np.repeat(np.arange(1, len(counts) + 1), counts)
    return core.Instance(steps=tuple(steps.tolist()))


class TestConstructions:
    def test_advice_instance_blocks(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        prefix, _ = core.hard_counts(lad, adv)
        # n copies of each class up to the lowest predicted (2), then counts:
        # the arrivals (1, 1, 1, 2, 2, 2, 3, 3).
        assert prefix[2].tolist() == [3, 3, 2]
        assert prefix[2].tolist() == list(adv.cap_counts)

    def test_advice_prefix(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        prefix, _ = core.hard_counts(lad, adv)
        assert prefix[0].tolist() == [3, 0, 0]  # (1, 1, 1)
        assert prefix[1].tolist() == [3, 3, 0]  # (1, 1, 1, 2, 2, 2)

    def test_block_instance(self):
        lad = core.make_fare_ladder([1.0, 2.0], 2)
        adv = core.make_advice(lad, [1, 1])
        _, blocks = core.hard_counts(lad, adv)
        assert blocks[0].tolist() == [2, 0]  # (1, 1)
        assert blocks[1].tolist() == [2, 2]  # (1, 1, 2, 2)

    def test_concat(self):
        # a prefix followed by a block counts as the sum of their counts.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        prefix, blocks = core.hard_counts(lad, adv)
        steps = from_counts(prefix[1]).steps + from_counts(blocks[2]).steps
        assert steps == (1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2, 3, 3, 3)
        counts = core.fare_counts(core.Instance(steps=steps), lad.m)
        assert counts.tolist() == (prefix[1] + blocks[2]).tolist()

    def test_hard_family_size(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        prefix, blocks = core.hard_counts(lad, adv)
        continued = prefix[:, None] + blocks[None]
        assert prefix.shape == blocks.shape == (lad.m, lad.m)
        assert len(prefix) + continued.shape[0] * continued.shape[1] == lad.m ** 2 + lad.m

    def test_hard_family_conformance(self):
        # the full advice prefix realizes the advice; shorter prefixes do not.
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        prefix, _ = core.hard_counts(lad, adv)
        assert oracles.conforms(adv, from_counts(prefix[2]))
        assert not oracles.conforms(adv, from_counts(prefix[1]))


class TestConformance:
    def test_exact_counts_conform(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 3, 3])
        assert oracles.conforms(adv, inst)

    def test_extra_lowest_class_still_conforms(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 2, 2, 3, 3, 1])
        assert oracles.conforms(adv, inst)

    def test_excess_above_lowest_breaks_conformance(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 3, 3, 3])
        assert not oracles.conforms(adv, inst)

    def test_relaxed_widens_exact(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 10)
        adv = core.make_advice(lad, [0, 4, 6])
        params = oracles.ConformanceParams(mu=0.5, nu=0.5)
        inst = core.make_instance(lad, [2] * 3 + [3] * 7)  # undershoot 4->3, over 6->7
        assert not oracles.conforms(adv, inst)
        assert oracles.conforms_relaxed(adv, inst, params)

    def test_relaxed_params_validated(self):
        with pytest.raises(ValueError):
            oracles.ConformanceParams(mu=-0.1, nu=0.0)

    def test_zero_slack_matches_exact_on_random_instances(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 6)
        adv = core.make_advice(lad, [0, 2, 4])
        params = oracles.ConformanceParams(mu=0.0, nu=0.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            inst = core.Instance(steps=tuple(rng.integers(1, 4, size=rng.integers(0, 15))))
            exact = oracles.conforms(adv, inst)
            relaxed = oracles.conforms_relaxed(adv, inst, params)
            # exact conformance never requires more than zero-slack relaxed.
            assert relaxed or not exact


class TestAdviceDistance:
    def test_zero_on_conforming(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        assert oracles.advice_distance(adv, from_counts(adv.cap_counts)) == 0

    def test_counts_mismatch(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [3, 3, 3])  # class 2 short by 1, class 3 over by 1
        assert oracles.advice_distance(adv, inst) == 2

    def test_surplus_at_lowest_class_is_free(self):
        lad = core.make_fare_ladder([1.0, 2.0, 4.0], 3)
        adv = core.make_advice(lad, [0, 1, 2])
        inst = core.make_instance(lad, [2, 2, 2, 3, 3])
        assert oracles.advice_distance(adv, inst) == 0
