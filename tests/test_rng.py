"""Portable counter RNG: frozen reference values and statistics."""

import warnings

import numpy as np
import pytest

from rmadvice import rng
from rmadvice.rng import derive_key, splitmix64

from .oracles import GOLDEN, CounterRng

SEED_42_WORDS = [
    14585004453952745724,
    963425209539481646,
    5031754615345081387,
    6003384052849686581,
]
SEED_42_UNIFORMS = [
    0.7906546757343164,
    0.052227385260500525,
    0.2727719642685551,
    0.32544410161822324,
]
SEED_42_NORMALS = [
    0.6488364481780694,
    0.22090543226852,
    -0.7357943603690961,
    1.434170462807773,
]


def seed_42_keys(rows=1):
    return np.full(rows, derive_key(42), dtype=np.uint64)


class TestReferenceValues:
    # [FROZEN] the first four raw outputs, uniforms and normals for seed 42,
    # stream 0; any change silently breaks reproducibility of every recorded
    # experiment.  Each is pinned on the scalar oracle and on the array path
    # that sample_counts runs.
    def test_seed_42_first_words(self):
        r = CounterRng(42)
        assert [r.next_u64() for _ in range(4)] == SEED_42_WORDS
        words = splitmix64(seed_42_keys()[:, None] + np.arange(1, 5, dtype=np.uint64) * GOLDEN)
        assert words.dtype == np.uint64 and words[0].tolist() == SEED_42_WORDS

    def test_seed_42_first_uniforms(self):
        r = CounterRng(42)
        assert [r.uniform() for _ in range(4)] == pytest.approx(SEED_42_UNIFORMS, abs=0.0)
        assert rng._uniforms(seed_42_keys(), 4)[0].tolist() == SEED_42_UNIFORMS

    def test_seed_42_first_normals(self):
        r = CounterRng(42)
        assert [r.normal() for _ in range(4)] == pytest.approx(SEED_42_NORMALS, abs=1e-15)
        z = rng.normals(seed_42_keys(2), 4)
        assert z.shape == (2, 4)
        for row in z:
            assert row.tolist() == pytest.approx(SEED_42_NORMALS, abs=1e-15)
        # an odd count drops the last pair's sine
        assert rng.normals(seed_42_keys(), 3)[0].tolist() == z[0, :3].tolist()
        assert rng.normals(seed_42_keys(), 0).shape == (1, 0)


class TestStructure:
    def test_counter_is_stateless(self):
        # the i-th draw depends only on (seed, stream, i).
        a = CounterRng(7, stream=3)
        first_three = [a.next_u64() for _ in range(3)]
        b = CounterRng(7, stream=3)
        assert [b.next_u64() for _ in range(3)] == first_three

    def test_streams_differ(self):
        assert CounterRng(7, 0).next_u64() != CounterRng(7, 1).next_u64()
        assert derive_key(7, 0) != derive_key(7, 1)

    def test_array_path_wraps_like_the_scalar_path(self):
        # uint64 arrays wrap mod 2**64 silently, and match Python ints
        streams = np.arange(200, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = derive_key(2**64 - 1, derive_key(streams, 0x5EED))
            z = rng.normals(keys, 5)
        assert keys.dtype == np.uint64
        for s in range(200):
            key = derive_key(2**64 - 1, derive_key(s, 0x5EED))
            assert int(keys[s]) == key
            r = CounterRng(2**64 - 1, derive_key(s, 0x5EED))
            assert z[s].tobytes() == np.array([r.normal() for _ in range(5)]).tobytes()

    def test_splitmix_mask(self):
        assert 0 <= splitmix64(2**64 + 5) < 2**64

    def test_uniform_range(self):
        r = CounterRng(123)
        for _ in range(1000):
            u = r.uniform()
            assert 0.0 < u <= 1.0


class TestStatistics:
    def test_uniform_moments(self):
        r = CounterRng(2024)
        xs = np.array([r.uniform() for _ in range(20000)])
        assert abs(xs.mean() - 0.5) < 0.01
        assert abs(xs.var() - 1.0 / 12.0) < 0.005

    def test_normal_moments(self):
        r = CounterRng(2025)
        xs = np.array([r.normal() for _ in range(20000)])
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.0) < 0.03

    def test_normal_affine(self):
        a = CounterRng(9)
        b = CounterRng(9)
        for _ in range(10):
            z = a.normal()
            assert b.normal(5.0, 2.0) == pytest.approx(5.0 + 2.0 * z, rel=1e-12)
