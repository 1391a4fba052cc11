"""Domain model for single-leg seat allocation with fare-count advice.

A *fare ladder* is a strictly increasing tuple of fares ``f_1 < ... < f_m``
plus a seat capacity ``n``.  An *instance* is a finite arrival sequence of
fare classes (1-based indices into the ladder).  An *advice* is a vector of
predicted counts per fare class with total mass exactly ``n``.

The adversarial family behind the consistency/competitiveness LP is held
as per-class counts (``hard_counts``): the advice prefixes ``I(A, k)`` and
the all-fares blocks ``I(F, i)``, each an increasing-order block instance;
``count_opt`` is the closed-form offline optimum on such counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FareLadder:
    """Strictly increasing positive fares and an integer seat capacity."""

    fares: tuple[float, ...]
    capacity: int

    @property
    def m(self) -> int:
        return len(self.fares)


@dataclass(frozen=True)
class Advice:
    """Predicted fare-class counts with total mass equal to capacity.

    ``counts[i-1]`` is the predicted number of class-``i`` customers.
    """

    counts: tuple[int, ...]
    capacity: int

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def lowest_index(self) -> int:
        """1-based index of the cheapest fare class the advice predicts."""
        for i, a in enumerate(self.counts):
            if a >= 1:
                return i + 1
        raise ValueError("advice has no positive entry")

    @property
    def cap_counts(self) -> tuple[int, ...]:
        """Per-class acceptance caps: capacity up to the lowest predicted
        class, the predicted count above it."""
        ell = self.lowest_index
        return tuple(
            self.capacity if i + 1 <= ell else self.counts[i] for i in range(self.m)
        )


@dataclass(frozen=True)
class Instance:
    """Arrival sequence of 1-based fare-class indices."""

    steps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)


def make_fare_ladder(fares, capacity: int) -> FareLadder:
    """Validate and build a fare ladder."""
    fares = tuple(float(f) for f in fares)
    if len(fares) == 0:
        raise ValueError("at least one fare class is required")
    if not all(math.isfinite(f) for f in fares):
        raise ValueError("fares must be finite")
    if fares[0] <= 0.0:
        raise ValueError("fares must be positive")
    for lo, hi in zip(fares, fares[1:]):
        if hi <= lo:
            raise ValueError("fares must be strictly increasing")
    try:
        whole = not isinstance(capacity, bool) and int(capacity) == capacity
    except (OverflowError, TypeError, ValueError):
        whole = False
    if not whole or capacity < 1:
        raise ValueError("capacity must be a positive integer")
    return FareLadder(fares=fares, capacity=int(capacity))


def make_advice(ladder: FareLadder, counts) -> Advice:
    """Validate and build an advice vector for a ladder."""
    counts = tuple(int(a) for a in counts)
    if len(counts) != ladder.m:
        raise ValueError("advice length must equal the number of fare classes")
    if any(a < 0 for a in counts):
        raise ValueError("advice counts must be nonnegative")
    if sum(counts) != ladder.capacity:
        raise ValueError("advice counts must sum to the capacity")
    return Advice(counts=counts, capacity=ladder.capacity)


def make_instance(ladder: FareLadder, steps) -> Instance:
    """Validate and build an arrival sequence of fare-class indices."""
    steps = tuple(int(s) for s in steps)
    if any(s < 1 or s > ladder.m for s in steps):
        raise ValueError("instance steps must be 1-based fare-class indices")
    return Instance(steps=steps)


def fare_counts(instance: Instance, m: int) -> np.ndarray:
    """Number of arrivals per fare class (length-m integer vector)."""
    return np.bincount(np.asarray(instance.steps, dtype=np.int64), minlength=m + 1)[1:]


def check_gamma(ladder: FareLadder, gamma: float) -> float:
    """Return ``gamma`` if it lies in ``[0, c(F)]`` (with 1e-12 slack at the
    top), else raise ``ValueError``; NaN is rejected."""
    bound = bq_bound(ladder)
    if not 0.0 <= gamma <= bound + 1e-12:
        raise ValueError(f"gamma {gamma!r} must lie in [0, c(F)] = [0, {bound!r}]")
    return gamma


def bq_bound(ladder: FareLadder) -> float:
    """Best possible worst-case competitive ratio for the fare ladder.

    Equals ``1 / sum_i (1 - f_{i-1} / f_i)`` with ``f_0 = 0``.
    """
    f = ladder.fares
    total = 1.0  # i = 1 term: 1 - f_0 / f_1 = 1
    for i in range(1, ladder.m):
        total += 1.0 - f[i - 1] / f[i]
    return 1.0 / total


def opt_revenue(ladder: FareLadder, instance: Instance) -> float:
    """Offline optimum: revenue of the ``capacity`` highest fares present."""
    return float(count_opt(ladder, fare_counts(instance, ladder.m)))


def count_opt(ladder: FareLadder, counts) -> np.ndarray:
    """Offline optimum of instances given by per-class counts (last axis).

    Seats go to the highest fares first: class ``i`` takes what its
    arrivals and the seats left by the classes above it allow.
    """
    counts = np.asarray(counts)
    above = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1] - counts
    take = np.clip(ladder.capacity - above, 0, counts)
    return take @ np.asarray(ladder.fares)


def hard_counts(ladder: FareLadder, advice: Advice) -> tuple[np.ndarray, np.ndarray]:
    """Per-class counts of the adversarial family behind the LP.

    Row ``k-1`` of ``prefix`` counts the advice prefix ``I(A, k)``: the
    advice's acceptance caps on classes up to ``k``, nothing above.  Row
    ``i-1`` of ``blocks`` counts the all-fares block ``I(F, i)``: capacity
    on classes up to ``i``.  The family is every prefix, and every prefix
    followed by every block (``prefix[:, None] + blocks[None]``), all in
    increasing fare order.
    """
    lower = np.tri(ladder.m, dtype=np.int64)  # row k-1 marks classes 1..k
    return lower * np.asarray(advice.cap_counts), lower * ladder.capacity


def advice_opt(ladder: FareLadder, advice: Advice) -> float:
    """Revenue of serving exactly the advised counts."""
    return float(
        sum(f * a for f, a in zip(ladder.fares, advice.counts))
    )


def count_distance(advice: Advice, counts) -> np.ndarray:
    """Count distance between instances, given by per-class counts (last
    axis), and the advice.

    Shortfall at the lowest predicted class plus absolute count mismatch
    above it; zero exactly on instances that realize the advice.
    """
    counts = np.asarray(counts)
    predicted = np.asarray(advice.counts)
    ell = advice.lowest_index
    short = np.maximum(0, predicted[ell - 1] - counts[..., ell - 1])
    return short + np.abs(predicted[ell:] - counts[..., ell:]).sum(axis=-1)
