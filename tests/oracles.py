"""Independent brute-force oracles used to cross-check the solvers.

Everything here is deliberately naive: vertex enumeration for LPs, an
element-by-element simplex pivot, a direct per-arrival replay for policies,
the adversarial instance family built arrival by arrival, noisy
instances sampled one trial at a time, and a sort-and-sum offline optimum.
Slow but obviously correct on the small cases the tests feed it.  The
module also holds summaries of solver results that only tests need.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from rmadvice import core, protect
from rmadvice.core import Instance
from rmadvice.policies import block_revenue
from rmadvice.rng import CounterRng, derive_key


def vertex_enumeration_lp(c, A, senses, b, upper=None, tol=1e-9):
    """Maximize c @ x over {A x <=/>= b, 0 <= x <= upper} by enumerating
    basic points: every square subsystem of tight constraints.

    Returns (best_value, best_x) or (None, None) when no feasible vertex
    exists.  Only valid when the feasible region is bounded (the tests
    always add box bounds).
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    A = np.asarray(A, dtype=float).reshape(-1, n)
    for row, sense, bi in zip(A, senses, b):
        if sense == "<=":
            rows.append(row)
            rhs.append(bi)
        else:
            rows.append(-row)
            rhs.append(-bi)
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append(e)
        rhs.append(0.0)
        if upper is not None and np.isfinite(upper[j]):
            e2 = np.zeros(n)
            e2[j] = 1.0
            rows.append(e2)
            rhs.append(float(upper[j]))
    G = np.array(rows)
    h = np.array(rhs, dtype=float)
    best_val, best_x = None, None
    for idx in itertools.combinations(range(G.shape[0]), n):
        sub = G[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, h[list(idx)])
        scale = np.maximum(np.abs(h), 1.0)
        if np.all(G @ x <= h + tol * scale):
            val = float(c @ x)
            if best_val is None or val > best_val:
                best_val, best_x = val, x
    return best_val, best_x


def reference_opt(ladder: core.FareLadder, instance: Instance) -> float:
    """Offline optimum: revenue of the ``capacity`` highest fares present."""
    if len(instance) == 0:
        return 0.0
    vals = np.array([ladder.fares[s - 1] for s in instance.steps], dtype=float)
    vals[::-1].sort()  # descending
    return float(vals[: ladder.capacity].sum())


def concat(first: Instance, second: Instance) -> Instance:
    """Arrival sequence of ``first`` followed by ``second``."""
    return Instance(steps=first.steps + second.steps)


def advice_instance(ladder: core.FareLadder, advice: core.Advice) -> Instance:
    """Canonical advice-shaped instance in increasing fare order.

    Capacity-many arrivals of each class up to the lowest predicted one,
    then the advised count of every class above it.
    """
    return advice_prefix(ladder, advice, ladder.m)


def advice_prefix(ladder: core.FareLadder, advice: core.Advice, k: int) -> Instance:
    """The advice-shaped instance truncated after the class-``k`` block."""
    if k < 1 or k > ladder.m:
        raise ValueError("block index out of range")
    ell = advice.lowest_index
    steps: list[int] = []
    for i in range(1, k + 1):
        reps = ladder.capacity if i <= ell else advice.counts[i - 1]
        steps.extend([i] * reps)
    return Instance(steps=tuple(steps))


def block_instance(ladder: core.FareLadder, i: int) -> Instance:
    """Capacity-many arrivals of every class from 1 to ``i``, in order."""
    if i < 1 or i > ladder.m:
        raise ValueError("block index out of range")
    steps: list[int] = []
    for j in range(1, i + 1):
        steps.extend([j] * ladder.capacity)
    return Instance(steps=tuple(steps))


def hard_instances(ladder: core.FareLadder, advice: core.Advice) -> list[Instance]:
    """The adversarial family driving the consistency/competitiveness LP.

    All advice prefixes plus every prefix continued by a block instance;
    ``m**2 + m`` instances in total.
    """
    m = ladder.m
    family = [advice_prefix(ladder, advice, k) for k in range(1, m + 1)]
    for k in range(1, m + 1):
        prefix = advice_prefix(ladder, advice, k)
        for i in range(1, m + 1):
            family.append(concat(prefix, block_instance(ladder, i)))
    return family


def sample_instance(ladder: core.FareLadder, advice: core.Advice, noise, trial: int) -> Instance:
    """Draw one noisy instance around the advice, in increasing fare order.

    Class 1 always arrives at full capacity; every higher class count is
    ``max(floor(A_i + v * A_i * z), 0)`` with independent standard normals.
    """
    rng = CounterRng(noise.seed, stream=derive_key(trial, 0x5EED))
    counts = [ladder.capacity]
    for i in range(1, ladder.m):
        a = advice.counts[i]
        draw = rng.normal(float(a), noise.v * float(a))
        counts.append(max(int(math.floor(draw)), 0))
    steps = np.repeat(np.arange(1, ladder.m + 1), counts)
    return Instance(steps=tuple(steps.tolist()))


def replay_protection(fares, levels, steps):
    """Reference protection-level run: per-arrival fractional acceptance."""
    m = len(fares)
    q = [0.0] * m
    revenue = 0.0
    for s in steps:
        p = s - 1
        room = min([levels[k] - q[k] for k in range(p, m)] + [1.0])
        room = max(room, 0.0)
        for k in range(p, m):
            q[k] += room
        revenue += room * fares[p]
    return revenue, q


def reference_simplex_iterate(T, basis, ncols, cost_tol, pivot_tol):
    """Reference Bland-rule pivot loop updating the tableau one element at
    a time; same contract and return codes as ``kernels.simplex_iterate``."""
    nrows = T.shape[0] - 1
    rhs = T.shape[1] - 1
    max_iters = 50000
    for _ in range(max_iters):
        enter = -1
        for j in range(ncols):
            if T[nrows, j] < -cost_tol:
                enter = j
                break
        if enter < 0:
            return 0
        leave = -1
        best = np.inf
        for i in range(nrows):
            coef = T[i, enter]
            if coef > pivot_tol:
                ratio = T[i, rhs] / coef
                if ratio < best - 1e-15:
                    best = ratio
                    leave = i
                elif ratio <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return 1
        piv = T[leave, enter]
        for j in range(rhs + 1):
            T[leave, j] /= piv
        for i in range(nrows + 1):
            if i != leave:
                factor = T[i, enter]
                if factor != 0.0:
                    for j in range(rhs + 1):
                        T[i, j] -= factor * T[leave, j]
        basis[leave] = enter
    return 2


def protection_consistency(ladder, advice, gamma, epsilon=1e-6):
    """Realized consistency of the optimized levels on the advice instance."""
    levels, _ = protect.optimal_protection_levels(ladder, advice, gamma, epsilon)
    revenue = block_revenue(ladder.fares, np.asarray(levels.levels), advice.cap_counts)
    return revenue / core.advice_opt(ladder, advice)


def expected_search_passes(ladder, epsilon):
    """Number of bisection passes the protection-level search performs."""
    return max(0, math.ceil(math.log2((1.0 - core.bq_bound(ladder)) / epsilon)))


def rounding_report(ladder, trace):
    """Integrality summary for a fractional policy run.

    Reports how many acceptances were fractional and the relative revenue
    degradation bound incurred by running the fractional policy with ``m``
    seats held back and rounding acceptances up, which is at most ``m / n``.
    """
    fractional = int(np.sum((trace.accepted > 0.0) & (trace.accepted < 1.0)))
    return {
        "fractional_steps": fractional,
        "reserved_seats": ladder.m,
        "relative_degradation_bound": ladder.m / ladder.capacity,
    }
