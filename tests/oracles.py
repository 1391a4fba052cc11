"""Independent brute-force oracles used to cross-check the solvers.

Everything here is deliberately naive: vertex enumeration for LPs, an
element-by-element simplex pivot, a row-by-row simplex tableau set-up, a
numpy protection-level growing pass that refills every hard-family row,
per-row block closed forms, direct per-arrival replays for policies
(numpy-scalar step loops and the switching policy's block closed form),
the adversarial instance family built arrival by arrival, a scalar
counter generator and noisy instances sampled with it one trial at a
time, and a sort-and-sum offline optimum.
Slow but obviously correct on the small cases the tests feed it.  The
module also holds summaries of solver results and the advice-conformance
predicates that only tests need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from rmadvice import core, lp, protect
from rmadvice.core import Instance
from rmadvice.kernels import simplex_iterate
from rmadvice.policies import _eq_tol
from rmadvice.rng import derive_key, splitmix64
from rmadvice.simplex import COST_TOL, PIVOT_TOL, SimplexResult, SolverError, solve_simplex


@st.composite
def ladders_and_advice(draw, max_m=5, max_n=8, min_m=1, near_equal=False):
    """A random ladder (any positive increasing fares) with a valid advice.
    With ``near_equal`` every fare is above the one below by a factor
    within 1e-4 of 1."""
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(1, max_n))
    first = draw(st.floats(0.01, 100.0))
    if near_equal:
        ratios = draw(st.lists(st.floats(1e-9, 1e-4), min_size=m - 1, max_size=m - 1))
        fares = first * np.cumprod([1.0] + [1.0 + r for r in ratios])
    else:
        steps = draw(st.lists(st.floats(0.001, 100.0), min_size=m - 1, max_size=m - 1))
        fares = np.cumsum([first] + steps)
    ladder = core.make_fare_ladder(fares, n)
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    counts = np.diff([0] + cuts + [n])
    return ladder, core.make_advice(ladder, counts)


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
    if len(instance.steps) == 0:
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


GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's counter increment


class CounterRng:
    """Scalar counter generator, one draw at a time: draw i of the stream
    with key ``derive_key(seed, stream)`` is ``splitmix64(key + i * GOLDEN)``
    for i = 1, 2, ..., and normals come in Box-Muller pairs (cosine, then
    the cached sine).  The reference for ``rng.normals``."""

    def __init__(self, seed: int, stream: int = 0):
        self.key = derive_key(seed, stream)
        self._index = 0
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._index += 1
        return splitmix64(self.key + self._index * GOLDEN)

    def uniform(self) -> float:
        """Uniform double in (0, 1] (strictly positive, safe for log)."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian variate via the Box-Muller transform (pairs are cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
        else:
            u1 = self.uniform()
            u2 = self.uniform()
            radius = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            z = radius * math.cos(theta)
            self._spare_normal = radius * math.sin(theta)
        return mean + sd * z


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


def reference_protection_run(fare_idx, levels):
    """Reference protection-level run over numpy scalars, one arrival at a
    time: 0-based ``fare_idx``, cumulative ``levels``.  Returns the
    per-step accepted fractions and the final cumulative counts, as
    ``policies.run_protection_policy`` records them."""
    m = levels.shape[0]
    T = fare_idx.shape[0]
    q = np.zeros(m)
    w = np.zeros(T)
    for t in range(T):
        p = fare_idx[t]
        room = 1.0
        for k in range(p, m):
            slack = levels[k] - q[k]
            if slack < room:
                room = slack
        if room < 0.0:
            room = 0.0
        if room > 0.0:
            for k in range(p, m):
                q[k] += room
        w[t] = room
    return w, q


def reference_fallback_search(q, base_levels, fallback_levels, eq_tol):
    """Reference fallback-row search over numpy arrays; same contract as
    ``policies.fallback_search``."""
    m = base_levels.shape[0]
    k = 0
    for j in range(m):
        if base_levels[j] - q[j] <= eq_tol:
            k = j
    iters = 0
    while True:
        bad = -1
        for j in range(m):
            if q[j] > fallback_levels[k, j] + eq_tol:
                bad = j
                break
        if bad < 0:
            break
        k = bad
        iters += 1
        if iters > m:
            break
    return k, iters


def reference_switch_run(
    fare_idx, advice_counts, ell0, base_levels, fallback_levels, trigger_mult, cap_phase1, eq_tol
):
    """Reference switching-policy run over numpy scalars, one arrival at a
    time, on 0-based ``fare_idx``.  Returns the per-step accepted fractions,
    the final cumulative counts, the 1-based trigger step and chosen row
    of the fallback search (0 if never) and its number of moves, as
    ``policies.run_lp_optimal`` (with ``trigger_mult`` 1) and
    ``run_relaxed_optimal`` record them."""
    m = advice_counts.shape[0]
    T = fare_idx.shape[0]
    q = np.zeros(m)
    a = np.zeros(m)
    w = np.zeros(T)
    switched = False
    tau = 0
    k_row = 0
    search_iters = 0
    for t in range(T):
        p = fare_idx[t]
        a[p] += 1.0
        if (not switched) and p > ell0 and a[p] > trigger_mult * advice_counts[p]:
            switched = True
            tau = t + 1
            k, search_iters = reference_fallback_search(q, base_levels, fallback_levels, eq_tol)
            k_row = k + 1
        if not switched:
            if cap_phase1 != 0 and p > ell0 and a[p] > advice_counts[p]:
                room = 0.0
            else:
                room = 1.0
                for j in range(p, m):
                    slack = base_levels[j] - q[j]
                    if slack < room:
                        room = slack
        else:
            room = 1.0
            for j in range(p, m):
                slack = fallback_levels[k_row - 1, j] - q[j]
                if slack < room:
                    room = slack
        if room < 0.0:
            room = 0.0
        if room > 0.0:
            for j in range(p, m):
                q[j] += room
        w[t] = room
    return w, q, tau, k_row, search_iters


def reference_switch_block_revenue(ladder, advice, plan, counts, epsilon=0.0):
    """Reference closed form of the switching policy on an increasing block
    instance (``counts[j]`` arrivals of class ``j+1``).

    All bookings so far lie in classes at or below the current block's, so
    every cumulative count from its class up equals the seats sold so far,
    and the block books ``min(eligible, max(0, limit - sold))`` with
    ``limit`` the smallest level at or above its class.  Above the lowest
    advised class phase 1 books at most the advised count, and the trigger
    fires in the first such block holding more than ``(1 + epsilon)`` times
    its advised count, after the first ``floor((1 + epsilon) A_p)`` of its
    arrivals; the rest books against the fallback row chosen there.
    """
    def room_limits(levels):
        return np.minimum.accumulate(np.asarray(levels)[::-1])[::-1].tolist()

    fares = ladder.fares
    mult = 1.0 + epsilon
    ell0 = advice.lowest_index - 1
    limit = room_limits(plan.base)
    booked = []
    sold = 0.0
    rev = 0.0
    for p in range(ladder.m):
        c = counts[p]
        a = advice.counts[p]
        eligible = c if p <= ell0 else min(c, a)
        take = min(eligible, max(0.0, limit[p] - sold))
        rev += take * fares[p]
        sold += take
        if p > ell0 and c > mult * a:
            q = np.array(booked + [sold] * (ladder.m - p))
            k, _ = reference_fallback_search(q, plan.base, plan.fallback, _eq_tol(ladder))
            limit = room_limits(plan.fallback[k])
            rest = [c - math.floor(mult * a)] + list(counts[p + 1 :])
            for j, arrivals in enumerate(rest, start=p):
                take = min(arrivals, max(0.0, limit[j] - sold))
                rev += take * fares[j]
                sold += take
            break
        booked.append(sold)
    return rev


@dataclass(frozen=True)
class ConformanceParams:
    """Multiplicative slack for relaxed advice conformance.

    ``mu`` bounds count overshoot above the lowest predicted class and
    ``nu`` bounds count undershoot at or above it.
    """

    mu: float
    nu: float

    def __post_init__(self):
        if self.mu < 0.0 or self.nu < 0.0:
            raise ValueError("conformance slack parameters must be nonnegative")


def conforms(advice: core.Advice, instance: Instance) -> bool:
    """True when the instance realizes the advice: exact counts above the
    lowest predicted class, at least the predicted count at it."""
    counts = core.fare_counts(instance, advice.m)
    ell = advice.lowest_index
    if counts[ell - 1] < advice.counts[ell - 1]:
        return False
    return all(
        counts[i] == advice.counts[i] for i in range(ell, advice.m)
    )


def conforms_relaxed(
    advice: core.Advice, instance: Instance, params: ConformanceParams
) -> bool:
    """Relaxed conformance with multiplicative slack.

    Requires ``count_i >= A_i / (1 + nu)`` for every class at or above the
    lowest predicted one, and ``count_i <= (1 + mu) * A_i`` strictly above it.
    """
    counts = core.fare_counts(instance, advice.m)
    ell = advice.lowest_index
    for i in range(ell - 1, advice.m):
        if counts[i] < advice.counts[i] / (1.0 + params.nu):
            return False
    for i in range(ell, advice.m):
        if counts[i] > (1.0 + params.mu) * advice.counts[i]:
            return False
    return True


def advice_distance(advice: core.Advice, instance: Instance) -> int:
    """Count distance between an instance and the advice
    (``core.count_distance`` of its per-class counts); zero exactly on
    conforming instances."""
    return int(core.count_distance(advice, core.fare_counts(instance, advice.m)))


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
                if ratio < -1e-9 and T[i, rhs] >= -1e-9:
                    continue  # a rounding-level rhs over a small column: no limit
                if ratio < best - 1e-15:
                    best = ratio
                    leave = i
                elif ratio <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return 1
        if best < -1e-9:
            return 3
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


def protection_consistency(ladder, advice, gamma):
    """Realized consistency of the optimized levels on the advice instance."""
    levels, _ = protect.optimal_protection_levels(ladder, advice, gamma)
    revenue = reference_block_revenue(
        ladder.fares, np.asarray(levels.levels), advice.cap_counts
    )
    return revenue / core.advice_opt(ladder, advice)


def bisect_largest_feasible(trial, lo, hi, epsilon):
    """Reference bisection for the largest success of ``trial``, which
    returns a witness or ``None`` where its value fails; ``hi`` is never
    tried.  Halves until the interval is no wider than ``epsilon`` or holds
    no double inside, and returns ``(value, witness, trials)``: the last
    success with its witness (``(lo, None, 1)`` if ``lo`` fails) and the
    number of trials made.  ``core.largest_feasible`` must return the same
    value on a test that is monotone."""
    witness, trials = trial(lo), 1
    while witness is not None and hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no double left between the endpoints
            break
        found = trial(mid)
        trials += 1
        if found is None:
            hi = mid
        else:
            lo, witness = mid, found
    return lo, witness, trials


def reference_protection_levels(ladder, advice, gamma, epsilon=1e-6):
    """The protection-level search as a bisection over the growing pass,
    to accuracy ``epsilon``, with an exact capacity check (top level at
    most n, no tolerance): ``(beta, levels, passes)``.  Every beta it
    accepts is attainable, so its answer bounds beta_pl from below.  Where
    rounding puts the top level above n even at c(F) (it is flat and tight
    there at gamma = c(F)), it returns c(F) with levels ``None``."""
    terms = protect._advice_terms(ladder, advice)
    n = float(ladder.capacity)

    def trial(beta):
        candidate = protect.grow_levels_for_beta(ladder, advice, gamma, beta, terms)
        return candidate.levels if candidate.levels[-1] <= n else None

    return bisect_largest_feasible(trial, core.bq_bound(ladder), 1.0, epsilon)


def reference_water_fill_beta(ladder, advice, gamma):
    """The last double in [c(F), 1] that the water-fill pass passes, by
    bisection, and the number of passes: ``(beta, passes)``."""
    fill = lp._water_fill(*lp._lanes(lp.hard_family(ladder, advice), [gamma]))
    beta, _, passes = bisect_largest_feasible(
        lambda b: fill(b)[0], core.bq_bound(ladder), math.nextafter(1.0, 2.0), 0.0
    )
    return beta, passes


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to count its calls; returns the live count,
    a one-item list."""
    original, calls = getattr(owner, name), [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


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


def reference_block_revenue(fares, levels, counts):
    """Reference closed form of a protection-level policy on one increasing
    block instance (``counts[j]`` arrivals of class ``j+1``), one class at a
    time on Python scalars; same contract as ``policies.block_revenue`` on
    one count row."""
    q = 0.0
    rev = 0.0
    for j in range(len(fares)):
        take = min(float(counts[j]), max(0.0, levels[j] - q))
        rev += take * fares[j]
        q += take
    return rev


def reference_grow_levels(ladder, advice, gamma, beta):
    """Reference protection-level growing pass over numpy arrays: every
    class refills the hard-family rows of ``core.hard_counts`` from scratch
    with ``reference_block_revenue`` on the whole level vector; same
    contract as ``protect.grow_levels_for_beta``."""
    m = ladder.m
    n = ladder.capacity
    fares = ladder.fares
    prefix, blocks = core.hard_counts(ladder, advice)
    opt_advice = core.advice_opt(ladder, advice)
    caps = advice.cap_counts
    levels = np.zeros(m)
    comp_inc = np.zeros(m)
    cons_inc = np.zeros(m)
    for k in range(1, m + 1):
        fk = fares[k - 1]
        levels[k - 1 :] = levels[k - 2] if k > 1 else 0.0

        target = gamma * n * fk
        have = reference_block_revenue(fares, levels, blocks[k - 2]) if k > 1 else 0.0
        comp_inc[k - 1] = max(0.0, (target - have) / fk)
        levels[k - 1 :] += comp_inc[k - 1]

        have_advice = reference_block_revenue(fares, levels, prefix[k - 1])
        tail = sum(caps[i] * fares[i] for i in range(k, m))  # advised caps above k
        if have_advice + tail < beta * opt_advice:
            cons_inc[k - 1] = (beta * opt_advice - have_advice - tail) / fk
            levels[k - 1 :] += cons_inc[k - 1]

    feasible = bool(levels[-1] <= n + 1e-9 * max(1.0, n))
    return protect.LevelsCandidate(
        levels=tuple(levels),
        competitive_increments=tuple(comp_inc),
        consistency_increments=tuple(cons_inc),
        feasible=feasible,
    )


def reference_solve_simplex(c, A, senses, b, upper=None, maximize=True):
    """Reference two-phase simplex that builds its tableau and pivots the
    phase-1 artificials out one row and one element at a time; the
    contract of ``simplex.solve_simplex`` with the objective's sense as a
    parameter (``maximize=False`` minimizes), pivoting with
    ``kernels.simplex_iterate``."""
    c = np.asarray(c, dtype=float)
    nvars = c.shape[0]
    A = np.asarray(A, dtype=float).reshape(-1, nvars)
    b = np.asarray(b, dtype=float).copy()
    senses = list(senses)
    if A.shape[0] != len(senses) or A.shape[0] != b.shape[0]:
        raise ValueError("constraint rows, senses, and rhs must align")

    rows = [A[i].copy() for i in range(A.shape[0])]
    rhs = list(b)
    row_senses = list(senses)
    if upper is not None:
        upper = np.asarray(upper, dtype=float)
        for j in range(nvars):
            if np.isfinite(upper[j]):
                bound_row = np.zeros(nvars)
                bound_row[j] = 1.0
                rows.append(bound_row)
                rhs.append(float(upper[j]))
                row_senses.append("<=")

    nrows = len(rows)
    M = np.array(rows, dtype=float).reshape(nrows, nvars)
    rv = np.array(rhs, dtype=float)
    for i in range(nrows):
        if row_senses[i] == ">=":
            M[i] = -M[i]
            rv[i] = -rv[i]
        elif row_senses[i] != "<=":
            raise ValueError("row sense must be '<=' or '>='")
        scale = np.max(np.abs(M[i]))
        if scale > 0.0:
            M[i] /= scale
            rv[i] /= scale

    art_rows = [i for i in range(nrows) if rv[i] < 0.0]
    nart = len(art_rows)
    ncols = nvars + nrows
    total = ncols + nart
    T = np.zeros((nrows + 1, total + 1))
    basis = np.empty(nrows, dtype=np.int64)
    ai = 0
    for i in range(nrows):
        sign = -1.0 if rv[i] < 0.0 else 1.0
        T[i, :nvars] = sign * M[i]
        T[i, nvars + i] = sign
        T[i, total] = sign * rv[i]
        if rv[i] < 0.0:
            T[i, ncols + ai] = 1.0
            basis[i] = ncols + ai
            ai += 1
        else:
            basis[i] = nvars + i

    if nart > 0:
        for i in range(nrows):
            if basis[i] >= ncols:
                T[nrows] -= T[i]
        for j in range(ncols, total):
            T[nrows, j] = 0.0
        status = simplex_iterate(T, basis, total, COST_TOL, PIVOT_TOL)
        if status == 2:
            raise SolverError("phase-1 iteration cap exceeded")
        if -T[nrows, total] > 1e-7:
            return SimplexResult(status="infeasible", x=np.full(nvars, np.nan))
        for i in range(nrows):
            if basis[i] >= ncols:
                for j in range(ncols):
                    if abs(T[i, j]) > 10.0 * PIVOT_TOL:
                        piv = T[i, j]
                        T[i] /= piv
                        for r in range(nrows + 1):
                            if r != i and T[r, j] != 0.0:
                                T[r] -= T[r, j] * T[i]
                        basis[i] = j
                        break

    obj = np.zeros(total + 1)
    obj[:nvars] = -c if maximize else c
    for i in range(nrows):
        col = basis[i]
        if col < nvars and obj[col] != 0.0:
            obj -= obj[col] * T[i]
    T[nrows] = obj
    status = simplex_iterate(T, basis, ncols, COST_TOL, PIVOT_TOL)
    if status == 2:
        raise SolverError("phase-2 iteration cap exceeded")
    if status == 1:
        return SimplexResult(status="unbounded", x=np.full(nvars, np.nan))

    x_full = np.zeros(total)
    for i in range(nrows):
        x_full[basis[i]] = T[i, total]
    x = np.where(np.abs(x_full[:nvars]) < 1e-12, 0.0, x_full[:nvars])
    return SimplexResult(status="optimal", x=x)


def tie_break_objective(model):
    """The tie-break's objective over the LP's columns: the revenue-weighted
    fallback mass, sum over k and j of f_j y(k)_j."""
    m = len(model.family.fares)
    return np.concatenate([np.zeros(1 + m), np.tile(model.family.fares, m)])


def reference_tie_break(model, beta_star):
    """The tie-break solved cold: a two-phase ``solve_simplex`` from scratch
    on the model's rows plus the row beta >= beta_star - 1e-9, maximizing
    ``tie_break_objective``.  The oracle of ``solve_lp``'s
    ``simplex.reoptimize`` from the first solve's tableau; may raise
    ``SolverError``."""
    floor_row = np.eye(1, model.rows.shape[1])[0]  # beta
    return solve_simplex(tie_break_objective(model), np.vstack([model.rows, floor_row]),
                         model.senses + [">="], np.append(model.rhs, beta_star - 1e-9),
                         upper=model.upper)


def _var_index(m, kind, k=0, j=0):
    """Column of a variable: beta, then x_j, then y(k)_j row-major."""
    if kind == "beta":
        return 0
    if kind == "x":
        return j  # j is 1-based
    return 1 + m + (k - 1) * m + (j - 1)


def reference_build_pareto_lp(ladder, advice, gamma):
    """Reference LP builder filling one row at a time by variable index;
    same contract as ``lp.build_pareto_lp``."""
    if gamma < 0.0 or gamma > core.bq_bound(ladder) + 1e-12:
        raise ValueError("gamma must lie in [0, bq_bound(ladder)]")
    m = ladder.m
    n = ladder.capacity
    scale = ladder.fares[-1]
    sf = tuple(f / scale for f in ladder.fares)
    scaled = core.FareLadder(fares=sf, capacity=n)
    caps = advice.cap_counts
    opt_advice = core.advice_opt(scaled, advice)

    prefix, blocks = core.hard_counts(scaled, advice)
    opt_prefix = core.count_opt(scaled, prefix)
    opt_continued = core.count_opt(scaled, prefix[:, None] + blocks[None])

    nvars = 1 + m + m * m
    rows = []
    senses = []
    rhs = []

    for k in range(1, m + 1):
        row = np.zeros(nvars)
        for j in range(1, k + 1):
            row[_var_index(m, "x", j=j)] = 1.0
        for j in range(1, m + 1):
            row[_var_index(m, "y", k=k, j=j)] = 1.0
        rows.append(row)
        senses.append("<=")
        rhs.append(float(n))

    for k in range(1, m + 1):
        row = np.zeros(nvars)
        for j in range(1, k + 1):
            row[_var_index(m, "x", j=j)] = sf[j - 1]
        rows.append(row)
        senses.append(">=")
        rhs.append(gamma * opt_prefix[k - 1])

    link = np.zeros(nvars)
    for j in range(1, m + 1):
        link[_var_index(m, "x", j=j)] = sf[j - 1]
    link[_var_index(m, "beta")] = -opt_advice
    rows.append(link)
    senses.append(">=")
    rhs.append(0.0)

    for k in range(1, m + 1):
        for i in range(1, m + 1):
            row = np.zeros(nvars)
            for j in range(1, k + 1):
                row[_var_index(m, "x", j=j)] = sf[j - 1]
            for j in range(1, i + 1):
                row[_var_index(m, "y", k=k, j=j)] = sf[j - 1]
            rows.append(row)
            senses.append(">=")
            rhs.append(gamma * opt_continued[k - 1, i - 1])

    upper = np.full(nvars, np.inf)
    upper[0] = 1.0
    for j in range(1, m + 1):
        upper[_var_index(m, "x", j=j)] = float(caps[j - 1])

    objective = np.zeros(nvars)
    objective[0] = 1.0

    labels = ["beta"] + [f"x_{j}" for j in range(1, m + 1)] + [
        f"y_{k}_{j}" for k in range(1, m + 1) for j in range(1, m + 1)
    ]
    return lp.LPModel(
        objective=objective,
        rows=np.array(rows),
        senses=senses,
        rhs=np.array(rhs),
        upper=upper,
        labels=labels,
        gamma=gamma,
        family=lp.HardFamily(
            fares=np.array(sf), capacity=float(n), caps=np.array(caps, dtype=float),
            advice_opt=opt_advice, prefix_opt=opt_prefix, continued_opt=opt_continued,
        ),
    )


def reference_check_point(model, point):
    """Reference feasibility check walking the dense LP's rows and bounds
    one at a time: the oracle of ``lp.check_point(model.family,
    model.gamma, point)``, equal up to the summation order of each row."""
    point = np.asarray(point, dtype=float)
    worst = 0.0
    for row, sense, b in zip(model.rows, model.senses, model.rhs):
        lhs = float(row @ point)
        violation = lhs - b if sense == "<=" else b - lhs
        worst = max(worst, violation / max(np.max(np.abs(row)), abs(b), 1e-300))
    for j, u in enumerate(model.upper):
        worst = max(worst, -point[j])
        if np.isfinite(u):
            worst = max(worst, (point[j] - u) / max(abs(u), 1.0))
    return worst


def same_bits(a, b) -> bool:
    """True when two float arrays (or scalars) agree bit for bit, so that
    -0.0 differs from 0.0 and equal NaNs match."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
