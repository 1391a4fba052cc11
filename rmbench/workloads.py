"""The benchmark's four workloads.

Each factory takes the benchmark seed and returns a ``Workload``: a pool of
inputs made from that seed, the timed operation, the checks run on every
output outside the timed region, and a canonical text of each output with
floats in 17 significant digits, from which the run's output digest is
taken.  The operation calls the program through module attributes
(``lp.optimal_consistency``), so the tracer's wrappers see every call.

Operations cycle through the pool.  The lp-cold and robustness pools
outlast a run at the seed commit; rs-grid cycles the 66-point advice grid
and online-replay its 256 instances.  The program keeps no caches, so a
repeated input costs what it cost the first time.

* ``lp-cold``: one cold LP build + solve + tie-break per operation.  Pivot
  and tableau work shows here; consecutive operations share nothing.
* ``rs-grid``: one advice over the 41-point gamma grid per operation, the
  criterion-5 configuration.  Many small LPs plus protection-level
  searches that share an advice, so warm starts across gamma show here.
* ``robustness``: one Monte-Carlo ``average_cr`` cell per operation with
  the robustness-bound check on.  Block-ordered instances: sampling,
  ``opt_revenue`` and the replays dominate.
* ``online-replay``: one long instance in general order through one policy
  runner.  The only workload that runs ``lp_relaxed``; the LP and the
  protection-level search run only in set-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable

import numpy as np

from rmadvice import core, experiments, frontier, lp, policies, protect

BISECTION_EPS = 1e-6  # default epsilon of the protection-level search
RELAXED_EPS = 0.1  # trigger slack of the relaxed switching policy
TOL = 1e-9


@dataclass
class Workload:
    inputs: list
    warmup: Any  # an input that does not depend on the seed
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], list]  # (input, output) -> failed checks
    canon: Callable[[Any], str]
    digest_ops: int  # outputs of this many first operations form the digest
    # Costlier checks, run on the digest inputs only: (input, output) -> failed checks.
    deep_check: Callable[[Any, Any], list] | None = None


def _fmt(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in np.ravel(values))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _random_advice(rng, ladder):
    """Multinomial advice with at least one class-1 customer."""
    counts = rng.multinomial(ladder.capacity - 1, np.full(ladder.m, 1.0 / ladder.m))
    counts[0] += 1
    return core.make_advice(ladder, counts)


def _geometric_ladder(m: int, n: int):
    return core.make_fare_ladder([1.5 ** i for i in range(m)], n)


# ---------------------------------------------------------------- lp-cold

def highs_beta(model) -> float:
    """beta* of an LPModel from scipy's HiGHS, an oracle independent of the
    in-repo simplex."""
    from scipy.optimize import linprog

    sign = np.where(np.asarray(model.senses) == ">=", -1.0, 1.0)
    bounds = [(0.0, u if math.isfinite(u) else None) for u in model.upper]
    res = linprog(-model.objective, A_ub=model.rows * sign[:, None], b_ub=model.rhs * sign,
                  bounds=bounds, method="highs")
    return float(res.x[0]) if res.status == 0 else math.nan


def lp_cold(seed: int, tiny: bool = False) -> Workload:
    m, n, pool = (3, 20, 16) if tiny else (6, 100, 1024)
    ladder = _geometric_ladder(m, n)
    rng = _rng(seed, 1)
    bound = core.bq_bound(ladder)
    # gamma ~ U[0, c(F)], stratified so that every 16 consecutive operations
    # draw one gamma from each sixteenth of the range: solve time depends
    # strongly on gamma, and this keeps it from varying with the seed.
    strata = np.concatenate([rng.permutation(16) for _ in range(pool // 16)])
    gammas = (strata + rng.uniform(size=pool)) / 16 * bound
    inputs = [(_random_advice(rng, ladder), float(g)) for g in gammas]

    def check(item, sol):
        advice, gamma = item
        if sol.status != "optimal":
            return [f"LP status {sol.status}"]
        problems = []
        if not sol.max_violation <= TOL:
            problems.append(f"max_violation {sol.max_violation:.3g} > {TOL}")
        ref = highs_beta(lp.build_pareto_lp(ladder, advice, gamma))
        if not abs(sol.beta_star - ref) <= 1e-7:
            problems.append(f"beta* {sol.beta_star!r} differs from HiGHS {ref!r}")
        return problems

    return Workload(
        inputs=inputs,
        warmup=(_random_advice(_rng(0, 0), ladder), 0.5 * bound),
        op=lambda item: lp.optimal_consistency(ladder, item[0], item[1]),
        check=check,
        canon=lambda sol: f"{sol.status} {_fmt([sol.beta_star])} {_fmt(sol.x)} {_fmt(sol.y)}",
        digest_ops=4 if tiny else 8,
    )


# ---------------------------------------------------------------- rs-grid

def rs_grid(seed: int, tiny: bool = False) -> Workload:
    n, points = (20, 5) if tiny else (100, 41)
    ladder = core.make_fare_ladder([1.0, 2.0, 4.0], n)
    grid = frontier.default_gamma_grid(ladder, points)
    advices = frontier.advice_grid(ladder, 10)
    inputs = [advices[i] for i in _rng(seed, 2).permutation(len(advices))]

    def check(advice, rs):
        return [] if 0.0 <= rs < 1.0 else [f"relative suboptimality {rs!r} outside [0, 1)"]

    def deep_check(advice, rs):
        curve = frontier.consistency_frontier(ladder, advice, grid)
        problems = []
        if np.any(np.diff(curve.beta_lp) > TOL):
            problems.append("beta_lp increases in gamma")
        if np.any(curve.beta_pl > curve.beta_lp + BISECTION_EPS):
            problems.append("beta_pl exceeds beta_lp + eps")
        gap = float(max(0.0, np.max((curve.beta_lp - curve.beta_pl) / curve.beta_lp)))
        if gap != rs:
            problems.append(f"frontier gap {gap!r} differs from the operation's {rs!r}")
        return problems

    return Workload(
        inputs=inputs,
        warmup=advices[len(advices) // 2],
        op=lambda advice: frontier.relative_suboptimality(ladder, advice, grid),
        check=check,
        canon=lambda rs: _fmt([rs]),
        digest_ops=2 if tiny else 3,
        deep_check=deep_check,
    )


# ---------------------------------------------------------------- robustness

ROBUSTNESS_ADVICE = ([70, 20, 10], [15, 70, 15], [10, 20, 70])
ROBUSTNESS_GAMMAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
ROBUSTNESS_POLICIES = ("lp_optimal", "optimal_pl", "bq")


def robustness(seed: int, tiny: bool = False) -> Workload:
    trials, pool = (5, 8) if tiny else (100, 2048)
    ladder = core.make_fare_ladder([1.0, 2.0, 4.0], 100)
    cells = list(product(
        [core.make_advice(ladder, a) for a in ROBUSTNESS_ADVICE],
        ROBUSTNESS_GAMMAS, ROBUSTNESS_POLICIES))
    rng = _rng(seed, 3)
    order = rng.permutation(len(cells))
    noise_seeds = rng.integers(0, 2 ** 62, size=pool)
    inputs = [(cells[order[i % len(cells)]], int(noise_seeds[i])) for i in range(pool)]

    def op(item):
        (advice, gamma, policy), noise_seed = item
        noise = experiments.NoiseConfig(v=0.5, trials=trials, seed=noise_seed)
        return experiments.average_cr(ladder, advice, policy, gamma, noise, check_bound=True)

    def check(item, result):
        (_, gamma, policy), _ = item
        mean, std = result
        if not (mean >= gamma - BISECTION_EPS - TOL and math.isfinite(std)):
            return [f"{policy} at gamma {gamma}: mean ratio {mean!r}, std {std!r}"]
        return []

    return Workload(inputs=inputs, warmup=(cells[0], 0), op=op, check=check, canon=_fmt,
                    digest_ops=4 if tiny else 8)


# ---------------------------------------------------------------- online-replay

REPLAY_POLICIES = ("lp_optimal", "lp_relaxed", "optimal_pl", "bq")
# (advice, gamma as a share of the worst-case bound c(F)); fixed, so set-up
# solves the same LPs whatever the seed.
REPLAY_CONFIGS = (
    ([300, 250, 200, 120, 80, 50], 0.5),
    ([100, 150, 200, 200, 200, 150], 0.8),
)


@dataclass
class ReplayPlan:
    advice: core.Advice
    gamma: float
    plan: policies.SwitchPlan
    levels: policies.ProtectionLevels


def online_replay(seed: int, tiny: bool = False) -> Workload:
    if tiny:
        m, n, configs, pool = 3, 50, (([25, 15, 10], 0.5),), 8
    else:
        m, n, configs, pool = 6, 1000, REPLAY_CONFIGS, 256
    ladder = _geometric_ladder(m, n)
    fares = np.asarray(ladder.fares)
    bound = core.bq_bound(ladder)
    bq = policies.bq_levels(ladder)
    plans = []
    for counts, share in configs:
        advice = core.make_advice(ladder, counts)
        gamma = share * bound
        plan = policies.derive_switch_plan(lp.optimal_consistency(ladder, advice, gamma))
        levels, _ = protect.optimal_protection_levels(ladder, advice, gamma, BISECTION_EPS)
        plans.append(ReplayPlan(advice, gamma, plan, levels))

    def item(cfg, policy, steps):
        opt = float(np.sort(fares[steps - 1])[::-1][:n].sum())
        return cfg, policy, core.Instance(steps=tuple(steps.tolist())), opt

    rng = _rng(seed, 4)
    inputs = []
    for i in range(pool):
        cfg = plans[i % len(plans)]
        policy = REPLAY_POLICIES[(i // len(plans)) % len(REPLAY_POLICIES)]
        if (i // (len(plans) * len(REPLAY_POLICIES))) % 2 == 0:
            # Conforming: the advised counts above the lowest advised class
            # (class 1), extra class-1 arrivals, in shuffled order.
            counts = np.array(cfg.advice.counts)
            counts[0] += rng.integers(0, n + 1)
            steps = rng.permutation(np.repeat(np.arange(1, m + 1), counts))
        else:
            steps = rng.integers(1, m + 1, size=rng.integers(n, 3 * n + 1))
        inputs.append(item(cfg, policy, steps))
    advice_steps = np.repeat(np.arange(1, m + 1), plans[0].advice.counts)
    warmup = item(plans[0], "lp_optimal", advice_steps)

    def op(item):
        cfg, policy, instance, _ = item
        if policy == "lp_optimal":
            return policies.run_lp_optimal(ladder, cfg.advice, cfg.gamma, instance, cfg.plan)
        if policy == "lp_relaxed":
            return policies.run_relaxed_optimal(
                ladder, cfg.advice, cfg.gamma, RELAXED_EPS, instance, cfg.plan)
        levels = cfg.levels if policy == "optimal_pl" else bq
        return policies.run_protection_policy(ladder, levels, instance)

    floors = {
        "lp_optimal": lambda g: g,
        "lp_relaxed": lambda g: g / (1.0 + RELAXED_EPS),
        "optimal_pl": lambda g: g - BISECTION_EPS,
        "bq": lambda g: bound,
    }

    def check(item, trace):
        cfg, policy, _, opt = item
        problems = []
        floor = floors[policy](cfg.gamma)
        if not trace.revenue >= floor * opt - TOL * opt:
            problems.append(f"{policy}: revenue {trace.revenue!r} < {floor!r} * opt {opt!r}")
        if not trace.revenue <= opt + TOL * opt:
            problems.append(f"{policy}: revenue {trace.revenue!r} > opt {opt!r}")
        if not trace.q[-1] <= n + TOL * n:
            problems.append(f"{policy}: {trace.q[-1]!r} seats sold of {n}")
        return problems

    def canon(trace):
        return (f"{_fmt([trace.revenue])} {_fmt(trace.q)} "
                f"{trace.trigger_time} {trace.chosen_k} {trace.search_iterations}")

    return Workload(inputs=inputs, warmup=warmup, op=op, check=check, canon=canon,
                    digest_ops=8 if tiny else 32)


WORKLOADS = {
    "lp-cold": lp_cold,
    "rs-grid": rs_grid,
    "robustness": robustness,
    "online-replay": online_replay,
}
