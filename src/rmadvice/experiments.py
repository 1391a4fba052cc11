"""Monte-Carlo robustness experiments for the booking policies.

Instances are sampled around an advice vector with Gaussian noise whose
standard deviation scales with both the advised count and a noise level
``v``; realized competitive ratios of the LP-based switching policy, the
optimized protection levels, and the advice-free worst-case levels are then
averaged over seeded trials.  Every sampled instance is also checked
against the robustness bound tying the consistency loss of a
protection-level policy to its count distance from the advice.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import core, lp, protect
from .policies import (
    block_revenue,
    bq_levels,
    derive_switch_plan,
    run_lp_optimal,
    run_protection_policy,
    run_relaxed_optimal,
)
from .rng import CounterRng, derive_key

POLICIES = ("lp_optimal", "optimal_pl", "bq")


@dataclass(frozen=True)
class NoiseConfig:
    """Gaussian noise around the advice: sd_i = v * A_i."""

    v: float
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.v < 1.0:
            raise ValueError("noise level v must lie in [0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass
class SweepRow:
    v: float
    gamma: float
    policy: str
    mean_cr: float
    std_cr: float
    trials: int


class RobustnessBoundError(RuntimeError):
    """A sampled instance violated the advice-distance robustness bound."""


def sample_instance(
    ladder: core.FareLadder, advice: core.Advice, noise: NoiseConfig, trial: int
) -> core.Instance:
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
    return core.Instance(steps=tuple(steps.tolist()))


def check_robustness_bound(
    ladder: core.FareLadder,
    advice: core.Advice,
    levels,
    instance: core.Instance,
    tol: float = 1e-9,
) -> float:
    """Assert the consistency-vs-distance bound for protection levels.

    The drop from the policy's consistency (revenue share on the advice
    instance) to its realized ratio on ``instance`` may not exceed
    ``2 f_m / f_1`` times the count distance between instance and advice.
    Returns the realized ratio (1.0 when the instance's optimum is zero).
    """
    opt_inst = core.opt_revenue(ladder, instance)
    if opt_inst <= 0.0:
        return 1.0
    cons = block_revenue(
        ladder.fares, np.asarray(levels.levels), advice.cap_counts
    ) / core.advice_opt(ladder, advice)
    realized = run_protection_policy(ladder, levels, instance).revenue / opt_inst
    bound = 2.0 * ladder.fares[-1] / ladder.fares[0] * core.advice_distance(
        advice, instance
    )
    if cons - realized > bound + tol:
        raise RobustnessBoundError(
            f"consistency drop {cons - realized} exceeds bound {bound}"
        )
    return realized


def average_cr(
    ladder: core.FareLadder,
    advice: core.Advice,
    policy: str,
    gamma: float,
    noise: NoiseConfig,
    epsilon: float = 1e-6,
    relaxed_epsilon: float = 0.1,
    check_bound: bool = True,
) -> tuple[float, float]:
    """Mean and sample std of the realized competitive ratio over trials.

    ``policy`` is one of ``lp_optimal``, ``optimal_pl``, ``bq``, or
    ``lp_relaxed`` (the error-tolerant switching policy at
    ``relaxed_epsilon``).
    """
    runner = _make_runner(
        ladder, advice, policy, gamma, epsilon, relaxed_epsilon, check_bound
    )
    ratios = np.empty(noise.trials)
    for t in range(noise.trials):
        instance = sample_instance(ladder, advice, noise, t)
        ratios[t] = runner(instance)
    mean = float(np.mean(ratios))
    std = float(np.std(ratios, ddof=1)) if noise.trials > 1 else 0.0
    return mean, std


def _make_runner(ladder, advice, policy, gamma, epsilon, relaxed_epsilon, check_bound):
    """Precompute a policy's plan/levels and return instance -> realized CR."""
    if policy in ("lp_optimal", "lp_relaxed"):
        plan = derive_switch_plan(lp.optimal_consistency(ladder, advice, gamma))

        def run(instance):
            opt = core.opt_revenue(ladder, instance)
            if opt <= 0.0:
                return 1.0
            if policy == "lp_optimal":
                trace = run_lp_optimal(ladder, advice, gamma, instance, plan)
            else:
                trace = run_relaxed_optimal(
                    ladder, advice, gamma, relaxed_epsilon, instance, plan
                )
            return trace.revenue / opt

    elif policy in ("optimal_pl", "bq"):
        if policy == "optimal_pl":
            levels, _ = protect.optimal_protection_levels(ladder, advice, gamma, epsilon)
        else:
            levels = bq_levels(ladder)

        def run(instance):
            if check_bound:
                return check_robustness_bound(ladder, advice, levels, instance)
            opt = core.opt_revenue(ladder, instance)
            if opt <= 0.0:
                return 1.0
            return run_protection_policy(ladder, levels, instance).revenue / opt

    else:
        raise ValueError(f"unknown policy {policy!r}")
    return run


def robustness_sweep(
    ladder: core.FareLadder,
    advices: list[core.Advice],
    gammas,
    v_list,
    trials: int,
    seed: int,
    policies=POLICIES,
    epsilon: float = 1e-6,
    check_bound: bool = True,
) -> list[SweepRow]:
    """Grid of mean realized ratios over (advice, noise level, gamma, policy).

    Instances are shared across gammas and policies within a cell so curves
    are compared on common draws; the per-cell seed is derived from the top
    seed and the (advice, noise) indices.
    """
    rows: list[SweepRow] = []
    for ai, advice in enumerate(advices):
        for vi, v in enumerate(v_list):
            noise = NoiseConfig(
                v=float(v), trials=trials, seed=derive_key(seed, ai * 1024 + vi)
            )
            for gamma in gammas:
                for policy in policies:
                    mean, std = average_cr(
                        ladder, advice, policy, float(gamma), noise,
                        epsilon=epsilon, check_bound=check_bound,
                    )
                    rows.append(
                        SweepRow(
                            v=float(v), gamma=float(gamma), policy=policy,
                            mean_cr=mean, std_cr=std, trials=trials,
                        )
                    )
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["v", "gamma", "policy", "mean_cr", "std_cr", "trials"])
    for r in rows:
        writer.writerow(
            [f"{r.v:.17g}", f"{r.gamma:.17g}", r.policy,
             f"{r.mean_cr:.17g}", f"{r.std_cr:.17g}", r.trials]
        )
    return buf.getvalue()
