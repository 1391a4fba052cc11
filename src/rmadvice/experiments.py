"""Monte-Carlo robustness experiments for the booking policies.

Instances are sampled around an advice vector with Gaussian noise whose
standard deviation scales with both the advised count and a noise level
``v``; realized competitive ratios of the LP-based switching policy, the
optimized protection levels, and the advice-free worst-case levels are then
averaged over seeded trials.  Sampled instances arrive in increasing fare
order, so they are kept as per-class counts and every policy is evaluated
in closed form on them.  Every sampled instance is also checked
against the robustness bound tying the consistency loss of a
protection-level policy to its count distance from the advice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, lp, protect
from .policies import (
    ProtectionLevels,
    block_revenue,
    bq_levels,
    derive_switch_plan,
    levels_consistency,
    switch_block_revenue,
)
from .rng import derive_key, normals

POLICIES = ("lp_optimal", "optimal_pl", "bq")
BOUND_TOL = 1e-9  # slack of the robustness-bound check


@dataclass(frozen=True)
class NoiseConfig:
    """Gaussian noise around the advice: sd_i = v * A_i, drawn from streams
    keyed by a whole ``seed`` in [0, 2**64)."""

    v: float
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.v < 1.0:
            raise ValueError("noise level v must lie in [0, 1)")
        if not core._is_whole(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive whole number")
        if not core._is_whole(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a whole number in [0, 2**64)")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


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


def sample_counts(
    ladder: core.FareLadder, advice: core.Advice, noise: NoiseConfig
) -> np.ndarray:
    """Per-class arrival counts of every trial's noisy instance.

    Row ``t`` counts trial ``t``'s instance, whose arrivals come in
    increasing fare order.  Class 1 always arrives at full capacity; every
    higher class count is ``max(floor(A_i + v * A_i * z), 0)`` with
    independent standard normals drawn from the trial's own stream, whose
    key is ``derive_key(seed, derive_key(t, 0x5EED))``.  Returns a
    ``(trials, m)`` integer array.
    """
    advised = np.array(advice.counts[1:], dtype=float)
    trials = np.arange(noise.trials, dtype=np.uint64)
    keys = derive_key(noise.seed, derive_key(trials, 0x5EED))
    draws = advised + (noise.v * advised) * normals(keys, ladder.m - 1)
    counts = np.empty((noise.trials, ladder.m), dtype=np.int64)
    counts[:, 0] = ladder.capacity
    counts[:, 1:] = np.maximum(np.floor(draws), 0.0)
    return counts


def check_robustness_bound(
    ladder: core.FareLadder,
    advice: core.Advice,
    consistency: float,
    realized,
    counts,
) -> None:
    """Assert the consistency-vs-distance bound for protection levels.

    The drop from a protection-level policy's ``consistency`` (its revenue
    share on the advice instance) to its ``realized`` ratio on an instance
    with per-class ``counts`` may not exceed ``2 f_m / f_1`` times the count
    distance between instance and advice.  Takes one count row and ratio,
    or one per trial.
    """
    drop, bound = np.broadcast_arrays(
        consistency - np.asarray(realized),
        2.0 * ladder.fares[-1] / ladder.fares[0] * core.count_distance(advice, counts),
    )
    violated = np.flatnonzero(drop > bound + BOUND_TOL)
    if violated.size:
        i = violated[0]
        raise RobustnessBoundError(
            f"consistency drop {drop.flat[i]} exceeds bound {bound.flat[i]}"
        )


def average_cr(
    ladder: core.FareLadder,
    advice: core.Advice,
    policy: str,
    gamma: float,
    noise: NoiseConfig,
    relaxed_epsilon: float = 0.1,
    check_bound: bool = True,
) -> tuple[float, float]:
    """Mean and sample std of the realized competitive ratio over trials.

    ``policy`` is one of ``lp_optimal``, ``optimal_pl``, ``bq``, or
    ``lp_relaxed`` (the error-tolerant switching policy at
    ``relaxed_epsilon``).
    """
    setup = _policy_setup(ladder, advice, [policy], gamma, relaxed_epsilon)[0]
    counts = sample_counts(ladder, advice, noise)
    return _mean_std(_realized_ratios(ladder, advice, setup, counts, check_bound))


def _policy_setup(
    ladder: core.FareLadder, advice: core.Advice, names, gamma, relaxed_epsilon: float = 0.1,
):
    """Each named policy's inputs at ``(advice, gamma)``: levels, or a
    switch plan with its trigger slack.  The one map from a policy name to
    its set-up, for the sweeps here and for the CLI's ``simulate``.  An
    array of gammas (lanes) gives each name a list over them from one call
    of each search; the switching policies share it."""
    lanes, plans, made = np.ndim(gamma) > 0, None, []
    for name in names:
        if name in ("lp_optimal", "lp_relaxed"):
            if name == "lp_relaxed" and relaxed_epsilon <= 0.0:
                raise ValueError("epsilon must be positive")
            if plans is None:
                solved = lp.water_fill_plan(ladder, advice, gamma)
                plans = [derive_switch_plan(sol) for sol in (solved if lanes else [solved])]
            slack = relaxed_epsilon if name == "lp_relaxed" else 0.0
            made.append([(plan, slack) for plan in plans])
        elif name == "optimal_pl":
            searched = protect.optimal_protection_levels(ladder, advice, gamma)
            made.append([levels for levels, _ in (searched if lanes else [searched])])
        elif name == "bq":
            made.append([bq_levels(ladder)] * (len(gamma) if lanes else 1))
        else:
            raise ValueError(f"unknown policy {name!r}")
    return made if lanes else [setups[0] for setups in made]


def _realized_ratios(
    ladder: core.FareLadder,
    advice: core.Advice,
    setup,
    counts: np.ndarray,
    check_bound: bool = True,
) -> np.ndarray:
    """Realized competitive ratio of a policy on every row of ``counts``.

    ``setup`` comes from ``_policy_setup``.  Each row is an increasing
    block instance (as from ``sample_counts``), so every policy runs in
    closed form on the whole count array.  A row whose optimum is zero
    scores 1.  With ``check_bound`` the robustness bound is asserted on
    every row for the protection-level policies.
    """
    static = isinstance(setup, ProtectionLevels)
    if static:
        revenue = block_revenue(ladder.fares, setup.levels, counts)
    else:
        plan, eps = setup
        revenue = switch_block_revenue(ladder, advice, plan, counts, eps)
    opt = core.count_opt(ladder, counts)
    ratios = np.divide(revenue, opt, out=np.ones(len(counts)), where=opt > 0.0)
    if check_bound and static:
        consistency = levels_consistency(ladder, advice, setup)
        check_robustness_bound(ladder, advice, consistency, ratios, counts)
    return ratios


def _mean_std(ratios: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(ratios))
    std = float(np.std(ratios, ddof=1)) if ratios.size > 1 else 0.0
    return mean, std


def robustness_sweep(
    ladder: core.FareLadder,
    advices: list[core.Advice],
    gammas,
    v_list,
    trials: int,
    seed: int,
    policies=POLICIES,
) -> list[SweepRow]:
    """Grid of mean realized ratios over (advice, noise level, gamma, policy).

    Each (advice, noise) cell samples its instances once and shares them
    across gammas and policies, so curves are compared on common draws; the
    per-cell seed is derived from the top seed and the (advice, noise)
    indices.  Each advice sets up its policies once for all noise levels,
    with one lane call of each search over the gammas.  The robustness
    bound is checked on every trial of the protection-level policies.
    """
    rows: list[SweepRow] = []
    # Built first, so that a bad noise level or trial count fails before set-up.
    noises = [[NoiseConfig(float(v), trials, derive_key(seed, ai * 1024 + vi))
               for vi, v in enumerate(v_list)] for ai in range(len(advices))]
    gammas = np.asarray(gammas, dtype=float)
    for advice, advice_noises in zip(advices, noises):
        setups = _policy_setup(ladder, advice, policies, gammas)  # per policy, per gamma
        for noise in advice_noises:
            counts = sample_counts(ladder, advice, noise)
            for i, gamma in enumerate(gammas.tolist()):
                for policy, setup in zip(policies, setups):
                    mean, std = _mean_std(_realized_ratios(ladder, advice, setup[i], counts))
                    rows.append(SweepRow(noise.v, gamma, policy, mean, std, noise.trials))
    return rows
