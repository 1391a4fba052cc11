"""Command-line interface.

Subcommands::

    frontier    consistency curves over a gamma grid        -> CSV + manifest
    rs-grid     protection-level suboptimality per advice   -> CSV + manifest
    simulate    run one policy on one instance              -> trace CSV
    protect     optimized protection levels                 -> JSON
    solve-lp    raw LP solution for (advice, gamma)         -> JSON
    robustness  Monte-Carlo sweep over noise levels         -> CSV + manifest

All inputs come from a JSON config file (``--config``); outputs go under
``--out``.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, experiments, frontier, lp, policies, protect
from .simplex import SolverError


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _ladder(cfg: dict) -> core.FareLadder:
    try:
        return core.make_fare_ladder(_require(cfg, "fares"), _require(cfg, "capacity"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _advice(cfg: dict, ladder: core.FareLadder) -> core.Advice:
    try:
        return core.make_advice(ladder, _require(cfg, "advice"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _gamma(value, ladder: core.FareLadder) -> float:
    """A competitiveness target, required to lie in [0, c(F)]."""
    try:
        return core.check_gamma(ladder, float(value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad gamma: {exc}") from exc


def _whole(value, name: str) -> int:
    """A whole-number config value (``core._is_whole``); anything else,
    ``true`` and ``"5"`` included, is a config error."""
    if not core._is_whole(value):
        raise ConfigError(f"bad {name}: {value!r} is not a whole number")
    return int(value)


def _nonempty_list(value, name: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list")
    return value


def _gamma_grid(cfg: dict, ladder: core.FareLadder) -> np.ndarray:
    spec = cfg.get("gamma_grid")
    if spec is None:
        return frontier.default_gamma_grid(ladder)
    try:
        if isinstance(spec, list):
            grid = np.asarray(spec, dtype=float)
        else:
            grid = np.linspace(
                float(spec["min"]), float(spec["max"]), _whole(spec["points"], "points")
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad gamma_grid: {exc}") from exc
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("gamma_grid must be a nonempty list of numbers")
    for gamma in grid:
        _gamma(gamma, ladder)
    return grid


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _manifest(out_dir: Path, command: str, cfg: dict, seed) -> None:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    payload = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    _write(out_dir, "manifest.json", json.dumps(payload, indent=2) + "\n")


def _float17(value: float) -> float:
    return float(f"{value:.17g}")


def cmd_frontier(cfg: dict, out: Path, args) -> None:
    ladder = _ladder(cfg)
    advice = _advice(cfg, ladder)
    curve = frontier.consistency_frontier(
        ladder, advice, _gamma_grid(cfg, ladder), epsilon=args.epsilon
    )
    _write(out, "frontier.csv", frontier.frontier_to_csv(curve))
    _manifest(out, "frontier", cfg, args.seed)


def cmd_rs_grid(cfg: dict, out: Path, args) -> None:
    ladder = _ladder(cfg)
    step = _whole(cfg.get("advice_step", 10), "advice_step")
    try:
        advices = frontier.advice_grid(ladder, step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = _gamma_grid(cfg, ladder)
    rs_values = [
        frontier.relative_suboptimality(ladder, a, grid, epsilon=args.epsilon)
        for a in advices
    ]
    _write(out, "rs_grid.csv", frontier.rs_grid_to_csv(advices, rs_values))
    _manifest(out, "rs-grid", cfg, args.seed)


def cmd_simulate(cfg: dict, out: Path, args) -> None:
    ladder = _ladder(cfg)
    advice = _advice(cfg, ladder)
    try:
        instance = core.make_instance(ladder, _require(cfg, "instance"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    policy = cfg.get("policy", "lp_optimal")
    gamma = _gamma(cfg.get("gamma", 0.0), ladder)
    if policy == "lp_optimal":
        trace = policies.run_lp_optimal(ladder, advice, gamma, instance)
    elif policy == "lp_relaxed":
        trace = policies.run_relaxed_optimal(
            ladder, advice, gamma, args.epsilon, instance
        )
    elif policy == "optimal_pl":
        levels, _ = protect.optimal_protection_levels(ladder, advice, gamma)
        trace = policies.run_protection_policy(ladder, levels, instance)
    elif policy == "bq":
        trace = policies.run_protection_policy(ladder, policies.bq_levels(ladder), instance)
    else:
        raise ConfigError(f"unknown policy {policy!r}")
    _write(out, "trace.csv", policies.trace_to_csv(ladder, trace))
    opt = core.opt_revenue(ladder, instance)
    ratio = trace.revenue / opt if opt > 0 else 1.0
    summary = {
        "policy": policy,
        "revenue": _float17(trace.revenue),
        "opt": _float17(opt),
        "realized_ratio": _float17(ratio),
        "trigger_time": trace.trigger_time,
    }
    _write(out, "summary.json", json.dumps(summary, indent=2) + "\n")
    _manifest(out, "simulate", cfg, args.seed)
    print(f"realized competitive ratio: {ratio:.6f}")


def cmd_protect(cfg: dict, out: Path, args) -> None:
    ladder = _ladder(cfg)
    advice = _advice(cfg, ladder)
    gamma = _gamma(cfg.get("gamma", 0.0), ladder)
    try:
        _, beta_lower = protect.optimal_protection_levels(
            ladder, advice, gamma, args.epsilon
        )
        candidate = protect.grow_levels_for_beta(ladder, advice, gamma, beta_lower)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write(out, "levels.json", protect.levels_to_json(ladder, gamma, beta_lower, candidate))
    _manifest(out, "protect", cfg, args.seed)


def cmd_solve_lp(cfg: dict, out: Path, args) -> None:
    ladder = _ladder(cfg)
    advice = _advice(cfg, ladder)
    gamma = _gamma(cfg.get("gamma", 0.0), ladder)
    try:
        model = lp.build_pareto_lp(ladder, advice, gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    solution = lp.solve_lp(model)
    payload = {
        "gamma": gamma,
        "status": solution.status,
        "beta_star": _float17(solution.beta_star),
        "x": [_float17(v) for v in solution.x],
        "y": [[_float17(v) for v in row] for row in solution.y],
        "max_violation": _float17(solution.max_violation),
    }
    _write(out, "lp_solution.json", json.dumps(payload, indent=2) + "\n")
    if cfg.get("dump_model"):
        _write(out, "lp_model.txt", lp.dump_model(model))
    _manifest(out, "solve-lp", cfg, args.seed)


def cmd_robustness(cfg: dict, out: Path, args) -> None:
    ladder = _ladder(cfg)
    advice_lists = cfg.get("advices")
    if advice_lists is None:
        advice_lists = [_require(cfg, "advice")]
    _nonempty_list(advice_lists, "advices")
    try:
        advices = [core.make_advice(ladder, a) for a in advice_lists]
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    noise_cfg = cfg.get("noise", {})
    if not isinstance(noise_cfg, dict):
        raise ConfigError("noise must be an object")
    v_list = _nonempty_list(noise_cfg.get("v_list", [noise_cfg.get("v", 0.5)]), "v_list")
    try:
        v_list = [float(v) for v in v_list]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise level: {exc}") from exc
    trials = _whole(noise_cfg.get("trials", 100), "trials")
    gammas = _gamma_grid(cfg, ladder)
    policies_list = _nonempty_list(cfg.get("policies", list(experiments.POLICIES)), "policies")
    try:
        rows = experiments.robustness_sweep(
            ladder, advices, gammas, v_list, trials, args.seed,
            policies=policies_list, epsilon=args.epsilon,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write(out, "sweep.csv", experiments.sweep_to_csv(rows))
    _manifest(out, "robustness", cfg, args.seed)


_COMMANDS = {
    "frontier": cmd_frontier,
    "rs-grid": cmd_rs_grid,
    "simulate": cmd_simulate,
    "protect": cmd_protect,
    "solve-lp": cmd_solve_lp,
    "robustness": cmd_robustness,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmadvice",
        description="Seat allocation with fare-count advice: frontiers, policies, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="top-level RNG seed")
        p.add_argument("--epsilon", type=float, default=1e-6,
                       help="accuracy for binary searches / relaxed trigger")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 < args.epsilon < math.inf:
            raise ConfigError(f"--epsilon {args.epsilon!r} must be positive and finite")
        cfg = _load_config(args.config)
        _COMMANDS[args.command](cfg, Path(args.out), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
