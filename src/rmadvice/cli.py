"""Command-line interface.

Subcommands::

    frontier    consistency curves over a gamma grid        -> CSV + manifest
    rs-grid     protection-level suboptimality per advice   -> CSV + manifest
    simulate    run one policy on one instance              -> trace CSV
    protect     optimized protection levels                 -> JSON
    solve-lp    raw LP solution for (advice, gamma)         -> JSON
    robustness  Monte-Carlo sweep over noise levels         -> CSV + manifest

Each subcommand maps a JSON config (``--config``) to its output files,
formatted here (``_csv``, ``_json``): the library only computes.
``main`` writes them with ``manifest.json`` under ``--out`` once the
subcommand has returned.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import core, experiments, frontier, lp, policies, protect


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _checked(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with the input errors it raises
    (``TypeError``, ``ValueError``) turned into config errors."""
    try:
        return call(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _whole(value, name: str) -> int:
    """A whole-number config value (``core._is_whole``); anything else,
    ``true`` and ``"5"`` included, is a config error."""
    if not core._is_whole(value):
        raise ConfigError(f"bad {name}: {value!r} is not a whole number")
    return int(value)


def _number(value, name: str) -> float:
    """A real config value (``core._is_number``); anything else,
    ``false`` and ``"0.3"`` included, is a config error."""
    if not core._is_number(value):
        raise ConfigError(f"bad {name}: {value!r} is not a finite number")
    return float(value)


def _nonempty_list(value, name: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a nonempty list")
    return value


def _ladder(cfg: dict) -> core.FareLadder:
    return _checked(core.make_fare_ladder, _require(cfg, "fares"), _require(cfg, "capacity"))


def _gamma(value, ladder: core.FareLadder) -> float:
    """A competitiveness target, required to lie in [0, c(F)]."""
    return _checked(core.check_gamma, ladder, _number(value, "gamma"))


def _gamma_grid(cfg: dict, ladder: core.FareLadder) -> np.ndarray:
    spec = cfg.get("gamma_grid")
    if spec is None:
        return frontier.default_gamma_grid(ladder)
    if isinstance(spec, dict):
        lo, hi = (_number(_require(spec, key), f"gamma_grid {key}") for key in ("min", "max"))
        grid = _checked(np.linspace, lo, hi, _whole(_require(spec, "points"), "points"))
    else:
        entries = _nonempty_list(spec, "gamma_grid")
        grid = np.array([_number(g, "gamma_grid entry") for g in entries])
    if grid.size == 0:
        raise ConfigError("gamma_grid must have at least one point")
    return _checked(core.check_gamma, ladder, grid)


def _csv(header, rows) -> str:
    """CSV text with ``"\n"`` line ends; every float (numpy floats too) in
    17 significant digits, ints and strings as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def _json(payload) -> str:
    return json.dumps(payload, indent=2, default=float) + "\n"


def _manifest(args, cfg: dict) -> str:
    """The command, its config and every option it took but ``--config``
    and ``--out``."""
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    options = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}
    return _json({
        "command": args.command,
        "config": cfg,
        **options,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    })


def cmd_frontier(cfg: dict, args) -> dict:
    ladder = _ladder(cfg)
    advice = _checked(core.make_advice, ladder, _require(cfg, "advice"))
    grid = _gamma_grid(cfg, ladder)
    curve = frontier.consistency_frontier(ladder, advice, grid)
    rows = [(g, bl, bp, curve.bq_consistency)
            for g, bl, bp in zip(curve.gammas, curve.beta_lp, curve.beta_pl)]
    return {"frontier.csv": _csv(["gamma", "beta_lp", "beta_pl", "bq_consistency"], rows)}


def cmd_rs_grid(cfg: dict, args) -> dict:
    ladder = _ladder(cfg)
    step = _whole(cfg.get("advice_step", 10), "advice_step")
    advices = _checked(frontier.advice_grid, ladder, step)
    grid = _gamma_grid(cfg, ladder)
    rows = [(*a.counts, frontier.relative_suboptimality(ladder, a, grid)) for a in advices]
    header = [f"A_{i}" for i in range(1, ladder.m + 1)] + ["rs"]
    return {"rs_grid.csv": _csv(header, rows)}


def cmd_simulate(cfg: dict, args) -> dict:
    if not 0.0 < args.epsilon < math.inf:
        raise ConfigError(f"--epsilon {args.epsilon!r} must be positive and finite")
    ladder = _ladder(cfg)
    advice = _checked(core.make_advice, ladder, _require(cfg, "advice"))
    instance = _checked(core.make_instance, ladder, _require(cfg, "instance"))
    policy = cfg.get("policy", "lp_optimal")
    gamma = _gamma(cfg.get("gamma", 0.0), ladder)
    setup = _checked(experiments._policy_setup, ladder, advice, [policy], gamma, args.epsilon)[0]
    if isinstance(setup, policies.ProtectionLevels):
        trace = policies.run_protection_policy(ladder, setup, instance)
    else:
        trace = policies._run_switch(ladder, advice, instance, *setup)
    opt = core.opt_revenue(ladder, instance)
    ratio = trace.revenue / opt if opt > 0 else 1.0
    summary = {
        "policy": policy,
        "revenue": float(trace.revenue),
        "opt": opt,
        "realized_ratio": float(ratio),
        "trigger_time": trace.trigger_time,
    }
    print(f"realized competitive ratio: {ratio:.6f}")
    steps = np.array(trace.fare_indices, dtype=int)
    w, fares = trace.accepted, np.asarray(ladder.fares)[steps - 1]
    # Sequential sums from a zero row: the doubles of a step-by-step loop.
    added = np.column_stack([w[:, None] * (np.arange(ladder.m) >= steps[:, None] - 1), w * fares])
    running = np.cumsum(np.vstack([np.zeros(ladder.m + 1), added]), axis=0)[1:].tolist()
    tau = trace.trigger_time or len(steps) + 1
    rows = [[t, p, f, a, *r[:-1], int(t >= tau), r[-1]] for t, p, f, a, r in
            zip(range(1, len(steps) + 1), steps.tolist(), fares.tolist(), w.tolist(), running)]
    header = (["step", "fare_index", "fare", "accepted_fraction"]
              + [f"q_{i}" for i in range(1, ladder.m + 1)] + ["switched", "revenue_so_far"])
    return {"trace.csv": _csv(header, rows), "summary.json": _json(summary)}


def cmd_protect(cfg: dict, args) -> dict:
    ladder = _ladder(cfg)
    advice = _checked(core.make_advice, ladder, _require(cfg, "advice"))
    gamma = _gamma(cfg.get("gamma", 0.0), ladder)
    levels, beta_lower = protect.optimal_protection_levels(ladder, advice, gamma)
    candidate = protect.grow_levels_for_beta(ladder, advice, gamma, beta_lower)
    payload = {"fares": ladder.fares, "capacity": ladder.capacity, "gamma": gamma,
               "beta_lower": beta_lower, **asdict(candidate), "levels": levels.levels}
    del payload["root"], payload["settle"]  # the search's, not properties of the levels
    return {"levels.json": _json(payload)}


def cmd_solve_lp(cfg: dict, args) -> dict:
    ladder = _ladder(cfg)
    advice = _checked(core.make_advice, ladder, _require(cfg, "advice"))
    gamma = _gamma(cfg.get("gamma", 0.0), ladder)
    model = lp.build_pareto_lp(ladder, advice, gamma)
    solution = lp.solve_lp(model)
    payload = {
        "gamma": gamma,
        "status": solution.status,
        "beta_star": float(solution.beta_star),
        "x": solution.x.tolist(),
        "y": solution.y.tolist(),
        "max_violation": float(solution.max_violation),
    }
    files = {"lp_solution.json": _json(payload)}
    if cfg.get("dump_model"):
        files["lp_model.txt"] = lp.dump_model(model)
    return files


def cmd_robustness(cfg: dict, args) -> dict:
    ladder = _ladder(cfg)
    advice_lists = cfg.get("advices")
    if advice_lists is None:
        advice_lists = [_require(cfg, "advice")]
    advices = [
        _checked(core.make_advice, ladder, a) for a in _nonempty_list(advice_lists, "advices")
    ]
    noise_cfg = cfg.get("noise", {})
    if not isinstance(noise_cfg, dict):
        raise ConfigError("noise must be an object")
    v_list = _nonempty_list(noise_cfg.get("v_list", [noise_cfg.get("v", 0.5)]), "v_list")
    v_list = [_number(v, "noise level") for v in v_list]
    trials = _whole(noise_cfg.get("trials", 100), "trials")
    gammas = _gamma_grid(cfg, ladder)
    policies_list = _nonempty_list(cfg.get("policies", list(experiments.POLICIES)), "policies")
    rows = _checked(
        experiments.robustness_sweep, ladder, advices, gammas, v_list, trials, args.seed,
        policies=policies_list,
    )
    header = ["v", "gamma", "policy", "mean_cr", "std_cr", "trials"]
    return {"sweep.csv": _csv(header, map(astuple, rows))}


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
        if name == "simulate":
            p.add_argument("--epsilon", type=float, default=1e-6,
                           help="trigger slack of the lp_relaxed policy")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed {args.seed} must lie in [0, 2**64)")
        cfg = _load_config(args.config)
        files = _COMMANDS[args.command](cfg, args)
        files["manifest.json"] = _manifest(args, cfg)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as exc:  # SolverError is a RuntimeError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
