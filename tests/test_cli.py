"""Command-line interface: subcommands, outputs, exit codes."""

import hashlib
import json
import time

import numpy as np
import pytest

from rmadvice import core, experiments, frontier, lp, simplex
from rmadvice.cli import main
from rmadvice.simplex import SimplexResult

from .test_lp import VIOLATING_FIRST_SOLVES


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_failing(tmp_path, command, config, *flags):
    """Exit code of a run expected to fail; such a run writes nothing."""
    out = tmp_path / "o"
    try:
        code = main([command, "--config", config, "--out", str(out), *flags])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    assert not out.exists()
    return code


BASE = {
    "fares": [1.0, 2.0, 4.0],
    "capacity": 10,
    "advice": [0, 3, 7],
    "gamma": 0.3,
}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run_failing(tmp_path, "frontier", str(tmp_path / "nope.json")) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run_failing(tmp_path, "frontier", str(path)) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run_failing(tmp_path, "frontier", str(path)) == 2
        assert "config error:" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path, {"fares": [1.0, 2.0]})
        assert run_failing(tmp_path, "frontier", cfg) == 2

    def test_invalid_advice(self, tmp_path):
        payload = dict(BASE, advice=[1, 1, 1])
        cfg = write_config(tmp_path, payload)
        assert run_failing(tmp_path, "frontier", cfg) == 2

    def test_unknown_policy(self, tmp_path):
        payload = dict(BASE, instance=[1, 2, 3], policy="wat")
        cfg = write_config(tmp_path, payload)
        assert run_failing(tmp_path, "simulate", cfg) == 2

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2]))
        out = tmp_path / "taken"
        out.write_text("x", encoding="utf-8")
        assert main(["frontier", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: cannot write" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "x"

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("simulate", dict(BASE, gamma=0.6, instance=[1, 2, 3])),
            ("simulate", dict(BASE, gamma=-0.1, instance=[1, 2, 3], policy="bq")),
            ("frontier", dict(BASE, gamma_grid=[0.0, 0.6])),
            ("frontier", dict(BASE, gamma_grid={"min": 0.0, "max": 0.5714, "points": 41})),
            ("frontier", dict(BASE, gamma_grid=[])),
            ("frontier", dict(BASE, fares=[1.0, 2.0, float("nan")])),
            ("frontier", dict(BASE, fares=None)),
            ("frontier", dict(BASE, capacity=True, advice=[0, 0, 1])),
            ("frontier", dict(BASE, capacity=float("inf"))),
            ("rs-grid", dict(BASE, advice_step="x")),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"trials": "x"})),
            ("frontier", dict(BASE, gamma_grid={"min": 0.0, "max": 0.5, "points": 1.5})),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise="x")),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"v_list": [None]})),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"v_list": [0.1, "x"]})),
            ("simulate", dict(BASE, advice=5, instance=[1, 2, 3])),
            ("simulate", dict(BASE, instance=5)),
            ("robustness", dict(BASE, gamma_grid=[0.2], advices=[7])),
            ("simulate", dict(BASE, advice=[0.9, 3.1, 7], instance=[1, 2, 3])),
            ("simulate", dict(BASE, advice=[True, 2, 7], instance=[1, 2, 3])),
            ("simulate", dict(BASE, instance=[1, 2.7, 3])),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"trials": True})),
            ("rs-grid", dict(BASE, advice_step="5")),
            ("rs-grid", dict(BASE, gamma_grid={"min": 0.0, "max": 0.5, "points": True})),
            ("robustness", dict(BASE, gamma_grid=[0.2], policies=5)),
            ("robustness", dict(BASE, gamma_grid=[0.2], policies=[])),
            ("robustness", dict(BASE, gamma_grid=[0.2], policies="bq")),
            ("robustness", dict(BASE, gamma_grid=[0.2], advices=[])),
            ("robustness", dict(BASE, gamma_grid=[0.2], advices={"a": [0, 3, 7]})),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"v_list": []})),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"v_list": 0.5})),
            ("simulate", dict(BASE, gamma=False, instance=[1, 2, 3])),
            ("simulate", dict(BASE, gamma="0.3", instance=[1, 2, 3])),
            ("frontier", dict(BASE, fares="124")),
            ("frontier", dict(BASE, fares=["1", "2", "4"])),
            ("frontier", dict(BASE, fares=[True, 2, 4])),
            ("frontier", dict(BASE, gamma_grid=[0.0, "0.1"])),
            ("frontier", dict(BASE, gamma_grid={"min": "0", "max": 0.5, "points": 3})),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"v_list": [False]})),
            ("robustness", dict(BASE, gamma_grid=[0.2], noise={"v": "0.5"})),
            ("frontier", dict(BASE, gamma_grid={"min": 0.0, "max": 0.5, "points": -1})),
            ("frontier", [BASE]),
            ("frontier", 5),
            ("robustness --seed=-1", dict(BASE, gamma_grid=[0.2])),
            ("robustness --seed=18446744073709551616", dict(BASE, gamma_grid=[0.2])),
            ("frontier", dict(BASE, gamma_grid={"min": 0.0, "max": 0.1, "points": 0})),
        ],
        ids=[
            "gamma-above-bound", "gamma-negative-bq", "grid-point-above-bound",
            "grid-max-above-bound", "grid-empty", "fare-nan", "fares-null",
            "capacity-bool", "capacity-inf", "advice-step-text", "trials-text",
            "grid-points-fractional", "noise-text", "v-list-null", "v-list-text",
            "advice-number", "instance-number", "advices-entry-number", "advice-fractional",
            "advice-bool", "instance-step-fractional", "trials-bool", "advice-step-numeric-text",
            "grid-points-bool", "policies-number", "policies-empty", "policies-text",
            "advices-empty", "advices-object", "v-list-empty", "v-list-number",
            "gamma-bool", "gamma-text", "fares-text", "fares-text-entries", "fares-bool-entry",
            "grid-entry-text", "grid-min-text", "v-list-bool", "v-text", "grid-points-negative",
            "config-list", "config-number", "seed-negative", "seed-2-to-the-64",
            "grid-points-zero",
        ],
    )
    def test_rejected_input(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        command, *flags = command.split()
        assert run_failing(tmp_path, command, cfg, *flags) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["frontier", "protect", "rs-grid", "robustness", "simulate"]
    )
    @pytest.mark.parametrize("epsilon", ["nan", "-1", "0", "inf"])
    def test_bad_epsilon(self, tmp_path, capsys, command, epsilon):
        # simulate rejects a bad trigger slack; the others take no --epsilon.
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2], instance=[1, 2, 3]))
        assert run_failing(tmp_path, command, cfg, f"--epsilon={epsilon}") == 2
        err = capsys.readouterr().err
        assert ("config error:" if command == "simulate" else "unrecognized arguments") in err

    def test_epsilon_only_for_simulate(self, tmp_path, capsys):
        # --epsilon is the lp_relaxed trigger slack; no other command reads it.
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2], instance=[1, 2, 3]))
        for command in ("frontier", "rs-grid", "protect", "solve-lp", "robustness"):
            assert run_failing(tmp_path, command, cfg, "--epsilon=1e-6") == 2
            assert "unrecognized arguments: --epsilon=1e-6" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--epsilon=0.5"]) == 0
        assert json.loads((out / "manifest.json").read_text())["epsilon"] == 0.5

    def test_violating_lp_point_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp, "check_point", lambda family, gamma, point: 1.0)
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2]))
        assert run_failing(tmp_path, "frontier", cfg) == 3
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "robustness", "solve-lp", "frontier"])
    def test_non_optimal_lp_is_numerical_failure(self, tmp_path, capsys, monkeypatch, command):
        # solve-lp runs the simplex; the others take their plans from the
        # water-fill pass, made to fail at every beta.
        def infeasible(model):
            nvars = model.rows.shape[1]
            return SimplexResult(status="infeasible", x=np.full(nvars, np.nan))

        monkeypatch.setattr(lp, "solve_beta", infeasible)
        monkeypatch.setattr(lp, "_water_fill", lambda lane: lambda beta: (None, np.nan))
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2], instance=[3] * 12))
        assert run_failing(tmp_path, command, cfg) == 3
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "robustness", "frontier"])
    def test_violating_plan_is_numerical_failure(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(lp, "check_point", lambda family, gamma, point: 1.0)
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2], instance=[3] * 12))
        assert run_failing(tmp_path, command, cfg) == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_robustness_bound_error_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise experiments.RobustnessBoundError("consistency drop 1 exceeds bound 0")

        monkeypatch.setattr(experiments, "robustness_sweep", violated)
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2]))
        assert run_failing(tmp_path, "robustness", cfg) == 3
        assert "numerical failure:" in capsys.readouterr().err


class TestFrontier:
    def test_outputs(self, tmp_path):
        payload = dict(BASE, gamma_grid={"min": 0.0, "max": 0.5, "points": 3})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["frontier", "--config", cfg, "--out", str(out)]) == 0
        csv_text = (out / "frontier.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "gamma,beta_lp,beta_pl,bq_consistency"
        assert len(lines) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "frontier"
        assert len(manifest["config_sha256"]) == 64
        # Without a grid the frontier runs on the default 41-point one.
        cfg = write_config(tmp_path, BASE, name="no_grid.json")
        assert main(["frontier", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        rows = (tmp_path / "d" / "frontier.csv").read_text().strip().split("\n")[1:]
        grid = frontier.default_gamma_grid(core.make_fare_ladder(BASE["fares"], BASE["capacity"]))
        assert [float(row.split(",")[0]) for row in rows] == grid.tolist()

    def test_rerun_identical(self, tmp_path):
        payload = dict(BASE, gamma_grid={"min": 0.0, "max": 0.5, "points": 3})
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["frontier", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["frontier", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "frontier.csv").read_text() == (out2 / "frontier.csv").read_text()


class TestRsGrid:
    def test_outputs(self, tmp_path):
        payload = {
            "fares": [1.0, 2.0],
            "capacity": 4,
            "advice_step": 2,
            "gamma_grid": {"min": 0.0, "max": 0.6, "points": 3},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["rs-grid", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "rs_grid.csv").read_text().strip().split("\n")
        assert lines[0] == "A_1,A_2,rs"
        assert len(lines) == 4  # compositions of 4 into 2 parts, step 2


class TestSimulate:
    def test_trace_output(self, tmp_path, capsys):
        payload = dict(BASE, instance=[1, 2, 3, 3, 2], policy="bq")
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary["policy"] == "bq"
        assert 0.0 <= summary["realized_ratio"] <= 1.0 + 1e-9
        assert "realized competitive ratio" in capsys.readouterr().out

    def test_lp_policy(self, tmp_path):
        payload = dict(BASE, instance=[3] * 12, policy="lp_optimal")
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["realized_ratio"] >= 0.3 - 1e-9

    def test_optimal_pl_replays_protect_levels(self, tmp_path):
        # Both commands must use the same levels.  On these near-equal
        # fares at gamma = c(F) the levels grown at beta_pl may pass the
        # capacity check on its tolerance alone; protect once wrote a top
        # level of 5.0000000049 there, which simulate does not run.  Five
        # arrivals per class in increasing order fill every level, so the
        # last trace row's cumulative counts are the levels.
        fares = [42.57249869442302, 42.57388976372801]
        payload = {
            "fares": fares,
            "capacity": 5,
            "advice": [5, 0],
            "gamma": 1.0 / (2.0 - fares[0] / fares[1]),  # c(F)
            "instance": [1] * 5 + [2] * 5,
            "policy": "optimal_pl",
        }
        cfg = write_config(tmp_path, payload)
        for command in ("simulate", "protect"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        levels = json.loads((tmp_path / "protect" / "levels.json").read_text())["levels"]
        last = (tmp_path / "simulate" / "trace.csv").read_text().strip().split("\n")[-1]
        replayed = [float(v) for v in last.split(",")[4:6]]
        assert max(levels) <= 5.0
        assert replayed == pytest.approx(levels, rel=1e-12)
        summary = json.loads((tmp_path / "simulate" / "summary.json").read_text())
        assert summary["realized_ratio"] >= payload["gamma"] - 1e-12


class TestProtect:
    def test_levels_json(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["protect", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "levels.json").read_text())
        assert payload["feasible"] is True
        assert len(payload["levels"]) == 3
        assert payload["levels"][-1] <= 10 + 1e-6


class TestSolveLp:
    def test_solution_json_and_model_dump(self, tmp_path):
        payload = dict(BASE, dump_model=True)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["solve-lp", "--config", cfg, "--out", str(out)]) == 0
        sol = json.loads((out / "lp_solution.json").read_text())
        assert sol["status"] == "optimal"
        assert sol["beta_star"] >= 0.3
        assert sol["max_violation"] <= 1e-9
        assert len(sol["x"]) == 3
        assert len(sol["y"]) == 3
        model_text = (out / "lp_model.txt").read_text()
        assert model_text.startswith("maximize beta:1")

    def test_violating_tie_break_still_solves(self, tmp_path):
        # The tie-break solve's point violates the model here; solve-lp
        # writes solve_beta's point instead of exiting 3.
        fares = [0.03125, 39.03125, 39.28125, 40.28125]
        gamma = 1.0 / (1.0 + sum(1.0 - a / b for a, b in zip(fares, fares[1:])))
        cfg = write_config(tmp_path, {"fares": fares, "capacity": 1, "advice": [0, 0, 0, 1],
                                      "gamma": gamma})
        out = tmp_path / "o"
        assert main(["solve-lp", "--config", cfg, "--out", str(out)]) == 0
        sol = json.loads((out / "lp_solution.json").read_text())
        assert sol["max_violation"] <= 1e-9
        assert sol["beta_star"] == pytest.approx(0.492516418606429, rel=1e-12)

    def test_violating_first_point_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # solve_beta's point once violated the model here, with a wrong
        # beta*; the simplex now solves the case to water-fill's beta.  A
        # violating first point still exits 3.
        fares = [45.679057933118905, 45.6800579331189, 46.179057933118905]
        gamma = 1.0 / (1.0 + sum(1.0 - a / b for a, b in zip(fares, fares[1:])))
        cfg = write_config(tmp_path, {"fares": fares, "capacity": 2, "advice": [1, 1, 0],
                                      "gamma": gamma})
        start = time.perf_counter()
        assert main(["solve-lp", "--config", cfg, "--out", str(tmp_path / "solved")]) == 0
        assert time.perf_counter() - start < 2.0
        assert_beta_is_water_fills(tmp_path / "solved", fares, 2, [1, 1, 0], gamma)
        bad = SimplexResult("optimal", np.full(1 + 3 + 9, -1.0))
        monkeypatch.setattr(lp, "solve_beta", lambda model: bad)
        assert run_failing(tmp_path, "solve-lp", cfg) == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_lost_feasibility_case_solves_fast(self, tmp_path):
        # The simplex's rhs went to rounding-level negatives after 182
        # phase-1 pivots; without the ratio test's check, solve-lp ran
        # 50,000 pivots (over 10 s) to its iteration cap, and with a check
        # on the ratio alone it exited 3.  Counted as 0, such an rhs lets
        # the LP solve.
        fares = [0.0625, 2.8125, 5.25, 9.0, 13.0, 13.6875, 13.75, 14.25, 15.375, 18.8125,
                 22.5625, 24.8125]
        advice = [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        gamma = 0.2653178598709861  # c(F)
        cfg = write_config(tmp_path, {"fares": fares, "capacity": 1, "advice": advice,
                                      "gamma": gamma})
        start = time.perf_counter()
        assert main(["solve-lp", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 2.0
        assert_beta_is_water_fills(tmp_path / "o", fares, 1, advice, gamma)

    @pytest.mark.parametrize("case", VIOLATING_FIRST_SOLVES, ids=["3-class", "8-class"])
    def test_near_equal_ladder_is_numerical_failure(self, tmp_path, capsys, case):
        # solve_beta's point violates the model here (see
        # test_lp.test_near_equal_ladder_reaches_water_fill_beta): exit 3.
        lad, adv = case
        cfg = write_config(tmp_path, {"fares": list(lad.fares), "capacity": lad.capacity,
                                      "advice": list(adv.counts), "gamma": core.bq_bound(lad)})
        assert run_failing(tmp_path, "solve-lp", cfg) == 3
        assert "numerical failure:" in capsys.readouterr().err


def assert_beta_is_water_fills(out, fares, capacity, advice, gamma):
    """solve-lp's written beta* within 1e-9 (relative) of water-fill's."""
    sol = json.loads((out / "lp_solution.json").read_text())
    lad = core.make_fare_ladder(fares, capacity)
    plan = lp.water_fill_plan(lad, core.make_advice(lad, advice), gamma)
    assert sol["max_violation"] <= 1e-9
    assert abs(sol["beta_star"] - plan.beta_star) <= 1e-9 * plan.beta_star


class TestRobustness:
    def test_sweep_csv(self, tmp_path):
        payload = {
            "fares": [1.0, 2.0, 4.0],
            "capacity": 10,
            "advices": [[0, 3, 7], [2, 4, 4]],
            "gamma_grid": [0.2, 0.4],
            "noise": {"v_list": [0.0, 0.5], "trials": 5},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main(["robustness", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "v,gamma,policy,mean_cr,std_cr,trials"
        assert len(lines) == 1 + 2 * 2 * 2 * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4


README_CONFIG = {
    "fares": [1.0, 2.0, 4.0],
    "capacity": 100,
    "advice": [10, 20, 70],
    "gamma_grid": {"min": 0.0, "max": 0.5, "points": 41},
}
SIMULATE_CONFIG = dict(BASE, instance=[1, 1, 2, 3, 1, 2, 2, 3, 3, 1, 3, 3, 2, 3])
SWEEP_CONFIG = {
    "fares": [1.0, 2.0, 4.0],
    "capacity": 10,
    "advices": [[0, 3, 7], [2, 4, 4]],
    "gamma_grid": [0.2, 0.4],
    "noise": {"v_list": [0.0, 0.5], "trials": 5},
}


class TestGolden:
    """SHA-256 of every output file of one small run per subcommand, at
    ``--seed 4`` (and ``simulate``'s default ``--epsilon``).  A change to any output
    byte fails here; such a change must say why and update the digests."""

    @pytest.mark.parametrize(
        "command, payload, digests",
        [
            ("frontier", README_CONFIG, {
                "frontier.csv": "e020c5f1fdc7afe181b2b95c74c5d2e9bf709e8f90eed75fb5da3c9d65641302",
                "manifest.json": "683117d6c87219ce8519cd86f5d61623aa3b37d0c66541e172e5913bae056ad0",
            }),
            ("protect", README_CONFIG, {
                "levels.json": "8d9262b0c701bccf2855425512513088bf4eedc2d57551053032b16b8b5349a0",
                "manifest.json": "31e78797cff2a8f0eeec0f1e10c4a20d68acd52f9b95538bf9efaae94852cc92",
            }),
            ("solve-lp", dict(README_CONFIG, dump_model=True), {
                "lp_model.txt": "f0c70685b13326d827eb3bf1164f74eba8af86152ec1e2969491b22607dd372e",
                "lp_solution.json": "aa8cf0085cdc1655ac48fab0626977e730b57b197ff4cee3978e483897efc793",
                "manifest.json": "3bf606fbf16169373913b767d6672d3398c466148ae7727d9888bdf9b2556e8a",
            }),
            ("simulate", dict(SIMULATE_CONFIG, policy="lp_optimal"), {
                "manifest.json": "bca2e65638a03a3b093f6b8fc4d99565afd9ead502789154ecb6da1bd38e7e17",
                "summary.json": "e9a7b458b465f4492fa88cd46a8e83313b9f0be433b5d7b1229f4aac2ded2c7f",
                "trace.csv": "82fc8c40e18b1a5d621ee35b0b21f01bf024582ac04364a969c3f0fedf3cc86f",
            }),
            ("simulate", dict(SIMULATE_CONFIG, policy="lp_relaxed"), {
                "manifest.json": "79decd3b6cc9245ae87bab6b9d5e09494a81ea35a432b8e95edc18f676fe7250",
                "summary.json": "65826044d18e25d8b6551d0c3cc6b1c235c7a150d808eb9a16f3f4952e455f50",
                "trace.csv": "82fc8c40e18b1a5d621ee35b0b21f01bf024582ac04364a969c3f0fedf3cc86f",
            }),
            ("simulate", dict(SIMULATE_CONFIG, policy="optimal_pl"), {
                "manifest.json": "baa4eaf2f3bb6f4474d29b4a043cb0a13e07b38434c47ee54dbace8616820474",
                "summary.json": "b044805e12145c096deb98b1a41816e0cb1ac9a760913e77c0c881f8702dc02c",
                "trace.csv": "c54be2cff9e5fd2eb9c70af7e4dbb127519041826b27ac4673badb3704f7a349",
            }),
            ("simulate", dict(SIMULATE_CONFIG, policy="bq"), {
                "manifest.json": "e829e129d05f4d1a53165d2af754409bb5f39109b18152aad280684fcdfeb5bb",
                "summary.json": "455f1da0a46de0b0b0cae341611f7872f6da8ca926af631297ef8205b93d0535",
                "trace.csv": "f871d03cdfaba1130464a9040472a65fa7c9b301389ff7494fb22b89b06c269a",
            }),
            ("rs-grid", dict(README_CONFIG, advice_step=50,
                             gamma_grid={"min": 0.0, "max": 0.5, "points": 5}), {
                "manifest.json": "71e2dd67257f94c450b834998cd010ef03b84ce88293dd5fcd885c08dbf358d0",
                "rs_grid.csv": "62ba6b09bb7cbf30bf653d32ace3e1fc21855d220c9fb8dbd32801082820aa3e",
            }),
            ("robustness", SWEEP_CONFIG, {
                "manifest.json": "96789bc02df611caddffd8682ac6905eec3effa70101ed347da385f7fa6cdcd4",
                "sweep.csv": "5bf548a013859600b36b10dc7b130502f57faa163ac90cda93ffef89025a0463",
            }),
        ],
        ids=[
            "frontier", "protect", "solve-lp", "simulate-lp_optimal", "simulate-lp_relaxed",
            "simulate-optimal_pl", "simulate-bq", "rs-grid", "robustness",
        ],
    )
    def test_output_digests(self, tmp_path, command, payload, digests):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == digests


class TestNoSimplex:
    """frontier, rs-grid, simulate and robustness take their plans from the
    water-fill pass; only solve-lp runs the simplex."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("frontier", README_CONFIG),
            ("rs-grid", dict(README_CONFIG, advice_step=50, gamma_grid=[0.0, 0.25, 0.5])),
            ("simulate", dict(SIMULATE_CONFIG, policy="lp_optimal")),
            ("simulate", dict(SIMULATE_CONFIG, policy="lp_relaxed")),
            ("robustness", SWEEP_CONFIG),
        ],
    )
    def test_plans_need_no_simplex(self, tmp_path, monkeypatch, command, payload):
        def no_simplex(*args, **kwargs):
            raise AssertionError("simplex called")

        for owner in (simplex, lp):
            monkeypatch.setattr(owner, "solve_simplex", no_simplex)
            monkeypatch.setattr(owner, "reoptimize", no_simplex)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
