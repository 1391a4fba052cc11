"""Command-line interface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

from rmadvice import experiments, lp
from rmadvice.cli import main
from rmadvice.simplex import SimplexResult


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE = {
    "fares": [1.0, 2.0, 4.0],
    "capacity": 10,
    "advice": [0, 3, 7],
    "gamma": 0.3,
}


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["frontier", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["frontier", "--config", str(path)]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path, {"fares": [1.0, 2.0]})
        assert main(["frontier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_advice(self, tmp_path):
        payload = dict(BASE, advice=[1, 1, 1])
        cfg = write_config(tmp_path, payload)
        assert main(["frontier", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_policy(self, tmp_path):
        payload = dict(BASE, instance=[1, 2, 3], policy="wat")
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

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
        ],
    )
    def test_rejected_input(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["frontier", "protect", "rs-grid", "robustness"])
    @pytest.mark.parametrize("epsilon", ["nan", "-1", "0", "inf"])
    def test_bad_epsilon(self, tmp_path, capsys, command, epsilon):
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2]))
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o"), f"--epsilon={epsilon}"]
        assert main(argv) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["frontier", "protect"])
    def test_epsilon_below_double_resolution_finishes(self, tmp_path, command):
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.0, 0.3]))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out), "--epsilon", "1e-20"]) == 0

    def test_violating_lp_point_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp, "check_point", lambda model, point: 1.0)
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2]))
        assert main(["frontier", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "robustness", "solve-lp", "frontier"])
    def test_non_optimal_lp_is_numerical_failure(self, tmp_path, capsys, monkeypatch, command):
        def infeasible(model):
            nvars = model.rows.shape[1]
            return SimplexResult(status="infeasible", objective=np.nan, x=np.full(nvars, np.nan))

        monkeypatch.setattr(lp, "solve_beta", infeasible)
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2], instance=[3] * 12))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure:" in capsys.readouterr().err

    def test_robustness_bound_error_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise experiments.RobustnessBoundError("consistency drop 1 exceeds bound 0")

        monkeypatch.setattr(experiments, "robustness_sweep", violated)
        cfg = write_config(tmp_path, dict(BASE, gamma_grid=[0.2]))
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
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
