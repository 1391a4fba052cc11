"""Self-tests of the benchmark.

    python3 -m pytest rmbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    layer = {name: unit for name, (_, unit) in layer_metrics([], 1, 1.0).items()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_has_no_failures(name):
    wl = WORKLOADS[name](seed=3, tiny=True)
    plain = harness.measure(wl, seconds=0.0)
    assert plain.failures == [] and plain.attempted == 2 * wl.digest_ops

    tracer = Tracer()
    traced = harness.measure(wl, seconds=0.0, tracer=tracer)
    assert traced.failures == []
    assert traced.digest == plain.digest
    metrics = harness.per_layer(traced, tracer)
    assert metrics["trace_overhead"]["value"] > 0.0
    assert tracer.spans and not tracer._patches


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],  # overlaps a: together they cover 1..6
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 9.0, 12.0, 0, 0, None],  # only 9..10 lies inside op
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0])


def test_layer_metrics_on_synthetic_spans():
    spans = [
        ["op", 0.0, 10.0, -1, 0, None],
        ["simplex.solve_simplex", 1.0, 9.0, 0, 0, None],
        ["kernels.simplex_iterate", 2.0, 5.0, 1, 0, 100],
        ["kernels.simplex_iterate", 5.0, 8.0, 1, 0, 300],
    ]
    m = layer_metrics(spans, ops=2, trace_overhead=1.5)
    assert m["kernels.simplex_iterate.calls"][0] == 1.0
    assert m["kernels.simplex_iterate.self_s"][0] == pytest.approx(3.0)
    assert m["simplex.solve_simplex.self_s"][0] == pytest.approx(1.0)
    assert m["simplex.tableau_cells"][0] == 200.0
    assert m["trace_overhead"][0] == 1.5


def test_same_seed_gives_same_inputs_and_digest():
    a = harness.measure(WORKLOADS["lp-cold"](seed=5, tiny=True), seconds=0.0)
    b = harness.measure(WORKLOADS["lp-cold"](seed=5, tiny=True), seconds=0.0)
    c = harness.measure(WORKLOADS["lp-cold"](seed=6, tiny=True), seconds=0.0)
    assert a.digest == b.digest != c.digest


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "lp-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
