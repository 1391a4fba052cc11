"""Per-layer tracing for the benchmark, kept entirely outside the program.

``Tracer.install`` replaces every public function (and public method of a
public class) defined in a measured ``rmadvice`` layer with a timing
wrapper, in every ``rmadvice`` namespace that binds it.  Names are looked
up there at call time (``simplex`` calls its own ``simplex_iterate``
binding, ``experiments`` its own ``run_protection_policy``), so each call
crossing a layer boundary records one span.  ``uninstall`` restores the
originals, which leaves untraced operations with no wrapper cost.

Spans stay in memory as ``[name, start, end, parent, op, info]`` lists and
are written out once at the end of a run.  ``info`` holds what a metric
needs from the call's arguments or result, such as the tableau size of a
pivot loop or the length of a replayed instance.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# ``cli`` only formats output and is not measured.
LAYERS = (
    "core", "rng", "simplex", "kernels", "lp", "protect", "policies",
    "frontier", "experiments",
)

BUILDERS = ("core.advice_prefix", "core.block_instance", "core.concat")
RUNNERS = (
    "policies.run_lp_optimal", "policies.run_relaxed_optimal",
    "policies.run_protection_policy",
)
SWITCHING = RUNNERS[:2]
PL_POLICIES = ("optimal_pl", "bq")


def _policy_arg(args, kwargs, out):
    return kwargs["policy"] if "policy" in kwargs else args[2]


def _run_info(args, kwargs, trace):
    return len(trace.fare_indices), trace.trigger_time is not None, trace.search_iterations


# What each span keeps from its call: ``(args, kwargs, result) -> info``.
INFO = {
    "kernels.simplex_iterate": lambda args, kwargs, out: args[0].size,
    "kernels.protection_run": lambda args, kwargs, out: args[0].shape[0],
    "kernels.switch_run": lambda args, kwargs, out: args[0].shape[0],
    "lp.solve_lp": lambda args, kwargs, out: out.max_violation,
    "experiments.average_cr": _policy_arg,
    **{name: lambda args, kwargs, out: len(out) for name in BUILDERS},
    **{name: _run_info for name in RUNNERS},
}


def _is_function(obj) -> bool:
    # A numba dispatcher keeps the Python function in ``py_func``.
    return inspect.isfunction(getattr(obj, "py_func", obj))


def _targets():
    """Yield ``(span name, owner, attribute, object)`` for every traced callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"rmadvice.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _is_function(obj):
                yield f"{layer}.{name}", module, name, obj
            elif inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        yield f"{layer}.{name}.{meth_name}", obj, meth_name, meth


class Tracer:
    """Span recorder whose wrappers can be installed and removed repeatedly."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._functions: dict[int, object] = {}  # id(original) -> wrapper
        self._methods: list[tuple] = []  # (class, attribute, wrapper)
        for name, owner, attr, obj in _targets():
            wrapper = self._wrap(name, obj)
            if inspect.isclass(owner):
                self._methods.append((owner, attr, wrapper))
            else:
                self._functions[id(obj)] = wrapper

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "rmadvice" or key.startswith("rmadvice.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._functions.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls, attr, wrapper in self._methods:
            self._patches.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def root(self, op: int):
        """Open the span of one benchmark operation; returns its closer."""
        self.op = op
        rec = ["op", 0.0, 0.0, -1, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()

        def close():
            rec[2] = perf_counter()
            self._stack.pop()

        return close

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "op"])
            for name, start, end, parent, op, _ in self.spans:
                writer.writerow([name, repr(start), repr(end), parent, op])


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    result = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def _ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def layer_metrics(spans, ops: int, trace_overhead: float) -> dict:
    """Per-layer metrics over ``ops`` traced operations, as name -> (value, unit)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    own = defaultdict(float)
    infos = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        calls[span[0]] += 1
        own[span[0]] += self_s
        if span[5] is not None:
            infos[span[0]].append(span[5])

    def per_op_calls(*names):
        return sum(calls[n] for n in names) / ops

    def per_op_self(*names):
        return sum(own[n] for n in names) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def calls_and_self(name):
        m[f"{name}.calls"] = (per_op_calls(name), "calls/op")
        m[f"{name}.self_s"] = (per_op_self(name), "s/op")

    runs = [i for n in RUNNERS for i in infos[n]]
    switch_runs = [i for n in SWITCHING for i in infos[n]]
    kernel_arrivals = sum(infos["kernels.protection_run"]) + sum(infos["kernels.switch_run"])
    pl_runs = pl_trials = 0
    for idx, span in enumerate(spans):
        if span[0] in ("policies.run_protection_policy", "experiments.sample_instance"):
            cell = _ancestor(spans, idx, "experiments.average_cr")
            if cell >= 0 and spans[cell][5] in PL_POLICIES:
                if span[0] == "experiments.sample_instance":
                    pl_trials += 1
                else:
                    pl_runs += 1

    calls_and_self("kernels.simplex_iterate")
    calls_and_self("simplex.solve_simplex")
    cells = infos["kernels.simplex_iterate"]
    m["simplex.tableau_cells"] = (ratio(sum(cells), len(cells)), "cells/call")
    calls_and_self("lp.build_pareto_lp")
    calls_and_self("lp.solve_lp")
    m["lp.check_point.self_s"] = (per_op_self("lp.check_point"), "s/op")
    m["lp.max_violation"] = (max(infos["lp.solve_lp"], default=0.0), "1")
    calls_and_self("core.opt_revenue")
    m["core.instance_build.self_s"] = (per_op_self(*BUILDERS), "s/op")
    m["core.instance_build.steps"] = (
        sum(sum(infos[n]) for n in BUILDERS) / ops, "steps/op")
    m["core.fare_counts.self_s"] = (per_op_self("core.fare_counts"), "s/op")
    calls_and_self("protect.optimal_protection_levels")
    calls_and_self("protect.grow_levels_for_beta")
    m["protect.passes_per_search"] = (
        ratio(calls["protect.grow_levels_for_beta"],
              calls["protect.optimal_protection_levels"]), "passes")
    m["policies.run.calls"] = (per_op_calls(*RUNNERS), "calls/op")
    m["policies.run.self_s"] = (per_op_self(*RUNNERS), "s/op")
    m["policies.arrivals"] = (sum(r[0] for r in runs) / ops, "arrivals/op")
    m["policies.trigger_rate"] = (
        ratio(sum(r[1] for r in switch_runs), len(switch_runs)), "1")
    m["policies.search_iterations_max"] = (max((r[2] for r in runs), default=0), "count")
    calls_and_self("kernels.protection_run")
    calls_and_self("kernels.switch_run")
    m["kernels.ns_per_arrival"] = (
        1e9 * ratio(own["kernels.protection_run"] + own["kernels.switch_run"],
                    kernel_arrivals), "ns")
    calls_and_self("experiments.sample_instance")
    calls_and_self("experiments.check_robustness_bound")
    calls_and_self("experiments.average_cr")
    m["experiments.protection_runs_per_trial"] = (ratio(pl_runs, pl_trials), "runs/trial")
    m["rng.normal.calls"] = (per_op_calls("rng.CounterRng.normal"), "calls/op")
    m["frontier.consistency_frontier.self_s"] = (
        per_op_self("frontier.consistency_frontier"), "s/op")
    m["frontier.relative_suboptimality.self_s"] = (
        per_op_self("frontier.relative_suboptimality"), "s/op")
    m["trace_overhead"] = (trace_overhead, "ratio")
    return m


def time_shares(spans, top: int = 8) -> dict:
    """Shares of traced operation time spent in each layer's own code and
    in the ``top`` costliest span names; ``harness`` is the benchmark's own
    part of each operation span."""
    total = sum(s[2] - s[1] for s in spans if s[3] < 0)
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        by_layer["harness" if span[0] == "op" else span[0].split(".")[0]] += self_s
        by_name[span[0]] += self_s

    def ranked(totals, count=None):
        items = sorted(totals.items(), key=lambda kv: -kv[1])[:count]
        return {k: v / total for k, v in items} if total else {}

    return {"layer_share": ranked(by_layer), "top_spans": ranked(by_name, top)}
