"""Closed-loop measurement of one workload and the result it prints.

One caller issues the next operation when the previous one returns.  Each
operation is timed on its own; its checks, its canonical output and, in a
traced run, its traced repeat happen outside that time.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import Workload

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # seconds, untraced operations
    traced_latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # first few failure messages
    digest: str = ""
    peak_rss_mb: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def _call(wl: Workload, item):
    """Run one operation; returns (output, seconds, canonical text, error)."""
    start = perf_counter()
    try:
        out = wl.op(item)
    except Exception as exc:  # a failed operation is counted, the loop goes on
        err = f"{type(exc).__name__}: {exc}"
        return None, perf_counter() - start, f"error {err}", err
    dt = perf_counter() - start
    return out, dt, wl.canon(out), None


def measure(wl: Workload, seconds: float, tracer: Tracer | None = None) -> Measurement:
    """Run operations for ``seconds`` (and at least ``wl.digest_ops`` of them).

    With a tracer each operation runs untraced and then traced on the same
    input; the traced output must match.  Afterwards the digest inputs run
    once more and must reproduce the digest, and get the deep checks.
    """
    res = Measurement()
    canon: list[str] = []
    start = perf_counter()
    i = 0
    while i < wl.digest_ops or perf_counter() - start < seconds:
        item = wl.inputs[i % len(wl.inputs)]
        res.attempted += 1
        out, dt, text, err = _call(wl, item)
        if i < wl.digest_ops:
            canon.append(text)
        problems = [err] if err else wl.check(item, out)
        if not err:
            res.latencies.append(dt)
        if tracer is not None:
            tracer.install()
            close = tracer.root(i)
            try:
                _, t_dt, t_text, _ = _call(wl, item)
            finally:
                close()
                tracer.uninstall()
            res.traced_latencies.append(t_dt)
            if t_text != text:
                problems.append("traced output differs from untraced output")
        if problems:
            res.fail(f"op {i}: " + "; ".join(problems))
        i += 1
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res.digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()

    for j in range(wl.digest_ops):
        item = wl.inputs[j]
        res.attempted += 1
        out, _, text, err = _call(wl, item)
        problems = [err] if err else []
        if not err and text != canon[j]:
            problems.append("repeat output differs, digest not reproduced")
        if not err and wl.deep_check is not None:
            problems += wl.deep_check(item, out)
        if problems:
            res.fail(f"repeat {j}: " + "; ".join(problems))
    return res


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, as (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(res: Measurement, setup_s: float) -> dict:
    lat = res.latencies
    tail_s, _ = tail(lat)
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": res.peak_rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(res: Measurement, tracer: Tracer) -> dict:
    overhead = sum(res.traced_latencies) / sum(res.latencies)
    metrics = layer_metrics(tracer.spans, len(res.traced_latencies), overhead)
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src" / "rmadvice"),
    }
