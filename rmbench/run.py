"""Benchmark of the rmadvice reproduction.

    python3 rmbench/run.py --workload lp-cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One closed-loop caller on one thread (BLAS and OpenMP pools pinned to 1)
runs one workload of ``workloads.py`` for ``--seconds``.  The last line
printed is the result, ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The line before it carries the output digest, the
environment fingerprint and, when traced, each layer's share of the time.
A traced run writes its spans to ``.rmbench/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy is imported, so its BLAS starts one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rmadvice" / "__init__.py").is_file():
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    from tracing import Tracer, time_shares
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    factory = WORKLOADS[args.workload]
    import_s = time.perf_counter() - _START

    setups = []
    for _ in range(harness.SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = factory(args.seed)
        wl.op(wl.warmup)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer() if args.trace else None
    res = harness.measure(wl, args.seconds, tracer)
    _, tail_pct = harness.tail(res.latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(res.latencies),
        "digest": res.digest,
        "digest_ops": wl.digest_ops,
        "op_tail_percentile": tail_pct,
        "failed_share": res.failed / res.attempted,
        "failures": res.failures,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "env": harness.fingerprint(ROOT),
    }
    if tracer is not None:
        metrics = harness.per_layer(res, tracer)
        info.update(time_shares(tracer.spans))
        out_dir = ROOT / ".rmbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-{args.seed}.csv"
        tracer.write(trace_file)
        info["trace_file"] = trace_file.relative_to(ROOT).as_posix()
    else:
        metrics = harness.end_to_end(res, setup_s)
    for message in res.failures:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
