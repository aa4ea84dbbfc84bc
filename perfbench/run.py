#!/usr/bin/env python3
"""equicart benchmark: one command, one workload, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It starts ``SETUP_PROBES`` fresh
interpreters that only set up the workload (import equicart, build the
models and maps, draw the seeded inputs), then one fresh interpreter that
sets up once more and runs closed-loop passes over the workload's fixed
query list (one client, one query at a time) until ``--seconds`` have
passed.  At most two processes run at once: this one and one child.

End-to-end metrics (``--trace 0``):
  setup_s       median set-up wall time over all fresh interpreters
  pass_s        median over passes of the seconds one pass takes; a failed
                query or one past the workload's limit is charged the limit
  query_ms.p50  median per-query latency, failures charged the limit
  peak_rss_mb   peak resident set size of the measuring process

With ``--trace 1`` the child runs the same untraced passes and then one
traced pass, and the result holds the per-layer metrics instead (see
trace.py).  Every answer is checked by an oracle in oracles.py.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Failures are listed, one line each, above it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, REPO)

from perfbench import trace, workloads  # noqa: E402  (neither imports equicart)

SETUP_PROBES = 6
DEADLINE_S = 170.0  # the whole run, probes included
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples above it

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "query_ms.p50": "ms", "peak_rss_mb": "MB"}


def child(args, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("EQUICART_SEED", None)
    proc = subprocess.run(
        [sys.executable, WORKER] + args,
        cwd=REPO, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(REPO, "src", "equicart", "__init__.py")):
        print("error: src/equicart not found next to perfbench/", file=sys.stderr)
        return 2

    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [child(common + ["--setup-only"], 60)["setup_s"] for _ in range(SETUP_PROBES)]
    remaining = DEADLINE_S - (time.monotonic() - start)
    res = child(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], remaining
    )
    setups.append(res["setup_s"])

    latencies_ms = [x * 1000.0 for x in res["latencies_s"]]
    attempted = len(latencies_ms)
    failures = res["failures"]
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(res["passes"]),
        "query_ms.p50": statistics.median(latencies_ms),
        "peak_rss_mb": res["peak_rss_mb"],
    }

    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client")
    print(f"passes {len(res['passes'])} x {res['queries_per_pass']} queries = "
          f"{attempted} latency samples; set-up samples {len(setups)}")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {E2E_UNITS[name]}")
    if attempted >= P90_MIN_SAMPLES:
        print(f"query_ms.p90 {percentile(latencies_ms, 90):.6g} ms ({attempted} samples)")
    else:
        print(f"query_ms.p90 not reported: {attempted} samples < {P90_MIN_SAMPLES}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    seen = set()
    for f in failures:
        if f["query"] not in seen:
            seen.add(f["query"])
            print(f"failure {f['query']} [{f['label']}] {f['type']}: {f['line']}")

    if args.trace:
        units = trace.per_layer_metric_units()
        metrics = {
            name: {"value": value, "unit": units[name]} for name, value in res["per_layer"].items()
        }
        attempted += res["queries_per_pass"]
        failures += res["traced_failures"]
        for f in res["traced_failures"]:
            print(f"traced failure {f['query']} [{f['label']}] {f['type']}: {f['line']}")
        for label, counts in res["calls_by_query"].items():
            shown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"spans {label}: {shown}")
        print(f"trace spans written to {res['trace_file']}")
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
