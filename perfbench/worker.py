"""One measuring process for one workload.  ``run.py`` starts it in a fresh
interpreter, so its set-up time and peak memory belong to this workload
alone.

    python3 perfbench/worker.py --workload NAME --seed N --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(REPO, "src"), REPO]

from perfbench import trace, workloads  # noqa: E402  (no equicart import)

TRACE_DIR = os.path.join(REPO, ".perfbench_out")


class QueryTimeout(BaseException):
    """Raised by SIGALRM when a query passes the workload's limit.  A
    BaseException, so that no `except Exception` in the library swallows it."""


def _on_alarm(_signum, _frame):
    raise QueryTimeout()


def first_line(exc: BaseException) -> str:
    text = str(exc).strip()
    return text.splitlines()[0][:200] if text else ""


def run_query(q, limit_s: float):
    """Time one query; return (seconds charged, failure record or None)."""
    result = error = None
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        result = q.call()
    except (QueryTimeout, Exception) as exc:  # the oracle judges refusals
        error = exc
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    problem = judge(q, result, error, elapsed, limit_s)
    if problem is None:
        return elapsed, None
    return limit_s, {"query": q.qid, "label": q.label, "type": problem[0], "line": problem[1]}


def judge(q, result, error, elapsed: float, limit_s: float):
    """None for a right answer or an expected refusal, else (type, line)."""
    if isinstance(error, QueryTimeout):
        return "QueryTimeout", f"no answer within the {limit_s:g} s limit"
    if error is not None:
        if type(error).__name__ == q.refusal:
            return None
        return type(error).__name__, first_line(error)
    if q.check is None:
        return "WrongAnswer", f"expected a {q.refusal} refusal, got an answer"
    try:
        reason = q.check(result)
    except Exception as exc:  # a malformed answer can break its check
        reason = f"the check raised {type(exc).__name__}: {first_line(exc)}"
    if reason:
        return "WrongAnswer", reason
    if elapsed > limit_s:
        return "QueryTimeout", f"answered after {elapsed:.3f} s, limit {limit_s:g} s"
    return None


def run_pass(wl, latencies, failures, tracer=None, failed_entries=None) -> float:
    total = 0.0
    for q in wl.queries:
        if tracer is not None:
            tracer.query_id = q.qid
        charged, failure = run_query(q, wl.limit_s)
        latencies.append(charged)
        total += charged
        if failure:
            failures.append(failure)
            if failed_entries is not None:
                failed_entries[q.entry] = failed_entries.get(q.entry, 0) + 1
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(REPO)  # the CLI workload names model files relative to the root
    os.environ.pop("EQUICART_SEED", None)

    start = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, failures, passes = [], [], []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        passes.append(run_pass(wl, latencies, failures))
    out = {
        "setup_s": setup_s,
        "passes": passes,
        "latencies_s": latencies,
        "failures": failures,
        "queries_per_pass": len(wl.queries),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer = trace.Tracer()
        failed_entries: dict = {}
        traced_failures: list = []
        with tracer:
            traced_s = run_pass(wl, [], traced_failures, tracer, failed_entries)
        per_layer = tracer.summary(failed_entries)
        per_layer["trace.overhead_frac"] = traced_s / statistics.median(passes) - 1.0
        labels = {q.qid: q.label for q in wl.queries}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, labels)
        out.update(
            per_layer=per_layer,
            traced_failures=traced_failures,
            calls_by_query={labels[q]: c for q, c in tracer.calls_by_query().items() if q in labels},
            trace_file=os.path.relpath(path, REPO),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
