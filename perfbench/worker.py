"""One benchmark child process: set a workload up, then measure it.

Usage (started by ``run.py``, which sets the environment)::

    python3 perfbench/worker.py --workload NAME --seed N \
        --mode setup|run|trace --seconds S

It prints ``READY`` once set-up is complete (imports, inputs, server boot
for ``serve-event``, one untimed warm-up call), so the parent can time
set-up from process start, and then runs one host reference slice
(reference.py).  ``setup`` mode stops there.  ``run`` and ``trace`` modes
then measure for ``S`` seconds and check the outputs.  Either way the
last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads
from reference import NOMINAL_S, Reference
from tracer import Tracer, per_request

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench_out"


def _ensemble_trace(workload, seconds: float, tag: str, host: Reference) -> dict:
    tracer = Tracer()
    out = workload.measure(seconds, host, tracer=tracer)
    tracer.write(TRACE_DIR / f"spans-{tag}.jsonl")
    summary = tracer.summary()
    requests = sorted((r for r in summary["self_s"] if r.isdigit()), key=int)
    per_call = [per_request(summary, [rid])[1] for rid in requests]
    if any(counts != per_call[0] for counts in per_call):
        out.fail("per-layer counts differ between identical calls")
    self_s, _ = per_request(summary, requests)
    result = out.to_dict()
    result["ops_traced"] = len(requests)
    result["self_s"] = self_s
    result["counts"] = per_call[0] if per_call else {}
    return result


def _serve_trace(workload, seconds: float, tag: str, host: Reference) -> dict:
    """Untraced server for half the time, then a traced one."""
    untraced = workload.measure(seconds / 2, host)
    workload.close()
    trace_file = TRACE_DIR / f"spans-{tag}.jsonl"
    trace_file.unlink(missing_ok=True)
    workload.setup(trace_out=trace_file)
    traced = workload.measure(seconds / 2, host)
    workload.close()
    with open(trace_file, encoding="utf-8") as spans:
        summary = json.loads(spans.readline())["summary"]
    jobs = [j for j in traced.data["jobs"] if "job_id" in j]
    window = [
        j["job_id"] for j in jobs if j["k"] < workloads.COUNT_WINDOW
    ]
    self_s, _ = per_request(summary, [j["job_id"] for j in jobs])
    _, counts = per_request(summary, window)
    counts["service.cache_hits"] = sum(
        1 for j in jobs if j["k"] < workloads.COUNT_WINDOW and j["cache_hit"]
    )
    counts["service.coalesced"] = traced.data["coalesced"]
    result = traced.to_dict()
    result["attempted"] += untraced.attempted
    result["failed"] += untraced.failed
    result["errors"] += untraced.errors
    result["untraced"] = {
        k: untraced.data[k]
        for k in ("generations", "seconds", "latencies", "slowdown")
    }
    result["ops_traced"] = len(jobs)
    result["self_s"] = self_s
    result["counts"] = counts
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    workloads.check_source(ROOT)
    workload = workloads.make(args.workload, args.seed)
    workload.setup()
    print("READY", flush=True)
    # The host's speed right after set-up, to scale the set-up time by.
    host = Reference()
    setup_slowdown = host.slice() / NOMINAL_S
    if args.mode == "setup":
        workload.close()
        print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
        return 0

    tag = f"{args.workload}-{args.seed}"
    try:
        if args.mode == "run":
            result = workload.measure(args.seconds, host).to_dict()
        elif args.workload == "serve-event":
            result = _serve_trace(workload, args.seconds, tag, host)
        else:
            result = _ensemble_trace(workload, args.seconds, tag, host)
    finally:
        workload.close()
    result["setup_slowdown"] = setup_slowdown
    result["provenance"] = provenance()
    print(json.dumps(result), flush=True)
    return 0


def provenance() -> dict:
    import os
    import platform

    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": workloads.thread_env(),
        "unix_time": time.time(),
    }


if __name__ == "__main__":
    sys.exit(main())
