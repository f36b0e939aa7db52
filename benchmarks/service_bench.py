#!/usr/bin/env python
"""Sweep-service latency harness: cold vs. cache-hit, and jobs/sec.

Writes ``BENCH_service.json`` with one record per scenario, measured
through the real HTTP front door (an in-process
:class:`~repro.service.SweepServer` on a loopback port — the full
submit/queue/execute/cache path, network stack included).

Two questions, one record each:

* ``cold-vs-hit`` — the acceptance scenario: a 16-replicate well-mixed
  memory-2 ensemble sweep submitted cold, then resubmitted bit-identically,
  in :data:`PASSES` passes of fresh seeds.  The duplicate must be served
  from the result cache with a byte-identical result payload, at a median
  >= 50x lower latency than the cold runs (both asserted in-bench); the
  record keeps the medians and ranges.
* ``throughput`` — a burst of small distinct jobs, reported as sustained
  jobs/sec through submit -> execute -> done.

CI runs ``--smoke`` (short horizon) so the harness cannot rot; developers
run it bare and commit the JSON.

Usage::

    python benchmarks/service_bench.py                  # full horizon
    python benchmarks/service_bench.py --smoke          # CI anti-rot
    python benchmarks/service_bench.py --out my.json --generations 20000
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from common import REPO_ROOT, build_payload, write_payload  # bootstraps sys.path

from repro import EvolutionConfig  # noqa: E402
from repro.service import JobSpec, SweepClient, SweepServer  # noqa: E402

ACCEPTANCE_REPLICATES = 16
DEFAULT_GENERATIONS = 10_000
SMOKE_GENERATIONS = 2_000
MIN_CACHE_SPEEDUP = 50.0
#: Cold-then-hit passes of the acceptance scenario, each on fresh seeds
#: (a ~ms cache hit swings several-fold between passes, so the record
#: keeps medians, not the fastest pass).
PASSES = 5


def make_spec(
    *, memory_steps: int, generations: int, replicates: int, seed0: int
) -> JobSpec:
    return JobSpec(
        configs=tuple(
            EvolutionConfig(
                memory_steps=memory_steps,
                n_ssets=16,
                generations=generations,
                structure="well-mixed",
                seed=seed0 + i,
                record_events=False,
            )
            for i in range(replicates)
        ),
    )


def submit_and_wait(client: SweepClient, spec: JobSpec) -> tuple[float, dict]:
    """Submit through HTTP and block to completion; returns (seconds, status)."""
    started = time.perf_counter()
    status = client.submit(spec)
    if status["state"] != "done":
        status = client.wait(status["job_id"], timeout=3600, poll_interval=0.01)
    elapsed = time.perf_counter() - started
    if status["state"] != "done":
        raise AssertionError(f"job did not finish: {status}")
    return elapsed, status


def bench_cold_vs_hit(client: SweepClient, generations: int) -> dict:
    colds: list[float] = []
    hits: list[float] = []
    for i in range(PASSES):
        spec = make_spec(
            memory_steps=2,
            generations=generations,
            replicates=ACCEPTANCE_REPLICATES,
            seed0=2013 + 1000 * i,
        )
        cold_seconds, cold_status = submit_and_wait(client, spec)
        assert not cold_status["cache_hit"], "first submission must execute"
        # Resubmit the bit-identical spec: served from cache, measured
        # through the same HTTP path.
        hit_seconds, hit_status = submit_and_wait(client, spec)
        assert hit_status["cache_hit"], "duplicate must be a cache hit"
        cold_payload = client.result(cold_status["job_id"])
        hit_payload = client.result(hit_status["job_id"])
        if cold_payload["results"] != hit_payload["results"]:
            raise AssertionError(
                "cache hit returned a different result payload"
            )
        colds.append(cold_seconds)
        hits.append(hit_seconds)

    ratios = [cold / hit for cold, hit in zip(colds, hits)]
    speedup = statistics.median(ratios)
    cold_seconds = statistics.median(colds)
    hit_seconds = statistics.median(hits)
    if speedup < MIN_CACHE_SPEEDUP:
        raise AssertionError(
            f"median cache-hit speedup x{speedup:.1f} is below the "
            f"x{MIN_CACHE_SPEEDUP:.0f} acceptance bar "
            f"(cold {cold_seconds:.3f}s, hit {hit_seconds * 1e3:.1f}ms)"
        )
    return {
        "scenario": "cold-vs-hit",
        "replicates": ACCEPTANCE_REPLICATES,
        "memory_steps": 2,
        "generations": generations,
        "passes": PASSES,
        "cold_seconds": round(cold_seconds, 4),
        "cold_seconds_range": [round(min(colds), 4), round(max(colds), 4)],
        "cache_hit_seconds": round(hit_seconds, 6),
        "cache_hit_ms": round(hit_seconds * 1e3, 3),
        "cache_hit_ms_range": [
            round(min(hits) * 1e3, 3), round(max(hits) * 1e3, 3)
        ],
        "speedup": round(speedup, 1),
        "speedup_range": [round(min(ratios), 1), round(max(ratios), 1)],
        "payload_bit_identical": True,
    }


def bench_throughput(client: SweepClient, generations: int, jobs: int) -> dict:
    specs = [
        make_spec(
            memory_steps=1,
            generations=generations,
            replicates=1,
            seed0=9000 + i,
        )
        for i in range(jobs)
    ]
    started = time.perf_counter()
    submitted = [client.submit(s) for s in specs]
    finals = [
        s
        if s["state"] == "done"
        else client.wait(s["job_id"], timeout=3600, poll_interval=0.01)
        for s in submitted
    ]
    elapsed = time.perf_counter() - started
    assert all(s["state"] == "done" for s in finals)
    return {
        "scenario": "throughput",
        "jobs": jobs,
        "replicates_per_job": 1,
        "generations": generations,
        "total_seconds": round(elapsed, 4),
        "jobs_per_sec": round(jobs / elapsed, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short horizon (CI anti-rot)")
    parser.add_argument("--generations", type=int, default=None,
                        help=f"generations per replicate (default "
                             f"{DEFAULT_GENERATIONS:,}; smoke "
                             f"{SMOKE_GENERATIONS:,})")
    parser.add_argument("--jobs", type=int, default=None,
                        help="burst size for the throughput scenario "
                             "(default 32; smoke 8)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_service.json"),
                        metavar="PATH", help="output JSON path")
    args = parser.parse_args(argv)

    generations = (
        args.generations
        if args.generations is not None
        else (SMOKE_GENERATIONS if args.smoke else DEFAULT_GENERATIONS)
    )
    jobs = args.jobs if args.jobs is not None else (8 if args.smoke else 32)

    results = []
    with SweepServer(port=0, workers=2) as server:
        client = SweepClient(server.url, timeout=120)
        for record in (
            bench_cold_vs_hit(client, generations),
            bench_throughput(client, generations, jobs),
        ):
            results.append(record)
            extras = {
                k: v
                for k, v in record.items()
                if k.endswith(("seconds", "ms", "speedup", "per_sec"))
            }
            line = "   ".join(f"{k}={v}" for k, v in extras.items())
            print(f"{record['scenario']:<12} {line}")

    payload = build_payload("service", smoke=args.smoke, results=results)
    write_payload(args.out, payload, label="scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
