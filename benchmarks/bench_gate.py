#!/usr/bin/env python
"""Bench regression gate: fail when throughput drops against a baseline.

Compares a freshly emitted benchmark JSON (``structured_bench.py`` /
``engine_bench.py`` format) against a committed baseline and exits
non-zero when any matching row's ``generations_per_sec`` dropped by more
than ``--threshold`` (default 30%).  Rows are matched on
``(structure, memory_steps)``; rows present in only one file are reported
but never fail the gate (new scenarios must be allowed to land).

Absolute gen/s is hardware-dependent, so the 30% default is meant for
like-for-like machines (a developer diffing before/after a perf change on
one box).  CI runners differ from the machines that produced the committed
baselines — there the gate runs with a loose ``--threshold`` as a
catastrophic-regression tripwire only.

Usage::

    python benchmarks/structured_bench.py --out /tmp/fresh.json
    python benchmarks/bench_gate.py --baseline BENCH_structured.json \
        --candidate /tmp/fresh.json
    python benchmarks/bench_gate.py ... --threshold 0.5   # allow 50% drop
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _rate_key(record: dict) -> str:
    """The throughput field: plain benches emit ``generations_per_sec``,
    the engine bench ``engine_generations_per_sec``, the ensemble bench
    ``ensemble_generations_per_sec`` (aggregate over all lanes) and, for
    its checkpoint-cadence row, ``off_generations_per_sec`` (checkpointing
    off), the sampled bench ``sampled_generations_per_sec`` (batched
    sampled fitness, aggregate over all lanes)."""
    for key in (
        "generations_per_sec",
        "engine_generations_per_sec",
        "ensemble_generations_per_sec",
        "off_generations_per_sec",
        "sampled_generations_per_sec",
    ):
        if key in record:
            return key
    raise KeyError(f"no throughput field in record {sorted(record)}")


def load_rows(path: Path) -> dict[tuple[str, int], float]:
    """``(scenario-or-structure, memory_steps) -> generations_per_sec``.

    Keyed on the scenario label when one is present (the ensemble bench
    repeats a structure across population sizes), falling back to the
    structure spec for older files.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SystemExit(f"bench_gate: no such file: {path}")
    except json.JSONDecodeError as err:
        raise SystemExit(f"bench_gate: unreadable JSON in {path}: {err}")
    rows = {}
    for record in payload.get("results", []):
        label = str(record.get("scenario", record["structure"]))
        rows[(label, int(record["memory_steps"]))] = float(
            record[_rate_key(record)]
        )
    if not rows:
        raise SystemExit(f"bench_gate: {path} contains no result rows")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, metavar="JSON",
                        help="committed benchmark file (the reference)")
    parser.add_argument("--candidate", required=True, metavar="JSON",
                        help="freshly emitted benchmark file to check")
    parser.add_argument("--threshold", type=float, default=0.30,
                        metavar="FRACTION",
                        help="maximum tolerated generations_per_sec drop "
                             "per row (default 0.30 = 30%%)")
    args = parser.parse_args(argv)
    if not 0.0 < args.threshold < 1.0:
        parser.error(f"--threshold must lie in (0, 1), got {args.threshold}")

    baseline = load_rows(Path(args.baseline))
    candidate = load_rows(Path(args.candidate))

    failures = []
    for key in sorted(baseline):
        structure, memory = key
        if key not in candidate:
            print(f"  [skip] {structure} memory={memory}: "
                  "not in candidate (row not benched)")
            continue
        base, cand = baseline[key], candidate[key]
        change = (cand - base) / base
        status = "FAIL" if change < -args.threshold else "ok"
        print(f"  [{status:>4}] {structure:<20} memory={memory}  "
              f"{base:>12,.1f} -> {cand:>12,.1f} gen/s  ({change:+.1%})")
        if status == "FAIL":
            failures.append(key)
    for key in sorted(set(candidate) - set(baseline)):
        print(f"  [new ] {key[0]} memory={key[1]}: no baseline row")

    if failures:
        print(f"bench_gate: {len(failures)} row(s) regressed more than "
              f"{args.threshold:.0%}: "
              + ", ".join(f"{s}/m{m}" for s, m in failures))
        return 1
    print(f"bench_gate: all matched rows within {args.threshold:.0%} "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
