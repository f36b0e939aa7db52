#!/usr/bin/env python
"""Lane-batched ensemble throughput harness: the ensemble backend's scorecard.

Writes ``BENCH_ensemble.json`` with one record per scenario.  Each scenario
runs the same seeded replicate ensemble on two paths —
``run_sweep(workers=1, backend="event")`` (the legacy one-run-at-a-time
path) and ``run_sweep(backend="ensemble")`` (all replicates as one array
program) — in :data:`PASSES` interleaved passes each, checks the science
fingerprints match (every lane is bit-identical to its serial run, pinned
by the test suite), and records both paths' median time and range, their
aggregate throughputs at the median, and the speedup of the medians.

The acceptance scenario is ``wm-m2-n16``: a 64-replicate well-mixed
memory-2 ensemble, the repository benchmark's ``wm-m2-ens`` shape.  The
wider rows map how the advantage scales with population size and memory
depth — the shared pool/matrix wins biggest when the per-event work is
small relative to the interpreter dispatch it replaces.

CI runs ``--smoke`` (one scenario, few replicates, short horizon) so the
harness cannot rot, and the full grid at a short horizon through
``bench_gate.py`` as a catastrophic-regression tripwire; developers run
it bare before/after ensemble work and commit the JSON.

Usage::

    python benchmarks/ensemble_bench.py                 # full scenario grid
    python benchmarks/ensemble_bench.py --smoke         # 1 scenario (CI)
    python benchmarks/ensemble_bench.py --out my.json --generations 20000
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from common import (  # bootstraps sys.path
    REPO_ROOT,
    build_payload,
    checkpoint_provenance,
    write_payload,
)

from repro import EvolutionConfig, run_sweep  # noqa: E402

#: (label, structure, memory_steps, n_ssets) — wm-m2-n16 is the acceptance
#: scenario; the rest map the scaling surface.
SCENARIOS = (
    ("wm-m2-n16", "well-mixed", 2, 16),
    ("wm-m2-n32", "well-mixed", 2, 32),
    ("wm-m2-n64", "well-mixed", 2, 64),
    ("wm-m1-n64", "well-mixed", 1, 64),
    ("ring-m2-n16", "ring:k=4", 2, 16),
)
DEFAULT_REPLICATES = 64
DEFAULT_GENERATIONS = 10_000
SMOKE_REPLICATES = 8
SMOKE_GENERATIONS = 2_000
#: Timed passes per path, interleaved with the other path's (the host's
#: speed drifts between passes, so a best-of-N reads the fastest moment,
#: not the typical one).
PASSES = 5


def timed_passes(runs: dict) -> tuple[dict, dict]:
    """Time each ``label -> zero-argument call`` :data:`PASSES` times,
    alternating which runs first; returns each label's times and its
    last result."""
    times: dict[str, list[float]] = {label: [] for label in runs}
    results: dict = {}
    labels = list(runs)
    for i in range(PASSES):
        for label in labels if i % 2 == 0 else labels[::-1]:
            started = time.perf_counter()
            results[label] = runs[label]()
            times[label].append(time.perf_counter() - started)
    return times, results


def timing(prefix: str, seconds: list[float], total_generations: int) -> dict:
    """``{prefix}_seconds`` (median), its range and the throughput at
    the median."""
    median = statistics.median(seconds)
    return {
        f"{prefix}_seconds": round(median, 4),
        f"{prefix}_seconds_range": [
            round(min(seconds), 4), round(max(seconds), 4)
        ],
        f"{prefix}_generations_per_sec": round(total_generations / median, 1),
    }


def fingerprint(result) -> tuple:
    _, share = result.dominant()
    return (
        result.n_pc_events,
        result.n_adoptions,
        result.n_mutations,
        round(share, 6),
    )


def bench_scenario(
    label: str,
    structure: str,
    memory_steps: int,
    n_ssets: int,
    replicates: int,
    generations: int,
) -> dict:
    """Time one seeded replicate ensemble on both paths."""
    configs = [
        EvolutionConfig(
            memory_steps=memory_steps,
            n_ssets=n_ssets,
            generations=generations,
            structure=structure,
            seed=2013 + i,
            record_events=False,
        )
        for i in range(replicates)
    ]
    record: dict = {
        "scenario": label,
        "structure": structure,
        "memory_steps": memory_steps,
        "n_ssets": n_ssets,
        "replicates": replicates,
        "generations": generations,
    }
    total_generations = replicates * generations

    # Warm both paths (allocator, import, kernel caches) so neither side
    # pays first-run costs inside the timed region.
    warm = [c.with_updates(generations=min(1000, generations or 1))
            for c in configs[: min(4, replicates)]]
    run_sweep(warm, backend="ensemble")
    run_sweep(warm, backend="event", workers=1)

    times, results = timed_passes({
        "ensemble": lambda: run_sweep(configs, backend="ensemble"),
        "event": lambda: run_sweep(configs, backend="event", workers=1),
    })
    ensemble, event = results["ensemble"], results["event"]

    for a, b in zip(ensemble, event):
        if fingerprint(a) != fingerprint(b):
            raise AssertionError(
                f"{label}: ensemble lane diverged from the serial event run "
                f"({fingerprint(a)} vs {fingerprint(b)}, seed {a.config.seed})"
            )

    record["passes"] = PASSES
    record.update(timing("event", times["event"], total_generations))
    record.update(timing("ensemble", times["ensemble"], total_generations))
    record["speedup"] = round(
        statistics.median(times["event"])
        / statistics.median(times["ensemble"]),
        2,
    )
    report = ensemble[0].backend_report
    if report is not None and report.shared_engine is not None:
        record["shared_engine"] = dict(report.shared_engine)
    return record


def bench_checkpoint_cadence(replicates: int, generations: int) -> dict:
    """Time the acceptance ensemble with mid-run checkpointing on vs off.

    Measures what ``checkpoint_every`` costs on the lane-batched fast
    path: the same seeded replicates run without a sink and snapshotting
    4 times over the horizon into a throwaway directory, in interleaved
    passes (:func:`timed_passes`).  The trajectories must stay
    bit-identical — checkpointing is provenance, not science.
    """
    import shutil
    import tempfile

    from repro.core.runstate import checkpoint_scope
    from repro.io.run_checkpoint import RunCheckpointer

    cadence = max(1, generations // 4)
    configs = [
        EvolutionConfig(
            memory_steps=2,
            n_ssets=16,
            generations=generations,
            seed=2013 + i,
            record_events=False,
        )
        for i in range(replicates)
    ]
    ckpt_configs = [
        c.with_updates(checkpoint_every=cadence) for c in configs
    ]
    total_generations = replicates * generations

    warm = [c.with_updates(generations=min(1000, generations or 1))
            for c in configs[: min(4, replicates)]]
    run_sweep(warm, backend="ensemble")

    def checkpointed_sweep():
        # A fresh directory per pass, so no pass resumes another's
        # snapshots.
        root = tempfile.mkdtemp(prefix="bench-ckpt-")
        try:
            with checkpoint_scope(RunCheckpointer(root)):
                return run_sweep(ckpt_configs, backend="ensemble")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    times, results = timed_passes({
        "off": lambda: run_sweep(configs, backend="ensemble"),
        "on": checkpointed_sweep,
    })
    baseline, checkpointed = results["off"], results["on"]

    for a, b in zip(baseline, checkpointed):
        if fingerprint(a) != fingerprint(b):
            raise AssertionError(
                f"checkpoint cadence changed the science "
                f"({fingerprint(a)} vs {fingerprint(b)}, seed "
                f"{a.config.seed})"
            )

    record = {
        "scenario": "wm-m2-n16-ckpt",
        "structure": "well-mixed",
        "memory_steps": 2,
        "n_ssets": 16,
        "replicates": replicates,
        "generations": generations,
        "checkpoint_every": cadence,
        "passes": PASSES,
    }
    record.update(timing("off", times["off"], total_generations))
    record.update(timing("on", times["on"], total_generations))
    record["checkpoint_overhead"] = round(
        statistics.median(times["on"]) / statistics.median(times["off"]), 3
    )
    record["checkpoints"] = checkpoint_provenance(checkpointed)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one scenario at a short horizon (CI anti-rot)")
    parser.add_argument("--replicates", type=int, default=None,
                        help=f"ensemble lanes per scenario (default "
                             f"{DEFAULT_REPLICATES}; smoke "
                             f"{SMOKE_REPLICATES})")
    parser.add_argument("--generations", type=int, default=None,
                        help=f"generations per replicate (default "
                             f"{DEFAULT_GENERATIONS:,}; smoke "
                             f"{SMOKE_GENERATIONS:,})")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_ensemble.json"),
                        metavar="PATH", help="output JSON path")
    args = parser.parse_args(argv)

    replicates = (
        args.replicates
        if args.replicates is not None
        else (SMOKE_REPLICATES if args.smoke else DEFAULT_REPLICATES)
    )
    generations = (
        args.generations
        if args.generations is not None
        else (SMOKE_GENERATIONS if args.smoke else DEFAULT_GENERATIONS)
    )
    scenarios = SCENARIOS[:1] if args.smoke else SCENARIOS

    results = []
    for label, structure, memory, n_ssets in scenarios:
        record = bench_scenario(
            label, structure, memory, n_ssets, replicates, generations
        )
        results.append(record)
        print(f"{label:<12} event "
              f"{record['event_generations_per_sec']:>11,.1f} gen/s   "
              f"ensemble {record['ensemble_generations_per_sec']:>11,.1f} "
              f"gen/s   x{record['speedup']}")

    ckpt = bench_checkpoint_cadence(replicates, generations)
    results.append(ckpt)
    print(f"{ckpt['scenario']:<12} off   "
          f"{ckpt['off_generations_per_sec']:>11,.1f} gen/s   "
          f"on       {ckpt['on_generations_per_sec']:>11,.1f} gen/s   "
          f"overhead x{ckpt['checkpoint_overhead']}")

    payload = build_payload("ensemble", smoke=args.smoke, results=results)
    write_payload(args.out, payload, label="scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
