#!/usr/bin/env python
"""Machine-readable perf harness: generations/sec across population structures.

Writes ``BENCH_structured.json`` — the repo's perf trajectory file — with
one record per (structure, memory_steps) cell at N=64 SSets on the event
backend, plus scenario-keyed **lane-batched ensemble rows**: a whole
replicate sweep of a graph-structured scenario run through
``run_sweep(backend="ensemble")`` and compared against the same sweep on
``run_sweep(workers=1, backend="event")`` (the PR acceptance records the
64-replicate ring-lattice memory-2 speedup here; the ensemble lanes are
cross-checked bit-identical against their serial runs while we have both
results in hand).  CI runs ``--smoke`` (one serial cell + one small
ensemble row, short horizons) so the harness cannot rot; developers run it
bare before/after perf work and diff the JSON.

Usage::

    python benchmarks/structured_bench.py                 # full grid
    python benchmarks/structured_bench.py --smoke         # CI anti-rot mode
    python benchmarks/structured_bench.py --out my.json --generations 200000
"""

from __future__ import annotations

import argparse
import sys
import time

from common import REPO_ROOT, build_payload, write_payload  # bootstraps sys.path

from repro import EvolutionConfig, Simulation  # noqa: E402
from repro.api import run_sweep  # noqa: E402

N_SSETS = 64
STRUCTURES = ("well-mixed", "ring:k=4", "grid:rows=8,cols=8")
MEMORY_STEPS = (1, 2)
DEFAULT_GENERATIONS = 100_000
SMOKE_GENERATIONS = 5_000

#: Lane-batched ensemble scenarios: (scenario key, structure, memory,
#: replicates, generations-divisor vs the serial cells — ensembles run R
#: lanes, so a shorter per-lane horizon keeps the wallclock comparable).
ENSEMBLE_SCENARIOS = (
    ("ring-ens-r64", "ring:k=4", 2, 64, 5),
    ("smallworld-ens-r64", "smallworld:k=4,p=0.1,seed=1", 2, 64, 5),
)
SMOKE_ENSEMBLE_SCENARIOS = (("ring-ens-r8", "ring:k=4", 2, 8, 5),)


def bench_one(structure: str, memory_steps: int, generations: int) -> dict:
    """Time one seeded run; report generations/sec and science fingerprints."""
    config = EvolutionConfig(
        memory_steps=memory_steps,
        n_ssets=N_SSETS,
        generations=generations,
        structure=structure,
        seed=2013,
    )
    started = time.perf_counter()
    result = Simulation(config).run()
    elapsed = time.perf_counter() - started
    _, share = result.dominant()
    return {
        "structure": structure,
        "memory_steps": memory_steps,
        "n_ssets": N_SSETS,
        "generations": generations,
        "seconds": round(elapsed, 4),
        "generations_per_sec": round(generations / elapsed, 1),
        "pc_events": result.n_pc_events,
        "mutations": result.n_mutations,
        "dominant_share": round(share, 4),
    }


def bench_ensemble(
    scenario: str,
    structure: str,
    memory_steps: int,
    replicates: int,
    generations: int,
) -> dict:
    """Time one graph-structured replicate sweep lane-batched vs serial.

    ``ensemble_generations_per_sec`` aggregates over all lanes (R *
    generations / seconds) — the figure the bench gate tracks;
    ``speedup_vs_event`` is the headline acceptance ratio.  Lane parity is
    asserted on the final populations while both result sets are in hand.
    """
    configs = [
        EvolutionConfig(
            memory_steps=memory_steps,
            n_ssets=N_SSETS,
            generations=generations,
            structure=structure,
            record_events=False,
            seed=2013 + i,
        )
        for i in range(replicates)
    ]
    started = time.perf_counter()
    ensemble = run_sweep(configs, backend="ensemble", workers=1)
    ens_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    serial = run_sweep(configs, backend="event", workers=1)
    event_elapsed = time.perf_counter() - started
    for a, b in zip(ensemble, serial):
        if (
            a.population.strategy_matrix().tobytes()
            != b.population.strategy_matrix().tobytes()
        ):
            raise SystemExit(
                f"structured_bench: lane-parity violation in {scenario} "
                f"(seed {a.config.seed}): ensemble final population differs "
                "from the serial event run"
            )
    total = replicates * generations
    record = {
        "scenario": scenario,
        "structure": structure,
        "memory_steps": memory_steps,
        "n_ssets": N_SSETS,
        "replicates": replicates,
        "generations": generations,
        "seconds": round(ens_elapsed, 4),
        "event_seconds": round(event_elapsed, 4),
        "ensemble_generations_per_sec": round(total / ens_elapsed, 1),
        "event_generations_per_sec": round(total / event_elapsed, 1),
        "speedup_vs_event": round(event_elapsed / ens_elapsed, 2),
    }
    report = ensemble[0].backend_report
    if report is not None and report.shared_engine is not None:
        record["shared_engine"] = dict(report.shared_engine)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one serial cell + one small ensemble row at a "
                             "short horizon (CI anti-rot mode)")
    parser.add_argument("--generations", type=int, default=None,
                        help=f"generations per serial cell (default "
                             f"{DEFAULT_GENERATIONS:,}; smoke "
                             f"{SMOKE_GENERATIONS:,}; ensemble rows run a "
                             "fraction of this per lane)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_structured.json"),
                        metavar="PATH", help="output JSON path")
    args = parser.parse_args(argv)

    generations = (
        args.generations
        if args.generations is not None
        else (SMOKE_GENERATIONS if args.smoke else DEFAULT_GENERATIONS)
    )
    cells = (
        [(STRUCTURES[0], MEMORY_STEPS[0])]
        if args.smoke
        else [(s, m) for m in MEMORY_STEPS for s in STRUCTURES]
    )
    scenarios = SMOKE_ENSEMBLE_SCENARIOS if args.smoke else ENSEMBLE_SCENARIOS

    results = []
    for structure, memory in cells:
        record = bench_one(structure, memory, generations)
        results.append(record)
        print(f"{structure:<18} memory={memory}  "
              f"{record['generations_per_sec']:>12,.1f} gen/s  "
              f"({record['seconds']:.2f}s)")
    for scenario, structure, memory, replicates, divisor in scenarios:
        record = bench_ensemble(
            scenario, structure, memory, replicates,
            max(1000, generations // divisor),
        )
        results.append(record)
        print(f"{scenario:<18} memory={memory}  "
              f"{record['ensemble_generations_per_sec']:>12,.1f} gen/s  "
              f"({record['seconds']:.2f}s, x{record['speedup_vs_event']:.2f} "
              f"vs event)")

    payload = build_payload(
        "structured", smoke=args.smoke, results=results, backend="event"
    )
    write_payload(args.out, payload, label="cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
