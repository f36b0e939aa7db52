#!/usr/bin/env python
"""Legacy-vs-engine throughput harness: the FitnessEngine's scorecard.

Writes ``BENCH_engine.json`` with one record per scenario, each timing the
same seeded run twice — ``engine=False`` (legacy PayoffCache path) and
``engine=True`` (interned-strategy dense payoff matrix) — plus the speedup
ratio.  Trajectories are bit-identical between the two (pinned by the test
suite), so the run outcomes double as a cross-check here: the harness
fails unless both runs agree on the PC event, mutation and adoption
counts, the dominant share and every SSet's final strategy.

CI runs ``--smoke`` (one scenario, short horizon) so the harness cannot
rot; developers run it bare before/after engine work and commit the JSON.

Usage::

    python benchmarks/engine_bench.py                 # full scenario grid
    python benchmarks/engine_bench.py --smoke         # 1 scenario (CI)
    python benchmarks/engine_bench.py --out my.json --generations 50000
"""

from __future__ import annotations

import argparse
import sys
import time

from common import REPO_ROOT, build_payload, write_payload  # bootstraps sys.path

from repro import EvolutionConfig, Simulation  # noqa: E402

N_SSETS = 64

#: (label, structure, memory_steps) — the event-driven scenarios the ISSUE's
#: acceptance targets name, plus the memory-3 deep-memory cell.
SCENARIOS = (
    ("well-mixed-m1", "well-mixed", 1),
    ("well-mixed-m2", "well-mixed", 2),
    ("well-mixed-m3", "well-mixed", 3),
    ("ring-m2", "ring:k=4", 2),
    ("grid-m2", "grid:rows=8,cols=8", 2),
    ("complete-m2", "complete", 2),
)
DEFAULT_GENERATIONS = 100_000
SMOKE_GENERATIONS = 4_000


def bench_scenario(
    label: str, structure: str, memory_steps: int, generations: int
) -> dict:
    """Time one seeded run with the engine off, then on."""
    record: dict = {
        "scenario": label,
        "structure": structure,
        "memory_steps": memory_steps,
        "n_ssets": N_SSETS,
        "generations": generations,
    }
    fingerprints = {}
    for mode, engine in (("legacy", False), ("engine", True)):
        config = EvolutionConfig(
            memory_steps=memory_steps,
            n_ssets=N_SSETS,
            generations=generations,
            structure=structure,
            seed=2013,
            engine=engine,
            record_events=False,
        )
        started = time.perf_counter()
        result = Simulation(config).run()
        elapsed = time.perf_counter() - started
        _, share = result.dominant()
        record[f"{mode}_seconds"] = round(elapsed, 4)
        record[f"{mode}_generations_per_sec"] = round(generations / elapsed, 1)
        # The event and mutation counts follow from the event stream
        # alone; the adoptions and the final strategies follow the
        # fitness values, so a trajectory split shows in them.
        fingerprints[mode] = (
            result.n_pc_events,
            result.n_mutations,
            result.n_adoptions,
            round(share, 6),
            tuple(s.key() for s in result.population.strategies()),
        )
    legacy, engine = fingerprints["legacy"], fingerprints["engine"]
    if legacy != engine:
        raise AssertionError(
            f"{label}: engine trajectory diverged from legacy (pc events, "
            f"mutations, adoptions, dominant share: {engine[:4]} vs "
            f"{legacy[:4]}; final strategies "
            f"{'equal' if engine[4] == legacy[4] else 'differ'})"
        )
    (
        record["pc_events"],
        record["mutations"],
        record["adoptions"],
        record["dominant_share"],
        _,
    ) = engine
    record["speedup"] = round(
        record["engine_generations_per_sec"]
        / record["legacy_generations_per_sec"],
        2,
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one scenario at a short horizon (CI anti-rot)")
    parser.add_argument("--generations", type=int, default=None,
                        help=f"generations per scenario (default "
                             f"{DEFAULT_GENERATIONS:,}; smoke "
                             f"{SMOKE_GENERATIONS:,})")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        metavar="PATH", help="output JSON path")
    args = parser.parse_args(argv)

    generations = (
        args.generations
        if args.generations is not None
        else (SMOKE_GENERATIONS if args.smoke else DEFAULT_GENERATIONS)
    )
    scenarios = SCENARIOS[:1] if args.smoke else SCENARIOS

    results = []
    for label, structure, memory in scenarios:
        record = bench_scenario(label, structure, memory, generations)
        results.append(record)
        print(f"{label:<15} legacy "
              f"{record['legacy_generations_per_sec']:>11,.1f} gen/s   "
              f"engine {record['engine_generations_per_sec']:>11,.1f} gen/s   "
              f"x{record['speedup']}")

    payload = build_payload(
        "engine", smoke=args.smoke, results=results, backend="event"
    )
    write_payload(args.out, payload, label="scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
