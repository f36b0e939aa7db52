#!/usr/bin/env python
"""Event-vs-ensemble crossover harness: the sweep service's default backend.

A job that names no backend takes
:func:`repro.service.jobspec.default_backend`'s pick, which keys on the
measurements this harness takes.  For each shape it times in-process
``run_sweep`` calls of growing run counts on ``event`` and on
``ensemble``, interleaved, and records every run's time, both medians and
the faster backend.  A shape stops once ``ensemble`` has led at two run
counts in a row.  Both backends follow the same trajectories, so only
time is compared.  The service tests check the rule against the committed
JSON: every ``event`` pick must be a cell where ``event`` was faster.

CI runs ``--smoke`` (two small shapes, short horizon) so the harness
cannot rot; run it bare after changing either backend's speed and commit
the JSON.

Usage::

    python benchmarks/backend_crossover.py                 # full grid
    python benchmarks/backend_crossover.py --smoke         # CI
    python benchmarks/backend_crossover.py --reps 5 --out my.json
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from common import REPO_ROOT, build_payload, write_payload  # bootstraps sys.path

from repro import EvolutionConfig, run_sweep  # noqa: E402
from repro.service.jobspec import default_backend  # noqa: E402

#: (memory, n_ssets, generations, structure) — well-mixed over the view
#: states the rule keys on, generations around the default, and graphs.
SHAPES = (
    *(
        (memory, n_ssets, 10_000, "well-mixed")
        for memory, n_ssets in (
            (1, 16), (1, 64), (1, 512),
            (2, 4), (2, 8), (2, 16), (2, 64), (2, 128),
            (3, 16), (3, 64), (3, 128),
            (4, 8), (4, 16), (4, 64), (4, 128),
            (5, 16), (5, 64),
            (6, 16), (6, 64),
        )
    ),
    (2, 16, 2_000, "well-mixed"),
    (2, 16, 50_000, "well-mixed"),
    (3, 64, 2_000, "well-mixed"),
    (4, 64, 2_000, "well-mixed"),
    (2, 16, 10_000, "ring:k=4"),
    (2, 64, 10_000, "ring:k=4"),
    (4, 64, 10_000, "ring:k=4"),
    (2, 16, 10_000, "scalefree:m=1"),
)
SMOKE_SHAPES = ((1, 8, 500, "well-mixed"), (2, 8, 500, "ring:k=2"))
RUN_COUNTS = (1, 2, 4, 8, 12, 16)
SMOKE_RUN_COUNTS = (1, 2)


def timed(configs: list[EvolutionConfig], backend: str, seed: int) -> float:
    started = time.perf_counter()
    run_sweep(configs, backend=backend, base_seed=seed)
    return time.perf_counter() - started


def bench_shape(shape: tuple, run_counts: tuple, reps: int) -> list[dict]:
    memory, n_ssets, generations, structure = shape
    config = EvolutionConfig(
        memory_steps=memory,
        n_ssets=n_ssets,
        generations=generations,
        structure=structure,
        record_events=False,
    )
    warm = [config.with_updates(generations=min(generations, 500))]
    for backend in ("ensemble", "event"):
        timed(warm, backend, 0)
    records = []
    ensemble_led = 0
    for runs in run_counts:
        configs = [config] * runs
        times: dict[str, list[float]] = {"event": [], "ensemble": []}
        for rep in range(reps):
            order = ("event", "ensemble") if rep % 2 else ("ensemble", "event")
            for backend in order:
                times[backend].append(timed(configs, backend, 100 + rep))
        medians = {b: statistics.median(t) for b, t in times.items()}
        faster = min(medians, key=medians.get)
        records.append({
            "memory_steps": memory,
            "n_ssets": n_ssets,
            "views": n_ssets * 4**memory,
            "generations": generations,
            "structure": structure,
            "runs": runs,
            "event_seconds": [round(t, 4) for t in times["event"]],
            "ensemble_seconds": [round(t, 4) for t in times["ensemble"]],
            "event_median": round(medians["event"], 4),
            "ensemble_median": round(medians["ensemble"], 4),
            "faster": faster,
        })
        print(f"m{memory} {n_ssets:>4} SSets {generations:>6,} gen "
              f"{structure:<13} {runs:>2} runs: event "
              f"{medians['event'] * 1e3:8.1f} ms  ensemble "
              f"{medians['ensemble'] * 1e3:8.1f} ms  pick "
              f"{default_backend(configs)}", flush=True)
        ensemble_led = ensemble_led + 1 if faster == "ensemble" else 0
        if ensemble_led >= 2:
            break
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="two small shapes at 1 and 2 runs (CI anti-rot)")
    parser.add_argument("--reps", type=int, default=3,
                        help="interleaved timings per backend and run count")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_backend.json"),
                        metavar="PATH", help="output JSON path")
    args = parser.parse_args(argv)

    shapes = SMOKE_SHAPES if args.smoke else SHAPES
    run_counts = SMOKE_RUN_COUNTS if args.smoke else RUN_COUNTS
    results = []
    for shape in shapes:
        results.extend(bench_shape(shape, run_counts, args.reps))
    payload = build_payload("backend_crossover", smoke=args.smoke,
                            results=results, reps=args.reps)
    write_payload(args.out, payload, label="timings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
