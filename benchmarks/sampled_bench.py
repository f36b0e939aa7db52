#!/usr/bin/env python
"""Batched sampled-fitness throughput harness: the noise regime's scorecard.

Writes ``BENCH_sampled.json`` with one record per scenario.  Each scenario
runs the same seeded noisy replicate ensemble on both sampled paths —
``run_sweep(workers=1, backend="event")`` with the scalar legacy evaluator
(one :func:`repro.core.game.play_game` per sampled payoff) and
``run_sweep(backend="ensemble")`` with ``sampled_batched=True`` (the
lanes advance in waves of one event each, and each wave's sampled games
are fused into one :func:`repro.core.vectorgame.play_pairs_uniforms`
kernel call) — and records both aggregate throughputs plus the speedup
ratio.

The two paths are *statistically* equivalent, not bitwise (the batched
mode draws from its own dedicated stream; the distribution tests in
``tests/ensemble/test_sampled_batched.py`` pin the agreement), so the
in-harness parity oracle is the batched mode against itself: every
ensemble lane must end with the event counters and final strategies of
its same-seed serial ``sampled_batched`` event run.

The acceptance scenario is ``wm-m2-n16-e01``: a 64-replicate noisy
(``noise=0.01``) well-mixed memory-2 ensemble, where the batched kernel
must clear the >= 3x bar over the scalar path (asserted in full mode,
recorded either way).

CI runs ``--smoke`` (one scenario, few replicates, short horizon) so the
harness cannot rot; developers run it bare before/after sampled-path work
and commit the JSON.

Usage::

    python benchmarks/sampled_bench.py                 # full scenario grid
    python benchmarks/sampled_bench.py --smoke         # 1 scenario (CI)
    python benchmarks/sampled_bench.py --out my.json --generations 20000
"""

from __future__ import annotations

import argparse
import sys
import time

from common import (  # bootstraps sys.path
    REPO_ROOT,
    build_payload,
    write_payload,
)

from repro import EvolutionConfig, run_sweep  # noqa: E402

#: Speedup bar for the acceptance scenario (asserted in full runs only —
#: smoke horizons are too short for stable ratios).
ACCEPTANCE_SCENARIO = "wm-m2-n16-e01"
ACCEPTANCE_SPEEDUP = 3.0

#: (label, structure, memory_steps, n_ssets, noise) — wm-m2-n16-e01 is the
#: acceptance scenario; the rest map how the batched advantage moves with
#: noise level, memory depth, and structure.
SCENARIOS = (
    ("wm-m2-n16-e01", "well-mixed", 2, 16, 0.01),
    ("wm-m2-n16-e05", "well-mixed", 2, 16, 0.05),
    ("wm-m1-n32-e01", "well-mixed", 1, 32, 0.01),
    ("ring-m2-n16-e01", "ring:k=4", 2, 16, 0.01),
)
DEFAULT_REPLICATES = 64
DEFAULT_GENERATIONS = 10_000
SMOKE_REPLICATES = 8
SMOKE_GENERATIONS = 2_000


def fingerprint(result) -> tuple:
    """A lane's event counters and final strategy keys, SSet by SSet."""
    return (
        result.n_pc_events,
        result.n_adoptions,
        result.n_mutations,
        [s.key() for s in result.population.strategies()],
    )


def bench_scenario(
    label: str,
    structure: str,
    memory_steps: int,
    n_ssets: int,
    noise: float,
    replicates: int,
    generations: int,
) -> dict:
    """Time one seeded noisy replicate ensemble on both sampled paths."""
    base = dict(
        memory_steps=memory_steps,
        n_ssets=n_ssets,
        generations=generations,
        structure=structure,
        noise=noise,
        record_events=False,
    )
    scalar_configs = [
        EvolutionConfig(seed=2013 + i, **base) for i in range(replicates)
    ]
    batched_configs = [
        c.with_updates(sampled_batched=True) for c in scalar_configs
    ]
    record: dict = {
        "scenario": label,
        "structure": structure,
        "memory_steps": memory_steps,
        "n_ssets": n_ssets,
        "noise": noise,
        "replicates": replicates,
        "generations": generations,
    }
    total_generations = replicates * generations

    # Warm both paths (allocator, import, kernel caches), then time each
    # twice and keep the faster pass (standard noise mitigation).
    warm_scalar = [c.with_updates(generations=min(1000, generations or 1))
                   for c in scalar_configs[: min(4, replicates)]]
    warm_batched = [c.with_updates(generations=min(1000, generations or 1))
                    for c in batched_configs[: min(4, replicates)]]
    run_sweep(warm_batched, backend="ensemble")
    run_sweep(warm_scalar, backend="event", workers=1)

    batched_seconds = float("inf")
    scalar_seconds = float("inf")
    batched = None
    for _ in range(2):
        started = time.perf_counter()
        batched = run_sweep(batched_configs, backend="ensemble")
        batched_seconds = min(
            batched_seconds, time.perf_counter() - started
        )
        started = time.perf_counter()
        run_sweep(scalar_configs, backend="event", workers=1)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - started)

    # Parity oracle: every ensemble lane must match its same-seed serial
    # batched run (scalar-vs-batched agreement is statistical and lives in
    # the test suite, not a timing harness).
    serial_batched = run_sweep(batched_configs, backend="event", workers=1)
    for lane, (a, b) in enumerate(zip(batched, serial_batched)):
        got, want = fingerprint(a), fingerprint(b)
        if got != want:
            raise AssertionError(
                f"{label}: ensemble lane {lane} (seed {a.config.seed}) "
                f"diverged from its serial batched run: counters "
                f"{got[:3]} vs {want[:3]}"
                + ("" if got[3] == want[3] else ", final strategies differ")
            )

    record["scalar_seconds"] = round(scalar_seconds, 4)
    record["scalar_generations_per_sec"] = round(
        total_generations / scalar_seconds, 1
    )
    record["sampled_seconds"] = round(batched_seconds, 4)
    record["sampled_generations_per_sec"] = round(
        total_generations / batched_seconds, 1
    )
    record["speedup"] = round(scalar_seconds / batched_seconds, 2)
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
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sampled.json"),
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
    for label, structure, memory, n_ssets, noise in scenarios:
        record = bench_scenario(
            label, structure, memory, n_ssets, noise, replicates,
            generations,
        )
        results.append(record)
        print(f"{label:<16} scalar "
              f"{record['scalar_generations_per_sec']:>11,.1f} gen/s   "
              f"batched {record['sampled_generations_per_sec']:>11,.1f} "
              f"gen/s   x{record['speedup']}")
        if (
            not args.smoke
            and label == ACCEPTANCE_SCENARIO
            and record["speedup"] < ACCEPTANCE_SPEEDUP
        ):
            raise AssertionError(
                f"{label}: batched sampled fitness reached only "
                f"x{record['speedup']} over the scalar path "
                f"(acceptance bar: x{ACCEPTANCE_SPEEDUP})"
            )

    payload = build_payload("sampled", smoke=args.smoke, results=results)
    write_payload(args.out, payload, label="scenarios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
