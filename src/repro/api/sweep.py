"""Batch execution of independent runs over a process pool.

:func:`run_sweep` is the workload front-end: give it any iterable of
configurations and it executes each through the unified backend machinery,
optionally fanning the runs over worker processes.  Results are returned in
config order and follow trajectories identical to a serial
``[Simulation(c).run() for c in configs]`` loop for any worker count (each
run is independent and deterministic given its seed) — pinned by the tests.

Lane batching: ``backend="ensemble"`` hands the whole config list to
:meth:`~repro.api.EnsembleBackend.run_many`, which advances same-science
replicates together over one shared strategy pool and payoff matrix
(:mod:`repro.ensemble`) — graph-structured configs included, via the
structure layer's CSR adjacency; with ``workers`` the lanes are chunked
over the pool, composing the two levels of parallelism.  Every other
backend runs each config in isolation, exactly as ``Simulation(c).run()``
does, evaluation counters included.

Seed derivation: pass ``base_seed`` to overwrite every config's seed with a
deterministic, statistically independent child derived through
:class:`~repro.rng.SeedSequenceTree` — the standard way to build an
N-replicate ensemble from one master seed.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.config import EvolutionConfig
from ..core.evolution import EvolutionResult
from ..core.progress import progress_runs
from ..errors import ConfigurationError
from ..rng import SeedSequenceTree
from .backends import Backend, EnsembleBackend, resolve_backend

__all__ = ["run_sweep", "derive_sweep_seeds"]


def derive_sweep_seeds(base_seed: int, n: int) -> list[int]:
    """``n`` independent child seeds of ``base_seed`` (stable across runs)."""
    if n < 0:
        raise ConfigurationError(f"cannot derive {n} seeds")
    tree = SeedSequenceTree(base_seed)
    return [
        int(tree.seed_sequence("sweep", i).generate_state(1, np.uint64)[0])
        for i in range(n)
    ]


def _run_one(config: EvolutionConfig, backend: Backend) -> EvolutionResult:
    """Worker entry point: one independent run (must stay module-level).

    Backends validate inside ``run()`` (their documented contract), so no
    separate validate pass is needed here.
    """
    return backend.run(config)


def _run_chunk(
    configs: list[EvolutionConfig], backend: EnsembleBackend
) -> list[EvolutionResult]:
    """Worker entry point: one lane-batched chunk (must stay module-level)."""
    return backend.run_many(configs)


def _chunk_ranges(n: int, chunks: int) -> list[tuple[int, int]]:
    """``n`` items into ``chunks`` contiguous, near-equal ranges."""
    size, extra = divmod(n, chunks)
    ranges = []
    start = 0
    for i in range(chunks):
        end = start + size + (1 if i < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


def _run_sweep_ensemble(
    run_configs: Sequence[EvolutionConfig],
    backend: EnsembleBackend,
    workers: int | None,
    on_result: Callable[[int, EvolutionResult], None] | None,
) -> list[EvolutionResult]:
    """Lane-batched fast path: whole chunks of the sweep run as single
    array programs (results still arrive in config order, per chunk)."""
    if not run_configs:
        return []
    if workers is None or workers <= 1 or len(run_configs) <= 1:
        results = backend.run_many(list(run_configs))
    else:
        pool_size = min(workers, len(run_configs))
        ranges = _chunk_ranges(len(run_configs), pool_size)
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [
                pool.submit(_run_chunk, list(run_configs[lo:hi]), backend)
                for lo, hi in ranges
            ]
            results = [r for future in futures for r in future.result()]
    if on_result is not None:
        for i, result in enumerate(results):
            on_result(i, result)
    return results


def _dedupe_key(config: EvolutionConfig) -> str:
    """Canonical identity of one run: the full config dict, seed included.

    Uses :meth:`EvolutionConfig.to_dict` so structure instances collapse to
    their canonical spec string — two configs collide iff they describe the
    bit-identical run.
    """
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))


def run_sweep(
    configs: Iterable[EvolutionConfig],
    backend: str | type[Backend] | Backend = "event",
    *,
    workers: int | None = None,
    on_result: Callable[[int, EvolutionResult], None] | None = None,
    base_seed: int | None = None,
    dedupe: bool = True,
    **backend_opts: object,
) -> list[EvolutionResult]:
    """Run every config and return the results in config order.

    Parameters
    ----------
    configs:
        The runs.  Each is executed independently.
    backend:
        Backend for every run (name, class, or instance).  Instances must be
        picklable when ``workers > 1``; the built-ins are.  The
        ``ensemble`` backend takes the lane-batched fast path: the whole
        sweep (or each worker's chunk) executes as one array program.
    workers:
        Process-pool size for the fan-out.  ``None``/``0``/``1`` runs the
        sweep serially in-process.
    on_result:
        Callback invoked in the parent process as ``on_result(index,
        result)``, in config order, as results arrive (the ensemble fast
        path delivers a chunk's results when the chunk completes).
    base_seed:
        When given, replaces each config's seed with the ``i``-th child of
        :func:`derive_sweep_seeds` — a one-liner ensemble builder.
    dedupe:
        Execute bit-identical ``(config, seed)`` entries once and fan the
        *same* result object out to every duplicate position (default on —
        every run is deterministic given its config, so re-executing a
        duplicate can only reproduce the identical trajectory).  When
        duplicates are collapsed, ``on_result`` fires once per sweep
        position — duplicates included — in config order after the unique
        runs finish.  ``dedupe=False`` restores independent execution
        (distinct result objects per position, e.g. for timing studies).
    **backend_opts:
        Forwarded to the backend class (as in :class:`~repro.api.Simulation`).
    """
    run_configs: Sequence[EvolutionConfig] = list(configs)
    resolved = resolve_backend(backend, dict(backend_opts))
    if base_seed is not None:
        seeds = derive_sweep_seeds(base_seed, len(run_configs))
        run_configs = [
            c.with_updates(seed=s) for c, s in zip(run_configs, seeds)
        ]

    if dedupe and len(run_configs) > 1:
        keys = [_dedupe_key(c) for c in run_configs]
        first_index: dict[str, int] = {}
        unique: list[EvolutionConfig] = []
        # Sweep index of each unique run's first occurrence.
        firsts: list[int] = []
        index_map: list[int] = []
        for i, (config, key) in enumerate(zip(run_configs, keys)):
            position = first_index.get(key)
            if position is None:
                position = len(unique)
                first_index[key] = position
                unique.append(config)
                firsts.append(i)
            index_map.append(position)
        if len(unique) < len(run_configs):
            # A collapsed run's progress is filed under the sweep index of
            # its first occurrence.
            with progress_runs(firsts):
                unique_results = run_sweep(
                    unique,
                    resolved,
                    workers=workers,
                    dedupe=False,
                )
            results = [unique_results[j] for j in index_map]
            if on_result is not None:
                for i, result in enumerate(results):
                    on_result(i, result)
            return results

    if isinstance(resolved, EnsembleBackend):
        return _run_sweep_ensemble(run_configs, resolved, workers, on_result)

    results: list[EvolutionResult] = []
    if workers is None or workers <= 1 or len(run_configs) <= 1:
        # Each run stamps its ticks with its sweep index, read from the
        # run-index map opened here (the ensemble driver opens one per
        # lane group).
        for i, config in enumerate(run_configs):
            with progress_runs((i,)):
                result = _run_one(config, resolved)
            if on_result is not None:
                on_result(i, result)
            results.append(result)
        return results

    pool_size = min(workers, len(run_configs))
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [
            pool.submit(_run_one, config, resolved) for config in run_configs
        ]
        for i, future in enumerate(futures):
            result = future.result()
            if on_result is not None:
                on_result(i, result)
            results.append(result)
    return results
