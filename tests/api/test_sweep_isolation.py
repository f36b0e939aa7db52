"""Runs of a sweep are independent: each fills its own payoff matrix.

Outside the ``ensemble`` backend's shared pool, nothing links two runs of
a sweep, or two sweeps of one process: every run's trajectory *and*
evaluation counters are those of an isolated ``Simulation(c).run()``, its
event driver fills mutants in prefetch windows, and it snapshots and
resumes mid-run like a lone run.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.api import Simulation, run_sweep
from repro.core import EvolutionConfig
from repro.core.engine import FitnessEngine
from repro.core.runstate import checkpoint_scope, checkpointing_supported


def config(seed: int, **overrides) -> EvolutionConfig:
    base = dict(memory_steps=1, n_ssets=16, generations=600, rounds=20)
    base.update(overrides)
    return EvolutionConfig(seed=seed, **base)


def assert_isolated(swept, configs) -> None:
    """Each swept result equals a lone run of its config, counters too."""
    for result, cfg in zip(swept, configs, strict=True):
        alone = Simulation(cfg).run()
        assert result.events == alone.events
        assert np.array_equal(
            result.population.strategy_matrix(),
            alone.population.strategy_matrix(),
        )
        assert result.cache_hits == alone.cache_hits
        assert result.cache_misses == alone.cache_misses


class MemorySink:
    """In-memory checkpoint sink with a JSON round-trip of ``meta``."""

    def __init__(self):
        self.saved = {}

    def save(self, unit, generation, meta, arrays):
        meta = json.loads(json.dumps(meta))
        arrays = {k: np.array(v) for k, v in arrays.items()}
        self.saved.setdefault(unit, []).append((generation, meta, arrays))

    def load_latest(self, unit):
        entries = self.saved.get(unit)
        if not entries:
            return None
        _, meta, arrays = entries[-1]
        return meta, arrays


class TestCounters:
    @pytest.mark.parametrize("memory_steps", [1, 2])
    @pytest.mark.parametrize("backend", ["event", "serial"])
    def test_match_isolated_runs(self, backend, memory_steps):
        configs = [
            config(100 + i, memory_steps=memory_steps, generations=400)
            for i in range(3)
        ]
        assert_isolated(run_sweep(configs, backend=backend), configs)

    def test_expected_regime(self):
        configs = [
            config(100 + i, noise=0.02, expected_fitness=True,
                   generations=200)
            for i in range(2)
        ]
        assert_isolated(run_sweep(configs, backend="event"), configs)

    def test_repeat_sweep_starts_fresh(self):
        """A second sweep of the same configs in the same process pays
        the same evaluations as the first: nothing outlives a sweep."""
        configs = [config(100 + i) for i in range(2)]
        first = run_sweep(configs, backend="event")
        second = run_sweep(configs, backend="event")
        for a, b in zip(first, second, strict=True):
            assert a is not b
            assert a.events == b.events
            assert a.cache_hits == b.cache_hits
            assert a.cache_misses == b.cache_misses


class TestConcurrentSweeps:
    def test_overlapping_sweeps_on_two_threads(self):
        """Two service workers may run sweeps at once; neither sees the
        other's evaluations."""
        jobs = {
            "a": [config(200 + i) for i in range(2)],
            "b": [config(300 + i) for i in range(2)],
        }
        barrier = threading.Barrier(len(jobs), timeout=30)
        results, errors = {}, []

        def work(name):
            try:
                barrier.wait()
                results[name] = run_sweep(jobs[name], backend="event")
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(name,)) for name in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        for name, configs in jobs.items():
            assert_isolated(results[name], configs)


class TestEventDriverInSweeps:
    def test_memory_one_sweep_prefetches(self, monkeypatch):
        """Each memory-one run fills its mutants in prefetch windows."""
        windows = []
        prefetch = FitnessEngine.prefetch

        def counting(self, strategies):
            windows.append(len(strategies))
            return prefetch(self, strategies)

        monkeypatch.setattr(FitnessEngine, "prefetch", counting)
        run_sweep([config(100 + i) for i in range(2)], backend="event")
        assert windows
        assert max(windows) > 1

    def test_memory_one_sweep_resumes_bit_identically(self):
        """A run that follows another in the same sweep snapshots mid-run
        and resumes from the snapshot to its uninterrupted result."""
        configs = [config(100 + i, checkpoint_every=200) for i in range(2)]
        assert all(checkpointing_supported(c) for c in configs)
        clean = run_sweep(configs, backend="event")

        sink = MemorySink()
        with checkpoint_scope(sink):
            run_sweep(configs, backend="event")
        assert len(sink.saved) == 2
        for entries in sink.saved.values():
            assert [g for g, _, _ in entries] == [200, 400]

        # Keep only the first snapshot of each run, then sweep again.
        pinned = MemorySink()
        pinned.saved = {unit: entries[:1] for unit, entries in
                        sink.saved.items()}
        with checkpoint_scope(pinned):
            resumed = run_sweep(configs, backend="event")
        for a, b in zip(clean, resumed, strict=True):
            assert b.resumed_from_generation == 200
            assert a.events == b.events
            assert np.array_equal(
                a.population.strategy_matrix(),
                b.population.strategy_matrix(),
            )
            for field in ("n_pc_events", "n_adoptions", "n_mutations",
                          "cache_hits", "cache_misses"):
                assert getattr(a, field) == getattr(b, field), field
