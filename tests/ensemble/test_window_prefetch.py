"""Shared-engine batch setup: packed mutant keys and the window prefetch.

Each batch lays its events out lane-major and packs its mutants into
integer keys (bytes beyond memory 3); each prefetch window ends after a
fixed count of every lane's own events, interns its mutants in one engine
call and fills their pairs in one array-built block.  These tests hold
that setup to the same-seed ``event`` runs, pin the waves each batch runs
and the bytes it holds, and pin the fill counters and the per-lane fill
attribution, which depend on the windows' edges and on the order the
pairs are built in.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import EvolutionConfig, progress_scope
from repro.core.evolution import run_event_driven
from repro.core.strategy import Strategy, all_d, random_pure, tft
from repro.ensemble import (
    EnsembleEngine,
    driver,
    run_ensemble,
    run_ensemble_detailed,
)
from repro.ensemble.driver import _window_pairs
from repro.errors import StrategyError
from repro.rng import make_rng


def assert_lane_matches_event(lane, serial) -> None:
    assert lane.events == serial.events
    assert (lane.n_pc_events, lane.n_adoptions, lane.n_mutations) == (
        serial.n_pc_events, serial.n_adoptions, serial.n_mutations
    )
    assert np.array_equal(
        lane.population.strategy_matrix(), serial.population.strategy_matrix()
    )
    assert [(s.adoptions, s.mutations) for s in lane.population.ssets] == [
        (s.adoptions, s.mutations) for s in serial.population.ssets
    ]
    assert len(lane.snapshots) == len(serial.snapshots)
    for a, b in zip(lane.snapshots, serial.snapshots):
        assert a.generation == b.generation
        assert np.array_equal(a.strategy_matrix, b.strategy_matrix)


def check_parity(configs) -> list:
    results = run_ensemble(configs)
    for config, result in zip(configs, results):
        assert_lane_matches_event(result, run_event_driven(config))
    return results


class TestLaneParity:
    def test_long_batch(self):
        # One 20,000-generation batch: ~2,000 PC events per lane, ~125 of
        # them teacher==learner collisions replayed by the decoder walk,
        # and ~1,000 mutants interned across ~300 prefetch windows.
        configs = [
            EvolutionConfig(
                memory_steps=2, n_ssets=16, generations=20_000, seed=2100 + r
            )
            for r in range(3)
        ]
        results = check_parity(configs)
        assert min(r.n_pc_events for r in results) > 1900

    def test_memory_four_bytes_keys(self):
        # 256-move tables do not fit one integer: keys are packed bytes.
        configs = [
            EvolutionConfig(
                memory_steps=4, n_ssets=8, generations=400, rounds=20,
                seed=3100 + r,
            )
            for r in range(3)
        ]
        results = check_parity(configs)
        assert sum(r.n_mutations for r in results) > 20


class TestWaveFloor:
    """A batch runs as many waves as its busiest lane has events.

    Windows end after a count of every lane's own events, so no window
    waits on a lane that is busy in it while the others idle; a generation
    with both a PC event and a mutation counts two events.
    """

    @pytest.mark.parametrize("structure", ["well-mixed", "ring:k=2"])
    def test_waves_per_batch(self, monkeypatch, structure):
        configs = [
            EvolutionConfig(
                memory_steps=2, n_ssets=16, generations=3000,
                structure=structure, checkpoint_every=1000, seed=800 + r,
            )
            for r in range(8)
        ]
        waves: list[int] = []
        draw_flags, advance_wave = driver._draw_flags, driver._advance_wave

        def count_batch(*args):
            waves.append(0)
            return draw_flags(*args)

        def count_wave(*args):
            waves[-1] += 1
            return advance_wave(*args)

        monkeypatch.setattr(driver, "_draw_flags", count_batch)
        monkeypatch.setattr(driver, "_advance_wave", count_wave)
        results = run_ensemble(configs)
        # The cadence cuts batches at its multiples.
        busiest = [
            max(
                sum(lo <= e.generation < lo + 1000 for e in result.events)
                for result in results
            )
            for lo in (0, 1000, 2000)
        ]
        assert waves == busiest
        for config, result in zip(configs, results):
            assert_lane_matches_event(result, run_event_driven(config))


class TestBatchBytes:
    @staticmethod
    def run_traced(generations: int):
        configs = [
            EvolutionConfig(
                memory_steps=6, n_ssets=4, rounds=1, generations=generations,
                seed=40 + r, record_events=False,
            )
            for r in range(16)
        ]
        tracemalloc.start()
        try:
            results = run_ensemble(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return configs, results, peak

    def test_memory_six_peak_is_flat(self):
        # Each memory-6 mutant holds a 4 KiB table and a 512-byte key, so
        # one batch of all 8,000 generations would pre-draw ~30 MB of
        # them; batches are cut at about 8 MiB of decisions instead
        # (~2,200 generations of this group).
        assert driver._capped_batch_bytes(
            1 << 16, 16, EvolutionConfig(memory_steps=6, n_ssets=4)
        ) < 2500
        _, _, short = self.run_traced(2000)
        configs, results, long = self.run_traced(8000)
        assert long < 1.25 * short
        assert sum(r.n_mutations for r in results) > 6000
        for lane in (0, len(configs) - 1):
            assert_lane_matches_event(
                results[lane], run_event_driven(configs[lane])
            )


class TestEmptyBatches:
    """A batch in which no lane has an event runs no window, on either
    kind of shared group, and its lanes' hooks still fire as in their
    serial runs."""

    @staticmethod
    def run_counting(monkeypatch, configs) -> tuple[list, list, list]:
        """Each lane's results and tick stream, and whether each batch
        held an event."""
        busy: list[bool] = []
        draw_flags = driver._draw_flags

        def note_batch(*args):
            flags = draw_flags(*args)
            busy.append(bool(flags.any()))
            return flags

        monkeypatch.setattr(driver, "_draw_flags", note_batch)
        ticks: list = []
        with progress_scope(ticks.append):
            results = run_ensemble(configs)
        streams: list[list] = [[] for _ in configs]
        for tick in ticks:
            streams[tick.run_index].append(tuple(tick)[1:])
        return results, streams, busy

    @staticmethod
    def assert_matches_event(configs, results, streams) -> None:
        for config, result, stream in zip(configs, results, streams):
            ticks: list = []
            with progress_scope(ticks.append):
                serial = run_event_driven(config)
            assert_lane_matches_event(result, serial)
            assert stream == [tuple(tick)[1:] for tick in ticks]

    @pytest.mark.parametrize("memory", [1, 2])
    def test_no_event_rates(self, monkeypatch, memory):
        configs = [
            EvolutionConfig(
                memory_steps=memory, n_ssets=8, generations=300, rounds=16,
                pc_rate=0.0, mutation_rate=0.0, record_every=50,
                seed=60 + r,
            )
            for r in range(3)
        ]
        assert driver._window_events(configs[0]) == 0
        results, streams, busy = self.run_counting(monkeypatch, configs)
        assert busy == [False]
        self.assert_matches_event(configs, results, streams)
        assert [len(r.snapshots) for r in results] == [7, 7, 7]

    def test_no_mutations_at_short_cadence(self, monkeypatch):
        # One lane at pc_rate 0.1 leaves ~35% of its 10-generation
        # batches without an event.
        configs = [
            EvolutionConfig(
                memory_steps=2, n_ssets=8, generations=400, rounds=16,
                pc_rate=0.1, mutation_rate=0.0, record_every=5,
                checkpoint_every=10, seed=70,
            )
        ]
        results, streams, busy = self.run_counting(monkeypatch, configs)
        assert len(busy) == 40
        assert 0 < busy.count(False) < 40
        self.assert_matches_event(configs, results, streams)

    def test_sampled_group(self, monkeypatch):
        configs = [
            EvolutionConfig(
                memory_steps=2, n_ssets=8, generations=60, rounds=16,
                noise=0.05, sampled_batched=True, record_every=5,
                checkpoint_every=5, seed=80 + r,
            )
            for r in range(2)
        ]
        assert driver._group_mode(configs[0]) == "shared"
        assert driver._samples_on_pool(configs[0])
        results, streams, busy = self.run_counting(monkeypatch, configs)
        assert len(busy) == 12
        assert 0 < busy.count(False) < 12
        self.assert_matches_event(configs, results, streams)


class TestFillAttribution:
    def test_counters_pinned(self):
        # A mutation rate of 0.25 ends each prefetch window after 4 of
        # every lane's events (~2.9 mutants per lane); the counters follow
        # the windows' edges, which cut each lane's events by rank.
        configs = [
            EvolutionConfig(
                memory_steps=2, n_ssets=16, generations=3000,
                mutation_rate=0.25, seed=500 + r, record_events=False,
            )
            for r in range(8)
        ]
        results, metas = run_ensemble_detailed(configs)
        assert [r.cache_misses for r in results] == [
            11715, 11941, 12958, 12879, 12251, 12280, 12794, 12084
        ]
        stats = metas[0]["shared_engine"]
        assert (stats["fills"], stats["fill_calls"], stats["distinct"]) == (
            98902, 269, 118
        )

    def test_lane_order_pinned(self):
        # Memory one has 16 pure tables, so one mutant table often turns
        # up in two lanes of one window, and its pairs must be credited to
        # the lane whose first mutant comes first in the window: building
        # the pairs in another lane order moves misses between lanes.
        configs = [
            EvolutionConfig(
                memory_steps=1, n_ssets=4, generations=3000,
                mutation_rate=0.25, seed=500 + r, record_events=False,
            )
            for r in range(8)
        ]
        results, metas = run_ensemble_detailed(configs)
        assert [r.cache_misses for r in results] == [
            812, 834, 751, 858, 710, 623, 623, 561
        ]
        stats = metas[0]["shared_engine"]
        assert (stats["fills"], stats["fill_calls"]) == (5772, 268)


def reference_window_pairs(sids, lanes, mutants) -> list[tuple]:
    """The per-lane build: lanes in order of their first mutant, each
    mutant against the sorted union of its lane's sids and mutants."""
    blocks = []
    for lane in dict.fromkeys(lanes.tolist()):
        mine = mutants[lanes == lane]
        union = np.unique(np.concatenate((sids[lane], mine)))
        blocks.append(
            (lane, {(int(m), int(u)) for m in mine for u in union})
        )
    return blocks


class TestWindowPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_lane_build(self, seed):
        rng = make_rng(seed)
        n_lanes, n_ssets = 7, 5
        sids = rng.integers(0, 40, size=(n_lanes, n_ssets))
        size = int(rng.integers(1, 25))
        lanes = rng.integers(0, n_lanes, size=size)
        mutants = rng.integers(40, 60, size=size)
        a, b, pair_lanes = _window_pairs(sids, lanes, mutants)
        # Grouped by lane, lanes in first-mutant order.
        runs = [pair_lanes[0]] + [
            lane for prev, lane in zip(pair_lanes, pair_lanes[1:])
            if lane != prev
        ]
        expected = reference_window_pairs(sids, lanes, mutants)
        assert [int(lane) for lane in runs] == [lane for lane, _ in expected]
        for lane, pairs in expected:
            mine = pair_lanes == lane
            assert set(zip(a[mine].tolist(), b[mine].tolist())) == pairs


class TestPackedKeys:
    @pytest.mark.parametrize("memory", [1, 2, 3, 4])
    def test_intern_lane_matches_acquire(self, memory):
        rng = make_rng(memory)
        pool = [random_pure(rng, memory) for _ in range(6)]
        strategies = [pool[int(i)] for i in rng.integers(0, 6, size=20)]
        by_table = EnsembleEngine(memory, rounds=8, capacity=4)
        by_strategy = EnsembleEngine(memory, rounds=8, capacity=4)
        tables = np.stack([s.table for s in strategies])
        sids = by_table.intern_lane(tables, by_table.pack_keys(tables))
        assert sids.tolist() == [by_strategy.acquire(s) for s in strategies]
        assert len(by_table) == len({s.key() for s in strategies})
        for sid, strategy in zip(sids.tolist(), strategies):
            assert by_table.strategy(sid).key() == strategy.key()
        by_table.check_consistent(sids, strategies)

    def test_key_types(self):
        small = EnsembleEngine(3, rounds=8)
        wide = EnsembleEngine(4, rounds=8)
        assert small.pack_keys(np.ones((2, 64), np.uint8)).dtype == np.uint64
        keys = wide.pack_keys(np.ones((2, 256), np.uint8)).tolist()
        assert all(isinstance(k, bytes) and len(k) == 32 for k in keys)

    def test_keys_survive_recycle_and_compact(self):
        engine = EnsembleEngine(1, rounds=8, capacity=512)
        keep = engine.acquire(tft())
        gone = engine.acquire(all_d())
        engine.release(gone)
        assert engine.strategy(keep).key() == tft().key()
        mapping = engine.compact(min_capacity=8)
        assert mapping is not None
        moved = int(mapping[keep])
        assert engine.strategy(moved).key() == tft().key()
        assert engine.acquire(tft()) == moved
        assert engine.acquire(all_d()) != moved

    def test_wrong_shape_rejected(self):
        engine = EnsembleEngine(2, rounds=8)
        with pytest.raises(StrategyError, match="shape"):
            engine.intern_lane(np.zeros((3, 4), np.uint8))
        with pytest.raises(StrategyError, match="pure"):
            engine.acquire(Strategy(np.full(16, 0.5), 2))
