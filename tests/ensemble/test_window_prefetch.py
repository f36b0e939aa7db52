"""Shared-engine batch setup: packed mutant keys and the window prefetch.

Each batch lays its mutants out in event order and packs them into integer
keys (bytes beyond memory 3); each prefetch window interns its mutants in
one engine call and fills their pairs in one array-built block.  These
tests hold that setup to the same-seed ``event`` runs, and pin the fill
counters and the per-lane fill attribution, which depend on the order
the pairs are built in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig
from repro.core.evolution import run_event_driven
from repro.core.strategy import Strategy, all_d, random_pure, tft
from repro.ensemble import EnsembleEngine, run_ensemble, run_ensemble_detailed
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


class TestFillAttribution:
    def test_counters_pinned(self):
        # A mutation rate of 0.25 puts ~64 mutants in each 32-generation
        # window, so some mutant table turns up in two lanes of one window
        # and its pairs must be credited to the lane whose first mutant
        # comes first in the window: building the pairs in another lane
        # order moves misses between lanes.
        configs = [
            EvolutionConfig(
                memory_steps=2, n_ssets=16, generations=3000,
                mutation_rate=0.25, seed=500 + r, record_events=False,
            )
            for r in range(8)
        ]
        results, metas = run_ensemble_detailed(configs)
        assert [r.cache_misses for r in results] == [
            13653, 13901, 15263, 15108, 14284, 14561, 14851, 13982
        ]
        stats = metas[0]["shared_engine"]
        assert (stats["fills"], stats["fill_calls"], stats["distinct"]) == (
            115603, 95, 118
        )


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
