"""Per-lane contracts of the shared-engine path under dense events.

At ``pc_rate=1.0`` and ``mutation_rate=0.5`` most lanes have a PC event and
a mutation in the same generation, so the order of a lane's events within
one generation, and the order of its hooks around them, carry the
trajectory.  A prefetch window ends after 10 of every lane's events
there, so some generations' PC event and mutation fall in adjacent
windows.  These tests hold every lane to its same-seed ``event`` run with
snapshots, event records and progress ticks on, resume such groups from a
mid-run checkpoint, and pin the total fills of two on-demand groups.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EvolutionConfig, progress_scope
from repro.core.evolution import run_event_driven
from repro.core.runstate import checkpoint_scope
from repro.ensemble import driver, run_ensemble, run_ensemble_detailed

DENSE = dict(
    n_ssets=8,
    generations=240,
    rounds=20,
    pc_rate=1.0,
    mutation_rate=0.5,
    record_every=25,
    record_events=True,
)


#: Total fills of the two on-demand groups in :class:`TestOnDemandFills`.
FILLS_M3 = 8004
FILLS_RING = 1646


def dense_configs(n: int = 4, **overrides) -> list[EvolutionConfig]:
    kwargs = dict(DENSE)
    kwargs.update(overrides)
    return [EvolutionConfig(seed=700 + r, **kwargs) for r in range(n)]


def assert_identical(lane, serial) -> None:
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
        assert a.dominant_share == b.dominant_share
        assert np.array_equal(a.strategy_matrix, b.strategy_matrix)


def same_generation_pairs(result) -> int:
    """Generations in which the lane had both a PC event and a mutation."""
    kinds: dict[int, set] = {}
    for event in result.events:
        kinds.setdefault(event.generation, set()).add(event.kind)
    return sum(1 for k in kinds.values() if k == {"pc", "mutation"})


class TestDenseEventParity:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(memory_steps=1),
            dict(memory_steps=2),
            dict(memory_steps=3),
            dict(memory_steps=2, structure="ring:k=2"),
        ],
        ids=["wm-m1", "wm-m2", "wm-m3", "ring-m2"],
    )
    def test_lanes_match_event_runs(self, overrides):
        configs = dense_configs(**overrides)
        results = run_ensemble(configs)
        for config, result in zip(configs, results):
            assert_identical(result, run_event_driven(config))
            # Half the generations hold both event kinds.
            assert same_generation_pairs(result) > DENSE["generations"] // 4


class MemorySink:
    """In-memory checkpoint sink with a JSON round-trip of the metadata."""

    def __init__(self):
        self.saved: dict = {}

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


def test_dense_group_resumes_bit_identically():
    configs = dense_configs(memory_steps=2, checkpoint_every=100)
    clean = run_ensemble(configs)
    sink = MemorySink()
    with checkpoint_scope(sink):
        run_ensemble(configs)
    (unit,) = sink.saved
    assert [g for g, _, _ in sink.saved[unit]] == [100, 200]
    pinned = MemorySink()
    pinned.saved[unit] = [sink.saved[unit][0]]
    with checkpoint_scope(pinned):
        resumed = run_ensemble(configs)
    for a, b in zip(clean, resumed):
        assert b.resumed_from_generation == 100
        assert_identical(b, a)
        assert (a.cache_hits, a.cache_misses) == (b.cache_hits, b.cache_misses)


def split_generations(result, window: int, batch: int) -> int:
    """Generations whose PC event and mutation the lane's windows split:
    the PC event ends one window and the mutation opens the next.  Ranks
    restart at each batch edge (every ``batch`` generations)."""
    split = 0
    rank = 0
    previous = None
    for event in result.events:
        if previous is not None and (
            event.generation // batch != previous.generation // batch
        ):
            rank = 0
        if (
            rank % window == 0
            and previous is not None
            and previous.generation == event.generation
        ):
            split += 1
        previous = event
        rank += 1
    return split


def ticks_by_lane(configs) -> tuple[list, list, list]:
    """Each lane's results, metadata and tick stream of one ensemble run."""
    ticks: list = []
    with progress_scope(ticks.append):
        results, metas = run_ensemble_detailed(configs)
    streams: list[list] = [[] for _ in configs]
    for tick in ticks:
        streams[tick.run_index].append(tuple(tick)[1:])
    return results, metas, streams


class TestSplitGenerations:
    """A lane's PC event and mutation of one generation can fall in
    adjacent windows; its hooks still fire as in its serial run: its tick
    and its snapshot of that generation after the mutation."""

    @staticmethod
    def configs() -> list[EvolutionConfig]:
        # A snapshot at every generation catches one taken mid-generation.
        return dense_configs(
            memory_steps=2, record_every=1, checkpoint_every=100
        )

    def test_lanes_match_event_runs(self):
        configs = self.configs()
        assert driver._window_events(configs[0]) == 10
        results, _, streams = ticks_by_lane(configs)
        assert sum(split_generations(r, 10, 100) for r in results) > 0
        for config, result, stream in zip(configs, results, streams):
            ticks: list = []
            with progress_scope(ticks.append):
                serial = run_event_driven(config)
            assert_identical(result, serial)
            assert stream == [tuple(tick)[1:] for tick in ticks]

    def test_resume_matches_uninterrupted_run(self):
        configs = self.configs()
        sink = MemorySink()
        with checkpoint_scope(sink):
            clean, clean_metas, clean_streams = ticks_by_lane(configs)
        (unit,) = sink.saved
        assert [g for g, _, _ in sink.saved[unit]] == [100, 200]
        pinned = MemorySink()
        pinned.saved[unit] = [sink.saved[unit][0]]
        with checkpoint_scope(pinned):
            resumed, metas, streams = ticks_by_lane(configs)
        assert sum(split_generations(r, 10, 100) for r in resumed) > 0
        for a, b, a_ticks, b_ticks in zip(
            clean, resumed, clean_streams, streams
        ):
            assert b.resumed_from_generation == 100
            assert_identical(b, a)
            assert (a.cache_hits, a.cache_misses) == (
                b.cache_hits, b.cache_misses
            )
            assert b_ticks == [t for t in a_ticks if t[0] >= 100]
        engine = metas[0]["shared_engine"]
        clean_engine = clean_metas[0]["shared_engine"]
        assert (engine["fills"], engine["fill_calls"]) == (
            clean_engine["fills"], clean_engine["fill_calls"]
        )


class TestOnDemandFills:
    """Total pair evaluations of two on-demand (check-and-fill) groups.

    Fills depend only on which pairs each lane's events read, not on the
    order lanes are advanced in, so these totals are fixed by the seeds.
    """

    @staticmethod
    def fills(**overrides) -> int:
        configs = [
            EvolutionConfig(
                n_ssets=16, generations=2000, rounds=20, seed=900 + r,
                record_events=False, **overrides,
            )
            for r in range(8)
        ]
        results, metas = run_ensemble_detailed(configs)
        stats = metas[0]["shared_engine"]
        assert sum(r.cache_misses for r in results) == stats["fills"]
        return stats["fills"]

    def test_memory_three_well_mixed(self):
        assert self.fills(memory_steps=3) == FILLS_M3

    def test_ring(self):
        assert self.fills(memory_steps=2, structure="ring:k=2") == FILLS_RING
