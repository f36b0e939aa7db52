"""Per-lane contracts of the shared-engine path under dense events.

At ``pc_rate=1.0`` and ``mutation_rate=0.5`` most lanes have a PC event and
a mutation in the same generation, so the order of a lane's events within
one generation, and the order of its hooks around them, carry the
trajectory.  These tests hold every lane to its same-seed ``event`` run
with snapshots and event records on, resume one such group from a mid-run
checkpoint, and pin the total fills of two on-demand groups.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EvolutionConfig
from repro.core.evolution import run_event_driven
from repro.core.runstate import checkpoint_scope
from repro.ensemble import run_ensemble, run_ensemble_detailed

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
