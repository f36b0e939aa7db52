"""Cross-run sharing of deterministic engine pair evaluations."""

from __future__ import annotations

import threading

import numpy as np

from repro.api import Simulation, run_sweep
from repro.core import EvolutionConfig
from repro.core.engine import (
    _PAIR_SHARE,
    pair_sharing_active,
    shared_engine_pairs,
)


def config(seed: int, **overrides) -> EvolutionConfig:
    base = dict(memory_steps=1, n_ssets=16, generations=1500, rounds=20)
    base.update(overrides)
    return EvolutionConfig(seed=seed, **base)


class TestSharedEnginePairs:
    def test_second_run_reuses_pairs(self):
        iso = [Simulation(config(s)).run() for s in (7, 8)]
        with shared_engine_pairs():
            first = Simulation(config(7)).run()
            second = Simulation(config(8)).run()
        # Trajectories identical to isolated runs; evaluations shrink.
        assert first.events == iso[0].events
        assert second.events == iso[1].events
        assert second.cache_misses < iso[1].cache_misses

    def test_store_cleared_on_exit(self):
        with shared_engine_pairs() as store:
            Simulation(config(7)).run()
            assert store
        assert not _PAIR_SHARE.enabled
        assert not _PAIR_SHARE.store

    def test_nested_keeps_outer_store(self):
        with shared_engine_pairs() as outer:
            Simulation(config(7)).run()
            before = sum(len(v) for v in outer.values())
            with shared_engine_pairs() as inner:
                assert inner is outer
            assert _PAIR_SHARE.enabled
            assert sum(len(v) for v in outer.values()) == before

    def test_signature_separation(self):
        """Different (memory, rounds, payoff) never share entries."""
        with shared_engine_pairs() as store:
            Simulation(config(7)).run()
            Simulation(config(7, rounds=24)).run()
            assert len(store) == 2

    def test_expected_regime_not_shared(self):
        with shared_engine_pairs() as store:
            Simulation(
                config(7, noise=0.02, expected_fitness=True, generations=200)
            ).run()
            assert not store


class TestConcurrentSweeps:
    def test_overlapping_blocks_on_two_threads(self):
        """Two service workers can run sharing sweeps at once: the first to
        finish must not switch sharing off under the other, and the last
        to finish must not leave it on for the rest of the process."""
        a_entered, b_entered, a_left = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with shared_engine_pairs():
                a_entered.set()
                b_entered.wait(10)
            a_left.set()

        def second():
            a_entered.wait(10)
            with shared_engine_pairs():
                b_entered.set()
                a_left.wait(10)
                seen["active_after_first_left"] = pair_sharing_active()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert a_left.is_set()
        assert seen == {"active_after_first_left": True}
        assert not pair_sharing_active()
        assert not _PAIR_SHARE.store


class TestRunSweepSharing:
    def test_serial_sweep_shares(self):
        configs = [config(100 + i) for i in range(3)]
        iso = [Simulation(c).run() for c in configs]
        swept = run_sweep(configs, backend="event")
        for a, b in zip(swept, iso):
            assert a.events == b.events
            assert np.array_equal(
                a.population.strategy_matrix(), b.population.strategy_matrix()
            )
        assert sum(r.cache_misses for r in swept) < sum(
            r.cache_misses for r in iso
        )

    def test_sweep_leaves_no_global_state(self):
        run_sweep([config(7)], backend="event")
        assert not _PAIR_SHARE.enabled
        assert not _PAIR_SHARE.store

    def test_pooled_sweep_trajectories_unchanged(self):
        configs = [config(100 + i, generations=600) for i in range(3)]
        serial = run_sweep(configs, backend="event")
        pooled = run_sweep(configs, backend="event", workers=2)
        for a, b in zip(serial, pooled):
            assert a.events == b.events

    def test_auto_rule_skips_deep_memory(self):
        """Memory >= 2 draws mostly-distinct mutants, so the store would
        cost more than it saves; the default keeps it off there."""
        configs = [
            config(100 + i, memory_steps=2, generations=400)
            for i in range(2)
        ]
        iso = [Simulation(c).run() for c in configs]
        swept = run_sweep(configs, backend="event")
        assert [r.cache_misses for r in swept] == [
            r.cache_misses for r in iso
        ]

    def test_share_engine_flag_forces(self):
        configs = [
            config(100 + i, memory_steps=2, generations=400)
            for i in range(2)
        ]
        iso = [Simulation(c).run() for c in configs]
        forced = run_sweep(configs, backend="event", share_engine=True)
        assert forced[1].events == iso[1].events
        assert forced[1].cache_misses <= iso[1].cache_misses
        off = run_sweep(
            [config(100), config(101)], backend="event", share_engine=False
        )
        assert off[1].cache_misses == Simulation(config(101)).run().cache_misses
