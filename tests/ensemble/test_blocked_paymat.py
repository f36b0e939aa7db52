"""Blocked-paymat suite: ``BlockedPairStore`` == dense, bit for bit.

The blocked store's contract is that sharding the pair matrix into
on-demand ``B x B`` blocks (``EvolutionConfig.paymat_block``) is pure
storage: every trajectory — with blocks smaller than the interned
strategy count, through pool growth, and through LRU eviction-then-refill
under ``engine_pool_cap`` — is bit-identical to the same-seed dense run,
while resident bytes track the *touched* pair surface instead of O(K²).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig
from repro.core.engine import FitnessEngine
from repro.core.evolution import EvolutionResult, run_event_driven
from repro.core.paymat import BlockedPairStore, validate_paymat_block
from repro.ensemble import run_ensemble, run_ensemble_detailed
from repro.errors import ConfigurationError


def assert_identical(a: EvolutionResult, b: EvolutionResult) -> None:
    """Trajectory + outcome comparison (bitwise on every float)."""
    assert a.events == b.events
    assert a.n_pc_events == b.n_pc_events
    assert a.n_adoptions == b.n_adoptions
    assert a.n_mutations == b.n_mutations
    assert a.generations_run == b.generations_run
    assert np.array_equal(
        a.population.strategy_matrix(), b.population.strategy_matrix()
    )
    assert a.dominant()[1] == b.dominant()[1]


def replicate_configs(n: int = 4, **overrides) -> list[EvolutionConfig]:
    base = dict(
        memory_steps=2, n_ssets=8, generations=600, rounds=16, paymat_block=4
    )
    base.update(overrides)
    return [EvolutionConfig(seed=3100 + i, **base) for i in range(n)]


def check_blocked_parity(configs: list[EvolutionConfig]) -> None:
    """Every blocked ensemble lane == its *dense* same-seed serial run."""
    results = run_ensemble(configs)
    for config, result in zip(configs, results):
        dense = config.with_updates(paymat_block=0, engine_pool_cap=0)
        assert_identical(result, run_event_driven(dense))


class TestStoreUnit:
    """Direct BlockedPairStore behavior (NumPy backend)."""

    def test_roundtrip_and_absent_reads_zero(self):
        store = BlockedPairStore(16, 4, np.float64)
        a = np.array([1, 5])
        b = np.array([9, 2])
        store.write_pairs(a, b, np.array([3.0, 7.0]), np.array([4.0, 8.0]))
        assert store.take(1, 9) == 3.0
        assert store.take(9, 1) == 4.0
        assert store.take(5, 2) == 7.0
        # Unwritten cells read 0 through the permanent absent block.
        assert store.take(14, 15) == 0.0
        assert np.array_equal(
            store.take(np.array([1, 14]), np.array([9, 15])),
            np.array([3.0, 0.0]),
        )

    def test_pair_valid_is_two_way(self):
        store = BlockedPairStore(16, 4, np.float64)
        store.write_pairs(
            np.array([1]), np.array([9]), np.array([3.0]), np.array([4.0])
        )
        assert store.pair_valid(1, 9)
        assert store.pair_valid(9, 1)
        assert not store.pair_valid(1, 2)
        assert not store.pair_valid(14, 15)

    def test_invalidate_row_kills_both_directions(self):
        store = BlockedPairStore(16, 4, np.float64)
        store.write_pairs(
            np.array([1]), np.array([9]), np.array([3.0]), np.array([4.0])
        )
        store.invalidate_rows(np.array([1]))
        assert not store.pair_valid(1, 9)
        assert not store.pair_valid(9, 1)
        # Re-writing re-validates under the new epoch.
        store.write_pairs(
            np.array([1]), np.array([9]), np.array([5.0]), np.array([6.0])
        )
        assert store.pair_valid(1, 9)
        assert store.take(1, 9) == 5.0

    def test_growth_past_initial_block_grid(self):
        # grow() replaces the host block table once the grid widens; reads
        # and writes on both old and new blocks must stay live (this pins
        # the _sync_table repoint on the NumPy backend).
        store = BlockedPairStore(16, 4, np.float64)
        store.write_pairs(
            np.array([1]), np.array([9]), np.array([3.0]), np.array([4.0])
        )
        store.grow(64)
        assert store.take(1, 9) == 3.0
        assert store.pair_valid(1, 9)
        store.write_pairs(
            np.array([40]), np.array([50]), np.array([7.0]), np.array([8.0])
        )
        assert store.take(40, 50) == 7.0
        assert store.take(50, 40) == 8.0
        assert store.pair_valid(40, 50)
        assert store.take(60, 63) == 0.0

    def test_epoch_wraparound_clears_row(self):
        # Epochs cap at 32766 so a two-epoch stamp sum fits uint16; the
        # wrap must clear BOTH directions of the row's cells (one-way
        # validity queries would otherwise see stale mirror stamps).
        store = BlockedPairStore(16, 4, np.float64)
        store._epoch[3] = 32766
        store.write_pairs(
            np.array([3]), np.array([5]), np.array([1.0]), np.array([2.0])
        )
        assert store.pair_valid(3, 5)
        # Row 3 wraps (eager row clear, epoch back to 1) in the same call
        # that bumps row 7.
        store.invalidate_rows(np.array([3, 7]))
        assert int(store._epoch[3]) == 1
        assert int(store._epoch[7]) == 2
        assert not store.pair_valid(3, 5)
        assert not store.pair_valid(5, 3)
        store.write_pairs(
            np.array([3]), np.array([5]), np.array([9.0]), np.array([9.0])
        )
        assert store.pair_valid(3, 5)
        assert store.pair_valid(5, 3)
        assert store.take(3, 5) == 9.0

    def test_rebuild_carries_two_way_valid_pairs(self):
        store = BlockedPairStore(16, 4, np.float64)
        store.write_pairs(
            np.array([0, 2]), np.array([9, 10]),
            np.array([1.0, 3.0]), np.array([2.0, 4.0]),
        )
        fresh = store.rebuild(np.array([0, 2, 9, 10]), 16)
        # Live sids renumber to their index positions.
        assert fresh.take(0, 2) == 1.0  # old (0, 9)
        assert fresh.take(2, 0) == 2.0
        assert fresh.take(1, 3) == 3.0  # old (2, 10)
        assert fresh.pair_valid(0, 2)
        assert fresh.pair_valid(1, 3)
        assert not fresh.pair_valid(0, 1)

    def test_lru_eviction_under_block_cap(self):
        store = BlockedPairStore(64, 4, np.float64, block_cap=2)
        for i in range(5):
            store.tick()
            sid = np.array([i * 8])
            store.write_pairs(
                sid, sid + 4, np.array([float(i)]), np.array([float(i)])
            )
        assert store.blocks_evicted > 0
        assert store.blocks_resident <= 2 + 2  # soft cap: working set pinned
        # The most recent pair survives; evicted pairs read invalid (and
        # their payoff cells read absent-zero).
        store.tick()
        assert store.pair_valid(32, 36)
        assert not store.pair_valid(0, 4)
        assert store.take(0, 4) == 0.0

    def test_stats_keys(self):
        store = BlockedPairStore(16, 4, np.float64)
        stats = store.stats()
        assert stats["paymat_block"] == 4
        assert stats["paymat_bytes"] > 0
        assert stats["peak_paymat_bytes"] >= stats["paymat_bytes"]
        assert stats["blocks_resident"] == 0
        store.write_pairs(
            np.array([1]), np.array([9]), np.array([3.0]), np.array([4.0])
        )
        stats = store.stats()
        assert stats["blocks_resident"] == 2  # (0,2) and (2,0)
        assert stats["block_fills"] == 2

    @pytest.mark.parametrize("bad", [-1, 2, 3, 6, 12])
    def test_validate_rejects_bad_blocks(self, bad):
        with pytest.raises(ConfigurationError, match="paymat_block"):
            validate_paymat_block(bad)
        with pytest.raises(ConfigurationError, match="paymat_block"):
            EvolutionConfig(paymat_block=bad)


class TestEnsembleParity:
    """Blocked ensemble lanes == dense same-seed serial event runs."""

    def test_well_mixed(self):
        check_blocked_parity(replicate_configs())

    def test_well_mixed_deep_memory(self):
        check_blocked_parity(
            replicate_configs(n=3, memory_steps=3, generations=400)
        )

    def test_ring_graph(self):
        check_blocked_parity(
            replicate_configs(n_ssets=9, structure="ring:k=2")
        )

    def test_smallworld_graph(self):
        check_blocked_parity(
            replicate_configs(
                n=3, n_ssets=12, structure="smallworld:k=4,p=0.3,seed=2"
            )
        )

    def test_eviction_then_refill_mid_run(self):
        # A tight block cap forces mid-run evictions; refills are bit-exact
        # in the deterministic regime, so the trajectory must not move.
        configs = replicate_configs(generations=800, engine_pool_cap=8)
        results, metas = run_ensemble_detailed(configs)
        stats = metas[0]["shared_engine"]
        assert stats["blocks_evicted"] > 0
        for config, result in zip(configs, results):
            dense = config.with_updates(paymat_block=0, engine_pool_cap=0)
            assert_identical(result, run_event_driven(dense))

    def test_graph_ensemble_memory_drop(self):
        # On a sparse-touch topology the blocked store's resident bytes
        # must undercut the dense K x K allocation.
        base = dict(
            n=8, n_ssets=16, generations=1200, structure="ring:k=2",
        )
        _, dense_metas = run_ensemble_detailed(
            replicate_configs(paymat_block=0, **base)
        )
        _, blocked_metas = run_ensemble_detailed(
            replicate_configs(paymat_block=4, **base)
        )
        dense_bytes = dense_metas[0]["shared_engine"]["paymat_bytes"]
        blocked_bytes = blocked_metas[0]["shared_engine"]["paymat_bytes"]
        assert blocked_bytes < dense_bytes
        assert blocked_metas[0]["shared_engine"]["paymat_block"] == 4

    def test_capped_run_bounds_resident_bytes(self):
        configs = replicate_configs(generations=800, engine_pool_cap=8)
        _, metas = run_ensemble_detailed(configs)
        stats = metas[0]["shared_engine"]
        # Soft cap: bounded by cap + the in-flight working set.
        assert stats["blocks_resident"] <= 8 + 8


class TestCoreEngineParity:
    """The per-run event backend under a blocked paymat."""

    @pytest.mark.parametrize("structure", ["well-mixed", "ring:k=2"])
    def test_serial_event_blocked_equals_dense(self, structure):
        blocked = EvolutionConfig(
            memory_steps=2, n_ssets=8, generations=600, rounds=16,
            structure=structure, seed=77, paymat_block=4,
        )
        dense = blocked.with_updates(paymat_block=0)
        assert_identical(
            run_event_driven(blocked), run_event_driven(dense)
        )

    def test_expected_regime_rejects_blocked(self):
        with pytest.raises(ConfigurationError, match="deterministic"):
            FitnessEngine(
                memory_steps=1, rounds=8, expected=True, paymat_block=8
            )
