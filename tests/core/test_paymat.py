"""The shared ensemble engine's pair stores: ``DensePairStore`` and the
pool-only ``_NoPairStore``."""

from __future__ import annotations

import numpy as np

from repro.core.paymat import DensePairStore
from repro.ensemble.engine import EnsembleEngine, _NoPairStore


def store_with_pair() -> DensePairStore:
    store = DensePairStore(16, np.float64)
    store.write_pairs(
        np.array([1]), np.array([9]), np.array([3.0]), np.array([4.0])
    )
    return store


class TestDensePairStore:
    def test_roundtrip(self):
        store = DensePairStore(16, np.float64)
        a = np.array([1, 5])
        b = np.array([9, 2])
        store.write_pairs(a, b, np.array([3.0, 7.0]), np.array([4.0, 8.0]))
        assert store.take(1, 9) == 3.0
        assert store.take(9, 1) == 4.0
        assert store.take(5, 2) == 7.0
        assert np.array_equal(
            store.take(np.array([1, 2]), np.array([9, 5])),
            np.array([3.0, 8.0]),
        )

    def test_unwritten_cells_read_zero(self):
        store = store_with_pair()
        assert store.take(14, 15) == 0.0
        assert np.array_equal(
            store.take(np.array([1, 14]), np.array([9, 15])),
            np.array([3.0, 0.0]),
        )
        # Cells that growth adds start zeroed too.
        store.grow(32)
        assert store.take(20, 30) == 0.0
        assert store.take(9, 20) == 0.0

    def test_pair_valid_is_two_way(self):
        store = store_with_pair()
        assert store.pair_valid(1, 9)
        assert store.pair_valid(9, 1)
        assert not store.pair_valid(1, 2)
        assert not store.pair_valid(14, 15)

    def test_invalidate_row_kills_both_directions(self):
        store = store_with_pair()
        store.invalidate_rows(np.array([1]))
        assert not store.pair_valid(1, 9)
        assert not store.pair_valid(9, 1)
        # Re-writing re-validates.
        store.write_pairs(
            np.array([1]), np.array([9]), np.array([5.0]), np.array([6.0])
        )
        assert store.pair_valid(1, 9)
        assert store.take(1, 9) == 5.0

    def test_growth_keeps_pairs(self):
        store = store_with_pair()
        store.grow(64)
        assert store.capacity == 64
        assert store.take(1, 9) == 3.0
        assert store.pair_valid(1, 9)
        store.write_pairs(
            np.array([40]), np.array([50]), np.array([7.0]), np.array([8.0])
        )
        assert store.take(40, 50) == 7.0
        assert store.take(50, 40) == 8.0
        assert store.pair_valid(40, 50)
        assert not store.pair_valid(60, 63)
        stats = store.stats()
        assert stats["paymat_bytes"] == 64 * 64 * (8 + 1)
        assert stats["peak_paymat_bytes"] == stats["paymat_bytes"]

    def test_rebuild_carries_two_way_valid_pairs(self):
        store = DensePairStore(16, np.float64)
        store.write_pairs(
            np.array([0, 2]), np.array([9, 10]),
            np.array([1.0, 3.0]), np.array([2.0, 4.0]),
        )
        fresh = store.rebuild(np.array([0, 2, 9, 10]), 8)
        # Live sids renumber to their index positions.
        assert fresh.take(0, 2) == 1.0  # old (0, 9)
        assert fresh.take(2, 0) == 2.0
        assert fresh.take(1, 3) == 3.0  # old (2, 10)
        assert fresh.pair_valid(0, 2)
        assert fresh.pair_valid(1, 3)
        assert not fresh.pair_valid(0, 1)
        # The smaller store remembers the larger one's peak.
        assert fresh.stats()["paymat_bytes"] == 8 * 8 * (8 + 1)
        assert fresh.stats()["peak_paymat_bytes"] == 16 * 16 * (8 + 1)

    def test_stats_keys(self):
        store = DensePairStore(16, np.float32)
        assert store.stats() == {
            "paymat_bytes": 16 * 16 * (4 + 1),
            "peak_paymat_bytes": 16 * 16 * (4 + 1),
        }
        # The engine adds the pool's counts; perfbench and the service's
        # ``GET /stats`` read these keys from it.
        stats = EnsembleEngine(2, 16, capacity=16).stats()
        for key in ("distinct", "capacity", "paymat_bytes",
                    "peak_paymat_bytes"):
            assert key in stats
        for key in ("paymat_block", "blocks_resident", "blocks_evicted",
                    "block_fills"):
            assert key not in stats


class TestNoPairStore:
    def test_no_pair_is_valid_and_no_bytes(self):
        store = _NoPairStore()
        store.grow(64)
        store.invalidate_rows(np.array([1, 2]))
        assert store.rebuild(np.array([0, 3]), 8) is store
        assert not store.pair_valid(1, 9)
        valid = store.pair_valid(np.array([[0], [1]]), np.array([2, 3, 4]))
        assert valid.shape == (2, 3)
        assert not valid.any()
        assert store.stats() == {"paymat_bytes": 0, "peak_paymat_bytes": 0}
        engine = EnsembleEngine(2, 16, capacity=16, pairs=False)
        assert engine.stats()["peak_paymat_bytes"] == 0
