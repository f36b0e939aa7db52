"""Tests for deterministic stream management."""

import numpy as np
import pytest

from repro.rng import SeedSequenceTree, make_rng, spawn_rngs


class TestMakeRng:
    def test_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_spawn_streams_independent(self):
        a, b = spawn_rngs(123, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        a1, _ = spawn_rngs(9, 2)
        a2, _ = spawn_rngs(9, 2)
        assert a1.random() == a2.random()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestSeedSequenceTree:
    def test_same_name_same_stream(self):
        tree = SeedSequenceTree(7)
        assert tree.generator("nature").random() == tree.generator("nature").random()

    def test_different_names_different_streams(self):
        tree = SeedSequenceTree(7)
        assert tree.generator("a").random() != tree.generator("b").random()

    def test_numeric_path_components(self):
        tree = SeedSequenceTree(7)
        r3 = tree.generator("rank", 3).random()
        r4 = tree.generator("rank", 4).random()
        assert r3 != r4
        assert r3 == SeedSequenceTree(7).generator("rank", 3).random()

    def test_string_hash_stable_across_instances(self):
        # FNV-1a hashing (not salted hash()) keeps names stable across runs.
        a = SeedSequenceTree(1).seed_sequence("events").entropy
        b = SeedSequenceTree(1).seed_sequence("events").entropy
        assert a == b

    def test_name_keys_pinned(self):
        # The spawn keys are part of every trajectory: FNV-1a of the
        # utf-8 name, integers masked to 32 bits.  The per-path cache must
        # keep them, and keep 1, "1" and 1.0 apart.
        def fnv(text):
            h = 0x811C9DC5
            for b in text.encode("utf-8"):
                h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
            return h

        tree = SeedSequenceTree(1)
        for _ in range(2):
            assert tree._child_key(("nature", "pc")) == (fnv("nature"), fnv("pc"))
            assert tree._child_key(("rank", 3)) == (fnv("rank"), 3)
            assert tree._child_key(("rank", np.int64(-1))) == (
                fnv("rank"), 0xFFFFFFFF,
            )
            assert tree._child_key(("1",)) == (fnv("1"),)
            assert tree._child_key((1.0,)) == (fnv("1.0"),)
            assert tree._child_key((1,)) == (1,)
        assert tree.seed_sequence("rank", 3).spawn_key == (fnv("rank"), 3)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            SeedSequenceTree("seed")

    def test_scalar_and_batch_draws_match(self):
        # The event-driven driver relies on Generator.random(n) consuming
        # the stream exactly like n scalar draws.
        tree = SeedSequenceTree(5)
        scalars = [tree.generator("s").random() for _ in range(1)]
        g1 = tree.generator("x")
        batch = g1.random(8)
        g2 = tree.generator("x")
        singles = np.array([g2.random() for _ in range(8)])
        np.testing.assert_array_equal(batch, singles)
        assert scalars  # silence unused warning
