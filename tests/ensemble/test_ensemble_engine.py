"""Unit tests for the shared EnsembleEngine and the raw-stream decoders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvolutionConfig, PayoffMatrix
from repro.core.cycle import exact_payoffs
from repro.core.payoff import PAPER_PAYOFF
from repro.core.strategy import all_c, all_d, random_pure, tft, wsls
from repro.ensemble import EnsembleEngine, supports_shared_engine
from repro.ensemble import rawstream
from repro.errors import ConfigurationError, SimulationError, StrategyError
from repro.rng import make_rng


def lanes_engine(n_lanes: int = 2, **kw) -> EnsembleEngine:
    base = dict(memory_steps=1, rounds=16, n_lanes=n_lanes, capacity=8)
    base.update(kw)
    return EnsembleEngine(**base)


class TestPool:
    def test_intern_dedupes_across_lanes(self):
        engine = lanes_engine()
        a0 = engine.acquire(all_d())
        a1 = engine.acquire(all_d())
        assert a0 == a1
        assert len(engine) == 1
        assert engine.strategy(a0) == all_d()

    def test_release_recycles_at_zero(self):
        engine = lanes_engine()
        sid = engine.acquire(all_d())
        assert engine.acquire(all_d()) == sid  # second reference
        engine.release(sid)
        assert len(engine) == 1
        engine.release(sid)
        assert len(engine) == 0
        with pytest.raises(SimulationError):
            engine.strategy(sid)

    def test_release_underflow(self):
        engine = lanes_engine()
        sid = engine.acquire(all_d())
        engine.release(sid)
        with pytest.raises(SimulationError):
            engine.release(sid)

    def test_move_refs_recycles_each_dead_slot_once(self):
        # Two lanes drop the last references to one slot in one wave: it
        # is recycled once, with every other slot left at zero.
        engine = lanes_engine()
        keep, gone, other = (
            engine.acquire(s) for s in (all_c(), all_d(), tft())
        )
        engine.acquire(all_d())
        engine.move_refs(
            np.array([keep, keep]), np.array([gone, gone, other])
        )
        assert len(engine) == 1
        assert engine._refs[keep] == 3
        for sid in (gone, other):
            with pytest.raises(SimulationError):
                engine.strategy(sid)
        # Freed slots are reused, last freed first.
        assert engine.acquire(wsls()) == max(gone, other)
        with pytest.raises(SimulationError):
            engine.release(np.array([gone]))

    def test_growth(self):
        engine = lanes_engine(capacity=2)
        rng = make_rng(3)
        sids = [engine.acquire(random_pure(rng, 1)) for _ in range(10)]
        assert engine.capacity >= len(set(sids))

    def test_memory_mismatch_rejected(self):
        engine = lanes_engine()
        with pytest.raises(StrategyError):
            engine.acquire(all_d(2))

    def test_mixed_rejected(self):
        from repro.core.strategy import gtft

        engine = lanes_engine()
        with pytest.raises(StrategyError):
            engine.acquire(gtft())

    def test_non_integer_payoff_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            lanes_engine(
                payoff=PayoffMatrix(reward=3.5, sucker=0.0, temptation=4.5,
                                    punishment=1.0)
            )


class TestFills:
    def test_fill_missing_matches_exact_payoffs(self):
        engine = lanes_engine()
        strategies = [all_c(), all_d(), tft(), wsls()]
        sids = engine.intern_lane(strategies)
        iu, ju = np.triu_indices(4)
        engine.fill_missing(
            sids[iu], sids[ju], np.zeros(len(iu), dtype=np.int64)
        )
        for i, a in enumerate(strategies):
            for j, b in enumerate(strategies):
                pay_a, pay_b, _ = exact_payoffs(a, b, 16, PAPER_PAYOFF)
                assert float(engine.paymat[sids[i], sids[j]]) == pay_a
                assert float(engine.paymat[sids[j], sids[i]]) == pay_b

    def test_fill_missing_is_idempotent(self):
        engine = lanes_engine()
        sids = engine.intern_lane([all_c(), all_d()])
        lanes = np.zeros(2, dtype=np.int64)
        engine.fill_missing(sids, sids[::-1], lanes)
        fills = engine.fills
        engine.fill_missing(sids, sids[::-1], lanes)
        assert engine.fills == fills  # everything already valid

    def test_recycled_slot_invalidated_both_directions(self):
        engine = lanes_engine()
        keep = engine.acquire(all_c())
        dead = engine.acquire(all_d())
        engine.fill_missing(
            np.array([keep]), np.array([dead]), np.zeros(1, dtype=np.int64)
        )
        engine.release(dead)
        reborn = engine.acquire(tft())
        assert reborn == dead  # slot reused
        # The stale (keep, slot) entry must not satisfy the validity check.
        engine.ensure_rows(
            np.array([keep]),
            np.array([[keep, reborn]]),
            np.zeros(1, dtype=np.int64),
        )
        pay_keep, _, _ = exact_payoffs(all_c(), tft(), 16, PAPER_PAYOFF)
        assert float(engine.paymat[keep, reborn]) == pay_keep

    def test_fitness_well_mixed_matches_manual_sum(self):
        engine = lanes_engine()
        strategies = [all_c(), all_d(), tft(), all_c()]
        sids = engine.intern_lane(strategies)
        iu, ju = np.triu_indices(4)
        engine.fill_missing(sids[iu], sids[ju], np.zeros(len(iu), np.int64))
        lane = sids[None, :]
        fit_t, fit_l = engine.fitness_pc_well_mixed(
            lane, sids[:1], sids[1:2], include_self_play=False
        )
        expected_t = sum(
            exact_payoffs(strategies[0], s, 16, PAPER_PAYOFF)[0]
            for s in strategies
        ) - exact_payoffs(strategies[0], strategies[0], 16, PAPER_PAYOFF)[0]
        assert float(fit_t[0]) == expected_t

    def test_compact_preserves_payoffs(self):
        engine = lanes_engine(capacity=512)
        rng = make_rng(9)
        strategies = [random_pure(rng, 1) for _ in range(6)]
        sids = engine.intern_lane(strategies)
        iu, ju = np.triu_indices(len(sids))
        engine.fill_missing(sids[iu], sids[ju], np.zeros(len(iu), np.int64))
        before = {
            (i, j): float(engine.paymat[sids[i], sids[j]])
            for i in range(6)
            for j in range(6)
        }
        mapping = engine.compact()
        assert mapping is not None
        new_sids = mapping[sids]
        assert engine.capacity < 512
        for i in range(6):
            assert engine.strategy(int(new_sids[i])) == strategies[i]
            for j in range(6):
                assert (
                    float(engine.paymat[new_sids[i], new_sids[j]])
                    == before[(i, j)]
                )

    def test_compact_declines_when_occupied(self):
        engine = lanes_engine(capacity=8)
        engine.intern_lane([all_c(), all_d(), tft()])
        assert engine.compact() is None

    def test_check_consistent(self):
        engine = lanes_engine()
        strategies = [all_c(), all_d()]
        sids = engine.intern_lane(strategies)
        engine.check_consistent(sids, strategies)
        with pytest.raises(SimulationError):
            engine.check_consistent(sids, [all_d(), all_d()])


class TestSupportsSharedEngine:
    def test_deterministic_supported(self):
        assert supports_shared_engine(EvolutionConfig())

    def test_expected_regime_not_shared(self):
        assert not supports_shared_engine(
            EvolutionConfig(noise=0.1, expected_fitness=True)
        )

    def test_engine_off_not_shared(self):
        assert not supports_shared_engine(EvolutionConfig(engine=False))

    def test_non_integer_payoff_not_shared(self):
        payoff = PayoffMatrix(reward=3.5, sucker=0.0, temptation=4.5,
                              punishment=1.0)
        assert not supports_shared_engine(EvolutionConfig(payoff=payoff))


class TestRawStream:
    """The decoders must consume the Philox stream exactly like the
    Generator API — across bounds, carry parities, and call splits."""

    #: Bound with a ~1/3 Lemire rejection rate (2**32 % n is huge), so the
    #: fixup path actually runs in-test instead of at its real-world
    #: ~n/2**32 rarity.
    REJECTION_HEAVY = rawstream._REJECTION_HEAVY_N

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 10, 16, 48, 64, 100, 128, REJECTION_HEAVY]
    )
    def test_pc_decoder_matches_generator(self, n):
        for seed in (0, 1, 42):
            ref = rawstream._ScalarPCDecoder(make_rng(seed), n)
            raw = rawstream._RawPCDecoder(make_rng(seed), n)
            for m in (7, 0, 13, 31):
                assert raw.draw(m) == ref.draw(m)

    @pytest.mark.parametrize(
        "n,states",
        [(4, 4), (8, 16), (64, 16), (16, 64), (10, 16), (48, 4), (100, 64),
         (REJECTION_HEAVY, 16)],
    )
    def test_mutation_decoder_matches_generator(self, n, states):
        for seed in (0, 5):
            ref = rawstream._ScalarMutationDecoder(make_rng(seed), n, states)
            raw = rawstream._RawMutationDecoder(make_rng(seed), n, states)
            for m in (5, 0, 9, 2):
                ref_t, ref_tab = ref.draw(m)
                raw_t, raw_tab = raw.draw(m)
                assert raw_t == ref_t
                assert np.array_equal(raw_tab, ref_tab)

    @pytest.mark.parametrize(
        "spec,n",
        [
            ("ring:k=2", 9),
            ("ring:k=4", 16),
            ("grid:rows=3,cols=3", 9),
            ("regular:d=3,seed=2", 10),
            ("smallworld:k=2,p=0.5,seed=3", 17),
            ("scalefree:m=1,seed=4", 20),  # has degree-1 leaves
            ("scalefree:m=3,seed=1", 50),
        ],
    )
    def test_graph_decoder_matches_select_pair(self, spec, n):
        from repro.structure import build_structure

        structure = build_structure(spec, n)
        for seed in (0, 7, 901):
            ref = rawstream._ScalarGraphPCDecoder(make_rng(seed), structure)
            raw = rawstream._RawGraphPCDecoder(make_rng(seed), structure)
            for m in (17, 0, 9, 40):
                assert raw.draw(m) == ref.draw(m)

    def test_graph_decoder_teachers_are_neighbors(self):
        from repro.structure import build_structure

        structure = build_structure("smallworld:k=4,p=0.3,seed=1", 12)
        dec = rawstream.graph_pc_decoder(make_rng(3), structure)
        teachers, learners, uniforms = dec.draw(200)
        for t, l, u in zip(teachers, learners, uniforms):
            assert t in structure.neighbors(l).tolist()
            assert 0.0 <= u < 1.0

    def test_stream_state_advances_identically(self):
        """After decoding, the *same* generator keeps producing the serial
        stream (the commit advanced it exactly)."""
        a, b = make_rng(77), make_rng(77)
        rawstream._RawPCDecoder(a, 16).draw(9)
        rawstream._ScalarPCDecoder(b, 16).draw(9)
        assert a.random() == b.random()
        a2, b2 = make_rng(78), make_rng(78)
        rawstream._RawMutationDecoder(a2, 16, 16).draw(5)
        rawstream._ScalarMutationDecoder(b2, 16, 16).draw(5)
        assert a2.random() == b2.random()
        from repro.structure import build_structure

        structure = build_structure("scalefree:m=1,seed=4", 20)
        a3, b3 = make_rng(79), make_rng(79)
        rawstream._RawGraphPCDecoder(a3, structure).draw(25)
        rawstream._ScalarGraphPCDecoder(b3, structure).draw(25)
        assert a3.random() == b3.random()
        # Non-pow2 bound: the rejection bookkeeping must commit exactly too.
        a4, b4 = make_rng(80), make_rng(80)
        rawstream._RawPCDecoder(a4, TestRawStream.REJECTION_HEAVY).draw(40)
        rawstream._ScalarPCDecoder(b4, TestRawStream.REJECTION_HEAVY).draw(40)
        assert a4.random() == b4.random()

    def test_non_power_of_two_decodes_raw(self):
        """Lemire rejections are fixed up, so non-pow2 bounds stay on the
        raw fast path (ROADMAP item landed)."""
        assert rawstream.raw_decoding_supported(100)
        assert isinstance(
            rawstream.pc_decoder(make_rng(0), 100),
            rawstream._RawPCDecoder,
        )

    def test_out_of_range_bounds_fall_back(self):
        assert not rawstream.raw_decoding_supported(1)
        assert not rawstream.raw_decoding_supported(1 << 32)

    def test_supported_passes_self_check(self):
        assert rawstream.raw_decoding_supported(64)


class TestFitnessPCGraph:
    """The cross-lane CSR gather equals per-lane fitness_neighbors."""

    def _setup(self, spec, n, n_lanes=3, memory=1, seed=0):
        from repro.structure import build_structure

        structure = build_structure(spec, n)
        engine = EnsembleEngine(memory, rounds=20, n_lanes=n_lanes)
        rng = make_rng(seed)
        sids = np.empty((n_lanes, n), dtype=np.int64)
        for r in range(n_lanes):
            sids[r] = engine.intern_lane(
                [random_pure(rng, memory) for _ in range(n)]
            )
        return structure, engine, sids

    @pytest.mark.parametrize(
        "spec,n",
        [("ring:k=2", 9), ("smallworld:k=4,p=0.4,seed=2", 12),
         ("scalefree:m=2,seed=3", 12)],
    )
    @pytest.mark.parametrize("include_self", [False, True])
    def test_matches_per_lane_gathers(self, spec, n, include_self):
        structure, engine, sids = self._setup(spec, n)
        lanes = np.array([0, 2, 1, 2], dtype=np.int64)
        teachers = np.array([0, 3, n - 1, 0], dtype=np.int64)
        learners = np.array([1, 5, 0, n - 1], dtype=np.int64)
        fit_t, fit_l = engine.fitness_pc_graph(
            sids, lanes, teachers, learners, structure, include_self,
            ensure=True,
        )
        for i in range(len(lanes)):
            r = int(lanes[i])
            for node, got in ((int(teachers[i]), fit_t[i]),
                              (int(learners[i]), fit_l[i])):
                expected = engine.fitness_neighbors(
                    int(sids[r, node]),
                    sids[r][structure.neighbors(node)],
                    include_self,
                )
                assert got == expected

    def test_ensure_fills_exactly_what_is_read(self):
        structure, engine, sids = self._setup("ring:k=2", 9, memory=2)
        lanes = np.array([1], dtype=np.int64)
        teachers = np.array([4], dtype=np.int64)
        learners = np.array([7], dtype=np.int64)
        before = engine.fills
        fit_t, fit_l = engine.fitness_pc_graph(
            sids, lanes, teachers, learners, structure, ensure=True
        )
        assert engine.fills > before
        # A second identical query is fully served from the matrix.
        again = engine.fills
        engine.fitness_pc_graph(
            sids, lanes, teachers, learners, structure, ensure=True
        )
        assert engine.fills == again
