"""Batched sampled-stochastic fitness (``EvolutionConfig.sampled_batched``).

The opt-in batched mode's contract has three legs, each pinned here:

* **bit-reproducible per seed** — the serial drivers agree with each
  other, every ensemble lane agrees with its same-seed serial run, and a
  mid-run checkpoint resumes bit-identically (the dedicated
  ``("nature", "sampled")`` stream travels in the snapshot);
* **batch-membership independent** — fusing many plans into one kernel
  call (:meth:`SampledFitnessEngine.eval_plans`) never changes any plan's
  bits, which is the property the lane parity rests on;
* **statistically equivalent to the scalar legacy path** — deliberately
  *not* bit-identical (different stream, different draw shape), so the
  agreement is pinned with KS / CI tests on per-game payoffs and on
  evolution outcomes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EvolutionConfig
from repro.core.engine import SampledFitnessEngine, _flip_codes
from repro.core.evolution import run_event_driven, run_serial
from repro.core.game import play_game
from repro.core.runstate import (
    checkpoint_scope,
    checkpointing_supported,
    generator_state,
)
from repro.core.strategy import random_pure, tft, wsls
from repro.ensemble import lane_signature, run_ensemble
from repro.errors import ConfigurationError
from repro.rng import make_rng


def batched_configs(n=4, **overrides):
    base = dict(
        memory_steps=1, n_ssets=8, generations=600, rounds=16, noise=0.05,
        sampled_batched=True,
    )
    base.update(overrides)
    return [EvolutionConfig(seed=700 + i, **base) for i in range(n)]


def assert_identical(a, b):
    """Bitwise trajectory + outcome comparison (same shape as the
    lane-parity suite's helper)."""
    assert a.events == b.events
    assert a.n_pc_events == b.n_pc_events
    assert a.n_adoptions == b.n_adoptions
    assert a.n_mutations == b.n_mutations
    assert a.generations_run == b.generations_run
    assert np.array_equal(
        a.population.strategy_matrix(), b.population.strategy_matrix()
    )
    assert a.dominant()[1] == b.dominant()[1]
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert np.array_equal(sa.strategy_matrix, sb.strategy_matrix)


class TestEngine:
    """Kernel-level contracts of :class:`SampledFitnessEngine`."""

    def make(self, seed=9, rounds=20, noise=0.05, mixed=False):
        return SampledFitnessEngine(
            rounds=rounds, noise=noise, rng=make_rng(seed), mixed=mixed
        )

    def test_requires_stochastic_config(self):
        with pytest.raises(ConfigurationError, match="nothing to sample"):
            SampledFitnessEngine(rounds=10, noise=0.0, rng=make_rng(1))

    def test_requires_dedicated_rng(self):
        with pytest.raises(ConfigurationError, match="rng"):
            SampledFitnessEngine(rounds=10, noise=0.1)

    def test_from_config_is_opt_in(self):
        noisy = EvolutionConfig(n_ssets=8, noise=0.1)
        batched = noisy.with_updates(sampled_batched=True)
        det = EvolutionConfig(n_ssets=8)
        assert SampledFitnessEngine.from_config(noisy, make_rng(1)) is None
        assert SampledFitnessEngine.from_config(det, make_rng(1)) is None
        engine = SampledFitnessEngine.from_config(batched, make_rng(1))
        assert engine is not None and engine.noise == 0.1

    def test_fused_eval_plans_preserve_each_plans_bits(self):
        """The load-bearing property: an engine's results depend only on
        its own plan and stream, never on who else is in the fused batch —
        also when the lanes' plans hold different numbers of games, so
        every lane's flips land at an uneven column offset."""
        rng = make_rng(31)
        populations = [
            [random_pure(rng, 1) for _ in range(8)],
            [random_pure(rng, 1) for _ in range(3)] * 4,
            [tft(1)] * 5 + [wsls(1)] * 2,
            [random_pure(rng, 1) for _ in range(13)],
        ]

        def plan_for(engine, strategies):
            return engine.pc_plan(_population(strategies), _WELL_MIXED, 0, 3)

        solo = []
        sizes = []
        for seed, strategies in enumerate(populations, start=1):
            engine = self.make(seed=seed)
            plan = plan_for(engine, strategies)
            sizes.append(plan.n_games)
            solo.append(SampledFitnessEngine.eval_plans([(engine, plan)])[0])
        assert len(set(sizes)) == len(sizes)  # uneven lanes
        fused_engines = [self.make(seed=seed) for seed in (1, 2, 3, 4)]
        fused = SampledFitnessEngine.eval_plans(
            [
                (engine, plan_for(engine, strategies))
                for engine, strategies in zip(fused_engines, populations)
            ]
        )
        assert solo == fused  # bitwise: float equality intended

    def test_payoffs_to_many_matches_pair_payoffs_stream(self):
        """One batch of n games consumes the stream exactly like the
        drivers do — same draws, same per-game payoffs."""
        rng = make_rng(32)
        me = random_pure(rng, 1)
        others = [random_pure(rng, 1) for _ in range(6)]
        batched = self.make(seed=5).payoffs_to_many(me, others)
        replay = self.make(seed=5)
        # The pure draw yields flip positions; the kernel reads them as
        # flip codes.
        uniforms = _flip_codes(
            replay.rounds, [replay.draw_uniforms(len(others))], [len(others)]
        )
        # Re-play through the kernel with the same pre-drawn flips.
        from repro.core.vectorgame import play_pairs_uniforms

        tables, a_idx, b_idx = _gather_tables(me, others)
        pay_a, _ = play_pairs_uniforms(
            tables, a_idx, b_idx, replay.rounds, replay.payoff, replay.noise,
            uniforms,
        )
        assert np.array_equal(batched, pay_a)

    def test_mixed_config_routes_pure_pairs_to_det_cache(self):
        """In a mixed noiseless config, pure-vs-pure pairs carry no
        randomness: they come from the inherited cache and consume no
        stream."""
        engine = SampledFitnessEngine(
            rounds=12, noise=0.0, rng=make_rng(3), mixed=True
        )
        a, b = tft(1), wsls(1)
        first = engine.pair_payoffs(a, b)
        assert first == engine.pair_payoffs(a, b)
        assert engine.games_played == 0
        # No stream consumption: the next draw equals a fresh same-seed
        # engine's first draw.
        fresh = SampledFitnessEngine(
            rounds=12, noise=0.0, rng=make_rng(3), mixed=True
        )
        assert np.array_equal(engine.draw_uniforms(2), fresh.draw_uniforms(2))

    def test_stats_counters(self):
        engine = self.make()
        engine.payoffs_to_many(tft(1), [wsls(1), tft(1), wsls(1)])
        stats = engine.stats()
        assert stats["games_played"] == 3
        assert stats["batches"] == 1


def reference_flips(rng, rounds, n_games, noise):
    """Slow gap-by-gap statement of the pure flip draw: ``(rounds,
    n_games)`` flip codes of one event, consuming ``rng`` as the engine
    must.

    Moves run in ``(rounds, 2, n_games)`` order; a flip skips
    ``floor(log1p(-u) / log1p(-noise))`` moves for one double ``u``.
    Doubles come in chunks of the expected flip count plus three standard
    deviations plus two; a chunk that falls short of the last move is
    topped up by the next, and the doubles past the overshoot are drawn
    and discarded.
    """
    moves = rounds * 2 * n_games
    with np.errstate(divide="ignore"):
        log_keep = np.log1p(-noise)
    codes = np.zeros((rounds, n_games), dtype=np.uint8)
    at, covered = -1, 0
    while covered < moves:
        expected = (moves - covered) * noise
        chunk = int(expected + 3.0 * math.sqrt(expected)) + 2
        overshot = False
        # NumPy's log1p over the chunk, as the engine computes it (its
        # last bit may differ from math.log1p's).
        for log_u in np.log1p(-rng.random(chunk)):
            if overshot:
                continue  # drawn and discarded
            at += 1 + math.floor(log_u / log_keep)
            if at >= moves:
                overshot = True
                continue
            rnd, rest = divmod(at, 2 * n_games)
            side, game = divmod(rest, n_games)
            codes[rnd, game] |= 2 >> side
        covered = moves if overshot else at + 1
    return codes


def same_stream_position(a, b):
    return generator_state(a) == generator_state(b)


class TestFlipDraw:
    """The pure draw against its gap-by-gap statement, bit for bit."""

    @given(
        seed=st.integers(0, 10_000),
        noise=st.one_of(
            st.sampled_from([1e-6, 0.01, 0.5, 1.0]), st.floats(1e-6, 1.0)
        ),
        rounds=st.integers(1, 250),
        events=st.lists(st.integers(1, 300), min_size=1, max_size=3).filter(
            lambda sizes: sum(sizes) <= 300
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_codes_and_stream_match_reference(
        self, seed, noise, rounds, events
    ):
        # A lane's successive events, drawn from one stream and scattered
        # side by side into one fused flip-code array.
        engine = SampledFitnessEngine(
            rounds=rounds, noise=noise, rng=make_rng(seed)
        )
        flips = [engine.draw_uniforms(n) for n in events]
        codes = _flip_codes(rounds, flips, events)
        rng = make_rng(seed)
        want = np.concatenate(
            [reference_flips(rng, rounds, n, noise) for n in events], axis=1
        )
        assert np.array_equal(codes, want)
        assert same_stream_position(engine.rng, rng)

    def test_top_up(self):
        # Seed 687 puts more than 75 (= 52 + 3 * sqrt(52) + 2) flips into
        # this 200-round, 13-game event at noise 0.01, so its gaps fall
        # short and a second chunk tops them up.
        rounds, n_games, noise = 200, 13, 0.01
        first = int(52 + 3.0 * math.sqrt(52)) + 2
        engine = SampledFitnessEngine(
            rounds=rounds, noise=noise, rng=make_rng(687)
        )
        flips = engine.draw_uniforms(n_games)
        assert len(flips) >= first - 1
        one_chunk = make_rng(687)
        one_chunk.random(first)
        assert not same_stream_position(engine.rng, one_chunk)
        rng = make_rng(687)
        assert np.array_equal(
            _flip_codes(rounds, [flips], [n_games]),
            reference_flips(rng, rounds, n_games, noise),
        )
        assert same_stream_position(engine.rng, rng)

    def test_mixed_configs_keep_float_draws(self):
        engine = SampledFitnessEngine(
            rounds=7, noise=0.1, rng=make_rng(4), mixed=True
        )
        assert np.array_equal(
            engine.draw_uniforms(5), make_rng(4).random((7, 4, 5))
        )


class TestFlipStatistics:
    """The pure draw samples Bernoulli(noise) per move.

    Seeded, so the outcome is fixed; each check is a test at level
    alpha = 0.001: |z| < 3.2905 for the flip count, and chi-square below
    its 0.999 quantile (16.266 at 3 degrees of freedom, 43.820 at 19) for
    the joint codes and the gaps.
    """

    Z = 3.2905
    CHI2_3 = 16.266
    CHI2_19 = 43.820

    @staticmethod
    def chi_square(observed, probabilities):
        expected = observed.sum() * np.asarray(probabilities)
        return float(((observed - expected) ** 2 / expected).sum())

    @pytest.mark.parametrize("noise", [0.01, 0.3])
    def test_flips_are_bernoulli_per_move(self, noise):
        rounds, n_games, events = 200, 13, 400
        engine = SampledFitnessEngine(
            rounds=rounds, noise=noise, rng=make_rng(2024)
        )
        flips = [engine.draw_uniforms(n_games) for _ in range(events)]
        per_event = rounds * 2 * n_games
        moves = per_event * events
        # Per-move flip rate.
        count = sum(f.shape[0] for f in flips)
        z = (count - moves * noise) / math.sqrt(moves * noise * (1 - noise))
        assert abs(z) < self.Z
        # The four joint codes 2 * flip_a + flip_b of a (round, game).
        codes = _flip_codes(rounds, flips, [n_games] * events)
        keep = 1.0 - noise
        joint = [keep * keep, keep * noise, noise * keep, noise * noise]
        observed = np.bincount(codes.ravel(), minlength=4)
        assert self.chi_square(observed, joint) < self.CHI2_3
        # Gaps between successive flips of the whole move sequence (the
        # events laid end to end): geometric, in 20 cells of width
        # ``width``, the last one open.  A gap of k fits in the sequence
        # at moves - 1 - k places, which weights its probability.
        at = np.concatenate(
            [f + e * per_event for e, f in enumerate(flips)]
        )
        gaps = np.diff(at) - 1
        width = max(1, round(3.0 / (20 * noise)))
        cells = np.minimum(gaps // width, 19)
        k = np.arange(moves - 1)
        weight = (moves - 1 - k) * keep**k
        law = np.bincount(
            np.minimum(k // width, 19), weights=weight, minlength=20
        )
        observed = np.bincount(cells, minlength=20)
        assert self.chi_square(observed, law / law.sum()) < self.CHI2_19


class _WellMixedStub:
    is_well_mixed = True


_WELL_MIXED = _WellMixedStub()


def _population(strategies):
    from repro.core.population import Population

    return Population.from_strategies(strategies)


def _gather_tables(me, others):
    rows = [me.table]
    ids = {me.key(): 0}
    a_idx, b_idx = [], []
    for opp in others:
        row = ids.get(opp.key())
        if row is None:
            row = len(rows)
            rows.append(opp.table)
            ids[opp.key()] = row
        a_idx.append(0)
        b_idx.append(row)
    return (
        np.stack(rows),
        np.asarray(a_idx, dtype=np.intp),
        np.asarray(b_idx, dtype=np.intp),
    )


class TestSerialParity:
    """run_serial == run_event_driven, bitwise, in batched mode."""

    def check(self, **overrides):
        for config in batched_configs(n=3, **overrides):
            assert_identical(run_serial(config), run_event_driven(config))

    def test_well_mixed_noise(self):
        self.check(memory_steps=2)

    def test_ring_noise(self):
        self.check(n_ssets=13, structure="ring:k=4")

    def test_mixed_strategies(self):
        self.check(noise=0.0, mixed_strategies=True)

    def test_mixed_strategies_with_noise(self):
        self.check(noise=0.02, mixed_strategies=True)

    def test_include_self_play(self):
        self.check(include_self_play=True)


class TestEnsembleLaneParity:
    """Every batched ensemble lane == its same-seed serial event run."""

    def check(self, configs):
        for config, result in zip(configs, run_ensemble(configs)):
            assert_identical(result, run_event_driven(config))

    def test_well_mixed(self):
        self.check(batched_configs(n=5, memory_steps=2))

    def test_graph_non_power_of_two(self):
        self.check(batched_configs(n=4, n_ssets=13, structure="ring:k=4"))

    def test_mixed_strategies(self):
        self.check(batched_configs(n=4, noise=0.0, mixed_strategies=True))

    def test_include_self_play(self):
        self.check(batched_configs(n=3, include_self_play=True))

    def test_deep_memory_row_walk(self, monkeypatch):
        # Memory 5 at 16 rounds: 4**5 views > 2 * 16, so every kernel call
        # takes the prepared-row walk, which the shallower lane tests
        # (per-game tables) never reach.
        from repro.core import vectorgame

        walks: list[str] = []
        for name in ("_walk_joint", "_walk_rows"):
            real = getattr(vectorgame, name)

            def spy(*args, _name=name, _real=real):
                walks.append(_name)
                return _real(*args)

            monkeypatch.setattr(vectorgame, name, spy)
        self.check(batched_configs(n=4, memory_steps=5, generations=1500))
        assert walks and set(walks) == {"_walk_rows"}

    def test_short_batches_keep_bits(self):
        # Waves restart at every batch edge; lanes keep their trajectories.
        configs = batched_configs(n=4, memory_steps=2)
        results = run_ensemble(configs, batch_size=37)
        for config, result in zip(configs, results):
            assert_identical(result, run_event_driven(config))

    def test_heterogeneous_batch(self):
        """Batched noisy lanes grouped alongside deterministic lanes in
        one run_ensemble call; everyone keeps their serial trajectory."""
        configs = batched_configs(n=2) + [
            EvolutionConfig(
                memory_steps=1, n_ssets=8, generations=600, rounds=16, seed=3
            )
        ]
        self.check(configs)

    def test_non_batched_stochastic_still_rejected(self):
        with pytest.raises(ConfigurationError, match="sampled_batched"):
            run_ensemble(
                [EvolutionConfig(n_ssets=8, generations=100, noise=0.1)]
            )


def ks_distance(xs, ys):
    """Two-sample Kolmogorov-Smirnov statistic (no scipy dependency)."""
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / len(xs)
    cdf_y = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_critical(n, m, alpha_coeff=1.949):
    """Critical D at alpha ~ 0.001 (coefficient 1.949)."""
    return alpha_coeff * math.sqrt((n + m) / (n * m))


class TestStatisticalEquivalence:
    """Batched vs scalar legacy: same distributions, different bits."""

    def test_per_game_payoff_distribution(self):
        """KS on single-game payoffs of a fixed noisy pairing."""
        n = 1500
        rounds, noise = 30, 0.05
        a, b = tft(1), wsls(1)
        engine = SampledFitnessEngine(
            rounds=rounds, noise=noise, rng=make_rng(11)
        )
        batched = engine.payoffs_to_many(a, [b] * n)
        legacy_rng = make_rng(12)
        legacy = np.array([
            play_game(a, b, rounds=rounds, noise=noise, rng=legacy_rng).payoff_a
            for _ in range(n)
        ])
        assert ks_distance(batched, legacy) < ks_critical(n, n)
        # Same-path sanity: two independent batched samples also agree.
        other = SampledFitnessEngine(
            rounds=rounds, noise=noise, rng=make_rng(13)
        ).payoffs_to_many(a, [b] * n)
        assert ks_distance(batched, other) < ks_critical(n, n)

    def test_evolution_outcomes_agree(self):
        """CI + KS on evolution-level outcomes across replicate seeds."""
        n = 12
        base = dict(
            memory_steps=1, n_ssets=8, generations=1500, rounds=16,
            noise=0.05, record_events=False,
        )
        scalar_runs = [
            run_event_driven(EvolutionConfig(seed=60 + i, **base))
            for i in range(n)
        ]
        batched_runs = run_ensemble(
            [
                EvolutionConfig(seed=160 + i, sampled_batched=True, **base)
                for i in range(n)
            ]
        )
        for metric in (
            lambda r: r.dominant()[1],
            lambda r: r.n_adoptions / max(1, r.n_pc_events),
        ):
            xs = np.array([metric(r) for r in scalar_runs], dtype=float)
            ys = np.array([metric(r) for r in batched_runs], dtype=float)
            # Welch-style CI on the means (z ~ 4: far looser than the KS
            # bound but tight enough to catch a broken regime, e.g. the
            # noise term not applied at all).
            tolerance = 4.0 * math.sqrt(
                xs.var(ddof=1) / n + ys.var(ddof=1) / n
            ) + 1e-9
            assert abs(xs.mean() - ys.mean()) <= max(tolerance, 0.25)
            assert ks_distance(xs, ys) < ks_critical(n, n)


class MemorySink:
    """In-memory checkpoint sink (JSON round-trip, copied arrays)."""

    def __init__(self):
        self.saved = {}

    def save(self, unit, generation, meta, arrays):
        import json

        meta = json.loads(json.dumps(meta))
        arrays = {k: np.array(v) for k, v in arrays.items()}
        self.saved.setdefault(unit, []).append((generation, meta, arrays))

    def load_latest(self, unit):
        entries = self.saved.get(unit)
        if not entries:
            return None
        _, meta, arrays = entries[-1]
        return meta, arrays


class TestCheckpointResume:
    """The sampled stream travels in the snapshot and resumes bitwise."""

    CONFIG = dict(
        memory_steps=1, n_ssets=8, generations=600, rounds=16, noise=0.05,
        sampled_batched=True, checkpoint_every=200, seed=77,
    )

    def test_supported(self):
        assert checkpointing_supported(EvolutionConfig(**self.CONFIG))

    @pytest.mark.parametrize("driver", [run_serial, run_event_driven],
                             ids=["serial", "event"])
    def test_serial_drivers_resume_bitwise(self, driver):
        config = EvolutionConfig(**self.CONFIG)
        clean = driver(config)
        sink = MemorySink()
        with checkpoint_scope(sink):
            assert_identical(clean, driver(config))
        (unit,) = sink.saved
        generations = [g for g, _, _ in sink.saved[unit]]
        assert generations == [200, 400]
        # The snapshot carries the dedicated stream's state.
        _, meta, _ = sink.saved[unit][-1]
        assert meta["evaluator"]["type"] == "sampled"
        assert meta["evaluator"]["games_played"] > 0
        for index, generation in enumerate(generations):
            pinned = MemorySink()
            pinned.saved[unit] = [sink.saved[unit][index]]
            with checkpoint_scope(pinned):
                resumed = driver(config)
            assert resumed.resumed_from_generation == generation
            assert_identical(clean, resumed)

    def test_ensemble_resumes_bitwise(self):
        configs = [
            EvolutionConfig(**{**self.CONFIG, "seed": 77 + i})
            for i in range(3)
        ]
        clean = [run_event_driven(c) for c in configs]
        sink = MemorySink()
        with checkpoint_scope(sink):
            for a, b in zip(run_ensemble(configs), clean):
                assert_identical(a, b)
        (unit,) = sink.saved
        pinned = MemorySink()
        pinned.saved[unit] = sink.saved[unit][:1]
        with checkpoint_scope(pinned):
            for a, b in zip(run_ensemble(configs), clean):
                assert_identical(a, b)

    def test_four_lane_group_resumes_from_every_boundary(self):
        # 700 generations at a 300-generation cadence: two full batches
        # and a short last one, each advanced in lane waves.
        configs = [
            EvolutionConfig(
                **{
                    **self.CONFIG,
                    "memory_steps": 2,
                    "generations": 700,
                    "checkpoint_every": 300,
                    "record_every": 70,
                    "seed": 90 + i,
                }
            )
            for i in range(4)
        ]
        clean = [run_event_driven(c) for c in configs]
        sink = MemorySink()
        with checkpoint_scope(sink):
            for a, b in zip(run_ensemble(configs), clean):
                assert_identical(a, b)
        (unit,) = sink.saved
        generations = [g for g, _, _ in sink.saved[unit]]
        assert generations == [300, 600]
        for index, generation in enumerate(generations):
            pinned = MemorySink()
            pinned.saved[unit] = [sink.saved[unit][index]]
            with checkpoint_scope(pinned):
                resumed = run_ensemble(configs)
            for a, b in zip(resumed, clean):
                assert a.resumed_from_generation == generation
                assert_identical(a, b)


class TestWaveFusion:
    """A multi-lane sampled group makes one kernel call per event wave."""

    def test_one_kernel_call_per_wave(self, monkeypatch):
        import repro.core.engine as engine_module

        configs = batched_configs(n=8, memory_steps=2, generations=400)
        real = engine_module.play_pairs_uniforms
        calls: list[int] = []

        def counting(tables, a_idx, b_idx, *args, **kwargs):
            calls.append(len(a_idx))
            return real(tables, a_idx, b_idx, *args, **kwargs)

        monkeypatch.setattr(engine_module, "play_pairs_uniforms", counting)
        serial = [run_event_driven(c) for c in configs]
        serial_games = sum(calls)
        calls.clear()
        ensemble = run_ensemble(configs)
        for a, b in zip(ensemble, serial):
            assert_identical(a, b)
        # Wave w holds every lane's w-th event (each lane's events in
        # serial order, PC before mutation); it calls the kernel iff one of
        # them is a PC event.
        kinds = [[e.kind for e in result.events] for result in serial]
        pc_waves = sum(
            any(w < len(k) and k[w] == "pc" for k in kinds)
            for w in range(max(map(len, kinds)))
        )
        pc_generations = len(
            {e.generation for r in serial for e in r.events if e.kind == "pc"}
        )
        assert len(calls) == pc_waves < pc_generations
        assert sum(calls) == serial_games


class TestGolden:
    """One small pure batched run, pinned.

    The pin changes only with a sampled science-version bump
    (:func:`repro.core.runstate.science_version`): the pure noisy draw is
    part of the trajectory contract, so a change to it must bump the
    version and regenerate this pin.
    """

    CONFIG = dict(
        memory_steps=1, n_ssets=8, generations=1500, rounds=16, noise=0.05,
        sampled_batched=True, seed=2014,
    )
    COUNTERS = (153, 75, 84)  # PC events, adoptions, mutations
    FINAL = ["1101", "1111", "0101", "0101", "0110", "0101", "1111", "0110"]

    @pytest.mark.parametrize("driver", [run_event_driven, run_ensemble],
                             ids=["event", "ensemble"])
    def test_pinned_run(self, driver):
        config = EvolutionConfig(**self.CONFIG)
        result = (
            driver([config])[0] if driver is run_ensemble else driver(config)
        )
        counters = (result.n_pc_events, result.n_adoptions, result.n_mutations)
        assert counters == self.COUNTERS
        assert [s.bits() for s in result.population.strategies()] == self.FINAL


class TestConfigAndBackends:
    """Config validation / round-trip and the backend routing story."""

    def test_flag_requires_sampled_regime(self):
        with pytest.raises(ConfigurationError, match="sampled_batched"):
            EvolutionConfig(n_ssets=8, sampled_batched=True)
        with pytest.raises(ConfigurationError, match="sampled_batched"):
            EvolutionConfig(
                n_ssets=8, noise=0.1, expected_fitness=True,
                sampled_batched=True,
            )

    def test_round_trip_preserves_flag(self):
        config = EvolutionConfig(n_ssets=8, noise=0.05, sampled_batched=True)
        assert config.to_dict()["sampled_batched"] is True
        assert EvolutionConfig.from_dict(config.to_dict()) == config
        assert "sampled-batched" in config.summary()

    def test_lane_signature_differs(self):
        noisy = dict(
            memory_steps=1, n_ssets=8, generations=100, noise=0.05,
            expected_fitness=True,
        )
        a = EvolutionConfig(**noisy)
        b = EvolutionConfig(
            memory_steps=1, n_ssets=8, generations=100, noise=0.05,
            sampled_batched=True,
        )
        assert lane_signature(a) != lane_signature(b)

    def test_ensemble_backend_accepts_batched(self):
        from repro.api.backends import get_backend

        backend = get_backend("ensemble")()
        backend.validate(
            EvolutionConfig(n_ssets=8, noise=0.05, sampled_batched=True)
        )

    def test_ensemble_backend_rejection_names_the_flag(self):
        from repro.api.backends import get_backend

        backend = get_backend("ensemble")()
        with pytest.raises(ConfigurationError, match="--sampled-batched"):
            backend.validate(EvolutionConfig(n_ssets=8, noise=0.05))

    @pytest.mark.parametrize("name", ["baseline", "des"])
    def test_bit_parity_backends_point_to_the_flag(self, name):
        from repro.api.backends import get_backend

        backend = get_backend(name)()
        with pytest.raises(ConfigurationError, match="--sampled-batched"):
            backend.validate(EvolutionConfig(n_ssets=8, noise=0.05))

    def test_cli_flag_round_trips(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["evolve", "--noise", "0.05", "--sampled-batched"]
        )
        assert args.sampled_batched is True
