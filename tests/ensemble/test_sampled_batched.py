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

from repro.core import EvolutionConfig
from repro.core.engine import SampledFitnessEngine
from repro.core.evolution import run_event_driven, run_serial
from repro.core.game import play_game
from repro.core.runstate import checkpoint_scope, checkpointing_supported
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
        its own plan and stream, never on who else is in the fused batch."""
        rng = make_rng(31)
        strategies = [random_pure(rng, 1) for _ in range(8)]

        def plan_for(engine):
            plan = engine.pc_plan(_population(strategies), _WELL_MIXED, 0, 3)
            return plan

        solo_a = self.make(seed=1)
        solo_b = self.make(seed=2)
        fused_a = self.make(seed=1)
        fused_b = self.make(seed=2)
        solo = [
            SampledFitnessEngine.eval_plans([(solo_a, plan_for(solo_a))])[0],
            SampledFitnessEngine.eval_plans([(solo_b, plan_for(solo_b))])[0],
        ]
        fused = SampledFitnessEngine.eval_plans(
            [(fused_a, plan_for(fused_a)), (fused_b, plan_for(fused_b))]
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
        uniforms = replay.draw_uniforms(len(others))
        # Re-play through the kernel with the same pre-drawn block.
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
