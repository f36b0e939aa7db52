"""Tests for the interned-strategy FitnessEngine and its StrategyPool.

Two layers of guarantees:

* unit semantics — interning, refcounts, slot recycling vs retiring,
  insertion order, the batched cycle-exact kernel;
* cross-engine equivalence — FitnessEngine fitness equals the legacy
  PayoffCache/histogram fitness (bit-for-bit) across structures x
  {deterministic, expected, sampled} regimes x memory_steps 1-3, and whole
  trajectories are identical with the engine on or off.
"""

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    FitnessEngine,
    PayoffCache,
    Population,
    StrategyPool,
    all_c,
    all_d,
    cycle_payoffs_pairs,
    exact_payoffs,
    is_integer_payoff,
    random_mixed,
    random_pure,
    run_event_driven,
    run_serial,
    tft,
    wsls,
)
from repro.core.payoff import PayoffMatrix
from repro.errors import ConfigurationError, SimulationError, StrategyError
from repro.structure import build_structure


def make_engine(config: EvolutionConfig) -> FitnessEngine:
    engine = FitnessEngine.from_config(config)
    assert engine is not None
    return engine


def legacy_cache(config: EvolutionConfig, rng=None) -> PayoffCache:
    return PayoffCache(
        rounds=config.rounds,
        payoff=config.payoff,
        noise=config.noise,
        rng=rng,
        expected=config.expected_fitness,
    )


class TestCycleKernel:
    @pytest.mark.parametrize("memory_steps", [1, 2, 3])
    @pytest.mark.parametrize("rounds", [1, 2, 7, 200, 100_000])
    def test_bit_identical_to_scalar_engine(self, memory_steps, rounds):
        rng = np.random.default_rng(5 * memory_steps + rounds)
        strategies = [random_pure(rng, memory_steps) for _ in range(12)]
        tables = np.stack([s.table for s in strategies])
        a = rng.integers(12, size=40)
        b = rng.integers(12, size=40)
        pay_a, pay_b = cycle_payoffs_pairs(tables, a, b, rounds)
        for i in range(40):
            exp_a, exp_b, _ = exact_payoffs(
                strategies[a[i]], strategies[b[i]], rounds
            )
            assert pay_a[i] == exp_a
            assert pay_b[i] == exp_b

    def test_self_pairs(self):
        strategies = [all_c(), all_d(), tft(), wsls()]
        tables = np.stack([s.table for s in strategies])
        idx = np.arange(4)
        pay_a, pay_b = cycle_payoffs_pairs(tables, idx, idx, 200)
        assert np.array_equal(pay_a, pay_b)  # self-play is symmetric
        # ALLC vs ALLC: 200 rounds of mutual cooperation.
        assert pay_a[0] == 200 * 3

    def test_rejects_mixed_tables_and_bad_shapes(self):
        tables = np.zeros((2, 4), dtype=np.float64)
        with pytest.raises(StrategyError):
            cycle_payoffs_pairs(tables, [0], [1], 10)
        tables = np.zeros((2, 4), dtype=np.uint8)
        with pytest.raises(ConfigurationError):
            cycle_payoffs_pairs(tables, [0, 1], [0], 10)
        with pytest.raises(ConfigurationError):
            cycle_payoffs_pairs(tables, [0], [1], 0)

    def test_empty_pairing(self):
        tables = np.zeros((1, 4), dtype=np.uint8)
        pay_a, pay_b = cycle_payoffs_pairs(tables, [], [], 10)
        assert pay_a.shape == (0,) and pay_b.shape == (0,)


class TestStrategyPool:
    def test_intern_release_recycle(self):
        pool = StrategyPool(1, np.dtype(np.uint8), capacity=2)
        sid_c, new_c = pool.acquire(all_c())
        assert new_c and pool.count(sid_c) == 1
        sid_c2, new_c2 = pool.acquire(all_c())
        assert sid_c2 == sid_c and not new_c2 and pool.count(sid_c) == 2
        sid_d, _ = pool.acquire(all_d())
        assert len(pool) == 2 and pool.total == 3
        assert not pool.release(sid_c)
        assert pool.release(sid_c)  # second release frees the slot
        assert all_c() not in pool
        # The freed slot is recycled for the next new strategy.
        sid_t, new_t = pool.acquire(tft())
        assert new_t and sid_t == sid_c
        assert pool.strategy(sid_t).key() == tft().key()
        assert pool.strategy(sid_d).key() == all_d().key()

    def test_retire_mode_remembers_dead_strategies(self):
        pool = StrategyPool(1, np.dtype(np.uint8), capacity=2, evict=False)
        sid_c, _ = pool.acquire(all_c())
        pool.acquire(all_d())
        assert pool.release(sid_c)
        # Retired, not forgotten: same slot on revival, appended at the
        # end of the live order like a histogram re-add.
        assert all_c() in pool
        sid_again, is_new = pool.acquire(all_c())
        assert sid_again == sid_c and not is_new
        assert list(pool.ordered_sids()) == [pool.sid_of(all_d()), sid_c]

    def test_capacity_growth_preserves_slots(self):
        pool = StrategyPool(2, np.dtype(np.uint8), capacity=2)
        rng = np.random.default_rng(0)
        strategies = [random_pure(rng, 2) for _ in range(40)]
        sids = [pool.acquire(s)[0] for s in strategies]
        assert pool.capacity >= 40
        for s, sid in zip(strategies, sids):
            assert pool.strategy(sid).key() == s.key()
            assert np.array_equal(pool.tables[sid], s.table)

    def test_order_mirrors_histogram_insertion(self):
        pool = StrategyPool(1, np.dtype(np.uint8), capacity=4)
        a, b, c = all_c(), all_d(), tft()
        sa = pool.acquire(a)[0]
        sb = pool.acquire(b)[0]
        sc = pool.acquire(c)[0]
        pool.acquire(a)
        assert list(pool.ordered_sids()) == [sa, sb, sc]
        pool.release(sb)
        assert list(pool.ordered_sids()) == [sa, sc]

    def test_errors(self):
        pool = StrategyPool(1, np.dtype(np.uint8), capacity=2)
        with pytest.raises(StrategyError):
            pool.acquire(random_pure(np.random.default_rng(0), 2))
        sid, _ = pool.acquire(all_c())
        pool.release(sid)
        with pytest.raises(SimulationError):
            pool.release(sid)
        with pytest.raises(SimulationError):
            pool.strategy(sid)


class TestFromConfig:
    def test_deterministic_supported(self):
        assert isinstance(make_engine(EvolutionConfig()), FitnessEngine)

    def test_expected_noisy_supported(self):
        engine = make_engine(
            EvolutionConfig(noise=0.02, expected_fitness=True)
        )
        assert engine.expected

    def test_pure_expected_uses_deterministic_kernel(self):
        # noise=0 + pure strategies: the legacy cache prefers the
        # cycle-exact engine even under expected_fitness, and so do we.
        engine = make_engine(EvolutionConfig(expected_fitness=True))
        assert not engine.expected

    def test_sampled_regimes_fall_back(self):
        assert FitnessEngine.from_config(EvolutionConfig(noise=0.1)) is None
        assert (
            FitnessEngine.from_config(EvolutionConfig(mixed_strategies=True))
            is None
        )

    def test_non_integer_payoff_falls_back(self):
        payoff = PayoffMatrix(reward=3.5, sucker=0.0, temptation=4.0,
                              punishment=1.0)
        assert not is_integer_payoff(payoff)
        assert FitnessEngine.from_config(EvolutionConfig(payoff=payoff)) is None
        with pytest.raises(ConfigurationError):
            FitnessEngine(memory_steps=1, rounds=10, payoff=payoff)

    def test_engine_false_falls_back(self):
        assert FitnessEngine.from_config(EvolutionConfig(engine=False)) is None

    def test_direct_construction_rejects_sampled(self):
        with pytest.raises(ConfigurationError):
            FitnessEngine(memory_steps=1, rounds=10, noise=0.1)


def population_for(config: EvolutionConfig, seed: int = 0) -> Population:
    rng = np.random.default_rng(seed)
    make = random_mixed if config.mixed_strategies else random_pure
    return Population.from_strategies(
        [make(rng, config.memory_steps) for _ in range(config.n_ssets)]
    )


STRUCTURES = ["well-mixed", "complete", "ring:k=4", "grid:rows=4,cols=5",
              "regular:d=3,seed=2"]


class TestFitnessEquivalence:
    """FitnessEngine fitness == legacy PayoffCache/histogram fitness."""

    @pytest.mark.parametrize("spec", STRUCTURES)
    @pytest.mark.parametrize("memory_steps", [1, 2, 3])
    def test_deterministic(self, spec, memory_steps):
        config = EvolutionConfig(
            n_ssets=20, memory_steps=memory_steps, rounds=64
        )
        structure = build_structure(spec, config.n_ssets)
        pop_engine = population_for(config, seed=memory_steps)
        pop_legacy = population_for(config, seed=memory_steps)
        engine = make_engine(config)
        pop_engine.bind_engine(engine)
        cache = legacy_cache(config)
        for sset_id in range(config.n_ssets):
            for self_play in (False, True):
                got = structure.fitness_of(
                    pop_engine, sset_id, engine, self_play
                )
                want = structure.fitness_of(
                    pop_legacy, sset_id, cache, self_play
                )
                assert got == want, (spec, memory_steps, sset_id, self_play)

    @pytest.mark.parametrize("spec", STRUCTURES)
    @pytest.mark.parametrize("memory_steps", [1, 2, 3])
    def test_expected(self, spec, memory_steps):
        config = EvolutionConfig(
            n_ssets=20, memory_steps=memory_steps, rounds=50,
            noise=0.02, expected_fitness=True,
        )
        structure = build_structure(spec, config.n_ssets)
        pop_engine = population_for(config, seed=memory_steps)
        pop_legacy = population_for(config, seed=memory_steps)
        engine = make_engine(config)
        pop_engine.bind_engine(engine)
        cache = legacy_cache(config)
        # Interleave queries so lazy fills and cache misses happen in the
        # same pattern on both sides (the legacy values are query-order
        # dependent in the last ulp — the engine must mirror that).
        for sset_id in range(config.n_ssets):
            for self_play in (False, True):
                got = structure.fitness_of(
                    pop_engine, sset_id, engine, self_play
                )
                want = structure.fitness_of(
                    pop_legacy, sset_id, cache, self_play
                )
                assert got == want, (spec, memory_steps, sset_id, self_play)

    @pytest.mark.parametrize("memory_steps", [1, 2])
    def test_expected_mixed(self, memory_steps):
        config = EvolutionConfig(
            n_ssets=12, memory_steps=memory_steps, rounds=40,
            mixed_strategies=True, expected_fitness=True,
        )
        structure = build_structure("ring:k=2", config.n_ssets)
        pop_engine = population_for(config, seed=7)
        pop_legacy = population_for(config, seed=7)
        engine = make_engine(config)
        pop_engine.bind_engine(engine)
        cache = legacy_cache(config)
        for sset_id in range(config.n_ssets):
            assert structure.fitness_of(
                pop_engine, sset_id, engine
            ) == structure.fitness_of(pop_legacy, sset_id, cache)

    def test_sampled_regime_is_legacy(self):
        """Sampled-stochastic fitness stays on the scalar legacy path (the
        engine declines), so equivalence is RNG-stream equality."""
        config = EvolutionConfig(n_ssets=8, rounds=16, noise=0.05)
        assert FitnessEngine.from_config(config) is None
        structure = build_structure("well-mixed", config.n_ssets)
        results = []
        for _ in range(2):
            pop = population_for(config, seed=3)
            cache = legacy_cache(config, rng=np.random.default_rng(11))
            results.append(
                [structure.fitness_of(pop, i, cache) for i in range(8)]
            )
        assert results[0] == results[1]

    def test_payoff_between_matches_cache(self):
        config = EvolutionConfig(n_ssets=4, rounds=32)
        engine = make_engine(config)
        cache = legacy_cache(config)
        strategies = [all_c(), all_d(), tft(), wsls()]
        sids = engine.intern_all(strategies)
        for i, a in enumerate(strategies):
            for j, b in enumerate(strategies):
                assert engine.payoff_between(
                    int(sids[i]), int(sids[j])
                ) == cache.payoff_to(a, b)


class TestPopulationEngineSync:
    def test_bind_and_set_strategy_keep_sids_in_sync(self):
        config = EvolutionConfig(n_ssets=10)
        population = population_for(config, seed=1)
        engine = make_engine(config)
        population.bind_engine(engine)
        population.check_invariants()
        rng = np.random.default_rng(2)
        for _ in range(200):
            sset_id = int(rng.integers(10))
            if rng.random() < 0.5:
                other = int(rng.integers(10))
                population.adopt(sset_id, population[other].strategy)
            else:
                population.mutate(sset_id, random_pure(rng, 1))
        population.check_invariants()
        assert engine.pool.total == 10

    def test_unbound_population_rejects_engine_evaluator(self):
        config = EvolutionConfig(n_ssets=6)
        population = population_for(config, seed=1)
        engine = make_engine(config)
        with pytest.raises(SimulationError):
            population.fitness_of(0, engine)
        other = population_for(config, seed=1)
        other.bind_engine(engine)
        with pytest.raises(SimulationError):
            population.fitness_of(0, engine)

    def test_unbind(self):
        config = EvolutionConfig(n_ssets=6)
        population = population_for(config, seed=1)
        population.bind_engine(make_engine(config))
        assert population.engine is not None
        population.bind_engine(None)
        assert population.engine is None
        with pytest.raises(SimulationError):
            population.sids

    @staticmethod
    def spy_kernel(monkeypatch):
        """Record the pair count of every engine kernel call."""
        import repro.core.engine as engine_module

        calls = []
        kernel = engine_module.cycle_payoffs_pairs

        def counting(tables, a_idx, b_idx, *args, **kwargs):
            calls.append(len(a_idx))
            return kernel(tables, a_idx, b_idx, *args, **kwargs)

        monkeypatch.setattr(engine_module, "cycle_payoffs_pairs", counting)
        return calls

    @staticmethod
    def assert_same_fill(bulk, single):
        assert bulk.misses == single.misses
        live = bulk.pool.ordered_sids()
        assert np.array_equal(live, single.pool.ordered_sids())
        rows, cols = np.meshgrid(live, live, indexing="ij")
        assert np.array_equal(
            bulk.paymat[rows.ravel(), cols.ravel()],
            single.paymat[rows.ravel(), cols.ravel()],
        )

    @pytest.mark.parametrize("budget_pairs", [None, 24])
    @pytest.mark.parametrize("memory_steps", [1, 2, 3])
    def test_bulk_intern_all_matches_one_at_a_time(
        self, monkeypatch, memory_steps, budget_pairs
    ):
        """A bulk fill evaluates exactly the pairs one-at-a-time interning
        fills: every live pair reads the same value, and ``misses`` counts
        the same evaluations — with strategies live beforehand, repeats,
        and pool growth past its capacity.  With a small per-call budget
        the fill splits into whole rows, grouped up to the budget (a row
        past it alone)."""
        import repro.core.engine as engine_module

        if budget_pairs is not None:
            monkeypatch.setattr(
                engine_module, "_FILL_ENTRIES", budget_pairs * 4**memory_steps
            )
        rng = np.random.default_rng(memory_steps)
        config = EvolutionConfig(memory_steps=memory_steps, n_ssets=8)
        distinct = [random_pure(rng, memory_steps) for _ in range(90)]
        earlier = distinct[:5] + distinct[:2]
        population = [distinct[int(i)] for i in rng.integers(0, 90, size=150)]
        population += earlier[:3]  # already live before the bulk call

        single = make_engine(config)
        single_sids = np.array(
            [single.intern(s) for s in earlier + population]
        )
        bulk = make_engine(config)
        calls = self.spy_kernel(monkeypatch)
        bulk_sids = np.concatenate(
            [bulk.intern_all(earlier), bulk.intern_all(population)]
        )
        if memory_steps > 1:  # memory one has only 16 pure strategies
            assert bulk.pool.capacity > 64  # the pool grew during the call
        assert np.array_equal(bulk_sids, single_sids)
        self.assert_same_fill(bulk, single)
        if budget_pairs is not None:
            assert len(calls) > 2
            # Row p of the live order holds p + 1 pairs.  The calls take
            # the rows in order: whole rows grouped within the budget, or
            # one longer row split into calls of at most the budget.
            row_sizes = iter(range(1, len(bulk.pool) + 1))
            left = 0  # pairs of a split row still to come
            for pairs in calls:
                assert pairs <= budget_pairs
                if left:
                    assert pairs == min(left, budget_pairs)
                    left -= pairs
                    continue
                total = next(row_sizes)
                if total > budget_pairs:
                    assert pairs == budget_pairs
                    left = total - pairs
                    continue
                while total < pairs:
                    total += next(row_sizes)
                assert total == pairs  # whole rows only
            assert left == 0

    def test_bulk_intern_all_is_one_kernel_call(self, monkeypatch):
        """A serve-sized start (16 SSets, memory 2) fills in one call."""
        calls = self.spy_kernel(monkeypatch)
        config = EvolutionConfig(memory_steps=2, n_ssets=16, seed=4)
        population = population_for(config, seed=4)
        engine = make_engine(config)
        population.bind_engine(engine)
        n = len(engine.pool)
        assert calls == [n * (n + 1) // 2] == [engine.misses]

    def test_bulk_fill_stays_under_the_entry_budget(self, monkeypatch):
        """A deep-memory start never hands the kernel more than
        ``_FILL_ENTRIES`` view states per call (each call's temporaries
        scale with pairs x 4**memory), and still fills what one-at-a-time
        interning does."""
        from repro.core.engine import _FILL_ENTRIES

        rng = np.random.default_rng(5)
        config = EvolutionConfig(memory_steps=5, n_ssets=72, rounds=5)
        strategies = [random_pure(rng, 5) for _ in range(72)]
        single = make_engine(config)
        for strategy in strategies:
            single.intern(strategy)
        calls = self.spy_kernel(monkeypatch)
        bulk = make_engine(config)
        bulk.intern_all(strategies)
        assert len(bulk.pool) == 72
        assert len(calls) > 1
        assert max(calls) * 4**5 <= _FILL_ENTRIES
        assert sum(calls) == 72 * 73 // 2
        self.assert_same_fill(bulk, single)

    def test_intern_all_validates(self):
        engine = make_engine(EvolutionConfig(memory_steps=2))
        with pytest.raises(StrategyError):
            engine.intern_all([all_c(1)])
        rng = np.random.default_rng(0)
        with pytest.raises(StrategyError):
            engine.intern_all([random_mixed(rng, 2)])

    def test_stats(self):
        config = EvolutionConfig(n_ssets=4)
        population = population_for(config, seed=1)
        engine = make_engine(config)
        population.bind_engine(engine)
        population.fitness_of(0, engine)
        stats = engine.stats()
        assert stats["hits"] == 1
        assert stats["misses"] > 0
        assert stats["distinct"] == len(engine.pool)


def trajectory_fingerprint(result):
    return (
        result.n_pc_events,
        result.n_adoptions,
        result.n_mutations,
        result.population.strategy_matrix().tobytes(),
        tuple(
            (e.generation, e.kind, e.source, e.target, e.applied,
             repr(e.teacher_fitness), repr(e.learner_fitness))
            for e in result.events
        ),
    )


class TestTrajectoryParity:
    """Engine-enabled runs are bit-identical to the legacy path."""

    @pytest.mark.parametrize("spec", ["well-mixed", "ring:k=4", "complete"])
    @pytest.mark.parametrize("memory_steps", [1, 2])
    def test_deterministic(self, spec, memory_steps):
        config = EvolutionConfig(
            n_ssets=24, generations=2500, seed=13,
            memory_steps=memory_steps, structure=spec,
        )
        on = run_event_driven(config)
        off = run_event_driven(config.with_updates(engine=False))
        assert trajectory_fingerprint(on) == trajectory_fingerprint(off)
        assert trajectory_fingerprint(run_serial(config)) == \
            trajectory_fingerprint(on)
        on.population.check_invariants()

    @pytest.mark.parametrize("spec", ["well-mixed", "grid:rows=4,cols=4"])
    def test_expected(self, spec):
        config = EvolutionConfig(
            n_ssets=16, generations=3000, seed=31, memory_steps=2,
            structure=spec, noise=0.02, expected_fitness=True,
        )
        on = run_event_driven(config)
        off = run_event_driven(config.with_updates(engine=False))
        assert trajectory_fingerprint(on) == trajectory_fingerprint(off)

    def test_expected_long_horizon_reappearance(self):
        """memory-1 strategies die and reappear constantly; the retired
        slots must serve the original cached payoffs (legacy semantics)."""
        config = EvolutionConfig(
            n_ssets=12, generations=6000, seed=5, memory_steps=1,
            noise=0.01, expected_fitness=True, structure="ring:k=2",
        )
        on = run_event_driven(config)
        off = run_event_driven(config.with_updates(engine=False))
        assert trajectory_fingerprint(on) == trajectory_fingerprint(off)

    def test_sampled(self):
        config = EvolutionConfig(
            n_ssets=8, generations=800, rounds=16, noise=0.05, seed=3
        )
        on = run_serial(config)
        off = run_serial(config.with_updates(engine=False))
        assert trajectory_fingerprint(on) == trajectory_fingerprint(off)

    def test_include_self_play(self):
        config = EvolutionConfig(
            n_ssets=12, generations=1500, seed=3, structure="ring:k=2",
            noise=0.01, expected_fitness=True, include_self_play=True,
        )
        on = run_serial(config)
        off = run_serial(config.with_updates(engine=False))
        assert trajectory_fingerprint(on) == trajectory_fingerprint(off)

    def test_all_fitness_matches(self):
        config = EvolutionConfig(n_ssets=16, generations=400, seed=2)
        on = run_event_driven(config)
        off = run_event_driven(config.with_updates(engine=False))
        from repro.core.evolution import _make_evaluator
        from repro.core.nature import NatureAgent
        from repro.rng import SeedSequenceTree

        ev_on = _make_evaluator(
            config, NatureAgent(config, SeedSequenceTree(0)), on.population
        )
        ev_off = _make_evaluator(
            config.with_updates(engine=False),
            NatureAgent(config, SeedSequenceTree(0)),
            off.population,
        )
        assert isinstance(ev_on, FitnessEngine)
        assert isinstance(ev_off, PayoffCache)
        assert np.array_equal(
            on.population.all_fitness(ev_on),
            off.population.all_fitness(ev_off),
        )


class TestRecordEvents:
    def test_disabled_keeps_counters_and_trajectory(self):
        config = EvolutionConfig(n_ssets=16, generations=2000, seed=5)
        full = run_event_driven(config)
        lean = run_event_driven(config.with_updates(record_events=False))
        assert lean.events == []
        assert len(full.events) > 0
        assert (full.n_pc_events, full.n_adoptions, full.n_mutations) == (
            lean.n_pc_events, lean.n_adoptions, lean.n_mutations
        )
        assert np.array_equal(
            full.population.strategy_matrix(),
            lean.population.strategy_matrix(),
        )

    def test_serial_and_baseline_honour_flag(self):
        from repro.core import run_baseline

        config = EvolutionConfig(
            n_ssets=8, generations=300, rounds=32, agents_per_sset=1,
            seed=5, record_events=False,
        )
        assert run_serial(config).events == []
        assert run_baseline(config).events == []

    def test_summary_marks_legacy_cache(self):
        assert "legacy-cache" in EvolutionConfig(engine=False).summary()
        assert "legacy-cache" not in EvolutionConfig().summary()
