"""Tests for SSets, the strategy histogram, and the population container."""

import numpy as np
import pytest

from repro.core import (
    EvolutionConfig,
    PayoffCache,
    Population,
    SSet,
    StrategyHistogram,
    all_c,
    all_d,
    play_game,
    random_mixed,
    random_pure,
    tft,
    wsls,
)
from repro.core.runstate import generator_state
from repro.errors import ConfigurationError
from repro.rng import make_rng


class TestSSet:
    def test_adopt_and_mutate_count(self):
        """Counters update through the Population write path (the SSet
        record itself exposes no strategy-writing methods)."""
        pop = Population.from_strategies([tft(1), wsls(1)])
        pop.adopt(0, wsls(1))
        pop.mutate(0, all_d(1))
        assert pop[0].adoptions == 1
        assert pop[0].mutations == 1
        assert pop[0].strategy == all_d(1)

    def test_no_direct_strategy_write_methods(self):
        s = SSet(0, tft(1))
        assert not hasattr(s, "adopt") and not hasattr(s, "mutate")

    def test_games_per_agent_ceiling(self):
        s = SSet(0, tft(1), n_agents=4)
        assert s.games_per_agent(10) == 3  # ceil(10/4)

    def test_invalid_agents(self):
        with pytest.raises(ConfigurationError):
            SSet(0, tft(1), n_agents=0)


class TestHistogram:
    def test_counts_and_distinct(self):
        h = StrategyHistogram.from_strategies([tft(1), tft(1), wsls(1)])
        assert h.total == 3
        assert h.distinct == 2
        assert h.counts[tft(1).key()] == 2

    def test_replace_keeps_total(self):
        h = StrategyHistogram.from_strategies([tft(1), wsls(1)])
        h.replace(tft(1), all_d(1))
        assert h.total == 2
        assert tft(1).key() not in h.counts

    def test_remove_missing_raises(self):
        h = StrategyHistogram.from_strategies([tft(1)])
        with pytest.raises(KeyError):
            h.remove(all_c(1))

    def test_most_common_ordering(self):
        h = StrategyHistogram.from_strategies([tft(1), tft(1), wsls(1)])
        top = h.most_common()
        assert top[0][0] == tft(1) and top[0][1] == 2

    def test_fitness_matches_direct_sum(self):
        strategies = [tft(1), wsls(1), all_d(1), all_d(1)]
        h = StrategyHistogram.from_strategies(strategies)
        cache = PayoffCache(rounds=50)
        fit = h.fitness_of(tft(1), cache, include_self_play=False)
        expected = sum(
            play_game(tft(1), s, 50).payoff_a for s in strategies
        ) - play_game(tft(1), tft(1), 50).payoff_a
        assert fit == expected

    def test_fitness_with_self_play(self):
        strategies = [tft(1), all_d(1)]
        h = StrategyHistogram.from_strategies(strategies)
        cache = PayoffCache(rounds=50)
        with_self = h.fitness_of(tft(1), cache, include_self_play=True)
        without = h.fitness_of(tft(1), cache, include_self_play=False)
        assert with_self - without == play_game(tft(1), tft(1), 50).payoff_a


class TestPayoffCache:
    def test_cache_hit_counting(self):
        cache = PayoffCache(rounds=20)
        cache.pair_payoffs(tft(1), all_d(1))
        assert cache.misses == 1
        cache.pair_payoffs(tft(1), all_d(1))
        cache.pair_payoffs(all_d(1), tft(1))  # symmetric entry pre-filled
        assert cache.hits == 2
        assert len(cache) == 2

    def test_cache_matches_play_game(self):
        rng = make_rng(1)
        for _ in range(10):
            a, b = random_pure(rng, 2), random_pure(rng, 2)
            cache = PayoffCache(rounds=33)
            assert cache.pair_payoffs(a, b) == (
                play_game(a, b, 33).payoff_a,
                play_game(a, b, 33).payoff_b,
            )

    def test_stochastic_games_not_cached(self):
        cache = PayoffCache(rounds=20, noise=0.2, rng=make_rng(0))
        cache.pair_payoffs(tft(1), tft(1))
        cache.pair_payoffs(tft(1), tft(1))
        assert len(cache) == 0

    def test_clear(self):
        cache = PayoffCache(rounds=10)
        cache.pair_payoffs(tft(1), wsls(1))
        cache.clear()
        assert len(cache) == 0


class TestPopulation:
    def test_random_population_shape(self):
        cfg = EvolutionConfig(n_ssets=10, memory_steps=2, agents_per_sset=3)
        pop = Population.random(cfg, make_rng(0))
        assert len(pop) == 10
        assert pop.memory_steps == 2
        assert pop.n_agents == 30
        assert pop.strategy_matrix().shape == (10, 16)

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    @pytest.mark.parametrize("memory", [1, 2, 3, 5])
    def test_random_population_is_one_draw_per_sset(self, memory, mixed):
        # One bulk draw, bit for bit the per-SSet random_pure/random_mixed
        # draws, and the stream ends at the same position; a half-word
        # left buffered by an earlier integer draw changes nothing.
        cfg = EvolutionConfig(
            n_ssets=7, memory_steps=memory, mixed_strategies=mixed,
        )
        rng, reference = make_rng(3), make_rng(3)
        rng.integers(5)
        reference.integers(5)
        pop = Population.random(cfg, rng)
        make = random_mixed if mixed else random_pure
        want = np.stack([make(reference, memory).table for _ in range(7)])
        assert np.array_equal(pop.strategy_matrix(), want)
        assert pop.strategy_matrix().dtype == want.dtype
        assert generator_state(rng) == generator_state(reference)

    def test_reassign_rebuilds_histogram_in_order(self):
        pop = Population.from_strategies([tft(1), wsls(1), all_d(1)])
        pop.reassign([all_c(1), tft(1), all_c(1)], order=[1, 2, 0])
        assert [s.strategy.key() for s in pop.ssets] == [
            all_c(1).key(), tft(1).key(), all_c(1).key()
        ]
        assert list(pop.histogram.counts.items()) == [
            (tft(1).key(), 1), (all_c(1).key(), 2)
        ]
        pop.check_invariants()

    def test_ids_must_be_ordered(self):
        with pytest.raises(ConfigurationError):
            Population([SSet(1, tft(1))])

    def test_mixed_memories_rejected(self):
        with pytest.raises(ConfigurationError):
            Population([SSet(0, tft(1)), SSet(1, tft(2))])

    def test_adopt_updates_histogram(self):
        pop = Population.from_strategies([tft(1), wsls(1), all_d(1)])
        pop.adopt(0, wsls(1))
        assert pop.histogram.counts[wsls(1).key()] == 2
        assert tft(1).key() not in pop.histogram.counts
        assert pop[0].adoptions == 1

    def test_mutate_updates_histogram(self):
        pop = Population.from_strategies([tft(1), wsls(1)])
        pop.mutate(1, all_c(1))
        assert pop.share_of(all_c(1)) == 0.5

    def test_dominant_share(self):
        pop = Population.from_strategies([tft(1), tft(1), wsls(1)])
        strategy, share = pop.dominant_share()
        assert strategy == tft(1)
        assert share == pytest.approx(2 / 3)

    def test_uniform_population(self):
        pop = Population.uniform(wsls(1), 5, agents_per_sset=2)
        assert pop.share_of(wsls(1)) == 1.0
        assert pop.n_agents == 10

    def test_all_fitness_consistent_with_single(self):
        pop = Population.from_strategies([tft(1), wsls(1), all_d(1), all_d(1)])
        cache = PayoffCache(rounds=25)
        vec = pop.all_fitness(cache)
        for i in range(4):
            assert vec[i] == pop.fitness_of(i, cache)
        # Identical strategies share identical fitness.
        assert vec[2] == vec[3]
        # SSet records were updated.
        assert pop[0].fitness == vec[0]


class TestSetStrategyAndInvariants:
    def test_set_strategy_keeps_histogram_in_sync(self):
        pop = Population.from_strategies([tft(1), wsls(1), all_d(1)])
        pop.set_strategy(0, all_d(1))
        assert pop.share_of(all_d(1)) == pytest.approx(2 / 3)
        assert tft(1).key() not in pop.histogram.counts
        # set_strategy is the raw write path: no adoption/mutation counters.
        assert pop[0].adoptions == 0 and pop[0].mutations == 0
        pop.check_invariants()

    def test_adopt_and_mutate_route_through_set_strategy(self):
        pop = Population.from_strategies([tft(1), wsls(1)])
        pop.adopt(0, wsls(1))
        pop.mutate(1, all_c(1))
        assert pop[0].adoptions == 1
        assert pop[1].mutations == 1
        pop.check_invariants()

    def test_check_invariants_detects_bypassing_write(self):
        from repro.errors import SimulationError

        pop = Population.from_strategies([tft(1), wsls(1), all_d(1)])
        pop.check_invariants()
        # Write around the choke point: the histogram goes stale.
        pop.ssets[0].strategy = all_c(1)
        with pytest.raises(SimulationError):
            pop.check_invariants()

    def test_check_invariants_detects_desynced_counts(self):
        from repro.errors import SimulationError

        pop = Population.from_strategies([tft(1), tft(1), wsls(1)])
        pop.histogram.remove(tft(1))
        with pytest.raises(SimulationError):
            pop.check_invariants()

    def test_long_run_population_passes_invariants(self):
        from repro.core import EvolutionConfig, run_event_driven

        result = run_event_driven(
            EvolutionConfig(n_ssets=12, generations=3000, rounds=16, seed=3)
        )
        result.population.check_invariants()
