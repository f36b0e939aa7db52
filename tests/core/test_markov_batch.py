"""Tests for the vectorised one-vs-many Markov kernel and expected-fitness mode."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EvolutionConfig,
    PayoffCache,
    StrategyHistogram,
    expected_payoffs,
    gtft,
    random_mixed,
    random_pure,
    run_event_driven,
    run_serial,
    tft,
    wsls,
)
from repro.core import PayoffMatrix, markov, stationary_cooperation_rate
from repro.core.markov import expected_payoffs_many
from repro.rng import make_rng


def _scatter_step(dist, probs):
    """The reference chain step: one ``np.add.at`` scatter per move code.

    View ``v`` moves under code ``c`` to ``((v << 2) | c) & mask``; the
    scatter adds each view's flow into its successor in view order.
    """
    n_states = probs.shape[-2]
    views = np.arange(n_states)
    nxt = np.zeros_like(dist)
    for code in range(4):
        successors = ((views << 2) | code) & (n_states - 1)
        if dist.ndim == 1:
            np.add.at(nxt, successors, dist * probs[:, code])
        else:
            rows = np.arange(dist.shape[0])[:, None]
            np.add.at(
                nxt, (rows, successors[None, :]), dist * probs[:, :, code]
            )
    return nxt


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestReshapeStepMatchesScatter:
    """The reshape-and-sum chain step is bit-equal to the scatter step."""

    @given(
        seed=st.integers(0, 10_000),
        memory=st.integers(1, 4),
        mixed=st.booleans(),
        n_opponents=st.integers(1, 39),
        rounds=st.integers(1, 249),
        payoff=st.sampled_from(
            [
                PayoffMatrix(),
                PayoffMatrix(
                    reward=3.1, sucker=0.27, temptation=5.3, punishment=1.13
                ),
            ]
        ),
        noise=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_expected_payoffs_bit_equal(
        self, seed, memory, mixed, n_opponents, rounds, payoff, noise
    ):
        rng = make_rng(seed)
        draw = random_mixed if mixed else random_pure
        focal = draw(rng, memory)
        opponents = [draw(rng, memory) for _ in range(n_opponents)]
        many = expected_payoffs_many(focal, opponents, rounds, payoff, noise)
        one = expected_payoffs(focal, opponents[0], rounds, payoff, noise)
        coop = stationary_cooperation_rate(
            focal, opponents[0], noise, max_iter=rounds
        )
        with mock.patch.object(markov, "_markov_step", _scatter_step):
            ref_many = expected_payoffs_many(
                focal, opponents, rounds, payoff, noise
            )
            ref_one = expected_payoffs(
                focal, opponents[0], rounds, payoff, noise
            )
            ref_coop = stationary_cooperation_rate(
                focal, opponents[0], noise, max_iter=rounds
            )
        assert _same_bits(many[0], ref_many[0])
        assert _same_bits(many[1], ref_many[1])
        assert _same_bits(one, ref_one)
        assert _same_bits(coop, ref_coop)


class TestBatchKernel:
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_matches_scalar_markov(self, noise):
        rng = make_rng(3)
        a = random_pure(rng, 2)
        opponents = [random_pure(rng, 2) for _ in range(7)]
        to_a, to_b = expected_payoffs_many(a, opponents, 60, noise=noise)
        for i, b in enumerate(opponents):
            ref_a, ref_b, _ = expected_payoffs(a, b, 60, noise=noise)
            assert to_a[i] == pytest.approx(ref_a)
            assert to_b[i] == pytest.approx(ref_b)

    def test_mixed_strategies(self):
        rng = make_rng(5)
        a = gtft(0.3, 1)
        opponents = [random_mixed(rng, 1) for _ in range(5)]
        to_a, _ = expected_payoffs_many(a, opponents, 40)
        for i, b in enumerate(opponents):
            ref_a, _, _ = expected_payoffs(a, b, 40)
            assert to_a[i] == pytest.approx(ref_a)

    def test_empty_opponents(self):
        to_a, to_b = expected_payoffs_many(tft(1), [], 10)
        assert to_a.shape == (0,) and to_b.shape == (0,)


class TestExpectedCache:
    def test_expected_mode_caches_noisy_pairs(self):
        cache = PayoffCache(rounds=50, noise=0.05, expected=True)
        first = cache.pair_payoffs(tft(1), wsls(1))
        second = cache.pair_payoffs(tft(1), wsls(1))
        assert first == second
        assert cache.hits == 1

    def test_payoffs_to_many_consistent_with_pairs(self):
        cache = PayoffCache(rounds=50, noise=0.02, expected=True)
        opponents = [tft(1), wsls(1), random_pure(make_rng(1), 1)]
        batch = cache.payoffs_to_many(wsls(1), opponents)
        for i, b in enumerate(opponents):
            assert batch[i] == pytest.approx(cache.payoff_to(wsls(1), b))

    def test_histogram_fitness_expected_mode(self):
        hist = StrategyHistogram.from_strategies([tft(1), tft(1), wsls(1)])
        cache = PayoffCache(rounds=50, noise=0.01, expected=True)
        fit = hist.fitness_of(wsls(1), cache)
        expected = (
            2 * expected_payoffs(wsls(1), tft(1), 50, noise=0.01)[0]
            + expected_payoffs(wsls(1), wsls(1), 50, noise=0.01)[0]
            - expected_payoffs(wsls(1), wsls(1), 50, noise=0.01)[0]
        )
        assert fit == pytest.approx(expected)


class TestExpectedFitnessEvolution:
    def test_noisy_runs_deterministic(self):
        cfg = EvolutionConfig(
            n_ssets=12, generations=2_000, rounds=32, noise=0.02,
            expected_fitness=True, seed=8,
        )
        a = run_event_driven(cfg)
        b = run_event_driven(cfg)
        assert a.events == b.events
        assert not cfg.is_stochastic  # expectation replaces sampling

    def test_serial_equals_event_driven_with_expected_fitness(self):
        cfg = EvolutionConfig(
            n_ssets=10, generations=1_500, rounds=32, noise=0.02,
            expected_fitness=True, seed=9,
        )
        assert run_serial(cfg).events == run_event_driven(cfg).events

    def test_mixed_population_evolves(self):
        cfg = EvolutionConfig(
            n_ssets=8, generations=3_000, rounds=32,
            mixed_strategies=True, expected_fitness=True, seed=10,
        )
        result = run_event_driven(cfg)
        assert result.n_mutations > 0
        matrix = result.population.strategy_matrix()
        assert matrix.dtype == np.float64
        assert ((matrix >= 0) & (matrix <= 1)).all()
