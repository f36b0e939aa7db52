"""run_sweep: pool/serial parity, seed derivation, callbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Simulation, derive_sweep_seeds, run_sweep
from repro.core import EvolutionConfig
from repro.errors import ConfigurationError


def sweep_configs(n: int = 8) -> list[EvolutionConfig]:
    return [
        EvolutionConfig(n_ssets=8, generations=300, rounds=16, seed=100 + i)
        for i in range(n)
    ]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_sweep_seeds(7, 5) == derive_sweep_seeds(7, 5)

    def test_distinct_per_index_and_base(self):
        seeds = derive_sweep_seeds(7, 8)
        assert len(set(seeds)) == 8
        assert set(seeds).isdisjoint(derive_sweep_seeds(8, 8))

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_sweep_seeds(7, -1)


class TestRunSweep:
    def test_pool_matches_serial_loop(self):
        """Acceptance: 8 configs, workers=4 == the serial loop, and every
        run's evaluation counters are an isolated run's."""
        configs = sweep_configs(8)
        serial = run_sweep(configs, workers=None)
        pooled = run_sweep(configs, workers=4)
        isolated = [Simulation(c).run() for c in configs]
        assert len(serial) == len(pooled) == 8
        for a, b, c in zip(serial, pooled, isolated):
            assert a.config == b.config
            assert a.events == b.events
            assert np.array_equal(
                a.population.strategy_matrix(), b.population.strategy_matrix()
            )
            for swept in (a, b):
                assert swept.cache_hits == c.cache_hits
                assert swept.cache_misses == c.cache_misses

    def test_base_seed_overrides_config_seeds(self):
        configs = [sweep_configs(1)[0]] * 4  # identical configs
        results = run_sweep(configs, base_seed=42)
        seeds = [r.config.seed for r in results]
        assert len(set(seeds)) == 4
        again = run_sweep(configs, base_seed=42)
        assert [r.config.seed for r in again] == seeds

    def test_results_in_config_order(self):
        configs = sweep_configs(4)
        results = run_sweep(configs, workers=2)
        assert [r.config.seed for r in results] == [c.seed for c in configs]

    def test_on_result_callback_order(self):
        calls: list[int] = []
        results = run_sweep(
            sweep_configs(4),
            workers=2,
            on_result=lambda i, r: calls.append(i),
        )
        assert calls == [0, 1, 2, 3]
        assert len(results) == 4

    def test_backend_report_attached(self):
        (result,) = run_sweep(sweep_configs(1))
        assert result.backend_report is not None
        assert result.backend_report.backend == "event"

    def test_backend_opts_forwarded(self):
        (result,) = run_sweep(sweep_configs(1), backend="event", batch_size=64)
        assert result.backend_report.options == {"batch_size": 64}

    def test_instance_plus_opts_rejected(self):
        from repro.api import EventBackend

        with pytest.raises(ConfigurationError, match="backend_opts"):
            run_sweep(sweep_configs(1), backend=EventBackend(), batch_size=4)

    def test_empty_sweep(self):
        assert run_sweep([]) == []


class TestDedupe:
    def test_duplicates_share_one_result_object(self):
        a, b = sweep_configs(2)
        results = run_sweep([a, b, a])
        assert results[0] is results[2]
        assert results[0] is not results[1]

    def test_on_result_fires_per_position_in_order(self):
        a, b = sweep_configs(2)
        calls: list[int] = []
        results = run_sweep(
            [a, b, a, b], on_result=lambda i, r: calls.append(i)
        )
        assert calls == [0, 1, 2, 3]
        assert results[1] is results[3]

    def test_escape_hatch_runs_independently(self):
        a, _ = sweep_configs(2)
        results = run_sweep([a, a], dedupe=False)
        assert results[0] is not results[1]
        # Still bit-identical trajectories — dedupe only changed identity.
        assert results[0].events == results[1].events
        assert np.array_equal(
            results[0].population.strategy_matrix(),
            results[1].population.strategy_matrix(),
        )

    def test_dedupe_matches_independent_execution(self):
        a, b = sweep_configs(2)
        deduped = run_sweep([a, b, a])
        independent = run_sweep([a, b, a], dedupe=False)
        for x, y in zip(deduped, independent):
            assert x.events == y.events
            assert np.array_equal(
                x.population.strategy_matrix(),
                y.population.strategy_matrix(),
            )

    def test_ensemble_fast_path_dedupes(self):
        a, b = sweep_configs(2)
        results = run_sweep([a, a, b], backend="ensemble")
        assert results[0] is results[1]
        assert results[0] is not results[2]

    def test_structure_instance_and_spec_collide(self):
        from repro.structure import build_structure

        spec_config = EvolutionConfig(
            n_ssets=8, generations=200, rounds=16, structure="ring:k=2",
            seed=42,
        )
        instance_config = spec_config.with_updates(
            structure=build_structure("ring:k=2", 8)
        )
        results = run_sweep([spec_config, instance_config])
        assert results[0] is results[1]

    def test_base_seed_defeats_duplicates(self):
        a, _ = sweep_configs(2)
        results = run_sweep([a, a], base_seed=9)
        assert results[0] is not results[1]
        assert results[0].config.seed != results[1].config.seed
