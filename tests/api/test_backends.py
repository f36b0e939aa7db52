"""Backend registry and cross-backend trajectory equivalence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from repro.api import (
    Backend,
    Simulation,
    available_backends,
    get_backend,
    register_backend,
)
from repro.api.backends import _REGISTRY
from repro.core import EvolutionConfig, run_serial
from repro.errors import ConfigurationError

BUILTINS = ["baseline", "des", "ensemble", "event", "serial"]


def tiny_config(**overrides) -> EvolutionConfig:
    base = dict(n_ssets=8, generations=400, rounds=16, seed=11)
    base.update(overrides)
    return EvolutionConfig(**base)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == BUILTINS

    def test_get_backend_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("nonexistent")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):

            @register_backend
            @dataclass
            class Duplicate(Backend):
                name: ClassVar[str] = "event"
                summary: ClassVar[str] = "clash"

                def run(self, config, population=None):
                    raise AssertionError

    def test_nameless_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):

            @register_backend
            @dataclass
            class Nameless(Backend):
                summary: ClassVar[str] = "no name"

                def run(self, config, population=None):
                    raise AssertionError

    def test_custom_backend_pluggable(self):
        @dataclass
        class Custom(Backend):
            name: ClassVar[str] = "custom-test-backend"
            summary: ClassVar[str] = "delegates to serial"

            def run(self, config, population=None):
                return self._report(run_serial(config, population))

        register_backend(Custom)
        try:
            cfg = tiny_config()
            result = Simulation(cfg, backend="custom-test-backend").run()
            assert result.events == run_serial(cfg).events
            assert result.backend_report.backend == "custom-test-backend"
        finally:
            del _REGISTRY["custom-test-backend"]

    def test_summaries_exist(self):
        for name in available_backends():
            assert get_backend(name).summary


class TestAllBackendsRun:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_backend_runs_and_reports(self, name):
        opts = {"des": {"n_ranks": 4}}.get(name, {})
        result = Simulation(tiny_config(), backend=name, **opts).run()
        assert result.generations_run == 400
        report = result.backend_report
        assert report is not None
        assert report.backend == name
        assert report.wallclock_seconds >= 0.0
        if name == "des":
            assert report.n_ranks == 4
            assert report.makespan_seconds > 0.0


class TestCrossBackendTrajectory:
    """Acceptance: identical trajectories across backends for any seed."""

    @pytest.mark.parametrize("seed", [11, 99, 2013])
    def test_serial_event_baseline_identical(self, seed):
        cfg = tiny_config(seed=seed)
        reference = Simulation(cfg, backend="serial").run()
        for name in ("event", "baseline"):
            other = Simulation(cfg, backend=name).run()
            assert other.events == reference.events, name
            assert np.array_equal(
                other.population.strategy_matrix(),
                reference.population.strategy_matrix(),
            ), name
            assert [s.generation for s in other.snapshots] == [
                s.generation for s in reference.snapshots
            ], name

    def test_des_same_events_and_population(self):
        cfg = tiny_config()
        reference = Simulation(cfg, backend="serial").run()
        des = Simulation(cfg, backend="des", n_ranks=4).run()
        assert des.events == reference.events
        assert np.array_equal(
            des.population.strategy_matrix(),
            reference.population.strategy_matrix(),
        )
        assert des.n_pc_events == reference.n_pc_events
        assert des.n_adoptions == reference.n_adoptions
        assert des.n_mutations == reference.n_mutations


class TestBackendValidation:
    def test_baseline_rejects_stochastic(self):
        with pytest.raises(ConfigurationError):
            Simulation(tiny_config(noise=0.1), backend="baseline").run()

    @pytest.mark.parametrize("name", ["baseline", "des"])
    def test_noisy_expected_fitness_rejected(self, name):
        """Noise+expected_fitness isn't `is_stochastic`, but these backends
        would silently drop the noise model — they must refuse it."""
        cfg = tiny_config(noise=0.01, expected_fitness=True)
        with pytest.raises(ConfigurationError, match=name):
            Simulation(cfg, backend=name).run()

    @pytest.mark.parametrize("name", ["baseline", "des"])
    def test_expected_fitness_rejected(self, name):
        cfg = tiny_config(expected_fitness=True)
        with pytest.raises(ConfigurationError, match=name):
            Simulation(cfg, backend=name).run()

    @pytest.mark.parametrize("name", ["event"])
    def test_nonpositive_batch_size_rejected(self, name):
        """batch_size <= 0 would loop forever in run_event_driven."""
        with pytest.raises(ConfigurationError, match="batch_size"):
            Simulation(tiny_config(), backend=name, batch_size=0).run()

    def test_des_rejects_record_every(self):
        with pytest.raises(ConfigurationError, match="record_every"):
            Simulation(
                tiny_config(record_every=50), backend="des", n_ranks=4
            ).run()

    @pytest.mark.parametrize("name", ["baseline", "des"])
    def test_direct_run_also_validates(self, name):
        """The guard holds for bare Backend.run(), not just Simulation."""
        cfg = tiny_config(noise=0.01, expected_fitness=True)
        with pytest.raises(ConfigurationError, match=name):
            get_backend(name)().run(cfg)

    def test_des_rejects_cost_only_parallel(self):
        from repro.framework import ParallelConfig

        with pytest.raises(ConfigurationError, match="executable"):
            Simulation(
                tiny_config(),
                backend="des",
                parallel=ParallelConfig(n_ranks=4, executable=False),
            ).run()

    def test_event_accepts_stochastic(self):
        result = Simulation(
            tiny_config(noise=0.01, expected_fitness=True), backend="event"
        ).run()
        assert result.generations_run == 400
