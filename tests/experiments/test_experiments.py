"""Tests for the experiment registry and the cheap experiment runners.

The expensive shape assertions live in ``benchmarks/``; here we pin the
registry mechanics and the fast tables.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import Scale, all_experiments, get
from repro.experiments.registry import ExperimentResult


class TestRegistry:
    def test_all_expected_ids_registered(self):
        ids = {e.experiment_id for e in all_experiments()}
        assert ids == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6a",
            "fig6b",
            "claim-mem6",
            "structures",
            "noise_memory",
        }

    def test_every_experiment_has_paper_ref(self):
        for exp in all_experiments():
            assert exp.paper_ref
            assert exp.title

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            get("fig99")

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import register

        with pytest.raises(ConfigurationError):

            @register("table1", "dup", "nowhere")
            def dup(scale):  # pragma: no cover
                raise AssertionError


class TestStaticTables:
    @pytest.mark.parametrize("eid", ["table1", "table2", "table3", "table4", "table5"])
    def test_runs_and_renders(self, eid):
        result = get(eid).run(Scale.SMOKE)
        assert isinstance(result, ExperimentResult)
        assert result.rendered
        assert result.paper_expectation
        assert str(result)  # __str__ works

    def test_table4_flags_paper_discrepancy(self):
        result = get("table4").run(Scale.SMOKE)
        assert "inconsistent" in result.rendered

    def test_table5_gray_order(self):
        result = get("table5").run(Scale.SMOKE)
        assert result.data["wsls_bits_paper_order"] == "0101"


class TestCheapModelExperiments:
    def test_claim_mem6(self):
        result = get("claim-mem6").run(Scale.SMOKE)
        assert result.data["limits"] == {"BG/P": 6, "BG/Q": 6}

    def test_table6_smoke(self):
        result = get("table6").run(Scale.SMOKE)
        eff = result.data["efficiency_by_ratio"]
        assert eff[0.5] < eff[1.0] < eff[2.0]

    def test_fig5_smoke(self):
        result = get("fig5").run(Scale.SMOKE)
        assert set(result.data["compute"]) == {1, 2, 3, 4, 5, 6}
        assert result.data["measured"] == {}

    def test_fig5_full_times_each_memory(self, monkeypatch):
        # FULL times a real run of every memory beside the model's bar;
        # here on 8 SSets for 2 generations (the paper's shape takes
        # seconds to minutes a memory), and without the DES replay.
        from types import SimpleNamespace

        from repro.experiments import memory_steps

        run = memory_steps.run_event_driven
        ran = []

        def small_run(config):
            ran.append(config.memory_steps)
            return run(config.with_updates(n_ssets=8, generations=2))

        monkeypatch.setattr(memory_steps, "run_event_driven", small_run)
        monkeypatch.setattr(
            memory_steps,
            "run_parallel_simulation",
            lambda config, parallel: SimpleNamespace(makespan=1.0),
        )
        result = get("fig5").run(Scale.FULL)
        assert ran == [1, 2, 3, 4, 5, 6]
        measured = result.data["measured"]
        assert set(measured) == {1, 2, 3, 4, 5, 6}
        assert all(seconds > 0 for seconds in measured.values())
        assert "measured run (s)" in result.rendered

    def test_fig6a_smoke(self):
        result = get("fig6a").run(Scale.SMOKE)
        assert set(result.data["curves"]) == {"BG/P", "BG/Q"}

    def test_fig6b_smoke(self):
        result = get("fig6b").run(Scale.SMOKE)
        assert len(result.data["efficiencies"]) == 5


class TestValidationConfig:
    def test_scales(self):
        from repro.experiments.validation import validation_config

        smoke = validation_config(Scale.SMOKE)
        full = validation_config(Scale.FULL)
        assert full.n_ssets == 5_000
        assert full.generations == 10_000_000
        assert smoke.generations < full.generations
        # Both use the paper's rates and errors-on expected fitness.
        for cfg in (smoke, full):
            assert cfg.pc_rate == 0.10
            assert cfg.mutation_rate == 0.05
            assert cfg.expected_fitness


class TestDefaultBackendRouting:
    def test_run_evolution_uses_default_backend(self):
        from repro.core import EvolutionConfig, run_serial
        from repro.experiments import (
            get_default_backend,
            run_evolution,
            set_default_backend,
        )

        cfg = EvolutionConfig(n_ssets=8, generations=300, rounds=16, seed=9)
        assert get_default_backend() == "event"
        set_default_backend("serial")
        try:
            result = run_evolution(cfg)
            assert result.backend_report.backend == "serial"
            assert result.events == run_serial(cfg).events
        finally:
            set_default_backend("event")

    def test_unknown_backend_rejected_eagerly(self):
        from repro.experiments import get_default_backend, set_default_backend

        with pytest.raises(ConfigurationError):
            set_default_backend("warp-drive")
        assert get_default_backend() == "event"
