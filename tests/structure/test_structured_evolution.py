"""End-to-end structured evolution + the pinned well-mixed golden trajectory.

The golden hashes were captured from the pre-InteractionModel drivers
(before the structure refactor), so these tests prove the well-mixed path
is *bit-identical* across the refactor, not merely self-consistent.
"""

import hashlib

import pytest

from repro.api import Simulation
from repro.core import (
    EvolutionConfig,
    run_baseline,
    run_event_driven,
    run_serial,
)
from repro.errors import CheckpointError, ConfigurationError


def population_hash(result) -> str:
    return hashlib.sha256(
        result.population.strategy_matrix().tobytes()
    ).hexdigest()[:16]


def event_hash(result) -> str:
    return hashlib.sha256(
        repr(
            [
                (
                    e.generation,
                    e.kind,
                    e.source,
                    e.target,
                    e.applied,
                    round(e.teacher_fitness, 9),
                    round(e.learner_fitness, 9),
                )
                for e in result.events
            ]
        ).encode()
    ).hexdigest()[:16]


#: (seed, config overrides) -> (pc, adoptions, mutations, pop_hash, ev_hash),
#: captured from the pre-refactor run_serial at n_ssets=48 (or as overridden),
#: generations=4000.
GOLDEN = {
    (2013, ()): (422, 145, 203, "4c787012d189c522", "d7f6da0c29d7a405"),
    (7, ()): (398, 170, 196, "f3e3d14b5aff138d", "bbcae972e30599ac"),
    (99, ()): (400, 149, 206, "9398268163c2161c", "896bb9ba178116b6"),
    (2013, (("noise", 0.02), ("expected_fitness", True), ("memory_steps", 2), ("n_ssets", 32))): (
        422, 179, 203, "cd990167f0f52796", "9c45b6c13a06d49d"
    ),
    (7, (("noise", 0.02), ("expected_fitness", True), ("memory_steps", 2), ("n_ssets", 32))): (
        398, 158, 196, "5afd9385f38bc3c0", "ecf6cb8a7eca7a10"
    ),
}


class TestWellMixedGolden:
    @pytest.mark.parametrize("key", sorted(GOLDEN, key=repr))
    def test_bit_identical_to_pre_refactor(self, key):
        seed, overrides = key
        kwargs = {"n_ssets": 48, "generations": 4000, "seed": seed}
        kwargs.update(dict(overrides))
        config = EvolutionConfig(**kwargs)
        expected = GOLDEN[key]
        for driver in (run_serial, run_event_driven):
            result = driver(config)
            actual = (
                result.n_pc_events,
                result.n_adoptions,
                result.n_mutations,
                population_hash(result),
                event_hash(result),
            )
            assert actual == expected, driver.__name__

    @pytest.mark.parametrize("engine", [True, False])
    def test_engine_and_legacy_paths_both_golden(self, engine):
        """The FitnessEngine (default) and the legacy PayoffCache path
        (engine=False) must both replay the pre-refactor trajectory."""
        config = EvolutionConfig(
            n_ssets=48, generations=4000, seed=2013, engine=engine
        )
        result = run_event_driven(config)
        expected = GOLDEN[(2013, ())]
        actual = (
            result.n_pc_events,
            result.n_adoptions,
            result.n_mutations,
            population_hash(result),
            event_hash(result),
        )
        assert actual == expected

    def test_explicit_well_mixed_spec_identical(self):
        """structure="well-mixed" goes through InteractionModel.select_pair
        yet must replay the exact same trajectory as the default."""
        config = EvolutionConfig(n_ssets=24, generations=3000, seed=31)
        explicit = config.with_updates(structure="well-mixed")
        a, b = run_serial(config), run_serial(explicit)
        assert event_hash(a) == event_hash(b)
        assert population_hash(a) == population_hash(b)


STRUCTURES = [
    "ring:k=4",
    "grid:rows=6,cols=6",
    "regular:d=4,seed=1",
    "complete",
    "smallworld:k=4,p=0.1,seed=1",
    "scalefree:m=2,seed=1",
]


class TestStructuredRuns:
    @pytest.mark.parametrize("spec", STRUCTURES)
    def test_serial_event_identical(self, spec):
        config = EvolutionConfig(
            n_ssets=36, generations=2500, seed=17, structure=spec
        )
        serial = run_serial(config)
        event = run_event_driven(config)
        assert event_hash(serial) == event_hash(event)
        assert population_hash(serial) == population_hash(event)
        serial.population.check_invariants()

    @pytest.mark.parametrize("spec", STRUCTURES)
    def test_simulation_front_end(self, spec):
        config = EvolutionConfig(
            n_ssets=36, generations=1500, seed=3, structure=spec
        )
        result = Simulation(config).run()
        assert result.generations_run == 1500
        report = result.backend_report
        assert report is not None
        assert report.structure == config.canonical_structure()

    def test_structured_differs_from_well_mixed(self):
        base = EvolutionConfig(n_ssets=36, generations=2500, seed=17)
        ring = base.with_updates(structure="ring:k=4")
        assert event_hash(run_serial(base)) != event_hash(run_serial(ring))

    def test_noisy_expected_fitness_structured(self):
        config = EvolutionConfig(
            n_ssets=16,
            generations=1500,
            seed=9,
            structure="grid:rows=4,cols=4",
            noise=0.02,
            expected_fitness=True,
        )
        a, b = run_serial(config), run_event_driven(config)
        assert event_hash(a) == event_hash(b)


class TestConfigStructure:
    def test_default_is_well_mixed(self):
        config = EvolutionConfig()
        assert config.is_well_mixed
        assert config.canonical_structure() == "well-mixed"

    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            EvolutionConfig(structure="hexagon")
        with pytest.raises(ConfigurationError):
            EvolutionConfig(n_ssets=8, structure="ring:k=8")  # k >= n

    def test_canonical_fills_defaults(self):
        config = EvolutionConfig(n_ssets=36, structure="grid")
        assert config.canonical_structure() == "grid:rows=6,cols=6"
        config = EvolutionConfig(structure="regular")
        assert config.canonical_structure() == "regular:d=4,seed=0"

    def test_hand_constructed_model_accepted(self):
        """A bound InteractionModel instance works wherever a spec does."""
        from repro.structure import RingLattice

        model = RingLattice(12, k=4)
        config = EvolutionConfig(n_ssets=12, generations=500, structure=model)
        assert not config.is_well_mixed
        assert config.canonical_structure() == "ring:k=4"
        result = run_serial(config)
        assert result.generations_run == 500
        # Backends that hard-code well-mixed give the intended message,
        # not a spec-parsing crash.
        with pytest.raises(ConfigurationError, match="well-mixed"):
            run_baseline(config)
        with pytest.raises(ConfigurationError, match="well-mixed"):
            Simulation(config, backend="des").run()

    def test_summary_includes_structure(self):
        config = EvolutionConfig(n_ssets=36, structure="ring:k=4")
        assert "structure=ring:k=4" in config.summary()
        assert "structure=well-mixed" in EvolutionConfig().summary()


class TestNatureStructureGuard:
    def test_size_mismatch_rejected(self):
        from repro.core import NatureAgent
        from repro.rng import SeedSequenceTree
        from repro.structure import RingLattice

        config = EvolutionConfig(n_ssets=12)
        nature = NatureAgent(config, SeedSequenceTree(0))
        with pytest.raises(ConfigurationError):
            nature.pc_selection(12, RingLattice(10, k=2))


class TestBackendStructureGuards:
    def test_baseline_rejects_structured(self):
        config = EvolutionConfig(
            n_ssets=8, generations=10, structure="ring:k=2"
        )
        with pytest.raises(ConfigurationError):
            Simulation(config, backend="baseline").run()
        with pytest.raises(ConfigurationError):
            run_baseline(config)

    def test_des_rejects_structured(self):
        config = EvolutionConfig(
            n_ssets=8, generations=10, structure="ring:k=2"
        )
        with pytest.raises(ConfigurationError):
            Simulation(config, backend="des").run()
        # The direct framework entry point is guarded too, not just the
        # backend wrapper.
        from repro.framework import ParallelConfig, run_parallel_simulation

        with pytest.raises(ConfigurationError, match="well-mixed"):
            run_parallel_simulation(config, ParallelConfig(n_ranks=4))

    def test_supports_structures_flags(self):
        from repro.api import get_backend

        assert get_backend("event").supports_structures
        assert get_backend("serial").supports_structures
        assert not get_backend("baseline").supports_structures
        assert not get_backend("des").supports_structures

    def test_base_validate_enforces_flag(self):
        """supports_structures=False is authoritative: the base validate
        rejects structured configs even if a backend adds no guard."""
        from dataclasses import dataclass

        from repro.api import Backend

        @dataclass
        class NoStruct(Backend):
            name = "no-struct-test"
            summary = "test backend without structure support"
            supports_structures = False

            def run(self, config, population=None):  # pragma: no cover
                raise NotImplementedError

        backend = NoStruct()
        with pytest.raises(ConfigurationError, match="well-mixed"):
            backend.validate(
                EvolutionConfig(n_ssets=8, structure="ring:k=2")
            )
        backend.validate(EvolutionConfig(n_ssets=8))  # well-mixed passes


class TestStructuredCheckpoint:
    def test_roundtrip_resume(self, tmp_path):
        path = tmp_path / "ring.npz"
        config = EvolutionConfig(
            n_ssets=12, generations=1000, seed=21, structure="ring:k=4"
        )
        first = Simulation(config, checkpoint_path=path).run()
        resumed = Simulation(
            config.with_updates(seed=22), checkpoint_path=path, resume=True
        ).run()
        assert resumed.generations_run == 1000
        resumed.population.check_invariants()
        # The resumed run really started from the saved population: its
        # initial snapshot is the first leg's final state.
        import numpy as np

        assert np.array_equal(
            resumed.snapshots[0].strategy_matrix,
            first.population.strategy_matrix(),
        )

    @pytest.mark.parametrize(
        "spec",
        ["smallworld:k=4,p=0.25,seed=3", "scalefree:m=2,seed=3"],
    )
    def test_new_family_roundtrip_resume(self, spec, tmp_path):
        """parse -> spec() -> checkpoint -> resume survives for the new
        graph families (the float rewiring probability included)."""
        path = tmp_path / "graph.npz"
        config = EvolutionConfig(
            n_ssets=12, generations=600, seed=21, structure=spec
        )
        first = Simulation(config, checkpoint_path=path).run()
        assert first.backend_report.structure == config.canonical_structure()
        from repro.io.checkpoint import load_checkpoint

        _, saved = load_checkpoint(path)
        assert saved == config.canonical_structure()
        resumed = Simulation(
            config.with_updates(seed=22), checkpoint_path=path, resume=True
        ).run()
        assert resumed.generations_run == 600
        resumed.population.check_invariants()
        import numpy as np

        assert np.array_equal(
            resumed.snapshots[0].strategy_matrix,
            first.population.strategy_matrix(),
        )

    def test_structure_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ring.npz"
        config = EvolutionConfig(
            n_ssets=12, generations=200, seed=21, structure="ring:k=4"
        )
        Simulation(config, checkpoint_path=path).run()
        other = config.with_updates(structure="ring:k=2")
        with pytest.raises(CheckpointError):
            Simulation(other, checkpoint_path=path, resume=True).run()
        mixed = config.with_updates(structure="well-mixed")
        with pytest.raises(CheckpointError):
            Simulation(mixed, checkpoint_path=path, resume=True).run()
