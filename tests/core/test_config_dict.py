"""Tests for EvolutionConfig.to_dict / from_dict round-tripping."""

import json

import numpy as np
import pytest

from repro.core import EvolutionConfig, PayoffMatrix
from repro.core.states import MAX_MEMORY_STEPS
from repro.errors import ConfigurationError
from repro.structure import build_structure


class TestRoundTrip:
    def test_default_config(self):
        config = EvolutionConfig()
        assert EvolutionConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = EvolutionConfig(
            memory_steps=2,
            n_ssets=32,
            generations=5_000,
            rounds=100,
            pc_rate=0.2,
            mutation_rate=0.01,
            noise=0.05,
            expected_fitness=True,
            seed=424242,
        )
        wire = json.loads(json.dumps(config.to_dict()))
        assert EvolutionConfig.from_dict(wire) == config

    def test_structure_spec_round_trip(self):
        config = EvolutionConfig(structure="ring:k=4", n_ssets=16)
        restored = EvolutionConfig.from_dict(config.to_dict())
        assert restored.structure == config.canonical_structure()
        assert restored == config.with_updates(
            structure=config.canonical_structure()
        )

    def test_graph_structure_spec_round_trip(self):
        for spec in ("grid:rows=4,cols=4", "smallworld:k=4,p=0.1,seed=7"):
            config = EvolutionConfig(structure=spec, n_ssets=16)
            restored = EvolutionConfig.from_dict(config.to_dict())
            # Same adjacency: build both and compare canonical forms.
            assert restored.canonical_structure() == config.canonical_structure()

    def test_custom_payoff_round_trip(self):
        payoff = PayoffMatrix(
            reward=4.0, sucker=0.5, temptation=5.5, punishment=1.5
        )
        config = EvolutionConfig(payoff=payoff)
        restored = EvolutionConfig.from_dict(config.to_dict())
        assert restored.payoff == payoff

    def test_to_dict_is_json_compatible(self):
        data = EvolutionConfig(structure="grid").to_dict()
        json.dumps(data)  # must not raise
        assert all(isinstance(k, str) for k in data)

    def test_payoff_as_list(self):
        data = EvolutionConfig().to_dict()
        data["payoff"] = [3.0, 0.0, 5.0, 1.0]
        config = EvolutionConfig.from_dict(data)
        assert config.payoff.reward == 3.0
        assert config.payoff.punishment == 1.0


class TestValidation:
    def test_unknown_field_named(self):
        data = EvolutionConfig().to_dict()
        data["typo_field"] = 1
        with pytest.raises(ConfigurationError, match="typo_field"):
            EvolutionConfig.from_dict(data)

    def test_bad_int_named(self):
        data = EvolutionConfig().to_dict()
        data["generations"] = "many"
        with pytest.raises(ConfigurationError, match="generations"):
            EvolutionConfig.from_dict(data)

    def test_bool_rejected_for_int_field(self):
        data = EvolutionConfig().to_dict()
        data["n_ssets"] = True
        with pytest.raises(ConfigurationError, match="n_ssets"):
            EvolutionConfig.from_dict(data)

    def test_bad_float_named(self):
        data = EvolutionConfig().to_dict()
        data["pc_rate"] = "fast"
        with pytest.raises(ConfigurationError, match="pc_rate"):
            EvolutionConfig.from_dict(data)

    def test_bad_bool_named(self):
        data = EvolutionConfig().to_dict()
        data["expected_fitness"] = "yes"
        with pytest.raises(ConfigurationError, match="expected_fitness"):
            EvolutionConfig.from_dict(data)

    def test_bad_payoff_key_named(self):
        data = EvolutionConfig().to_dict()
        data["payoff"] = {"reward": 3.0, "bogus": 1.0}
        with pytest.raises(ConfigurationError, match="bogus"):
            EvolutionConfig.from_dict(data)

    def test_structure_instance_rejected(self):
        data = EvolutionConfig().to_dict()
        data["structure"] = build_structure("well-mixed", 8)
        with pytest.raises(ConfigurationError, match="structure"):
            EvolutionConfig.from_dict(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            EvolutionConfig.from_dict([1, 2, 3])

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            EvolutionConfig(beta=beta)
        data = EvolutionConfig().to_dict()
        data["beta"] = beta
        with pytest.raises(ConfigurationError, match="beta"):
            EvolutionConfig.from_dict(data)

    def test_nan_beta_from_json_rejected(self):
        # Python's json module accepts the bare NaN token.
        data = json.loads('{"beta": NaN}')
        with pytest.raises(ConfigurationError, match="beta"):
            EvolutionConfig.from_dict(data)

    def test_non_finite_payoff_list_entry_named(self):
        data = EvolutionConfig().to_dict()
        data["payoff"] = [3.0, 0.0, float("inf"), 1.0]
        with pytest.raises(ConfigurationError, match="temptation"):
            EvolutionConfig.from_dict(data)

    def test_non_finite_payoff_mapping_entry_named(self):
        data = EvolutionConfig().to_dict()
        data["payoff"] = json.loads(
            '{"reward": 3, "sucker": NaN, "temptation": 4, "punishment": 1,'
            ' "require_dilemma": false}'
        )
        with pytest.raises(ConfigurationError, match="sucker"):
            EvolutionConfig.from_dict(data)

    def test_semantic_validation_still_applies(self):
        data = EvolutionConfig().to_dict()
        data["n_ssets"] = -4
        with pytest.raises(ConfigurationError):
            EvolutionConfig.from_dict(data)

    @pytest.mark.parametrize("seed", [-1, -(2**63)])
    def test_negative_seed_rejected_naming_seed(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            EvolutionConfig(seed=seed)
        data = EvolutionConfig().to_dict()
        data["seed"] = seed
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            EvolutionConfig.from_dict(data)

    def test_zero_seed_accepted(self):
        assert EvolutionConfig(seed=0).seed == 0

    @pytest.mark.parametrize("n_ssets", [0, 1, -4])
    def test_too_few_ssets_names_n_ssets(self, n_ssets):
        with pytest.raises(ConfigurationError, match="n_ssets must be >= 2"):
            EvolutionConfig(n_ssets=n_ssets)


#: Every integer field of EvolutionConfig, with a valid value for it.
INT_FIELDS = {
    "memory_steps": 2,
    "n_ssets": 8,
    "generations": 10,
    "agents_per_sset": 2,
    "rounds": 16,
    "seed": 3,
    "record_every": 5,
    "engine_pool_cap": 4,
    "checkpoint_every": 5,
}


class TestConstructorIntegers:
    """The constructor rejects non-integers in integer fields, naming
    the field, exactly as ``from_dict`` does."""

    def test_covers_every_integer_field(self):
        from repro.core.config import _INT_FIELDS

        assert set(INT_FIELDS) == _INT_FIELDS

    @pytest.mark.parametrize("name", sorted(INT_FIELDS))
    @pytest.mark.parametrize("kind", ["float", "integral-float", "str", "bool"])
    def test_non_integer_rejected_naming_field(self, name, kind):
        good = INT_FIELDS[name]
        bad = {
            "float": good + 0.5,
            "integral-float": float(good),
            "str": str(good),
            "bool": True,
        }[kind]
        with pytest.raises(ConfigurationError, match=rf"field '{name}'"):
            EvolutionConfig(**{name: bad})

    @pytest.mark.parametrize("name", sorted(INT_FIELDS))
    def test_numpy_integer_stored_as_int(self, name):
        config = EvolutionConfig(**{name: np.int64(INT_FIELDS[name])})
        value = getattr(config, name)
        assert type(value) is int and value == INT_FIELDS[name]
        assert config == EvolutionConfig(**{name: INT_FIELDS[name]})


class TestMemoryLimit:
    """``memory_steps`` above MAX_MEMORY_STEPS fails at the boundary."""

    def test_limit_accepted(self):
        assert EvolutionConfig(memory_steps=MAX_MEMORY_STEPS).memory_steps == 6

    @pytest.mark.parametrize("memory", [MAX_MEMORY_STEPS + 1, 40])
    def test_constructor_rejects(self, memory):
        with pytest.raises(ConfigurationError, match=r"memory_steps.*\[1, 6\]"):
            EvolutionConfig(memory_steps=memory)

    def test_from_dict_rejects(self):
        data = EvolutionConfig().to_dict()
        data["memory_steps"] = 40
        with pytest.raises(ConfigurationError, match="memory_steps"):
            EvolutionConfig.from_dict(data)
