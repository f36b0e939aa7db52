"""Tests for the canonical job-spec layer (fingerprints, round-trip)."""

import json

import pytest

from repro.core import EvolutionConfig
from repro.errors import ConfigurationError
from repro.service import SPEC_FORMAT_VERSION, JobSpec


def make_spec(**overrides) -> JobSpec:
    defaults = dict(
        configs=(
            EvolutionConfig(n_ssets=8, generations=100, seed=1),
            EvolutionConfig(n_ssets=8, generations=100, seed=2),
        ),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestFingerprint:
    def test_stable(self):
        assert make_spec().fingerprint() == make_spec().fingerprint()

    def test_science_changes_it(self):
        base = make_spec().fingerprint()
        assert make_spec(
            configs=(EvolutionConfig(n_ssets=8, generations=100, seed=3),)
        ).fingerprint() != base

    def test_seed_changes_it(self):
        a = make_spec(
            configs=(EvolutionConfig(n_ssets=8, generations=100, seed=1),)
        )
        b = make_spec(
            configs=(EvolutionConfig(n_ssets=8, generations=100, seed=2),)
        )
        assert a.fingerprint() != b.fingerprint()

    def test_execution_options_do_not(self):
        # Every backend follows the bit-identical trajectory for a config —
        # execution options are explicitly outside the fingerprint.
        base = make_spec().fingerprint()
        assert make_spec(backend="event").fingerprint() == base
        assert make_spec(workers=8).fingerprint() == base
        assert make_spec(priority="interactive").fingerprint() == base
        assert make_spec(label="tagged").fingerprint() == base
        assert make_spec(share_engine=True).fingerprint() == base

    def test_config_order_matters(self):
        spec = make_spec()
        swapped = make_spec(configs=tuple(reversed(spec.configs)))
        assert spec.fingerprint() != swapped.fingerprint()

    def test_survives_wire_round_trip(self):
        spec = make_spec(backend="event", priority="interactive", label="x")
        wire = json.loads(json.dumps(spec.to_dict()))
        restored = JobSpec.from_dict(wire)
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()


class TestValidation:
    def test_empty_configs(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            JobSpec(configs=())

    def test_non_config_entries(self):
        with pytest.raises(ConfigurationError, match=r"configs\[0\]"):
            JobSpec(configs=({"n_ssets": 8},))

    def test_bad_priority(self):
        with pytest.raises(ConfigurationError, match="priority"):
            make_spec(priority="urgent")

    def test_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            make_spec(workers="four")

    def test_from_dict_unknown_field(self):
        data = make_spec().to_dict()
        data["retries"] = 3
        with pytest.raises(ConfigurationError, match="retries"):
            JobSpec.from_dict(data)

    def test_from_dict_bad_config_named(self):
        data = make_spec().to_dict()
        data["configs"][1]["generations"] = "lots"
        with pytest.raises(ConfigurationError, match=r"configs\[1\].*generations"):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        ("field", "token", "named"),
        [
            ("beta", "NaN", "beta"),
            ("beta", "Infinity", "beta"),
            ("payoff", "[3, 0, Infinity, 1]", "temptation"),
        ],
    )
    def test_from_dict_non_finite_number_named(self, field, token, named):
        # A POST /jobs body is parsed by Python's json, which accepts the
        # NaN and Infinity tokens.
        body = json.loads(
            f'{{"configs": [{{"n_ssets": 8, "{field}": {token}}}]}}'
        )
        with pytest.raises(ConfigurationError, match=rf"configs\[0\].*{named}"):
            JobSpec.from_dict(body)

    def test_from_dict_negative_seed_named(self):
        # Admitted, such a job would fail in the worker inside NumPy.
        data = make_spec().to_dict()
        data["configs"][1]["seed"] = -1
        with pytest.raises(
            ConfigurationError, match=r"configs\[1\].*seed must be >= 0"
        ):
            JobSpec.from_dict(data)

    def test_from_dict_memory_limit_named(self):
        # Admitted, such a job would fail in the worker inside NumPy.
        data = make_spec().to_dict()
        data["configs"][0]["memory_steps"] = 40
        with pytest.raises(
            ConfigurationError, match=r"configs\[0\].*memory_steps.*\[1, 6\]"
        ):
            JobSpec.from_dict(data)

    def test_from_dict_version_check(self):
        data = make_spec().to_dict()
        data["version"] = SPEC_FORMAT_VERSION + 1
        with pytest.raises(ConfigurationError, match="version"):
            JobSpec.from_dict(data)

    def test_from_dict_bad_share_engine(self):
        data = make_spec().to_dict()
        data["share_engine"] = "yes"
        with pytest.raises(ConfigurationError, match="share_engine"):
            JobSpec.from_dict(data)

    def test_summary_mentions_shape(self):
        text = make_spec(label="tag").summary()
        assert "2 run(s)" in text
        assert "tag" in text
