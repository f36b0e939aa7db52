"""Tests for the canonical job-spec layer (fingerprints, round-trip)."""

import json
from pathlib import Path

import pytest

from repro.core import EvolutionConfig
from repro.errors import ConfigurationError
from repro.service import SPEC_FORMAT_VERSION, JobSpec, SweepClient
from repro.service.jobspec import ENSEMBLE_FROM_RUNS, default_backend


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
        assert make_spec(backend="ensemble").fingerprint() == base
        assert make_spec(workers=8).fingerprint() == base
        assert make_spec(priority="interactive").fingerprint() == base
        assert make_spec(label="tagged").fingerprint() == base

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


def replicates(n: int, **fields) -> tuple[EvolutionConfig, ...]:
    fields = {"n_ssets": 8, "generations": 100, **fields}
    return tuple(EvolutionConfig(seed=s, **fields) for s in range(n))


#: Runs from which a small job (``replicates``' shape) takes ``ensemble``.
SMALL_FROM = ENSEMBLE_FROM_RUNS[0][1]

#: A shape at each of the table's bounds (``n_ssets * 4**memory`` views).
AT_BOUND = {
    8192: {"memory_steps": 3, "n_ssets": 128},
    16384: {"memory_steps": 4, "n_ssets": 64},
    32768: {"memory_steps": 4, "n_ssets": 128},
}


#: Event-vs-ensemble timings (``benchmarks/backend_crossover.py``).
BENCH_BACKEND = Path(__file__).resolve().parents[2] / "BENCH_backend.json"


class TestDefaultBackend:
    """A spec that names no backend takes the one measured faster for its
    configs and run count, and ``ensemble`` where nothing was measured."""

    def test_event_picks_were_measured_faster(self):
        """The rule picks ``event`` only in committed cells where ``event``
        was the faster median."""
        cells = json.loads(BENCH_BACKEND.read_text())["results"]
        picked = 0
        for cell in cells:
            config = EvolutionConfig(
                memory_steps=cell["memory_steps"],
                n_ssets=cell["n_ssets"],
                generations=cell["generations"],
                structure=cell["structure"],
            )
            if default_backend([config] * cell["runs"]) == "event":
                picked += 1
                assert cell["event_median"] < cell["ensemble_median"], cell
        assert picked

    @pytest.mark.parametrize("bound,ensemble_from", ENSEMBLE_FROM_RUNS)
    def test_picks_by_views_and_run_count(self, bound, ensemble_from):
        shape = AT_BOUND[bound]
        below = replicates(ensemble_from - 1, **shape)
        assert JobSpec(configs=below[:1]).backend == "event"
        assert JobSpec(configs=below).backend == "event"
        at = replicates(ensemble_from, **shape)
        assert JobSpec(configs=at).backend == "ensemble"

    @pytest.mark.parametrize("fields", [
        {"memory_steps": 5, "n_ssets": 64},  # past the last bound
        {"memory_steps": 6, "n_ssets": 16},
        {"structure": "ring:k=2"},
        {"noise": 0.01, "expected_fitness": True},
        {"noise": 0.01, "sampled_batched": True},
    ])
    def test_unmeasured_shapes_keep_ensemble(self, fields):
        assert JobSpec(configs=replicates(1, **fields)).backend == "ensemble"

    def test_sampled_configs_take_event(self):
        """``ensemble`` refuses sampled-stochastic configs, at any count."""
        assert default_backend(replicates(SMALL_FROM, noise=0.01)) == "event"
        mixed = replicates(1, memory_steps=6) + replicates(1, noise=0.01)
        assert default_backend(mixed) == "event"

    def test_every_config_must_qualify(self):
        job = replicates(1) + replicates(1, structure="ring:k=2")
        assert default_backend(job) == "ensemble"
        # The lowest crossover among the configs decides.
        bound, ensemble_from = ENSEMBLE_FROM_RUNS[1]
        job = replicates(ensemble_from - 1)
        assert default_backend(job) == "event"
        job += replicates(1, **AT_BOUND[bound])
        assert default_backend(job) == "ensemble"

    @pytest.mark.parametrize("name", ["event", "ensemble", "serial"])
    @pytest.mark.parametrize("n", [1, SMALL_FROM])
    def test_explicit_backend_is_kept(self, name, n):
        spec = JobSpec(configs=replicates(n), backend=name)
        assert spec.backend == name

    def test_empty_name_still_refused(self):
        with pytest.raises(ConfigurationError, match="backend"):
            JobSpec(configs=replicates(1), backend="")

    def test_wire_form_names_the_pick(self):
        spec = JobSpec(configs=replicates(1))
        wire = json.loads(json.dumps(spec.to_dict()))
        assert wire["backend"] == "event"
        assert "share_engine" not in wire
        assert JobSpec.from_dict(wire) == spec
        # A journaled spec replays with the backend it names.
        wire["backend"] = "ensemble"
        assert JobSpec.from_dict(wire).backend == "ensemble"
        # A wire request without one is picked like the constructor.
        del wire["backend"]
        assert JobSpec.from_dict(wire).backend == "event"

    def test_fingerprint_ignores_the_pick(self):
        configs = replicates(2)
        prints = {
            JobSpec(configs=configs, backend=name).fingerprint()
            for name in (None, "event", "ensemble")
        }
        assert len(prints) == 1

    def test_submit_sweep_leaves_it_to_the_spec(self, monkeypatch):
        client = SweepClient("http://127.0.0.1:9")
        sent = []
        monkeypatch.setattr(
            client, "submit", lambda spec, retries=0: sent.append(spec)
        )
        config = EvolutionConfig(n_ssets=8, generations=100)
        client.submit_sweep(config, n_runs=2)
        client.submit_sweep(config, n_runs=SMALL_FROM)
        client.submit_sweep(config, n_runs=2, backend="ensemble")
        assert [s.backend for s in sent] == ["event", "ensemble", "ensemble"]
