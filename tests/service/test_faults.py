"""Tests for the deterministic fault-injection harness (repro.faults)."""

from __future__ import annotations

import json

import pytest

from repro import faults
from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.errors import (
    ConfigurationError,
    FaultInjected,
    JobCancelledError,
    TransientError,
)


def plan_for(*fault_dicts, seed: int = 0) -> faults.FaultPlan:
    return faults.FaultPlan.from_dict(
        {"seed": seed, "faults": list(fault_dicts)}
    )


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="site"):
            faults.FaultSpec("")
        with pytest.raises(ConfigurationError, match="action"):
            faults.FaultSpec("x", "explode")
        with pytest.raises(ConfigurationError, match="mode"):
            faults.FaultSpec("x", "corrupt", mode="shred")
        with pytest.raises(ConfigurationError, match="exception"):
            faults.FaultSpec("x", exception="NoSuchError")
        with pytest.raises(ConfigurationError, match="times"):
            faults.FaultSpec("x", times=0)
        with pytest.raises(ConfigurationError, match="after"):
            faults.FaultSpec("x", after=-1)
        with pytest.raises(ConfigurationError, match="unknown"):
            faults.FaultSpec.from_dict({"site": "x", "bogus": 1})

    def test_dict_roundtrip(self):
        spec = faults.FaultSpec(
            "service.execute",
            exception="TransientError",
            after=2,
            times=3,
            match={"attempt": 1},
        )
        clone = faults.FaultSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()


class TestTriggering:
    def test_disarmed_is_noop(self):
        faults.check("anything.at.all", attempt=1)  # must not raise
        assert faults.hook("anything.at.all") is None
        assert faults.active() is None

    def test_triggers_on_nth_hit(self):
        plan = plan_for(
            {"site": "s", "exception": "FaultInjected", "after": 2}
        )
        with faults.armed(plan):
            faults.check("s")
            faults.check("s")
            with pytest.raises(FaultInjected, match="injected fault"):
                faults.check("s")
            faults.check("s")  # times=1: the window is spent
        assert plan.stats() == [
            {"site": "s", "action": "raise", "hits": 4, "triggered": 1}
        ]

    def test_times_none_triggers_every_hit(self):
        plan = plan_for({"site": "s", "times": None})
        with faults.armed(plan):
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    faults.check("s")

    def test_match_filters_context(self):
        plan = plan_for(
            {"site": "s", "exception": "TransientError",
             "match": {"attempt": 1}}
        )
        with faults.armed(plan):
            faults.check("s", attempt=2)  # no match, not even a hit
            with pytest.raises(TransientError):
                faults.check("s", attempt=1)
        assert plan.stats()[0]["hits"] == 1

    def test_cancel_action(self):
        plan = plan_for({"site": "s", "action": "cancel",
                         "message": "chaos says stop"})
        with faults.armed(plan):
            with pytest.raises(JobCancelledError, match="chaos says stop"):
                faults.check("s")

    def test_hook_binds_only_named_sites(self):
        plan = plan_for({"site": "named"})
        with faults.armed(plan):
            assert faults.hook("other") is None
            bound = faults.hook("named")
            assert bound is not None
            with pytest.raises(FaultInjected):
                bound()

    def test_armed_restores_previous_plan(self):
        outer = plan_for({"site": "a"})
        inner = plan_for({"site": "b"})
        with faults.armed(outer):
            with faults.armed(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_arm_disarm(self):
        plan = plan_for({"site": "s"})
        faults.arm(plan)
        try:
            assert faults.active() is plan
        finally:
            faults.disarm()
        assert faults.active() is None


class TestParsing:
    def test_from_json_inline_and_path(self, tmp_path):
        payload = {"seed": 7, "faults": [{"site": "s"}]}
        inline = faults.FaultPlan.from_json(json.dumps(payload))
        assert inline.seed == 7 and inline.specs[0].site == "s"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert faults.FaultPlan.from_json(f"@{path}").seed == 7
        assert faults.FaultPlan.from_json(str(path)).seed == 7

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.FaultPlan.from_env() is None
        monkeypatch.setenv(
            faults.ENV_VAR, '{"faults": [{"site": "s"}]}'
        )
        plan = faults.FaultPlan.from_env()
        assert plan is not None and plan.specs[0].site == "s"

    def test_bad_plans_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            faults.FaultPlan.from_json("{not json")
        with pytest.raises(ConfigurationError, match="unknown"):
            faults.FaultPlan.from_dict({"seed": 0, "bogus": []})
        with pytest.raises(ConfigurationError, match="list"):
            faults.FaultPlan.from_dict({"faults": "nope"})


class TestCorruptFile:
    def test_truncate_at_explicit_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"0123456789")
        plan = plan_for({"site": "w", "action": "corrupt", "at": 4})
        with faults.armed(plan):
            faults.corrupt_file("w", path)
        assert path.read_bytes() == b"0123"

    def test_flip_at_explicit_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"\x00" * 8)
        plan = plan_for(
            {"site": "w", "action": "corrupt", "mode": "flip", "at": 3}
        )
        with faults.armed(plan):
            faults.corrupt_file("w", path)
        assert path.read_bytes() == b"\x00\x00\x00\xff\x00\x00\x00\x00"

    def test_seeded_offset_is_reproducible(self, tmp_path):
        torn = []
        for attempt in range(2):
            path = tmp_path / f"f{attempt}.bin"
            path.write_bytes(bytes(range(64)))
            plan = plan_for(
                {"site": "w", "action": "corrupt"}, seed=99
            )
            with faults.armed(plan):
                faults.corrupt_file("w", path)
            torn.append(path.read_bytes())
        assert torn[0] == torn[1]  # same plan -> same tear, byte for byte

    def test_check_ignores_corrupt_specs_and_vice_versa(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abcdef")
        plan = plan_for(
            {"site": "w", "action": "corrupt", "at": 1},
            {"site": "w", "action": "raise"},
        )
        with faults.armed(plan):
            with pytest.raises(FaultInjected):
                faults.check("w")  # the raise spec, not the corrupt one
            faults.corrupt_file("w", path)  # the corrupt spec only
        assert path.read_bytes() == b"a"


class TestDriverIntegration:
    """The drivers' "driver.generation" site fires inside real runs."""

    CONFIG = EvolutionConfig(n_ssets=8, generations=300, rounds=16, seed=41)

    @pytest.mark.parametrize("backend", ["event", "ensemble"])
    def test_generation_site_raises_mid_run(self, backend):
        plan = plan_for(
            {"site": "driver.generation", "exception": "TransientError",
             "after": 2}
        )
        with faults.armed(plan):
            with pytest.raises(TransientError):
                run_sweep([self.CONFIG], backend=backend)
        stats = plan.stats()[0]
        assert stats["triggered"] == 1
        assert stats["hits"] == 3  # fired exactly at the 3rd event generation

    def test_ensemble_site_fires_once_per_lane_generation(self):
        # A multi-lane group advances lanes in waves — deterministic and
        # pure sampled lanes on the shared path, expected ones on the
        # generic path — so the site fires once per (lane, event
        # generation), before the lane's events of that generation apply.
        sampled = self.CONFIG.with_updates(noise=0.05, sampled_batched=True)
        expected = self.CONFIG.with_updates(noise=0.05, expected_fitness=True)
        for config in (self.CONFIG, sampled, expected):
            configs = [config.with_updates(seed=41 + r) for r in range(3)]
            expected = sum(
                len({e.generation for e in result.events})
                for result in run_sweep(configs, backend="event")
            )
            plan = plan_for(
                {"site": "driver.generation", "after": 10_000_000}
            )
            with faults.armed(plan):
                run_sweep(configs, backend="ensemble")
            assert plan.stats()[0]["hits"] == expected

    def test_disarmed_run_is_unperturbed(self):
        baseline = run_sweep([self.CONFIG], backend="event")[0]
        plan = plan_for(
            {"site": "driver.generation", "after": 10_000_000}
        )
        with faults.armed(plan):
            armed_run = run_sweep([self.CONFIG], backend="event")[0]
        assert (
            armed_run.population.strategy_matrix()
            == baseline.population.strategy_matrix()
        ).all()
        assert armed_run.n_pc_events == baseline.n_pc_events
