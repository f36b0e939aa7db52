"""Wide shared groups run as consecutive sub-groups whose pair matrix fits.

``run_ensemble_detailed`` runs a shared group with a pair matrix whose
dense store (``_group_slots``) would pass ``_GROUP_PAYMAT_BYTES`` as the
fewest near-equal consecutive sub-groups that fit.  Lanes are independent,
so each lane still follows its same-seed ``event`` run.  The bound is
monkeypatched low here, so every shape stays tiny.
"""

from __future__ import annotations

import shutil
from collections import defaultdict

import numpy as np
import pytest

from repro.api import run_sweep
from repro.core import EvolutionConfig, progress_scope
from repro.core.evolution import run_event_driven
from repro.core.runstate import checkpoint_scope
from repro.ensemble import driver, run_ensemble, run_ensemble_detailed
from repro.io.run_checkpoint import RunCheckpointer, load_run_checkpoint

BASE = dict(memory_steps=2, n_ssets=8, generations=400, rounds=16)


def sweep(n: int = 5, **overrides) -> list[EvolutionConfig]:
    base = dict(BASE)
    base.update(overrides)
    return [EvolutionConfig(seed=700 + i, **base) for i in range(n)]


def bound_at(monkeypatch, config: EvolutionConfig, lanes: int) -> int:
    """Set the bound to exactly ``lanes`` lanes' store of ``config``."""
    bound = driver._group_slots(config, lanes)[1]
    monkeypatch.setattr(driver, "_GROUP_PAYMAT_BYTES", bound)
    return bound


@pytest.fixture
def group_calls(monkeypatch):
    """The runner and seeds of every group the driver runs, in order."""
    calls = []
    for name in ("_run_group_shared", "_run_group_generic"):
        def spy(configs, initial, batch_size, _raw=getattr(driver, name),
                _name=name):
            calls.append((_name, [c.seed for c in configs]))
            return _raw(configs, initial, batch_size)

        monkeypatch.setattr(driver, name, spy)
    return calls


def assert_matches_event(result, config) -> None:
    serial = run_event_driven(config)
    assert result.events == serial.events
    assert result.n_pc_events == serial.n_pc_events
    assert result.n_adoptions == serial.n_adoptions
    assert result.n_mutations == serial.n_mutations
    assert result.generations_run == serial.generations_run
    assert np.array_equal(
        result.population.strategy_matrix(),
        serial.population.strategy_matrix(),
    )


class TestSplitRule:
    @pytest.mark.parametrize(
        "n, sizes",
        [(2, [2]), (4, [2, 2]), (5, [2, 2, 1]), (7, [2, 2, 2, 1])],
    )
    def test_fewest_near_equal_consecutive_parts(self, monkeypatch, n, sizes):
        config = EvolutionConfig(**BASE)
        bound_at(monkeypatch, config, 2)
        parts = driver._split_group(list(range(10, 10 + n)), config)
        assert [len(p) for p in parts] == sizes
        assert sum(parts, []) == list(range(10, 10 + n))

    def test_one_lane_each_when_none_fits(self, monkeypatch):
        config = EvolutionConfig(**BASE)
        monkeypatch.setattr(
            driver, "_GROUP_PAYMAT_BYTES",
            driver._group_slots(config, 1)[1] - 1,
        )
        assert driver._split_group([3, 4, 5], config) == [[3], [4], [5]]

    def test_slots_and_bytes(self):
        # 64 lanes x 16 memory-2 SSets: 1,536 float32 slots.
        config = EvolutionConfig(memory_steps=2, n_ssets=16)
        assert driver._group_slots(config, 64) == (1536, 1536**2 * 5)
        # Memory one caps the pool at its 16 pure tables.
        memory_one = config.with_updates(memory_steps=1)
        assert driver._group_slots(memory_one, 64)[0] == 16
        # Past float32's exact range the cells are float64.
        wide = config.with_updates(rounds=1 << 22)
        assert driver._group_slots(wide, 64)[1] == 1536**2 * 9
        # A window pins ~3.3 mutants per lane at the paper's rates (10 of
        # each lane's events, a third of them mutations); the pool keeps
        # 1.5x that spare, never fewer than 512 slots.
        assert driver._group_slots(config, 256)[0] == 4096 + 1280
        still = config.with_updates(mutation_rate=0.0)
        assert driver._group_slots(still, 256)[0] == 4096 + 512

    def test_default_bound(self):
        # The benchmark's 64 lanes x 16 SSets stay one group; 256 lanes x
        # 64 SSets (1.43 GB whole) run in thirds.
        config = EvolutionConfig(memory_steps=2, n_ssets=16)
        assert driver._split_group(list(range(64)), config) == [
            list(range(64))
        ]
        parts = driver._split_group(
            list(range(256)), config.with_updates(n_ssets=64)
        )
        assert [len(p) for p in parts] == [86, 85, 85]


class TestSplitRuns:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"memory_steps": 3}, {"structure": "ring:k=2"}],
        ids=["wm-m2", "wm-m3", "ring-m2"],
    )
    def test_lanes_match_event_runs(self, monkeypatch, group_calls, overrides):
        configs = sweep(5, **overrides)
        bound = bound_at(monkeypatch, configs[0], 2)
        results, metas = run_ensemble_detailed(configs)
        assert group_calls == [
            ("_run_group_shared", [700, 701]),
            ("_run_group_shared", [702, 703]),
            ("_run_group_shared", [704]),
        ]
        assert [meta["lanes"] for meta in metas] == [2, 2, 2, 2, 1]
        for meta in metas:
            store = meta["shared_engine"]["peak_paymat_bytes"]
            assert store == driver._group_slots(configs[0], meta["lanes"])[1]
            assert store <= bound
        for config, result in zip(configs, results):
            assert_matches_event(result, config)

    def test_backend_report_lanes_is_subgroup_size(self, monkeypatch):
        configs = sweep(5)
        bound_at(monkeypatch, configs[0], 2)
        results = run_sweep(configs, backend="ensemble")
        assert [r.backend_report.lanes for r in results] == [2, 2, 2, 2, 1]

    def test_progress_ticks_carry_sweep_run_indices(self, monkeypatch):
        configs = sweep(5)
        bound_at(monkeypatch, configs[0], 2)

        def ticks_by_run(backend):
            ticks = defaultdict(list)
            with progress_scope(
                lambda t: ticks[t.run_index].append(
                    (t.generation, t.n_pc_events, t.n_adoptions,
                     t.n_mutations)
                )
            ):
                run_sweep(configs, backend=backend, dedupe=False)
            return dict(ticks)

        split = ticks_by_run("ensemble")
        assert sorted(split) == list(range(5))
        assert split == ticks_by_run("event")

    def test_group_under_the_bound_stays_whole(self, monkeypatch, group_calls):
        configs = sweep(4)
        bound_at(monkeypatch, configs[0], 4)
        _, metas = run_ensemble_detailed(configs)
        assert group_calls == [("_run_group_shared", [700, 701, 702, 703])]
        assert [meta["lanes"] for meta in metas] == [4] * 4

    @pytest.mark.parametrize(
        "overrides, runner",
        [
            ({"noise": 0.05, "sampled_batched": True}, "_run_group_shared"),
            ({"noise": 0.05, "expected_fitness": True}, "_run_group_generic"),
            ({"engine": False}, "_run_group_generic"),
        ],
        ids=["pool-only-sampled", "expected", "legacy-cache"],
    )
    def test_groups_without_pair_matrix_never_split(
        self, monkeypatch, group_calls, overrides, runner
    ):
        configs = sweep(3, generations=200, **overrides)
        monkeypatch.setattr(driver, "_GROUP_PAYMAT_BYTES", 0)
        _, metas = run_ensemble_detailed(configs)
        assert group_calls == [(runner, [700, 701, 702])]
        assert [meta["lanes"] for meta in metas] == [3] * 3


def test_checkpointed_sweep_resumes_from_each_subgroup_snapshot(
    monkeypatch, tmp_path
):
    configs = sweep(5, checkpoint_every=150, record_every=50)
    bound_at(monkeypatch, configs[0], 2)
    clean = run_ensemble(configs)
    with checkpoint_scope(RunCheckpointer(tmp_path)):
        run_ensemble(configs)
    # One unit per sub-group, holding that sub-group's lanes.
    units = sorted(tmp_path.glob("unit-*"))
    seeds = []
    for unit in units:
        snapshots = sorted(unit.glob("gen-*"))
        assert [p.name for p in snapshots] == [
            "gen-000000000150", "gen-000000000300"
        ]
        meta, _ = load_run_checkpoint(snapshots[-1])
        seeds.append([c["seed"] for c in meta["configs"]])
    assert sorted(seeds) == [[700, 701], [702, 703], [704]]

    # Resume every sub-group from its newest snapshot, then (with those
    # removed) from the one before.
    for generation in (300, 150):
        if generation == 150:
            for unit in units:
                shutil.rmtree(unit / "gen-000000000300")
        with checkpoint_scope(RunCheckpointer(tmp_path)):
            resumed = run_ensemble(configs)
        for a, b in zip(clean, resumed):
            assert b.resumed_from_generation == generation
            assert a.events == b.events
            assert [s.generation for s in a.snapshots] == [
                s.generation for s in b.snapshots
            ]
            for sa, sb in zip(a.snapshots, b.snapshots):
                assert np.array_equal(sa.strategy_matrix, sb.strategy_matrix)
            for field in ("n_pc_events", "n_adoptions", "n_mutations",
                          "cache_hits", "cache_misses"):
                assert getattr(a, field) == getattr(b, field), field
            assert np.array_equal(
                a.population.strategy_matrix(),
                b.population.strategy_matrix(),
            )


def test_wide_group_never_outgrows_its_planned_store():
    # 256 lanes x 16 memory-2 SSets start nearly all distinct, and each
    # window pins more mutants than the 512-slot floor: the engine keeps
    # the capacity and bytes it was planned with.
    configs = [
        EvolutionConfig(seed=800 + i, memory_steps=2, n_ssets=16,
                        generations=300)
        for i in range(256)
    ]
    _, metas = run_ensemble_detailed(configs)
    slots, store = driver._group_slots(configs[0], 256)
    assert metas[0]["lanes"] == 256
    assert metas[0]["shared_engine"]["capacity"] == slots
    assert metas[0]["shared_engine"]["peak_paymat_bytes"] == store
