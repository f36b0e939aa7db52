"""Every driver stamps its progress ticks with the run's sweep index.

A driver reads the listener and the run-index map once per run
(``repro.core.progress.progress_listener``) and builds each tick once,
already stamped: run ``i`` of a sweep reports as ``i`` on every backend,
and a deduplicated run reports as the first occurrence of its config.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.api import run_sweep
from repro.core import EvolutionConfig, ProgressTick, progress_scope
from repro.core import evolution
from repro.ensemble import driver
from repro.service import JobQueue, JobSpec

BASE = dict(memory_steps=2, n_ssets=8, generations=400, rounds=16)


def sweep(n: int = 3, **overrides) -> list[EvolutionConfig]:
    base = dict(BASE)
    base.update(overrides)
    return [EvolutionConfig(seed=900 + i, **base) for i in range(n)]


@pytest.fixture
def built(monkeypatch) -> list[ProgressTick]:
    """Every tick the drivers build, in build order."""
    ticks: list[ProgressTick] = []

    class Built(ProgressTick):
        __slots__ = ()

        def __new__(cls, *fields):
            tick = super().__new__(cls, *fields)
            ticks.append(tick)
            return tick

    monkeypatch.setattr(evolution, "ProgressTick", Built)
    monkeypatch.setattr(driver, "ProgressTick", Built)
    return ticks


def listen(configs, backend, **sweep_opts):
    received: list[ProgressTick] = []
    with progress_scope(received.append):
        results = run_sweep(configs, backend=backend, **sweep_opts)
    return received, results


def by_run(ticks) -> dict[int, list[ProgressTick]]:
    grouped = defaultdict(list)
    for tick in ticks:
        grouped[tick.run_index].append(tick)
    return dict(grouped)


def stream(ticks) -> list[tuple]:
    """A run's ticks without their run index."""
    return [tuple(tick)[1:] for tick in ticks]


#: backend, config overrides, and the ensemble group runner expected.
CASES = {
    "serial": ("serial", {}, None),
    "event": ("event", {}, None),
    "ensemble-shared": ("ensemble", {}, "_run_group_shared"),
    "ensemble-pool-sampled": (
        "ensemble",
        dict(noise=0.05, sampled_batched=True),
        "_run_group_shared",
    ),
    "generic-expected": (
        "ensemble",
        dict(noise=0.05, expected_fitness=True),
        "_run_group_generic",
    ),
    "generic-sampled": (
        "ensemble",
        dict(noise=0.05, sampled_batched=True, structure="ring:k=2"),
        "_run_group_generic",
    ),
    "split-group": ("ensemble", {}, "_run_group_shared"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ticks_carry_sweep_index(monkeypatch, built, case):
    backend, overrides, runner = CASES[case]
    configs = sweep(3, **overrides)
    calls = []
    if runner is not None:
        raw = getattr(driver, runner)

        def spy(group_configs, initial, batch_size):
            calls.append(len(group_configs))
            return raw(group_configs, initial, batch_size)

        monkeypatch.setattr(driver, runner, spy)
    if case == "split-group":
        # Two lanes' store: the three lanes run as sub-groups of 2 and 1.
        monkeypatch.setattr(
            driver, "_GROUP_PAYMAT_BYTES",
            driver._group_slots(configs[0], 2)[1],
        )
    received, results = listen(configs, backend, dedupe=False)
    if runner is not None:
        assert calls == ([2, 1] if case == "split-group" else [3])

    runs = by_run(received)
    assert sorted(runs) == [0, 1, 2]
    for index, (config, result) in enumerate(zip(configs, results)):
        ticks = runs[index]
        generations = [tick.generation for tick in ticks]
        assert generations == sorted(set(generations))
        assert all(t.generations == config.generations for t in ticks)
        last = ticks[-1]
        assert (last.n_pc_events, last.n_adoptions, last.n_mutations) == (
            result.n_pc_events, result.n_adoptions, result.n_mutations
        )
    # Each tick reaches the listener as the object its driver built: no
    # wrapper between them restamps (and so rebuilds) it.
    assert len(built) == len(received)
    assert all(a is b for a, b in zip(built, received))


@pytest.mark.parametrize("backend", ["serial", "event", "ensemble"])
def test_deduplicated_run_reports_first_occurrence(backend):
    a, b = sweep(2)
    b = b.with_updates(generations=200)
    received, results = listen([a, a, b], backend)
    assert results[0] is results[1]
    runs = by_run(received)
    assert sorted(runs) == [0, 2]
    assert {t.generations for t in runs[0]} == {a.generations}
    assert {t.generations for t in runs[2]} == {b.generations}
    # The same streams as the runs' own.
    alone, _ = listen([a, b], backend)
    assert stream(runs[0]) == stream(by_run(alone)[0])
    assert stream(runs[2]) == stream(by_run(alone)[1])


def test_nested_maps_compose(monkeypatch):
    # A deduplicated ensemble sweep whose group splits: a lane's local
    # index goes through its sub-group's map, then the dedupe map.
    configs = sweep(3)
    monkeypatch.setattr(
        driver, "_GROUP_PAYMAT_BYTES", driver._group_slots(configs[0], 2)[1]
    )
    received, _ = listen(
        [configs[0], configs[1], configs[0], configs[2]], "ensemble"
    )
    runs = by_run(received)
    assert sorted(runs) == [0, 1, 3]
    alone, _ = listen(configs, "event")
    for index, own in zip([0, 1, 3], [0, 1, 2]):
        assert stream(runs[index]) == stream(by_run(alone)[own])


def test_job_status_files_deduplicated_progress_under_first_occurrence():
    a = EvolutionConfig(seed=950, **dict(BASE, generations=3000))
    b = EvolutionConfig(seed=951, **dict(BASE, generations=300))
    with JobQueue(workers=1) as queue:
        job = queue.submit(JobSpec(configs=(a, a, b), backend="event"))
        assert job.wait(timeout=120)
        runs = job.status_dict()["progress"]["runs"]
    assert sorted(runs) == ["0", "2"]
    assert runs["0"]["generations"] == 3000
    assert runs["2"]["generations"] == 300
    assert runs["2"]["n_pc_events"] == job.results[2].n_pc_events
