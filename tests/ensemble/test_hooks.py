"""Progress, recorder, and checkpoint hooks under the ensemble backend.

The ensemble engine advances many lanes as one array program, but each
lane's hook surface must stay interchangeable with the serial/event path:
progress ticks fire once per event generation with the same counts, the
recorder persists the same event stream, and checkpoints round-trip.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.api import Simulation, run_sweep
from repro.core import EvolutionConfig, ProgressTick, progress_scope
from repro.io import GenerationRecorder, read_records


def sweep_configs(n: int = 4, **overrides) -> list[EvolutionConfig]:
    base = dict(memory_steps=2, n_ssets=8, generations=400, rounds=16)
    base.update(overrides)
    return [EvolutionConfig(seed=300 + i, **base) for i in range(n)]


def collect_ticks(configs, backend, **sweep_opts):
    ticks = []
    with progress_scope(ticks.append):
        results = run_sweep(configs, backend=backend, **sweep_opts)
    return ticks, results


def by_run(ticks) -> dict:
    """Each lane's ticks in emission order: lanes may interleave, but a
    lane's own ticks must come out in generation order."""
    grouped = defaultdict(list)
    for t in ticks:
        grouped[t.run_index].append(
            (t.generation, t.n_pc_events, t.n_adoptions, t.n_mutations)
        )
    return dict(grouped)


#: Regimes off the deterministic fast path: expected groups run the
#: ensemble's generic (per-lane evaluator) path, pure sampled ones the
#: shared path over a pool-only engine.
GENERIC_REGIMES = {
    "expected": dict(expected_fitness=True, noise=0.05),
    "sampled": dict(noise=0.05, sampled_batched=True),
}


class TestProgressParity:
    def test_ticks_fire_per_event_generation(self):
        configs = sweep_configs(1)
        ticks, results = collect_ticks(configs, "event")
        event_generations = {e.generation for e in results[0].events}
        assert len(ticks) == len(event_generations)
        assert [t.generation for t in ticks] == sorted(event_generations)
        final = ticks[-1]
        assert final.n_pc_events == results[0].n_pc_events
        assert final.n_adoptions == results[0].n_adoptions
        assert final.n_mutations == results[0].n_mutations

    def test_ensemble_ticks_match_event_backend(self):
        configs = sweep_configs(4)
        event_ticks, _ = collect_ticks(configs, "event", dedupe=False)
        ens_ticks, _ = collect_ticks(configs, "ensemble", dedupe=False)
        assert by_run(ens_ticks) == by_run(event_ticks)

    def test_ensemble_ticks_match_on_graph_structure(self):
        configs = sweep_configs(3, structure="ring:k=2")
        event_ticks, _ = collect_ticks(configs, "event", dedupe=False)
        ens_ticks, _ = collect_ticks(configs, "ensemble", dedupe=False)
        assert len(ens_ticks) == len(event_ticks)

    def test_generic_path_ticks_match(self):
        # Expected and sampled groups run in lane waves over whole
        # batches; each lane's ticks must still match its event run's,
        # tick for tick and in order.
        for overrides in GENERIC_REGIMES.values():
            configs = sweep_configs(4, generations=300, **overrides)
            event_ticks, _ = collect_ticks(configs, "event", dedupe=False)
            ens_ticks, _ = collect_ticks(configs, "ensemble", dedupe=False)
            assert by_run(ens_ticks) == by_run(event_ticks)
            assert set(by_run(ens_ticks)) == {0, 1, 2, 3}

    def test_tick_fraction_and_remap(self):
        configs = sweep_configs(3)
        ticks, _ = collect_ticks(configs, "ensemble", dedupe=False)
        assert {t.run_index for t in ticks} <= {0, 1, 2}
        assert all(0.0 < t.fraction <= 1.0 for t in ticks)

    def test_no_scope_no_overhead(self):
        # Without an installed scope the sweep result is bit-identical.
        configs = sweep_configs(2)
        plain = run_sweep(configs, backend="ensemble", dedupe=False)
        ticks, hooked = collect_ticks(configs, "ensemble", dedupe=False)
        assert ticks
        for a, b in zip(plain, hooked):
            assert a.events == b.events
            assert np.array_equal(
                a.population.strategy_matrix(),
                b.population.strategy_matrix(),
            )


class TestGenericPathRecords:
    @pytest.mark.parametrize("regime", sorted(GENERIC_REGIMES))
    def test_events_and_snapshots_match_event_runs(self, regime):
        # record_events follow each lane's event order, and record_every
        # snapshots land before a lane's first event of a later generation
        # or after its last event of theirs, as in the event driver.
        configs = sweep_configs(
            4, generations=300, record_every=37, **GENERIC_REGIMES[regime]
        )
        ensemble = run_sweep(configs, backend="ensemble", dedupe=False)
        event = run_sweep(configs, backend="event", dedupe=False)
        for ens, evt in zip(ensemble, event):
            assert ens.events and ens.events == evt.events
            assert [s.generation for s in ens.snapshots] == [
                s.generation for s in evt.snapshots
            ]
            for a, b in zip(ens.snapshots, evt.snapshots):
                assert a.dominant_share == b.dominant_share
                assert np.array_equal(a.strategy_matrix, b.strategy_matrix)


class TestRecorderUnderEnsemble:
    def test_record_result_parity(self, tmp_path):
        config = sweep_configs(1)[0]
        ens = Simulation(config, backend="ensemble").run()
        evt = Simulation(config, backend="event").run()
        paths = []
        for tag, result in (("ens", ens), ("evt", evt)):
            path = tmp_path / f"{tag}.jsonl"
            with GenerationRecorder(path) as recorder:
                recorder.record_result(result)
            paths.append(path)
        ens_records = read_records(paths[0])
        evt_records = read_records(paths[1])
        strip = lambda records: [
            {k: v for k, v in r.items() if k != "wallclock_seconds"}
            for r in records
        ]
        assert strip(ens_records) == strip(evt_records)


class TestCheckpointUnderEnsemble:
    def test_save_and_resume(self, tmp_path):
        config = sweep_configs(1)[0]
        path = tmp_path / "pop.npz"
        first = Simulation(
            config, backend="ensemble", checkpoint_path=path
        ).run()
        assert path.exists()
        resumed = Simulation(
            config.with_updates(generations=100),
            backend="ensemble",
            checkpoint_path=path,
            resume=True,
        ).run()
        # The resumed run starts from the saved population, not random init.
        assert resumed.snapshots[0].generation == 0
        np.testing.assert_array_equal(
            resumed.snapshots[0].strategy_matrix,
            first.population.strategy_matrix(),
        )
