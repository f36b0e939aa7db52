"""Bit-identical mid-run checkpoint/resume across drivers and regimes.

The tentpole contract (ISSUE PR 9): a run restored from a mid-run
run-state snapshot (:mod:`repro.core.runstate`) must finish with the same
trajectory as the uninterrupted same-seed run — every event, every
recorded snapshot matrix, every counter, the final population, even the
evaluator's cache/fill statistics.  Pinned here for the serial and event
drivers and the lane-batched ensemble (shared-engine and per-lane modes),
across population structures and fitness regimes, including resume *from
the other driver's* snapshot.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EvolutionConfig
from repro.core.evolution import run_event_driven, run_serial
from repro.core.runstate import (
    RESUME_NEUTRAL_FIELDS,
    checkpoint_scope,
    checkpointing_supported,
    unit_key,
)
from repro.ensemble.driver import run_ensemble


class MemorySink:
    """In-memory checkpoint sink with a faithful JSON round-trip.

    ``meta`` passes through ``json.dumps``/``loads`` and arrays are
    copied, so every test exercises exactly what survives the file
    format — no live references, no non-JSON types.
    """

    def __init__(self):
        self.saved = {}
        self.saves = 0

    def save(self, unit, generation, meta, arrays):
        meta = json.loads(json.dumps(meta))
        arrays = {k: np.array(v) for k, v in arrays.items()}
        self.saved.setdefault(unit, []).append((generation, meta, arrays))
        self.saves += 1

    def load_latest(self, unit):
        entries = self.saved.get(unit)
        if not entries:
            return None
        _, meta, arrays = entries[-1]
        return meta, arrays


COMMON = dict(
    n_ssets=12,
    generations=400,
    record_every=50,
    record_events=True,
    rounds=20,
    checkpoint_every=150,
)

#: (label, config-kwargs) covering the regimes the resume contract spans.
REGIMES = [
    ("det-wellmixed-m1", dict(memory_steps=1, seed=41, **COMMON)),
    ("det-ring-m2",
     dict(memory_steps=2, structure="ring:k=2", seed=42, **COMMON)),
    ("expected-noise",
     dict(memory_steps=1, expected_fitness=True, noise=0.05, seed=43,
          **COMMON)),
    ("legacy-cache", dict(memory_steps=1, engine=False, seed=44, **COMMON)),
]


def assert_same_trajectory(a, b, *, resumed_from=None):
    """``b`` must be bit-identical to ``a`` in every recorded respect."""
    assert b.resumed_from_generation == resumed_from
    assert a.events == b.events
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert sa.dominant_share == sb.dominant_share
        assert np.array_equal(sa.strategy_matrix, sb.strategy_matrix)
    for field in ("n_pc_events", "n_adoptions", "n_mutations",
                  "generations_run", "cache_hits", "cache_misses"):
        assert getattr(a, field) == getattr(b, field), field
    for sa, sb in zip(a.population.ssets, b.population.ssets):
        assert sa.strategy.key() == sb.strategy.key()
        assert sa.adoptions == sb.adoptions
        assert sa.mutations == sb.mutations


@pytest.mark.parametrize("driver", [run_serial, run_event_driven],
                         ids=["serial", "event"])
@pytest.mark.parametrize("label,kwargs", REGIMES,
                         ids=[label for label, _ in REGIMES])
def test_resume_is_bit_identical(driver, label, kwargs):
    config = EvolutionConfig(**kwargs)
    clean = driver(config)

    sink = MemorySink()
    with checkpoint_scope(sink):
        full = driver(config)
    # An armed sink must not perturb the run it snapshots.
    assert_same_trajectory(clean, full)
    (unit,) = sink.saved
    assert [g for g, _, _ in sink.saved[unit]] == [150, 300]

    # Resume from each snapshot in turn (pin it by dropping the rest).
    for index, generation in enumerate((150, 300)):
        pinned = MemorySink()
        pinned.saved[unit] = [sink.saved[unit][index]]
        with checkpoint_scope(pinned):
            resumed = driver(config)
        assert_same_trajectory(clean, resumed, resumed_from=generation)
        # The resumed run re-writes the downstream checkpoints, so a
        # second interruption resumes from the later boundary again.
        assert [g for g, _, _ in pinned.saved[unit]] == (
            [150, 300] if generation == 150 else [300]
        )


@pytest.mark.parametrize("label,kwargs", REGIMES[:3],
                         ids=[label for label, _ in REGIMES[:3]])
def test_resume_crosses_drivers(label, kwargs):
    """A serial-written snapshot finishes bit-identically on the event
    driver and vice versa — the snapshot is driver-shape-free."""
    config = EvolutionConfig(**kwargs)
    clean = run_serial(config)
    sink = MemorySink()
    with checkpoint_scope(sink):
        run_serial(config)
    with checkpoint_scope(sink):
        resumed = run_event_driven(config)
    assert_same_trajectory(clean, resumed, resumed_from=300)

    sink = MemorySink()
    with checkpoint_scope(sink):
        run_event_driven(config)
    with checkpoint_scope(sink):
        resumed = run_serial(config)
    assert_same_trajectory(clean, resumed, resumed_from=300)


#: Ensemble regimes: shared-engine mode (compatible deterministic lanes)
#: and the per-lane generic mode (expected/noise and legacy-cache lanes).
ENSEMBLE_REGIMES = [
    ("shared-det-m1", dict(memory_steps=1, **COMMON)),
    ("shared-det-m2", dict(memory_steps=2, **COMMON)),
    ("shared-ring-m2", dict(memory_steps=2, structure="ring:k=2", **COMMON)),
    ("generic-expected",
     dict(memory_steps=1, expected_fitness=True, noise=0.05, **COMMON)),
    ("generic-cache", dict(memory_steps=1, engine=False, **COMMON)),
]


@pytest.mark.parametrize("label,kwargs", ENSEMBLE_REGIMES,
                         ids=[label for label, _ in ENSEMBLE_REGIMES])
def test_ensemble_group_resume_is_bit_identical(label, kwargs):
    configs = [
        EvolutionConfig(seed=100 + r, **kwargs) for r in range(2)
    ]
    clean = run_ensemble(configs)

    sink = MemorySink()
    with checkpoint_scope(sink):
        full = run_ensemble(configs)
    for a, b in zip(clean, full):
        assert_same_trajectory(a, b)
    (unit,) = sink.saved
    assert [g for g, _, _ in sink.saved[unit]] == [150, 300]

    for index, generation in enumerate((150, 300)):
        pinned = MemorySink()
        pinned.saved[unit] = [sink.saved[unit][index]]
        with checkpoint_scope(pinned):
            resumed = run_ensemble(configs)
        for a, b in zip(clean, resumed):
            assert_same_trajectory(a, b, resumed_from=generation)


def test_unit_key_ignores_resume_neutral_fields():
    config = EvolutionConfig(**REGIMES[0][1])
    baseline = unit_key([config.to_dict()])
    for field, value in (
        ("checkpoint_every", 75),
        ("engine_pool_cap", 64),
    ):
        assert field in RESUME_NEUTRAL_FIELDS
        variant = config.with_updates(**{field: value})
        assert unit_key([variant.to_dict()]) == baseline
    assert unit_key([config.with_updates(seed=999).to_dict()]) != baseline


def test_resume_survives_cadence_change():
    """A different ``checkpoint_every`` still finds the snapshot (the
    field is resume-neutral) and the trajectory stays bit-identical."""
    config = EvolutionConfig(**REGIMES[0][1])
    clean = run_serial(config)
    sink = MemorySink()
    with checkpoint_scope(sink):
        run_serial(config)
    recadenced = config.with_updates(checkpoint_every=80)
    with checkpoint_scope(sink):
        resumed = run_serial(recadenced)
    assert resumed.resumed_from_generation == 300
    assert resumed.events == clean.events
    assert np.array_equal(resumed.population.strategy_matrix(),
                          clean.population.strategy_matrix())


def test_single_lane_ensemble_snapshot_does_not_confuse_serial_driver():
    """An ensemble group snapshot can land on the unit key a one-config
    serial run asks for; the serial driver must treat it as a clean miss
    (fresh start), not an error — and vice versa."""
    config = EvolutionConfig(**REGIMES[0][1])
    clean = run_serial(config)

    sink = MemorySink()
    with checkpoint_scope(sink):
        run_ensemble([config])
    with checkpoint_scope(sink):
        result = run_serial(config)
    assert result.resumed_from_generation is None
    assert result.events == clean.events

    sink = MemorySink()
    with checkpoint_scope(sink):
        run_serial(config)
    with checkpoint_scope(sink):
        (ens,) = run_ensemble([config])
    assert ens.resumed_from_generation is None
    assert ens.events == clean.events


def test_unsupported_regimes_do_not_arm():
    """Regimes outside the bit-identical contract run exactly as before,
    writing no snapshots."""
    capped = EvolutionConfig(
        n_ssets=12, generations=400, rounds=20, seed=7, noise=0.05,
        checkpoint_every=150, expected_fitness=True, engine_pool_cap=8,
    )
    assert not checkpointing_supported(capped)
    sink = MemorySink()
    with checkpoint_scope(sink):
        result = run_serial(capped)
    assert sink.saves == 0
    assert result.resumed_from_generation is None
