"""Job and checkpoint identity across retired config fields.

Every config dict written before ``array_backend`` was retired carries
``"array_backend": "numpy"``, and every one written before
``paymat_block`` was retired carries that key (0, or a power of two >= 4):
journals, result artifacts, run-state snapshots and ``POST /jobs`` bodies
from old clients.  Those files must keep loading, resume bit-identically,
and hash to the same job fingerprints and checkpoint unit keys as before.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EvolutionConfig
from repro.core.evolution import run_serial
from repro.core.runstate import (
    RESUME_NEUTRAL_FIELDS,
    checkpoint_scope,
    unit_key,
)
from repro.ensemble import run_ensemble
from repro.errors import ConfigurationError
from repro.io.results_writer import load_result, save_result
from repro.io.run_checkpoint import RunCheckpointer, load_run_checkpoint
from repro.service import JobJournal, JobQueue, JobSpec, JobState

#: Small enough to run in well under a second, with two snapshots.
SMALL = EvolutionConfig(
    n_ssets=8, generations=120, rounds=8, seed=911, checkpoint_every=40,
)


def parent_format(config: EvolutionConfig) -> dict:
    """``config`` as a dict written before the fields were retired."""
    data = config.to_dict()
    data["array_backend"] = "numpy"
    data["paymat_block"] = 16
    return data


def saved_configs(meta: dict) -> list[dict]:
    """The config dicts of a run-state snapshot's metadata."""
    return meta["configs"] if "configs" in meta else [meta["config"]]


def assert_bit_identical(a, b) -> None:
    assert np.array_equal(
        a.population.strategy_matrix(), b.population.strategy_matrix()
    )
    assert a.events == b.events
    assert a.n_pc_events == b.n_pc_events
    assert a.n_adoptions == b.n_adoptions
    assert a.n_mutations == b.n_mutations
    assert a.cache_hits == b.cache_hits
    assert a.cache_misses == b.cache_misses


def test_fingerprint_and_unit_key_are_unchanged():
    # Values computed before the field was retired.
    c = EvolutionConfig(
        memory_steps=2, n_ssets=16, generations=4000, seed=7,
        record_events=False,
    )
    assert JobSpec(configs=(c,), backend="event").fingerprint() == (
        "47c1a2459206d7b7f318654117aa0f18eaf5a2373698035d02ab65cf141220e7"
    )
    assert unit_key([c.to_dict()]) == (
        "ae4291fa9656cc0fdda55bd585c1453a3b3e60873cf5b6cad5cf63ac2cee2c75"
    )
    assert unit_key([parent_format(c)]) == unit_key([c.to_dict()])
    parent_spec = JobSpec.from_dict(
        {"configs": [parent_format(c)], "backend": "event"}
    )
    assert parent_spec.fingerprint() == (
        "47c1a2459206d7b7f318654117aa0f18eaf5a2373698035d02ab65cf141220e7"
    )
    assert "array_backend" in RESUME_NEUTRAL_FIELDS
    assert "paymat_block" in RESUME_NEUTRAL_FIELDS


def test_from_dict_accepts_and_drops_numpy():
    assert EvolutionConfig.from_dict(parent_format(SMALL)) == SMALL
    assert "array_backend" not in SMALL.to_dict()
    assert "paymat_block" not in SMALL.to_dict()


@pytest.mark.parametrize(
    "value", [0, 4, 16, 1024, np.int64(32)],
    ids=["0", "4", "16", "1024", "numpy-32"],
)
def test_from_dict_accepts_and_drops_any_parent_block(value):
    data = SMALL.to_dict()
    data["paymat_block"] = value
    assert EvolutionConfig.from_dict(data) == SMALL


@pytest.mark.parametrize("value", ["cupy", None])
def test_from_dict_rejects_any_other_value(value):
    data = SMALL.to_dict()
    data["array_backend"] = value
    with pytest.raises(ConfigurationError, match="array_backend"):
        EvolutionConfig.from_dict(data)
    wire = JobSpec(configs=(SMALL,)).to_dict()
    wire["configs"][0]["array_backend"] = value
    with pytest.raises(ConfigurationError, match=r"configs\[0\].*array_"):
        JobSpec.from_dict(wire)


@pytest.mark.parametrize(
    "value", [-1, 2, 3, 12, 16.0, "16", True, None],
    ids=["-1", "2", "3", "12", "float-16", "str-16", "true", "none"],
)
def test_from_dict_rejects_any_other_block(value):
    data = SMALL.to_dict()
    data["paymat_block"] = value
    with pytest.raises(ConfigurationError, match="paymat_block"):
        EvolutionConfig.from_dict(data)
    wire = JobSpec(configs=(SMALL,)).to_dict()
    wire["configs"][0]["paymat_block"] = value
    with pytest.raises(ConfigurationError, match=r"configs\[0\].*paymat_"):
        JobSpec.from_dict(wire)


def test_journal_replays_parent_format_spec(tmp_path):
    spec = JobSpec(configs=(SMALL,), backend="event")
    wire = spec.to_dict()
    wire["configs"] = [parent_format(SMALL)]
    wal = tmp_path / "jobs.wal"
    journal = JobJournal(wal)
    journal.record(
        "submitted", "job-old", fingerprint=spec.fingerprint(), spec=wire
    )
    journal.close()
    queue = JobQueue(workers=1, journal=wal)
    try:
        assert queue.recovered_total == 1
        assert queue.recovery_errors == 0
        (job,) = queue.jobs()
        assert job.fingerprint == spec.fingerprint()
        assert job.wait(timeout=60)
        assert job.state == JobState.DONE
        assert_bit_identical(job.results[0], run_serial(SMALL))
    finally:
        queue.close()


def test_result_artifact_with_parent_format_config_loads(tmp_path):
    result = run_serial(SMALL)
    save_result(result, tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["config"] = parent_format(SMALL)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    loaded = load_result(tmp_path)
    assert loaded.config == SMALL
    assert np.array_equal(
        loaded.population.strategy_matrix(),
        result.population.strategy_matrix(),
    )


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: [run_serial(SMALL)], id="serial"),
        pytest.param(
            lambda: run_ensemble([SMALL, SMALL.with_updates(seed=912)]),
            id="ensemble",
        ),
    ],
)
def test_parent_format_snapshot_resumes_bit_identically(tmp_path, run):
    clean = run()
    with checkpoint_scope(RunCheckpointer(tmp_path)):
        run()
    (unit_dir,) = tmp_path.glob("unit-*")
    newest = sorted(unit_dir.glob("gen-*"))[-1]
    meta_path = newest / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    for data in saved_configs(meta):
        data["array_backend"] = "numpy"
        data["paymat_block"] = 16
    meta_path.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")

    loaded, _ = load_run_checkpoint(newest)
    configs = [EvolutionConfig.from_dict(d) for d in saved_configs(loaded)]
    assert configs == [r.config for r in clean]
    with checkpoint_scope(RunCheckpointer(tmp_path)):
        resumed = run()
    for a, b in zip(clean, resumed):
        assert b.resumed_from_generation == 80
        assert_bit_identical(a, b)
