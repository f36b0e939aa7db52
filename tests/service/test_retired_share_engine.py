"""Job identity across the retirement of ``JobSpec.share_engine``.

The field switched cross-run pair sharing, which is gone: every run of a
sweep fills its own payoff matrix.  Wire dicts and journal lines written
before the retirement carry ``"share_engine"`` as ``true``, ``false`` or
``null``; they must keep loading, and replay to the same fingerprint,
backend and results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.core.evolution import run_serial
from repro.service import JobJournal, JobQueue, JobSpec, JobState

#: Memory one, where sharing used to default on; small enough to run in
#: well under a second.
SMALL = EvolutionConfig(n_ssets=8, generations=120, rounds=8, seed=931)


def parent_format(spec: JobSpec, share: bool | None) -> dict:
    """``spec``'s wire form as written before ``share_engine`` retired."""
    wire = spec.to_dict()
    wire["share_engine"] = share
    return wire


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


@pytest.mark.parametrize("share", [True, False, None])
def test_from_dict_accepts_and_drops(share):
    spec = JobSpec(configs=(SMALL,))
    restored = JobSpec.from_dict(parent_format(spec, share))
    assert restored == spec
    assert restored.backend == "event"
    assert restored.fingerprint() == spec.fingerprint()
    assert "share_engine" not in restored.to_dict()


def test_python_signatures_drop_it():
    with pytest.raises(TypeError):
        JobSpec(configs=(SMALL,), share_engine=True)
    with pytest.raises(TypeError):
        run_sweep([SMALL], share_engine=True)


def test_journal_replays_parent_format_spec(tmp_path):
    spec = JobSpec(configs=(SMALL,))
    wal = tmp_path / "jobs.wal"
    journal = JobJournal(wal)
    journal.record(
        "submitted",
        "job-old",
        fingerprint=spec.fingerprint(),
        spec=parent_format(spec, True),
    )
    journal.close()
    queue = JobQueue(workers=1, journal=wal)
    try:
        assert queue.recovered_total == 1
        assert queue.recovery_errors == 0
        (job,) = queue.jobs()
        assert job.fingerprint == spec.fingerprint()
        assert job.spec.backend == "event"
        assert job.wait(timeout=60)
        assert job.state == JobState.DONE
        # Counters included: the run filled its own matrix.
        assert_bit_identical(job.results[0], run_serial(SMALL))
    finally:
        queue.close()
