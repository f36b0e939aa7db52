"""Service-level mid-run checkpointing: retries and replays resume.

The service half of the ISSUE PR 9 contract: a :class:`JobQueue` built
with a ``checkpoint_dir`` snapshots checkpointed jobs mid-run, journals
every save as a non-terminal breadcrumb, and — after a transient failure
*or* a process loss (drain / crash + journal replay) — finishes the job
from its newest snapshot with results bit-identical to an uninterrupted
execution.  Successful jobs leave no snapshots behind.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import faults
from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.errors import ConfigurationError
from repro.service import JobQueue, JobSpec, JobState, RetryPolicy


def ckpt_spec(seed: int, *, checkpoint_every: int = 100, n: int = 1,
              generations: int = 300, **overrides) -> JobSpec:
    """A checkpointed sweep spec (engine sharing off: cross-run pair
    sharing is the one deterministic mode that refuses checkpointing)."""
    return JobSpec(
        configs=tuple(
            EvolutionConfig(
                n_ssets=8, generations=generations, rounds=16,
                seed=seed + i, checkpoint_every=checkpoint_every,
            )
            for i in range(n)
        ),
        backend="ensemble",
        share_engine=False,
        **overrides,
    )


def reference_results(spec: JobSpec):
    return run_sweep(
        [c.with_updates(checkpoint_every=0) for c in spec.configs],
        backend="ensemble",
        share_engine=False,
    )


def assert_bit_identical(results, reference) -> None:
    assert len(results) == len(reference)
    for a, b in zip(results, reference):
        assert np.array_equal(
            a.population.strategy_matrix(), b.population.strategy_matrix()
        )
        assert a.n_pc_events == b.n_pc_events
        assert a.n_adoptions == b.n_adoptions
        assert a.n_mutations == b.n_mutations
        assert a.generations_run == b.generations_run


def wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class TestCheckpointLifecycle:
    def test_success_writes_journals_and_discards(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        spec = ckpt_spec(seed=910)
        with JobQueue(workers=1, journal=journal,
                      checkpoint_dir=tmp_path / "ckpt") as queue:
            job = queue.submit(spec)
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
            stats = queue.stats()["checkpoints"]
            # Cadence 100 over 300 generations: boundaries 100 and 200.
            assert stats["written_total"] == 2
            assert stats["resumed_total"] == 0
            assert stats["dir"] == str(tmp_path / "ckpt")
        # Snapshot discard runs after the job is marked done (waiters may
        # observe DONE first), but close() joins the worker thread.
        assert not list((tmp_path / "ckpt").glob("unit-*"))
        # Each save left a non-terminal breadcrumb in the WAL.
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        breadcrumbs = [r for r in records if r["type"] == "checkpoint"]
        assert [r["generation"] for r in breadcrumbs] == [100, 200]
        assert all(r["job_id"] == job.job_id for r in breadcrumbs)
        assert all(r["unit"] for r in breadcrumbs)
        assert_bit_identical(job.results, reference_results(spec))

    def test_default_backend_job_writes_snapshots(self, tmp_path):
        """A memory-one job that names neither a backend nor sharing still
        snapshots mid-run: a default pick of ``event`` turns pair sharing
        (which refuses checkpoints) off."""
        spec = JobSpec(configs=(
            EvolutionConfig(n_ssets=8, generations=300, rounds=16, seed=920,
                            checkpoint_every=100),
        ))
        assert spec.backend == "event"
        assert spec.configs[0].memory_steps == 1
        with JobQueue(workers=1,
                      checkpoint_dir=tmp_path / "ckpt") as queue:
            job = queue.submit(spec)
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
            assert queue.stats()["checkpoints"]["written_total"] == 2
        assert_bit_identical(job.results, reference_results(spec))

    def test_no_checkpoint_dir_means_no_checkpoint_stats(self):
        with JobQueue(workers=1) as queue:
            assert queue.stats()["checkpoints"] is None

    def test_uncheckpointed_config_writes_nothing(self, tmp_path):
        spec = ckpt_spec(seed=915, checkpoint_every=0)
        with JobQueue(workers=1,
                      checkpoint_dir=tmp_path / "ckpt") as queue:
            job = queue.submit(spec)
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
            assert queue.stats()["checkpoints"]["written_total"] == 0


class TestRetryResume:
    def test_retry_resumes_from_prior_attempts_snapshot(self, tmp_path):
        # The second snapshot save (gen 200) of attempt 1 dies with a
        # transient error; attempt 2 must pick up the gen-100 snapshot
        # instead of replaying from generation zero.
        plan = faults.FaultPlan.from_dict({"faults": [
            {"site": "io.save_checkpoint", "exception": "TransientError",
             "match": {"stage": "start"}, "after": 1, "times": 1},
        ]})
        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        spec = ckpt_spec(seed=920, retry=policy)
        with faults.armed(plan), JobQueue(
            workers=1, checkpoint_dir=tmp_path / "ckpt"
        ) as queue:
            job = queue.submit(spec)
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
            assert job.attempts == 2
            assert "TransientError" in job.last_failure
            stats = queue.stats()["checkpoints"]
            assert stats["resumed_total"] == 1
            # gen-100 (attempt 1) + gen-200 (attempt 2, after the resume).
            assert stats["written_total"] == 2
        assert plan.stats()[0]["triggered"] == 1
        assert_bit_identical(job.results, reference_results(spec))

    def test_failed_job_keeps_its_snapshots(self, tmp_path):
        # Permanent failure after a successful snapshot: the snapshots
        # stay on disk, so a journal replay can resume instead of rerun.
        plan = faults.FaultPlan.from_dict({"faults": [
            {"site": "io.save_checkpoint", "exception": "ValueError",
             "match": {"stage": "start"}, "after": 1, "times": 1},
        ]})
        spec = ckpt_spec(seed=925)
        with faults.armed(plan), JobQueue(
            workers=1, checkpoint_dir=tmp_path / "ckpt"
        ) as queue:
            job = queue.submit(spec)
            assert job.wait(timeout=60)
            assert job.state == JobState.FAILED
        # One *complete* snapshot (gen-100); the interrupted gen-200 save
        # left a meta-less directory that reads as a clean miss.
        complete = list((tmp_path / "ckpt").glob("unit-*/gen-*/meta.json"))
        assert len(complete) == 1
        assert complete[0].parent.name == f"gen-{100:012d}"


class TestReplayResume:
    def test_journal_replay_resumes_mid_run_bit_identically(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        ckpt_dir = tmp_path / "ckpt"
        # Slow the drivers enough to catch the job mid-run, then take the
        # process "down" the drain way: cancelled without a terminal
        # journal record — exactly what a crash leaves behind.
        slow = faults.FaultPlan.from_dict({"faults": [
            {"site": "driver.generation", "action": "delay",
             "delay": 0.002, "times": 1_000_000},
        ]})
        spec = ckpt_spec(seed=930, checkpoint_every=150, generations=600)
        queue = JobQueue(workers=1, journal=journal, checkpoint_dir=ckpt_dir)
        try:
            with faults.armed(slow):
                first = queue.submit(spec)
                wait_for(lambda: queue.checkpoints_written_total >= 1)
                drained = queue.drain(timeout=0.01)
        finally:
            queue.close()
        assert drained["requeued"] == 1
        assert first.state == JobState.CANCELLED
        assert list(ckpt_dir.glob("unit-*/gen-*"))  # snapshots survived

        with JobQueue(workers=1, journal=journal,
                      checkpoint_dir=ckpt_dir) as queue2:
            assert queue2.recovered_total == 1
            (job,) = queue2.jobs()
            assert job.recovered_from == first.job_id
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
            assert queue2.stats()["checkpoints"]["resumed_total"] >= 1
        assert_bit_identical(job.results, reference_results(spec))


class TestFingerprintNeutrality:
    def test_checkpoint_cadence_is_cache_neutral(self, tmp_path):
        with JobQueue(workers=1,
                      checkpoint_dir=tmp_path / "ckpt") as queue:
            checkpointed = queue.submit(ckpt_spec(seed=940))
            assert checkpointed.wait(timeout=60)
            assert checkpointed.state == JobState.DONE
            # The uncheckpointed twin asks for the same science: instant
            # cache hit off the checkpointed run's stored results.
            twin = queue.submit(ckpt_spec(seed=940, checkpoint_every=0))
            assert twin.wait(timeout=10)
            assert twin.cache_hit
            assert_bit_identical(twin.results, checkpointed.results)

    def test_spec_v1_dicts_still_replay(self):
        spec = ckpt_spec(seed=945)
        old = spec.to_dict()
        old["version"] = 1
        assert JobSpec.from_dict(old).fingerprint() == spec.fingerprint()
        future = spec.to_dict()
        future["version"] = 3
        with pytest.raises(ConfigurationError, match="version"):
            JobSpec.from_dict(future)
