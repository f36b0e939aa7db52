"""Tests for the async job queue: scheduling, caching, backpressure."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import EvolutionConfig
from repro.errors import ConfigurationError, QueueFullError, ServiceError
from repro.service import JobQueue, JobSpec, JobState


def spec_for(seed: int, n: int = 1, **overrides) -> JobSpec:
    defaults = dict(backend="ensemble")
    defaults.update(overrides)
    return JobSpec(
        configs=tuple(
            EvolutionConfig(
                n_ssets=8, generations=300, rounds=16, seed=seed + i
            )
            for i in range(n)
        ),
        **defaults,
    )


class GatedRunner:
    """A run_sweep stand-in whose jobs block until released (determinism)."""

    def __init__(self):
        self.gate = threading.Event()
        self.order: list[int] = []
        self.started = threading.Event()

    def __call__(self, configs, **kwargs):
        self.started.set()
        assert self.gate.wait(timeout=30), "test gate never released"
        self.order.append(configs[0].seed)
        on_result = kwargs.get("on_result")
        from repro.api import run_sweep

        return run_sweep(configs, backend="ensemble", on_result=on_result)


class TestExecution:
    def test_submit_runs_and_caches(self):
        with JobQueue(workers=2) as queue:
            spec = spec_for(seed=50)
            job = queue.submit(spec)
            assert job.wait(timeout=60)
            assert job.state == JobState.DONE
            assert not job.cache_hit
            assert job.results is not None

            duplicate = queue.submit(spec_for(seed=50))
            assert duplicate.finished  # instant — no execution
            assert duplicate.cache_hit
            assert duplicate.results[0] is job.results[0]
            assert queue.cache_hit_total == 1

    def test_progress_streams(self):
        with JobQueue(workers=1) as queue:
            job = queue.submit(spec_for(seed=60, n=2))
            assert job.wait(timeout=60)
            status = job.status_dict()
            assert status["progress"]["runs_total"] == 2
            assert status["progress"]["runs_done"] == 2
            assert status["progress"]["ticks_seen"] > 0
            runs = status["progress"]["runs"]
            assert set(runs) == {"0", "1"}
            for tick in runs.values():
                assert 0 < tick["generation"] < tick["generations"]

    def test_failed_job(self):
        def boom(configs, **kwargs):
            raise RuntimeError("engine exploded")

        with JobQueue(workers=1, _run_sweep=boom) as queue:
            job = queue.submit(spec_for(seed=70))
            assert job.wait(timeout=30)
            assert job.state == JobState.FAILED
            assert "engine exploded" in job.error
            assert job.results is None
            # A failure is not cached: the next submission re-executes.
            assert queue.store.get(job.fingerprint) is None

    def test_unknown_backend_rejected_at_submit(self):
        with JobQueue(workers=1) as queue:
            with pytest.raises(ConfigurationError, match="warp-drive"):
                queue.submit(spec_for(seed=80, backend="warp-drive"))


class TestScheduling:
    def test_coalescing(self):
        runner = GatedRunner()
        with JobQueue(workers=1, _run_sweep=runner) as queue:
            leader = queue.submit(spec_for(seed=90))
            assert runner.started.wait(timeout=10)
            follower = queue.submit(spec_for(seed=90))
            assert follower.coalesced_with == leader.job_id
            runner.gate.set()
            assert leader.wait(timeout=30) and follower.wait(timeout=30)
            assert follower.cache_hit
            assert follower.results[0] is leader.results[0]
            assert queue.coalesced_total == 1
            assert runner.order == [90]  # executed exactly once

    def test_interactive_jumps_batch(self):
        runner = GatedRunner()
        with JobQueue(workers=1, _run_sweep=runner) as queue:
            blocker = queue.submit(spec_for(seed=100))
            assert runner.started.wait(timeout=10)
            batch = queue.submit(spec_for(seed=101, priority="batch"))
            urgent = queue.submit(spec_for(seed=102, priority="interactive"))
            runner.gate.set()
            for job in (blocker, batch, urgent):
                assert job.wait(timeout=60)
            assert runner.order == [100, 102, 101]

    def test_fifo_within_class(self):
        runner = GatedRunner()
        with JobQueue(workers=1, _run_sweep=runner) as queue:
            blocker = queue.submit(spec_for(seed=110))
            assert runner.started.wait(timeout=10)
            jobs = [queue.submit(spec_for(seed=111 + i)) for i in range(3)]
            runner.gate.set()
            for job in [blocker, *jobs]:
                assert job.wait(timeout=60)
            assert runner.order == [110, 111, 112, 113]

    def test_backpressure(self):
        runner = GatedRunner()
        with JobQueue(workers=1, max_queued=2, _run_sweep=runner) as queue:
            running = queue.submit(spec_for(seed=120))
            assert runner.started.wait(timeout=10)
            queue.submit(spec_for(seed=121))
            queue.submit(spec_for(seed=122))
            with pytest.raises(QueueFullError, match="full"):
                queue.submit(spec_for(seed=123))
            assert queue.rejected_total == 1
            runner.gate.set()
            assert running.wait(timeout=30)

    def test_cache_hit_bypasses_backpressure(self):
        runner = GatedRunner()
        with JobQueue(workers=1, max_queued=1, _run_sweep=runner) as queue:
            first = queue.submit(spec_for(seed=130))
            assert runner.started.wait(timeout=10)
            runner.gate.set()
            assert first.wait(timeout=30)
            runner.gate.clear()
            blocker = queue.submit(spec_for(seed=131))
            deadline = time.time() + 10
            while blocker.state != JobState.RUNNING:  # leave the heap empty
                assert time.time() < deadline
                time.sleep(0.01)
            queue.submit(spec_for(seed=132))  # fills the queue
            # A duplicate of the finished job is served from cache even
            # with the queue full.
            hit = queue.submit(spec_for(seed=130))
            assert hit.cache_hit
            runner.gate.set()
            assert blocker.wait(timeout=30)


class TestLifecycle:
    def test_close_fails_queued_jobs(self):
        runner = GatedRunner()
        queue = JobQueue(workers=1, _run_sweep=runner)
        running = queue.submit(spec_for(seed=140))
        assert runner.started.wait(timeout=10)
        waiting = queue.submit(spec_for(seed=141))
        # Close drains the waiting job first, then waits for the running
        # one — release the gate only once the drain has landed, so the
        # waiting job can never sneak into execution.
        closer = threading.Thread(target=queue.close)
        closer.start()
        assert waiting.wait(timeout=10)
        assert waiting.state == JobState.FAILED
        assert "shutting down" in waiting.error
        runner.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert running.state == JobState.DONE
        with pytest.raises(ServiceError, match="shutting down"):
            queue.submit(spec_for(seed=142))

    def test_lookup_and_stats(self):
        with JobQueue(workers=1) as queue:
            job = queue.submit(spec_for(seed=150))
            assert queue.get(job.job_id) is job
            assert job in queue.jobs()
            from repro.errors import JobNotFoundError

            with pytest.raises(JobNotFoundError, match="job-999999"):
                queue.get("job-999999")
            assert job.wait(timeout=60)
            stats = queue.stats()
            assert stats["submitted_total"] == 1
            assert stats["states"]["done"] == 1

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            JobQueue(workers=0)
        with pytest.raises(ConfigurationError):
            JobQueue(max_queued=0)
