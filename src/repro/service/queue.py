"""Async job queue: priority scheduling, backpressure, durability, retries.

The queue is the service's execution heart.  An :mod:`asyncio` event loop
(own daemon thread) runs one scheduler coroutine that admits jobs into a
bounded worker pool:

* **priority classes** — ``interactive`` jobs jump every queued ``batch``
  job (FIFO within a class): a million small queries coexist with big
  ensembles without head-of-line blocking.
* **backpressure** — at most ``max_queued`` jobs wait; past that,
  :meth:`submit` raises :class:`~repro.errors.QueueFullError`, which the
  HTTP front door maps to ``429`` (now with ``Retry-After``) so callers
  retry with backoff instead of piling work onto a drowning server.
* **result caching** — a submission whose fingerprint is already in the
  :class:`~repro.service.store.ResultStore` completes instantly
  (``cache_hit``), returning the stored — bit-identical — results.
* **coalescing** — a submission whose fingerprint matches a job currently
  queued or running attaches to it instead of executing twice; followers
  resolve the moment the leader finishes.
* **streaming progress** — each run's generation counter and partial
  event counters are updated live through
  :func:`~repro.core.progress.progress_scope` (the driver-level hooks),
  pollable via :meth:`Job.status_dict` while the job runs.

Fault tolerance (PR 8) adds four guarantees on top:

* **durability** — with a ``journal`` path, every admission is written to
  an fsync'd JSONL WAL (:class:`~repro.service.journal.JobJournal`)
  *before* it becomes visible; on restart the journal replays and every
  queued or in-flight job is re-admitted.  A crash loses nothing, and
  results stay bit-identical because job fingerprints pin the science.
* **retries** — a :class:`~repro.service.retry.RetryPolicy` on the spec
  re-attempts transient failures with exponential backoff and
  deterministic jitter; permanent errors (bad configs, bugs) fail fast.
* **timeout / cancel** — ``spec.timeout`` arms a wall-clock deadline and
  :meth:`cancel` serves ``DELETE /jobs/<id>``; both act through one
  :class:`~repro.core.progress.CancelToken` per job that the drivers
  check cooperatively at progress-tick cadence, so a hung or unwanted job
  aborts within one event generation and frees its worker slot.
* **graceful drain** — :meth:`drain` stops admissions, lets running jobs
  finish up to a deadline, cancels stragglers *without* terminal journal
  records (they replay on restart alongside the still-queued backlog),
  and leaves the queue ready for a clean :meth:`close`.

Mid-run checkpointing (PR 9) shrinks the replay cost of all of the above:
with a ``checkpoint_dir``, jobs whose configs set ``checkpoint_every``
snapshot their full run state at that cadence
(:mod:`repro.core.runstate` via :class:`~repro.io.run_checkpoint.RunCheckpointer`),
each save leaves a non-terminal ``checkpoint`` record in the journal, and
a replayed or retried job resumes **bit-identically** from its newest
valid snapshot — same events, same trajectory, same payload — instead of
recomputing from generation zero.  Successful jobs discard their
snapshots; corrupt ones quarantine and fall back (older snapshot, then
full replay).

Jobs execute through :func:`repro.api.run_sweep` in executor threads —
the actual science path is exactly the library one.  Fault-injection sites
(``"service.execute"``, ``"service.journal"``) are compiled in so every
path above is provable with :mod:`repro.faults` instead of luck.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
import traceback
from collections import OrderedDict
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .. import faults
from ..api.backends import get_backend
from ..api.sweep import run_sweep
from ..core.evolution import EvolutionResult
from ..core.progress import CancelToken, ProgressTick, cancel_scope, progress_scope
from ..core.runstate import checkpoint_scope
from ..errors import (
    ConfigurationError,
    DrainingError,
    JobCancelledError,
    JobNotFoundError,
    JobTimeoutError,
    QueueFullError,
    ReproError,
    ServiceError,
)
from ..io.run_checkpoint import RunCheckpointer
from .jobspec import PRIORITIES, JobSpec
from .journal import JobJournal
from .retry import RetryPolicy
from .store import ResultStore

__all__ = ["Job", "JobQueue", "JobState"]


class JobState:
    """Job lifecycle states (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


class Job:
    """One submission's lifecycle, status, and (eventually) results."""

    def __init__(self, job_id: str, spec: JobSpec, fingerprint: str) -> None:
        self.job_id = job_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.state = JobState.QUEUED
        self.submitted_unix = time.time()
        self.started_unix: float | None = None
        self.finished_unix: float | None = None
        self.cache_hit = False
        #: Leader job id when this submission coalesced onto an in-flight
        #: duplicate instead of executing.
        self.coalesced_with: str | None = None
        self.error: str | None = None
        self.results: list[EvolutionResult] | None = None
        #: One token for the job's whole lifetime: client cancels, the
        #: wall-clock deadline, and drain cancellation all land here, and
        #: the drivers poll it cooperatively at progress-tick cadence.
        self.cancel_token = CancelToken()
        self.attempts = 0
        self.retries = 0
        self.last_failure = ""
        #: Original job id when this admission was replayed from a journal.
        self.recovered_from: str | None = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._runs_done = 0
        self._ticks_seen = 0
        self._latest_ticks: dict[int, ProgressTick] = {}

    # -- progress plumbing (called from the executing worker thread) ----------

    def _on_tick(self, tick: ProgressTick) -> None:
        with self._lock:
            self._ticks_seen += 1
            self._latest_ticks[tick.run_index] = tick

    def _on_run_complete(self, index: int, result: EvolutionResult) -> None:
        with self._lock:
            self._runs_done += 1

    # -- state transitions -----------------------------------------------------

    def _begin_attempt(self, attempt: int) -> None:
        with self._lock:
            self.state = JobState.RUNNING
            self.attempts = attempt
            now = time.time()
            if self.started_unix is None:
                self.started_unix = now
            if attempt == 1 and self.spec.timeout is not None:
                # The deadline covers the whole job — retries included —
                # so a retry storm cannot stretch a job past its budget.
                self.cancel_token.deadline = (
                    time.monotonic() + self.spec.timeout
                )

    def _note_retry(self, description: str) -> None:
        with self._lock:
            self.retries += 1
            self.last_failure = description

    def _mark_done(
        self,
        results: list[EvolutionResult],
        *,
        cache_hit: bool,
        coalesced_with: str | None = None,
    ) -> None:
        with self._lock:
            self.results = results
            self.cache_hit = cache_hit
            self.coalesced_with = coalesced_with
            self.state = JobState.DONE
            self.finished_unix = time.time()
            self._runs_done = len(results)
        self._done.set()

    def _mark_failed(
        self, error: str, *, coalesced_with: str | None = None
    ) -> None:
        with self._lock:
            self.error = error
            self.coalesced_with = coalesced_with
            self.state = JobState.FAILED
            self.finished_unix = time.time()
        self._done.set()

    def _mark_cancelled(
        self, reason: str, *, coalesced_with: str | None = None
    ) -> None:
        with self._lock:
            self.error = reason
            self.coalesced_with = coalesced_with
            self.state = JobState.CANCELLED
            self.finished_unix = time.time()
        self._done.set()

    # -- public API ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes (done, failed, or cancelled)."""
        return self._done.wait(timeout)

    def status_dict(self) -> dict[str, Any]:
        """JSON-compatible status snapshot (the ``GET /jobs/<id>`` body)."""
        with self._lock:
            ticks = {
                str(i): {
                    "generation": t.generation,
                    "generations": t.generations,
                    "fraction": round(t.fraction, 6),
                    "n_pc_events": t.n_pc_events,
                    "n_adoptions": t.n_adoptions,
                    "n_mutations": t.n_mutations,
                }
                for i, t in sorted(self._latest_ticks.items())
            }
            return {
                "job_id": self.job_id,
                "state": self.state,
                "fingerprint": self.fingerprint,
                "backend": self.spec.backend,
                "priority": self.spec.priority,
                "label": self.spec.label,
                "n_configs": len(self.spec.configs),
                "submitted_unix": self.submitted_unix,
                "started_unix": self.started_unix,
                "finished_unix": self.finished_unix,
                "cache_hit": self.cache_hit,
                "coalesced_with": self.coalesced_with,
                "error": self.error,
                "attempts": self.attempts,
                "retries": self.retries,
                "timeout": self.spec.timeout,
                "cancel_requested": self.cancel_token.cancelled,
                "recovered_from": self.recovered_from,
                "progress": {
                    "runs_total": len(self.spec.configs),
                    "runs_done": self._runs_done,
                    "ticks_seen": self._ticks_seen,
                    "runs": ticks,
                },
            }


class _CheckpointBridge:
    """Per-job checkpoint sink over the queue's :class:`RunCheckpointer`.

    Delegates saves and loads to the shared file sink while tying the
    activity back to the owning job: every save is journaled as a
    non-terminal ``checkpoint`` record (journal replay skips unknown
    types, so older builds still read the log), queue-level counters are
    bumped for ``GET /stats``, and the unit keys the job touched are
    remembered so a successfully finished job can discard its snapshots.
    """

    def __init__(self, queue: "JobQueue", job: Job) -> None:
        self._queue = queue
        self._job = job
        self.units: set[str] = set()
        self.saves = 0
        self.resumes = 0

    def save(
        self,
        unit: str,
        generation: int,
        meta: dict[str, Any],
        arrays: dict[str, np.ndarray],
    ) -> None:
        assert self._queue.checkpointer is not None
        self._queue.checkpointer.save(unit, generation, meta, arrays)
        self.units.add(unit)
        self.saves += 1
        with self._queue._lock:
            self._queue.checkpoints_written_total += 1
        # Best-effort breadcrumb only — the snapshot itself is already
        # durable, and a failed journal append must not abort the science
        # mid-run.
        try:
            self._queue._journal_record(
                "checkpoint",
                self._job.job_id,
                unit=unit,
                generation=generation,
            )
        except Exception:
            pass

    def load_latest(
        self, unit: str
    ) -> tuple[dict[str, Any], dict[str, np.ndarray]] | None:
        assert self._queue.checkpointer is not None
        state = self._queue.checkpointer.load_latest(unit)
        self.units.add(unit)
        if state is not None:
            self.resumes += 1
            with self._queue._lock:
                self._queue.resumed_total += 1
        return state


class JobQueue:
    """Bounded async job queue over ``run_sweep`` (see module docstring).

    Parameters
    ----------
    workers:
        Executor threads (= concurrently running jobs).
    max_queued:
        Waiting-job bound; submissions past it raise
        :class:`~repro.errors.QueueFullError` (coalesced followers and
        instant cache hits never occupy a slot).
    store:
        Result cache (a fresh in-memory :class:`ResultStore` by default).
    coalesce:
        Attach duplicate in-flight submissions to the running leader
        instead of executing them twice (default on).
    history:
        Finished jobs retained for ``GET /jobs`` listings.
    journal:
        Path of the durable job journal (JSONL WAL).  When given, every
        admission is journaled before it is visible, and construction
        replays any pending jobs a previous process left behind
        (``recovered_total`` counts them).  ``None`` = in-memory only,
        the PR 6 behavior.
    checkpoint_dir:
        Root directory for mid-run run-state snapshots
        (:class:`~repro.io.run_checkpoint.RunCheckpointer`).  When given,
        jobs whose configs set ``checkpoint_every`` snapshot at that
        cadence, and a replayed or retried job resumes bit-identically
        from its newest valid snapshot instead of recomputing from
        generation zero.  Snapshots reach the in-process sweep path only
        (``spec.workers`` unset/1 — the service default); process-pool
        fan-out runs without them.  A job that finishes successfully
        discards its snapshots.  ``None`` = no mid-run checkpointing.
    """

    def __init__(
        self,
        workers: int = 2,
        max_queued: int = 64,
        store: ResultStore | None = None,
        coalesce: bool = True,
        history: int = 1024,
        journal: str | Path | None = None,
        checkpoint_dir: str | Path | None = None,
        _run_sweep: Callable[..., list[EvolutionResult]] = run_sweep,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_queued < 1:
            raise ConfigurationError(
                f"max_queued must be >= 1, got {max_queued}"
            )
        self.workers = workers
        self.max_queued = max_queued
        self.store = store if store is not None else ResultStore()
        self.coalesce = coalesce
        self.history = history
        self._run_sweep = _run_sweep

        self._lock = threading.Lock()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._active: dict[str, Job] = {}
        self._followers: dict[str, list[Job]] = {}
        self._closing = False
        self._draining = False
        self._replaying = False
        self.submitted_total = 0
        self.cache_hit_total = 0
        self.coalesced_total = 0
        self.rejected_total = 0
        self.retries_total = 0
        self.cancelled_total = 0
        self.timeout_total = 0
        self.recovered_total = 0
        self.recovery_errors = 0
        #: Shared-engine memory accounting aggregated from finished jobs'
        #: backend reports: the largest ``peak_paymat_bytes`` any job's
        #: lane-batched group reached, plus the most recent group's stats
        #: verbatim (``GET /stats`` surfaces both).
        self.engine_peak_paymat_bytes = 0
        self.last_shared_engine: dict[str, int] | None = None
        self.checkpointer: RunCheckpointer | None = (
            RunCheckpointer(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        self.checkpoints_written_total = 0
        self.resumed_total = 0

        # Read the backlog before the journal is touched for appending —
        # replay is a pure read of whatever the previous process left.
        self.journal: JobJournal | None = None
        pending: list[dict[str, Any]] = []
        if journal is not None:
            pending = JobJournal.replay(journal)
            self.journal = JobJournal(journal)

        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="sweep-job"
        )
        self._loop = asyncio.new_event_loop()
        self._wake: asyncio.Event | None = None
        self._scheduler_done = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, name="sweep-queue", daemon=True
        )
        self._started = threading.Event()
        self._thread.start()
        self._started.wait()

        if self.journal is not None:
            self._recover(pending)

    # -- journal plumbing ------------------------------------------------------

    def _journal_record(self, type: str, job_id: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.record(type, job_id, **fields)

    def _journal_terminal(self, type: str, job_id: str, **fields: Any) -> None:
        """Best-effort terminal record, written *before* the job is marked
        (waiters must never observe a terminal job the WAL calls pending).
        A failed append is swallowed: the job stays pending in the WAL and
        a restart simply replays it — deterministic, so that is safe."""
        try:
            self._journal_record(type, job_id, **fields)
        except Exception:
            pass

    def _recover(self, pending: list[dict[str, Any]]) -> None:
        """Re-admit the journal's backlog through the normal submit path.

        The journal is compacted (atomically truncated) first; every
        replayed admission then writes a fresh ``submitted`` record, so
        the log never grows across restart cycles.  Jobs whose results
        landed in the disk store before the crash replay straight into
        cache hits — nothing re-executes unnecessarily.
        """
        assert self.journal is not None
        self.journal.reset()
        if not pending:
            return
        self._replaying = True
        try:
            for record in pending:
                try:
                    spec = JobSpec.from_dict(record.get("spec", {}))
                    self.submit(spec, recovered_from=record.get("job_id"))
                    self.recovered_total += 1
                except ReproError:
                    # A spec this build can no longer parse or validate is
                    # dropped with a counter — recovery must not wedge the
                    # whole queue on one bad record.
                    self.recovery_errors += 1
        finally:
            self._replaying = False

    # -- event loop ------------------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(self.workers)
        self._loop.call_soon(self._started.set)
        self._loop.create_task(self._scheduler())
        self._loop.run_forever()
        # Drain cancelled callbacks so the loop closes cleanly.
        self._loop.close()

    async def _scheduler(self) -> None:
        """Admit the highest-priority queued job whenever a slot frees up."""
        assert self._wake is not None
        try:
            while True:
                await self._slots.acquire()
                job: Job | None = None
                while job is None:
                    if self._closing:
                        self._slots.release()
                        return
                    self._wake.clear()
                    job = self._pop_next()
                    if job is None:
                        await self._wake.wait()
                asyncio.ensure_future(self._run_job(job))
        finally:
            self._scheduler_done.set()

    async def _run_job(self, job: Job) -> None:
        try:
            await self._loop.run_in_executor(
                self._executor, self._execute, job
            )
        finally:
            self._slots.release()

    def _pop_next(self) -> Job | None:
        with self._lock:
            if not self._heap:
                return None
            _, _, job = heapq.heappop(self._heap)
            return job

    def _notify(self) -> None:
        """Wake the scheduler from any thread."""
        def _set() -> None:
            assert self._wake is not None
            self._wake.set()

        self._loop.call_soon_threadsafe(_set)

    # -- execution (worker thread) --------------------------------------------

    def _execute(self, job: Job) -> None:
        spec = job.spec
        policy = spec.retry if spec.retry is not None else RetryPolicy()
        failure: str | None = None
        outcome = JobState.DONE
        attempt = 0
        # One bridge for the job's whole lifetime, so a retry attempt picks
        # up the snapshots its predecessor wrote instead of replaying from
        # generation zero.
        ckpt = (
            _CheckpointBridge(self, job)
            if self.checkpointer is not None
            else None
        )
        while True:
            attempt += 1
            job._begin_attempt(attempt)
            try:
                self._journal_record("started", job.job_id, attempt=attempt)
                # A cancel that landed while the job sat queued (or during
                # a retry backoff) aborts here, before any science runs.
                job.cancel_token.check()
                faults.check(
                    "service.execute",
                    job_id=job.job_id,
                    attempt=attempt,
                    fingerprint=job.fingerprint,
                )
                with progress_scope(job._on_tick), cancel_scope(
                    job.cancel_token
                ), (
                    checkpoint_scope(ckpt)
                    if ckpt is not None
                    else nullcontext()
                ):
                    results = self._run_sweep(
                        list(spec.configs),
                        backend=spec.backend,
                        workers=spec.workers,
                        on_result=job._on_run_complete,
                    )
                self.store.put(job.fingerprint, results)
                self._note_engine_stats(results)
                # WAL before visibility: a waiter observing DONE must
                # imply the journal already agrees.  A failed append here
                # falls through to the retry/failure classification — the
                # job is not done until it is durably done.
                self._journal_record("done", job.job_id)
                job._mark_done(results, cache_hit=False)
                outcome = JobState.DONE
                break
            except JobCancelledError as err:
                if isinstance(err, JobTimeoutError):
                    with self._lock:
                        self.timeout_total += 1
                    failure = (
                        f"JobTimeoutError: exceeded the {spec.timeout}s "
                        f"wall-clock timeout on attempt {attempt} "
                        "(cancelled cooperatively at tick cadence)"
                    )
                    self._journal_terminal(
                        "failed", job.job_id, error=failure
                    )
                    job._mark_failed(failure)
                    outcome = JobState.FAILED
                elif self._draining:
                    # Drain cancellation is deliberate non-completion: no
                    # terminal journal record, so the submitted record
                    # survives and a restart replays the job.
                    failure = str(err) or "cancelled"
                    job._mark_cancelled(failure)
                    outcome = JobState.CANCELLED
                else:
                    failure = str(err) or "cancelled"
                    with self._lock:
                        self.cancelled_total += 1
                    self._journal_terminal(
                        "cancelled", job.job_id, reason=failure
                    )
                    job._mark_cancelled(failure)
                    outcome = JobState.CANCELLED
                break
            except Exception as err:
                description = f"{type(err).__name__}: {err}"
                retryable = (
                    policy.is_transient(err)
                    and attempt < policy.max_attempts
                    and not self._closing
                    and not self._draining
                )
                if retryable:
                    with self._lock:
                        self.retries_total += 1
                    job._note_retry(description)
                    delay = policy.backoff_delay(attempt, key=job.fingerprint)
                    # Sleep on the cancel token so a client cancel or a
                    # drain cuts the backoff short; the next iteration's
                    # token check converts it into a cancellation.
                    job.cancel_token.wait(delay)
                    continue
                failure = description
                self._journal_terminal(
                    "failed", job.job_id, error=description
                )
                job._mark_failed(
                    description + "\n" + traceback.format_exc(limit=8)
                )
                outcome = JobState.FAILED
                break
        if ckpt is not None and outcome == JobState.DONE:
            # A finished job's results are in the store; its snapshots are
            # dead weight.  Failed and cancelled jobs keep theirs, so a
            # journal replay resumes mid-run instead of from scratch.
            for unit in ckpt.units:
                self.checkpointer.discard(unit)
        with self._lock:
            followers = self._followers.pop(job.fingerprint, [])
            self._active.pop(job.fingerprint, None)
        for follower in followers:
            if outcome == JobState.DONE:
                assert job.results is not None
                self._journal_terminal("done", follower.job_id)
                follower._mark_done(
                    job.results, cache_hit=True, coalesced_with=job.job_id
                )
            elif outcome == JobState.CANCELLED:
                if not self._draining:
                    self._journal_terminal(
                        "cancelled", follower.job_id, reason=failure
                    )
                follower._mark_cancelled(
                    failure or "cancelled", coalesced_with=job.job_id
                )
            else:
                self._journal_terminal(
                    "failed", follower.job_id, error=failure
                )
                follower._mark_failed(
                    failure or "failed", coalesced_with=job.job_id
                )

    def _note_engine_stats(self, results: list) -> None:
        """Fold a finished job's shared-engine memory stats into the queue
        aggregates (results without shared-engine reports are skipped)."""
        with self._lock:
            for result in results:
                report = getattr(result, "backend_report", None)
                if report is None or report.shared_engine is None:
                    continue
                stats = report.shared_engine
                peak = int(
                    stats.get(
                        "peak_paymat_bytes", stats.get("paymat_bytes", 0)
                    )
                )
                if peak > self.engine_peak_paymat_bytes:
                    self.engine_peak_paymat_bytes = peak
                self.last_shared_engine = dict(stats)

    # -- submission / lookup ---------------------------------------------------

    def submit(
        self, spec: JobSpec, *, recovered_from: str | None = None
    ) -> Job:
        """Admit a job: cache hit, coalesce, enqueue, or reject (429/503).

        Raises :class:`~repro.errors.ConfigurationError` for an unknown
        backend (a 400 at the front door),
        :class:`~repro.errors.QueueFullError` past ``max_queued``, and
        :class:`~repro.errors.DrainingError` while the queue drains (503).
        Enqueued and coalesced admissions are journaled *before* they
        become visible, so a crash between admission and execution can
        never lose them.
        """
        get_backend(spec.backend)  # unknown names fail fast, pre-queue
        fingerprint = spec.fingerprint()
        with self._lock:
            if self._closing:
                raise ServiceError("the job queue is shutting down")
            if self._draining:
                raise DrainingError(
                    "the sweep service is draining and no longer admits "
                    "jobs; retry against the restarted server"
                )
            self.submitted_total += 1
            job = Job(f"job-{next(self._ids):06d}", spec, fingerprint)
            job.recovered_from = recovered_from
            cached = self.store.get(fingerprint)
            if cached is not None:
                self.cache_hit_total += 1
                self._register(job)
                hit = True
            elif self.coalesce and fingerprint in self._active:
                leader = self._active[fingerprint]
                self._journal_submit(job)
                self._followers.setdefault(fingerprint, []).append(job)
                job.coalesced_with = leader.job_id
                self.coalesced_total += 1
                self._register(job)
                return job
            else:
                # Replay re-admits the whole backlog even when it exceeds
                # max_queued — bouncing journaled jobs at startup would
                # turn a restart into data loss.
                if not self._replaying and len(self._heap) >= self.max_queued:
                    self.rejected_total += 1
                    raise QueueFullError(
                        f"job queue is full ({self.max_queued} waiting); "
                        "retry later or lower submission rate"
                    )
                self._journal_submit(job)
                rank = PRIORITIES.index(spec.priority)
                heapq.heappush(self._heap, (rank, next(self._seq), job))
                self._active[fingerprint] = job
                self._register(job)
                hit = False
        if hit:
            job._mark_done(cached, cache_hit=True)
        else:
            self._notify()
        return job

    def _journal_submit(self, job: Job) -> None:
        """WAL the admission (locked); raising aborts it un-admitted."""
        fields: dict[str, Any] = {
            "fingerprint": job.fingerprint,
            "spec": job.spec.to_dict(),
        }
        if job.recovered_from is not None:
            fields["recovered_from"] = job.recovered_from
        self._journal_record("submitted", job.job_id, **fields)

    def _register(self, job: Job) -> None:
        """Record the job for listings, trimming finished history (locked)."""
        self._jobs[job.job_id] = job
        while len(self._jobs) > self.history:
            for job_id, old in self._jobs.items():
                if old.finished:
                    del self._jobs[job_id]
                    break
            else:
                break  # everything live — let the registry grow

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobNotFoundError(f"no job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        """All known jobs, submission order (oldest first)."""
        with self._lock:
            return list(self._jobs.values())

    # -- cancellation ----------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "cancelled by client") -> bool:
        """Cancel one job (the ``DELETE /jobs/<id>`` path).

        A queued job (or coalesced follower) is removed and terminal
        immediately; a running job's token is cancelled and the drivers
        abort it cooperatively at the next progress tick.  Returns False
        when the job already finished (nothing to cancel).  Raises
        :class:`~repro.errors.JobNotFoundError` for unknown ids.
        """
        job = self.get(job_id)
        finish: list[tuple[Job, str | None]] = []
        with self._lock:
            if job.finished:
                return False
            if job.state == JobState.QUEUED:
                in_heap = any(entry[2] is job for entry in self._heap)
                if in_heap:
                    self._heap = [e for e in self._heap if e[2] is not job]
                    heapq.heapify(self._heap)
                    self._active.pop(job.fingerprint, None)
                    finish.append((job, None))
                    # Orphaned followers die with their leader.
                    for follower in self._followers.pop(
                        job.fingerprint, []
                    ):
                        finish.append((follower, job.job_id))
                else:
                    # A follower: detach it from its leader only.
                    flock = self._followers.get(job.fingerprint, [])
                    if job in flock:
                        flock.remove(job)
                        finish.append((job, job.coalesced_with))
            if not finish:
                # Running (or mid-admission): cooperative cancel; the
                # worker thread writes the terminal state and journal
                # record when the drivers surface the abort.
                job.cancel_token.cancel(reason)
                return True
        for victim, coalesced_with in finish:
            victim.cancel_token.cancel(reason)
            self._journal_terminal(
                "cancelled", victim.job_id, reason=reason
            )
            victim._mark_cancelled(reason, coalesced_with=coalesced_with)
            with self._lock:
                self.cancelled_total += 1
        return True

    # -- stats -----------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> dict[str, Any]:
        with self._lock:
            states = {
                "queued": 0,
                "running": 0,
                "done": 0,
                "failed": 0,
                "cancelled": 0,
            }
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "workers": self.workers,
                "max_queued": self.max_queued,
                "waiting": len(self._heap),
                "draining": self._draining,
                "states": states,
                "submitted_total": self.submitted_total,
                "cache_hit_total": self.cache_hit_total,
                "coalesced_total": self.coalesced_total,
                "rejected_total": self.rejected_total,
                "retries_total": self.retries_total,
                "cancelled_total": self.cancelled_total,
                "timeout_total": self.timeout_total,
                "recovered_total": self.recovered_total,
                "recovery_errors": self.recovery_errors,
                "journal": (
                    {
                        "path": str(self.journal.path),
                        "records_written": self.journal.records_written,
                    }
                    if self.journal is not None
                    else None
                ),
                "checkpoints": (
                    {
                        "dir": str(self.checkpointer.root),
                        "written_total": self.checkpoints_written_total,
                        "resumed_total": self.resumed_total,
                    }
                    if self.checkpointer is not None
                    else None
                ),
                "engine": {
                    "peak_paymat_bytes": self.engine_peak_paymat_bytes,
                    "last_shared_engine": self.last_shared_engine,
                },
            }

    # -- drain / shutdown ------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> dict[str, int]:
        """Graceful drain: stop admitting, settle running jobs, journal the
        rest.

        New submissions raise :class:`~repro.errors.DrainingError` (503)
        from the first moment.  Queued jobs are cancelled in memory but
        keep their journal ``submitted`` records, so a restart replays
        them; running jobs get up to ``timeout`` seconds to finish, then
        are cancelled cooperatively — also without terminal journal
        records, so they replay too.  Returns counters (``finished`` /
        ``requeued``) and leaves the queue ready for :meth:`close`.
        """
        with self._lock:
            if self._closing:
                raise ServiceError("cannot drain a closed queue")
            first = not self._draining
            self._draining = True
            queued = [job for _, _, job in self._heap] if first else []
            if first:
                self._heap.clear()
            follower_map = {
                job.fingerprint: self._followers.pop(job.fingerprint, [])
                for job in queued
            }
            for job in queued:
                self._active.pop(job.fingerprint, None)
            running = list(self._active.values())
        requeued = 0
        for job in queued:
            job._mark_cancelled(
                "server draining; job journaled and will replay on restart"
            )
            requeued += 1
            for follower in follower_map[job.fingerprint]:
                follower._mark_cancelled(
                    "server draining; job journaled and will replay on "
                    "restart",
                    coalesced_with=job.job_id,
                )
                requeued += 1
        self._notify()
        deadline = time.monotonic() + timeout
        finished = 0
        stragglers: list[Job] = []
        for job in running:
            remaining = deadline - time.monotonic()
            if job.wait(max(0.0, remaining)):
                finished += 1
            else:
                stragglers.append(job)
        for job in stragglers:
            job.cancel_token.cancel(
                "drain deadline reached; job journaled and will replay on "
                "restart"
            )
        for job in stragglers:
            # Cooperative aborts land within one event generation; the
            # bounded grace keeps a truly wedged backend from hanging the
            # drain (close() will then surface the leaked worker).
            if job.wait(timeout=10):
                requeued += 1
        return {"finished": finished, "requeued": requeued}

    #: Seconds close() waits for the scheduler and event-loop threads
    #: before declaring the shutdown wedged (class-level so the leak tests
    #: can shrink it without a 10s wait).
    _JOIN_TIMEOUT = 10.0

    def close(self) -> None:
        """Stop accepting, fail queued jobs, wait for running ones, shut down.

        Raises :class:`~repro.errors.ServiceError` when the scheduler or
        event-loop thread fails to stop within :attr:`_JOIN_TIMEOUT`
        seconds — a wedged shutdown leaks threads and must be visible,
        not silent.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            abandoned = [job for _, _, job in self._heap]
            self._heap.clear()
            for job in abandoned:
                self._active.pop(job.fingerprint, None)
        for job in abandoned:
            followers = self._followers.pop(job.fingerprint, [])
            self._journal_terminal(
                "failed", job.job_id, error="server shutting down"
            )
            job._mark_failed("server shutting down")
            for follower in followers:
                self._journal_terminal(
                    "failed", follower.job_id, error="server shutting down"
                )
                follower._mark_failed(
                    "server shutting down", coalesced_with=job.job_id
                )
        self._notify()
        problems: list[str] = []
        if not self._scheduler_done.wait(timeout=self._JOIN_TIMEOUT):
            problems.append(
                f"scheduler failed to stop within {self._JOIN_TIMEOUT:g}s "
                "(a worker thread is likely wedged in a job)"
            )
        # A wedged scheduler means a wedged worker: don't hang forever on
        # the executor too, surface the leak instead.
        self._executor.shutdown(wait=not problems)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self._JOIN_TIMEOUT)
        if self._thread.is_alive():
            problems.append(
                "event-loop thread failed to join within "
                f"{self._JOIN_TIMEOUT:g}s"
            )
        if self.journal is not None:
            self.journal.close()
        if problems:
            raise ServiceError(
                "job queue shutdown leaked threads: " + "; ".join(problems)
            )

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
