"""Sweep-as-a-service: job specs, queue, result cache, HTTP server, client.

This package turns the library's :func:`~repro.api.run_sweep` into a
long-lived service (the paper's "production-scale screening" posture):

* :class:`JobSpec` — canonical, fingerprinted description of a sweep
  (:mod:`repro.service.jobspec`);
* :class:`JobQueue` — asyncio priority queue with bounded workers,
  backpressure, coalescing, live progress, retries, timeouts,
  cancellation, and graceful drain (:mod:`repro.service.queue`);
* :class:`JobJournal` — fsync'd JSONL write-ahead log of admissions; a
  restarted queue replays pending jobs (:mod:`repro.service.journal`);
* :class:`RetryPolicy` — per-job transient-failure retries with
  exponential backoff and deterministic jitter
  (:mod:`repro.service.retry`);
* :class:`ResultStore` — fingerprint-keyed LRU + optional disk artifacts
  (:mod:`repro.service.store`);
* :class:`SweepServer` / :class:`SweepClient` — stdlib JSON-over-HTTP
  front door and client (:mod:`repro.service.server` / ``.client``).

Everything is stdlib + numpy; no new dependencies.
"""

from .client import SweepClient
from .jobspec import PRIORITIES, SPEC_FORMAT_VERSION, JobSpec
from .journal import JobJournal
from .queue import Job, JobQueue, JobState
from .retry import RetryPolicy
from .server import SweepServer
from .store import ResultStore

__all__ = [
    "JobSpec",
    "PRIORITIES",
    "SPEC_FORMAT_VERSION",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobState",
    "ResultStore",
    "RetryPolicy",
    "SweepServer",
    "SweepClient",
]
