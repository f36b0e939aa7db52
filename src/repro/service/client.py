"""Programmatic client for the sweep service (urllib only, no deps).

:class:`SweepClient` speaks the :mod:`repro.service.server` wire protocol
and converts its error envelope back into the library's exception types:
``429`` -> :class:`~repro.errors.QueueFullError`, ``503`` ->
:class:`~repro.errors.DrainingError`, ``404`` on a job route ->
:class:`~repro.errors.JobNotFoundError`, ``400`` ->
:class:`~repro.errors.ConfigurationError`, anything else ->
:class:`~repro.errors.ServiceError` — so service callers handle failures
exactly like local :func:`~repro.api.run_sweep` callers do.

The client is also backpressure-polite:

* :meth:`submit` can retry ``429``/``503`` rejections, honoring the
  server's ``Retry-After`` header (attached to the raised exception as
  ``retry_after``) with capped decorrelated-jitter backoff between
  attempts, so a fleet of clients spreads out instead of stampeding a
  full or draining queue in lockstep.
* :meth:`wait` polls with the same decorrelated jitter, starting at
  ``poll_interval`` and backing off up to ``poll_cap`` — short jobs still
  resolve in ~one interval while long jobs don't get hammered at 20 Hz
  for minutes.

Both accept an injectable ``rng`` so tests pin the jitter sequence.

Typical use::

    from repro.service import SweepClient

    client = SweepClient("http://127.0.0.1:8642")
    job = client.submit_sweep(base_config, n_runs=16, base_seed=7)
    status = client.wait(job["job_id"])
    payload = client.result(job["job_id"])
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from ..api.sweep import derive_sweep_seeds
from ..core.config import EvolutionConfig
from ..errors import (
    ConfigurationError,
    DrainingError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from .jobspec import JobSpec

__all__ = ["SweepClient"]


class SweepClient:
    """Thin JSON/HTTP client for a running :class:`SweepServer`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        rng: random.Random | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Jitter source for submit retries and wait polling (injectable so
        #: tests pin the sequence).
        self.rng = rng if rng is not None else random.Random()

    # -- transport -------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            raise self._to_exception(err) from None
        except urllib.error.URLError as err:
            raise ServiceError(
                f"cannot reach sweep service at {self.base_url}: {err.reason}"
            ) from None

    @staticmethod
    def _to_exception(err: urllib.error.HTTPError) -> ServiceError:
        try:
            body = json.loads(err.read().decode("utf-8"))
            detail = body.get("detail", "") or body.get("error", "")
        except Exception:
            detail = err.reason
        message = f"HTTP {err.code}: {detail}"
        retry_after = None
        raw = err.headers.get("Retry-After") if err.headers else None
        if raw is not None:
            try:
                retry_after = float(raw)
            except ValueError:
                pass
        if err.code == 429:
            exc: ServiceError = QueueFullError(message)
        elif err.code == 503:
            exc = DrainingError(message)
        elif err.code == 404:
            exc = JobNotFoundError(message)
        elif err.code == 400:
            exc = ConfigurationError(message)
        else:
            exc = ServiceError(message)
        #: Seconds the server asked us to back off (None when it didn't).
        exc.retry_after = retry_after  # type: ignore[attr-defined]
        return exc

    def _jittered(self, previous: float, base: float, cap: float) -> float:
        """Next decorrelated-jitter delay: uniform in [base, 3*previous],
        capped — successive draws decorrelate callers that started in sync.
        """
        return min(cap, self.rng.uniform(base, max(base, previous * 3.0)))

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec | Mapping[str, Any],
        *,
        retries: int = 0,
        backoff_cap: float = 10.0,
    ) -> dict[str, Any]:
        """Submit a job spec; returns the server's job-status dict.

        A cache hit comes back already ``done`` with ``cache_hit`` true.
        With ``retries`` > 0, ``429`` (queue full) and ``503`` (draining)
        rejections are retried up to that many times, sleeping the
        server's ``Retry-After`` when given (jittered backoff otherwise,
        capped at ``backoff_cap`` seconds) before each new attempt.
        """
        payload = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        delay = 0.05
        for attempt in range(retries + 1):
            try:
                return self._request("POST", "/jobs", payload)
            except (QueueFullError, DrainingError) as err:
                if attempt >= retries:
                    raise
                hinted = getattr(err, "retry_after", None)
                if hinted is not None:
                    delay = min(backoff_cap, hinted)
                else:
                    delay = self._jittered(delay, 0.05, backoff_cap)
                time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def submit_sweep(
        self,
        config: EvolutionConfig,
        n_runs: int = 1,
        *,
        base_seed: int | None = None,
        backend: str | None = None,
        priority: str = "batch",
        label: str = "",
        retries: int = 0,
    ) -> dict[str, Any]:
        """Replicate ``config`` ``n_runs`` times and submit in one call.

        Seeds derive client-side via
        :func:`~repro.api.derive_sweep_seeds`, so the submitted spec is
        explicit about every run's seed (and fingerprints accordingly).
        ``backend=None`` lets the spec pick for its configs and run count
        (:func:`~repro.service.jobspec.default_backend`).
        """
        seeds = derive_sweep_seeds(
            config.seed if base_seed is None else base_seed, n_runs
        )
        configs = tuple(config.with_updates(seed=s) for s in seeds)
        spec = JobSpec(
            configs=configs, backend=backend, priority=priority, label=label
        )
        return self.submit(spec, retries=retries)

    # -- queries ---------------------------------------------------------------

    def job(self, job_id: str) -> dict[str, Any]:
        """One job's status (including live progress while running)."""
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        """All job statuses the server remembers, oldest first."""
        return self._request("GET", "/jobs")["jobs"]

    def result(
        self,
        job_id: str,
        *,
        population: bool = True,
        events: bool = False,
    ) -> dict[str, Any]:
        """A finished job's result payload.

        Raises :class:`ServiceError` for a failed job; a still-running job
        returns a ``state != "done"`` body (use :meth:`wait` first).
        """
        flags = f"?population={int(population)}&events={int(events)}"
        return self._request("GET", f"/jobs/{job_id}/result{flags}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued or running job (``DELETE /jobs/<id>``).

        The response's ``cancelled`` flag says whether the job was still
        cancellable; a running job aborts cooperatively shortly after.
        """
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.05,
        poll_cap: float = 2.0,
    ) -> dict[str, Any]:
        """Poll until the job finishes; returns its final status dict.

        Polling starts at ``poll_interval`` and backs off with
        decorrelated jitter up to ``poll_cap`` seconds, so long jobs are
        not hammered while short jobs still resolve promptly.
        """
        deadline = time.monotonic() + timeout
        delay = poll_interval
        while True:
            status = self._request("GET", f"/jobs/{job_id}")
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"timed out after {timeout:.0f}s waiting for {job_id} "
                    f"(state={status['state']!r})"
                )
            delay = self._jittered(delay, poll_interval, poll_cap)
            time.sleep(min(delay, max(0.0, deadline - now)))

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")
