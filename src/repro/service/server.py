"""Stdlib JSON-over-HTTP front door for the sweep service.

One :class:`SweepServer` wraps a :class:`~repro.service.queue.JobQueue`
behind a :class:`http.server.ThreadingHTTPServer` — no frameworks, no new
dependencies.  The wire protocol is deliberately small:

==========  =============================  =======================================
method      path                           meaning
==========  =============================  =======================================
``POST``    ``/jobs``                      submit a :class:`JobSpec` dict ->
                                           ``200`` cache hit, ``202`` accepted,
                                           ``400`` bad spec, ``429`` queue full
                                           (with ``Retry-After``), ``503``
                                           draining (with ``Retry-After``)
``GET``     ``/jobs``                      list job statuses
``GET``     ``/jobs/<id>``                 one job's status (incl. live progress)
``GET``     ``/jobs/<id>/result``          results -> ``200`` done, ``202`` still
                                           running, ``404`` unknown, ``500`` failed
``DELETE``  ``/jobs/<id>``                 cancel a queued or running job ->
                                           ``200`` (``cancelled`` says whether it
                                           was still cancellable), ``404`` unknown
``GET``     ``/stats``                     queue / store counters
``GET``     ``/healthz``                   liveness probe
==========  =============================  =======================================

``/jobs/<id>/result`` takes ``?population=0`` and ``?events=1`` query
flags controlling payload size (see :func:`repro.io.result_to_dict`).

Responses are always JSON objects; errors carry ``{"error": ..., "detail":
...}``.  Bind to port ``0`` to let the OS pick (tests do) — the chosen
port is on :attr:`SweepServer.port` after :meth:`start`.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..errors import (
    ConfigurationError,
    DrainingError,
    JobNotFoundError,
    QueueFullError,
    ReproError,
)
from ..io.results_writer import result_to_dict
from .jobspec import JobSpec
from .queue import Job, JobQueue, JobState

__all__ = ["SweepServer"]

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd request bodies outright


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`SweepServer` (one per conn)."""

    # Set by SweepServer when the handler class is bound to a server.
    service: "SweepServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if self.service.verbose:
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self,
        status: int,
        error: str,
        detail: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_json(status, {"error": error, "detail": detail}, headers)

    def _read_json_body(self) -> Any:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            raise ConfigurationError(
                f"header 'Content-Length': expected a byte count, got "
                f"{raw_length!r}"
            ) from None
        if length <= 0:
            raise ConfigurationError("request body is empty (expected JSON)")
        if length > _MAX_BODY:
            raise ConfigurationError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigurationError(f"request body is not valid JSON: {err}")

    # -- routes ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        if parsed.path.rstrip("/") != "/jobs":
            self._send_error_json(404, "not_found", f"no route {self.path!r}")
            return
        try:
            payload = self._read_json_body()
            spec = JobSpec.from_dict(payload)
            job = self.service.queue.submit(spec)
        except QueueFullError as err:
            # Retry-After lets well-behaved clients back off instead of
            # hammering a full queue (SweepClient honors it).
            self._send_error_json(
                429, "queue_full", str(err), {"Retry-After": "1"}
            )
            return
        except DrainingError as err:
            self._send_error_json(
                503, "draining", str(err), {"Retry-After": "5"}
            )
            return
        except (ConfigurationError, ReproError) as err:
            self._send_error_json(400, "bad_request", str(err))
            return
        status = 200 if job.cache_hit else 202
        self._send_json(status, job.status_dict())

    def do_DELETE(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._send_error_json(404, "not_found", f"no route {self.path!r}")
            return
        try:
            cancelled = self.service.queue.cancel(parts[1])
        except JobNotFoundError as err:
            self._send_error_json(404, "job_not_found", str(err))
            return
        job = self.service.queue.get(parts[1])
        self._send_json(
            200,
            {
                "job_id": job.job_id,
                "cancelled": cancelled,
                "state": job.state,
            },
        )

    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200, {"status": "ok", "version": __version__}
                )
            elif parts == ["stats"]:
                self._send_json(200, self.service.stats())
            elif parts == ["jobs"]:
                self._send_json(
                    200,
                    {
                        "jobs": [
                            j.status_dict() for j in self.service.queue.jobs()
                        ]
                    },
                )
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self.service.queue.get(parts[1])
                self._send_json(200, job.status_dict())
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "result"
            ):
                self._send_result(self.service.queue.get(parts[1]), query)
            else:
                self._send_error_json(
                    404, "not_found", f"no route {self.path!r}"
                )
        except JobNotFoundError as err:
            self._send_error_json(404, "job_not_found", str(err))

    def _send_result(self, job: Job, query: dict[str, list[str]]) -> None:
        if job.state == JobState.FAILED:
            self._send_error_json(
                500, "job_failed", job.error or "job failed"
            )
            return
        if job.state != JobState.DONE or job.results is None:
            self._send_json(
                202,
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "detail": "job not finished; poll again",
                    "progress": job.status_dict()["progress"],
                },
            )
            return
        include_population = _flag(query, "population", default=True)
        include_events = _flag(query, "events", default=False)
        self._send_json(
            200,
            {
                "job_id": job.job_id,
                "state": job.state,
                "cache_hit": job.cache_hit,
                "fingerprint": job.fingerprint,
                "results": [
                    result_to_dict(
                        r,
                        include_population=include_population,
                        include_events=include_events,
                    )
                    for r in job.results
                ],
            },
        )


def _flag(query: dict[str, list[str]], name: str, *, default: bool) -> bool:
    values = query.get(name)
    if not values:
        return default
    return values[-1].strip().lower() not in ("0", "false", "no", "off", "")


class SweepServer:
    """The sweep service's HTTP surface (see module docstring).

    Owns a :class:`JobQueue` (constructed from the keyword arguments
    unless an existing one is passed) and serves it over a threading HTTP
    server.  Use as a context manager, or :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        queue: JobQueue | None = None,
        verbose: bool = False,
        **queue_opts: Any,
    ) -> None:
        if queue is not None and queue_opts:
            raise ConfigurationError(
                "pass either an existing queue or queue options, not both: "
                f"got queue plus {sorted(queue_opts)}"
            )
        self.host = host
        self.queue = queue if queue is not None else JobQueue(**queue_opts)
        self._owns_queue = queue is None
        self.verbose = verbose
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stats(self) -> dict[str, Any]:
        return {
            "version": __version__,
            "queue": self.queue.stats(),
            "store": self.queue.store.stats(),
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "SweepServer":
        """Serve in a background thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="sweep-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` entry point)."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def drain(self, timeout: float = 30.0) -> dict[str, int]:
        """Graceful shutdown: 503 new submissions, settle running jobs,
        journal the backlog, then stop serving (the SIGTERM path).

        The HTTP front door stays up *during* the drain so in-flight
        clients can keep polling their jobs (submissions get ``503`` +
        ``Retry-After`` from the first moment); it closes only once the
        queue has settled.  Returns the queue's drain counters.
        """
        summary = self.queue.drain(timeout)
        self.stop()
        return summary

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if self._owns_queue:
            self.queue.close()

    def __enter__(self) -> "SweepServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
