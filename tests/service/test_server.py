"""End-to-end tests for the HTTP front door and SweepClient."""

from __future__ import annotations

import threading

import pytest

from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.errors import (
    ConfigurationError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.io import result_to_dict
from repro.service import JobQueue, JobSpec, SweepClient, SweepServer

#: Execution-envelope keys that legitimately differ between a service run
#: and a direct run_sweep call (timing; pair-sharing evaluation counters).
VOLATILE = ("wallclock_seconds", "cache_hits", "cache_misses", "backend")


def science(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in VOLATILE}


def _wait_for_state(
    client: SweepClient, job_id: str, state: str, timeout: float = 10.0
) -> None:
    import time

    deadline = time.monotonic() + timeout
    while client.job(job_id)["state"] != state:
        assert time.monotonic() < deadline, f"{job_id} never hit {state!r}"
        time.sleep(0.01)


def spec_for(seed: int, n: int = 1) -> JobSpec:
    return JobSpec(
        configs=tuple(
            EvolutionConfig(
                n_ssets=8, generations=300, rounds=16, seed=seed + i
            )
            for i in range(n)
        ),
    )


@pytest.fixture
def server():
    with SweepServer(port=0, workers=2) as srv:
        yield srv


@pytest.fixture
def client(server):
    return SweepClient(server.url)


class TestEndToEnd:
    def test_concurrent_duplicate_and_distinct(self, client):
        """The acceptance path: two identical + one distinct submission,
        concurrently; the duplicate's payload is bit-identical to the
        original's and matches a direct run_sweep call."""
        duplicate_spec = spec_for(seed=500, n=2).to_dict()
        distinct_spec = spec_for(seed=600, n=2).to_dict()
        statuses = [None, None, None]

        def submit(i, payload):
            statuses[i] = client.submit(payload)

        threads = [
            threading.Thread(target=submit, args=(i, payload))
            for i, payload in enumerate(
                [duplicate_spec, duplicate_spec, distinct_spec]
            )
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        finals = [client.wait(s["job_id"], timeout=120) for s in statuses]
        assert all(s["state"] == "done" for s in finals)
        # One of the two identical submissions executed; the other was a
        # cache hit or coalesced onto the leader.
        assert finals[0]["cache_hit"] or finals[1]["cache_hit"]
        assert not finals[2]["cache_hit"]
        assert finals[0]["fingerprint"] == finals[1]["fingerprint"]
        assert finals[2]["fingerprint"] != finals[0]["fingerprint"]

        payloads = [
            client.result(s["job_id"], events=True) for s in statuses
        ]
        assert payloads[0]["results"] == payloads[1]["results"]

        direct = run_sweep(
            [EvolutionConfig.from_dict(c) for c in duplicate_spec["configs"]],
            backend="ensemble",
        )
        for served, local in zip(payloads[0]["results"], direct):
            assert science(served) == science(
                result_to_dict(local, include_events=True)
            )

    def test_result_payload_flags(self, client):
        job_id = client.submit(spec_for(seed=510))["job_id"]
        client.wait(job_id, timeout=60)
        full = client.result(job_id)
        slim = client.result(job_id, population=False)
        assert "population" in full["results"][0]
        assert "population" not in slim["results"][0]
        assert "events" not in slim["results"][0]

    def test_job_listing_and_stats(self, client):
        job_id = client.submit(spec_for(seed=520))["job_id"]
        client.wait(job_id, timeout=60)
        assert any(j["job_id"] == job_id for j in client.jobs())
        stats = client.stats()
        assert stats["queue"]["submitted_total"] >= 1
        assert stats["store"]["stores"] >= 1
        assert client.health()["status"] == "ok"


class TestErrorMapping:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(JobNotFoundError):
            client.job("job-424242")
        with pytest.raises(JobNotFoundError):
            client.result("job-424242")

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ConfigurationError, match="generations"):
            client.submit(
                {"configs": [{"generations": "many"}]}
            )

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")

    def test_unreachable_server(self):
        client = SweepClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_queue_full_is_429(self):
        gate = threading.Event()

        def gated(configs, **kwargs):
            assert gate.wait(timeout=30)
            from repro.api import run_sweep as real

            return real(configs, backend="ensemble")

        queue = JobQueue(workers=1, max_queued=1, _run_sweep=gated)
        try:
            with SweepServer(port=0, queue=queue) as srv:
                client = SweepClient(srv.url)
                running = client.submit(spec_for(seed=530))
                _wait_for_state(client, running["job_id"], "running")
                # Fill the single waiting slot, then overflow it.
                client.submit(spec_for(seed=531))
                with pytest.raises(QueueFullError):
                    client.submit(spec_for(seed=532))
                gate.set()
                client.wait(running["job_id"], timeout=60)
        finally:
            gate.set()
            queue.close()

    def test_result_while_running_is_202(self):
        gate = threading.Event()

        def gated(configs, **kwargs):
            assert gate.wait(timeout=30)
            from repro.api import run_sweep as real

            return real(configs, backend="ensemble")

        queue = JobQueue(workers=1, _run_sweep=gated)
        try:
            with SweepServer(port=0, queue=queue) as srv:
                client = SweepClient(srv.url)
                job_id = client.submit(spec_for(seed=540))["job_id"]
                pending = client.result(job_id)  # 202, not an error
                assert pending["state"] in ("queued", "running")
                assert "progress" in pending
                gate.set()
                client.wait(job_id, timeout=60)
                assert client.result(job_id)["state"] == "done"
        finally:
            gate.set()
            queue.close()

    def test_failed_job_result_is_500(self):
        def boom(configs, **kwargs):
            raise RuntimeError("no science today")

        queue = JobQueue(workers=1, _run_sweep=boom)
        try:
            with SweepServer(port=0, queue=queue) as srv:
                client = SweepClient(srv.url)
                job_id = client.submit(spec_for(seed=550))["job_id"]
                final = client.wait(job_id, timeout=30)
                assert final["state"] == "failed"
                with pytest.raises(ServiceError, match="no science today"):
                    client.result(job_id)
        finally:
            queue.close()
