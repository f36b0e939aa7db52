"""Malformed submissions fail at the HTTP boundary with a 400 naming the
field, and a journal naming a retired backend replays without wedging."""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlparse

import pytest

from repro.api import available_backends
from repro.service import JobJournal, JobSpec, SweepClient, SweepServer

from test_queue import spec_for


def post_raw(url: str, body: bytes, content_length: str | None = None):
    """POST ``body`` to ``/jobs``; ``(status, decoded JSON response)``."""
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader(
            "Content-Length",
            str(len(body)) if content_length is None else content_length,
        )
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def spec_dict(seed: int, **fields) -> dict:
    payload = spec_for(seed=seed).to_dict()
    payload.update(fields)
    return payload


@pytest.fixture(scope="module")
def server():
    with SweepServer(port=0, workers=1) as srv:
        yield srv


class TestMalformedSubmissions:
    def test_non_numeric_content_length(self, server):
        status, body = post_raw(server.url, b"{}", content_length="abc")
        assert status == 400
        assert body["error"] == "bad_request"
        assert "Content-Length" in body["detail"]

    @pytest.mark.parametrize(
        "retry, field",
        [
            ({"max_attempts": "3"}, "retry.max_attempts"),
            ({"max_attempts": 2.5}, "retry.max_attempts"),
            ({"max_attempts": True}, "retry.max_attempts"),
            ({"jitter": "x"}, "retry.jitter"),
            ({"transient": 5}, "retry.transient"),
            ({"base_delay": float("nan")}, "retry.base_delay"),
            ({"max_delay": float("inf")}, "retry.max_delay"),
            ({"factor": float("nan")}, "retry.factor"),
        ],
    )
    def test_bad_retry_field(self, server, retry, field):
        # json.dumps writes NaN and Infinity, which json.loads accepts.
        body = json.dumps(spec_dict(700, retry=retry)).encode("utf-8")
        status, response = post_raw(server.url, body)
        assert status == 400
        assert response["error"] == "bad_request"
        assert field in response["detail"]

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, -1])
    def test_bad_timeout(self, server, timeout):
        body = json.dumps(spec_dict(710, timeout=timeout)).encode("utf-8")
        status, response = post_raw(server.url, body)
        assert status == 400
        assert response["error"] == "bad_request"
        assert "timeout" in response["detail"]

    def test_server_still_serves_after_bad_requests(self, server):
        post_raw(server.url, b"{}", content_length="abc")
        client = SweepClient(server.url)
        job_id = client.submit(spec_for(seed=720))["job_id"]
        assert client.wait(job_id, timeout=60)["state"] == "done"


class TestRetiredBackend:
    def test_submission_lists_registered_backends(self, server):
        body = json.dumps(spec_dict(730, backend="multiprocess"))
        status, response = post_raw(server.url, body.encode("utf-8"))
        assert status == 400
        assert response["error"] == "bad_request"
        assert "'multiprocess'" in response["detail"]
        for name in available_backends():
            assert name in response["detail"]

    def test_journaled_job_replays_as_recovery_error(self, tmp_path):
        wal = tmp_path / "jobs.wal"
        journal = JobJournal(wal)
        journal.record(
            "submitted", "job-0", spec=spec_dict(740, backend="multiprocess")
        )
        journal.close()
        with SweepServer(port=0, workers=1, journal=wal) as srv:
            client = SweepClient(srv.url)
            queue_stats = client.stats()["queue"]
            assert queue_stats["recovery_errors"] == 1
            assert queue_stats["recovered_total"] == 0
            job_id = client.submit(
                JobSpec(configs=spec_for(seed=741).configs, backend="ensemble")
            )["job_id"]
            assert client.wait(job_id, timeout=60)["state"] == "done"
