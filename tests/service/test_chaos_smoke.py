"""Chaos smoke: kill a journaled server process and prove recovery.

The ISSUE PR 8 acceptance scenario, end to end through real processes:

* a ``repro serve --journal`` server is SIGKILLed mid-queue; a restart
  replays the write-ahead log and completes **every admitted job**;
* the restarted server runs under an armed ``REPRO_FAULTS`` plan that
  throws a transient worker exception on the first execution attempt —
  the per-job :class:`~repro.service.RetryPolicy` absorbs it and the
  payloads still come out **bit-identical** to a local ``run_sweep``;
* ``SIGTERM`` drains gracefully: the process exits 0 and the jobs it
  could not finish stay pending in the journal for the next start.
* (PR 9) a ``--checkpoint-dir`` server is SIGKILLed mid-*run*; the
  restart resumes the job from its mid-run snapshot — provably partial
  work (fewer progress ticks than generations) with a payload
  bit-identical to an uninterrupted local ``run_sweep``.

This is the test the CI chaos job runs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.core.progress import progress_scope
from repro.io import result_to_dict
from repro.service import JobJournal, JobSpec, RetryPolicy, SweepClient

SRC = Path(__file__).resolve().parents[2] / "src"

CONFIGS = [
    EvolutionConfig(n_ssets=8, generations=1500, rounds=16, seed=2100 + i)
    for i in range(3)
]
SPECS = [
    JobSpec(
        configs=(config,),
        retry=RetryPolicy(max_attempts=3, base_delay=0.05),
    )
    for config in CONFIGS
]

# Stretch every event generation so jobs take seconds, not milliseconds:
# the kill below must land while the queue still holds work.
SLOW_PLAN = json.dumps({"faults": [
    {"site": "driver.generation", "action": "delay", "delay": 0.02,
     "times": None},
]})

# One transient worker explosion on the first post-restart execution
# attempt; the job's RetryPolicy must absorb it.
FLAKY_PLAN = json.dumps({"faults": [
    {"site": "service.execute", "exception": "TransientError",
     "match": {"attempt": 1}, "times": 1},
]})

#: Payload keys that legitimately differ between server and local runs.
VOLATILE = ("wallclock_seconds", "cache_hits", "cache_misses", "backend")


def start_server(extra_args, *, env_faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    if env_faults is not None:
        env["REPRO_FAULTS"] = env_faults
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"listening on (http://[0-9.:]+)", line)
    assert match, f"no listen line from serve: {line!r}"
    client = SweepClient(match.group(1))
    deadline = time.monotonic() + 10
    while True:
        try:
            client.health()
            break
        except Exception:
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.05)
    return process, client


def strip_volatile(run: dict) -> dict:
    return {k: v for k, v in run.items() if k not in VOLATILE}


def test_sigkill_midqueue_then_restart_completes_every_job(tmp_path):
    wal = tmp_path / "jobs.wal"
    artifacts = tmp_path / "artifacts"

    process, client = start_server(
        ["--workers", "1", "--journal", str(wal),
         "--artifact-dir", str(artifacts), "--faults", SLOW_PLAN],
    )
    try:
        admitted = [client.submit(spec)["job_id"] for spec in SPECS]
        assert len(set(admitted)) == 3
    finally:
        # The crash: no drain, no shutdown hooks — the WAL is all that
        # survives.  The slow plan guarantees nothing finished yet.
        process.kill()
        process.wait(timeout=10)
    assert [r["job_id"] for r in JobJournal.replay(wal)] == admitted

    process, client = start_server(
        ["--workers", "1", "--journal", str(wal),
         "--artifact-dir", str(artifacts)],
        env_faults=FLAKY_PLAN,
    )
    try:
        replay_line = process.stdout.readline()
        assert "journal replayed 3 pending job(s)" in replay_line
        assert "fault plan armed" in process.stdout.readline()

        deadline = time.monotonic() + 120
        while True:
            jobs = client.jobs()
            if len(jobs) == 3 and all(
                j["state"] in ("done", "failed", "cancelled") for j in jobs
            ):
                break
            assert time.monotonic() < deadline, f"jobs never finished: {jobs}"
            time.sleep(0.2)

        # Every admitted job completed, attributed back to its pre-crash
        # identity, despite the injected worker exception.
        assert all(j["state"] == "done" for j in jobs)
        assert sorted(j["recovered_from"] for j in jobs) == sorted(admitted)
        retried = [j for j in jobs if j["retries"]]
        assert len(retried) == 1
        assert retried[0]["attempts"] == 2

        # Bit-identical payloads: the journaled spec pins the science.
        by_fingerprint = {
            spec.fingerprint(): config
            for spec, config in zip(SPECS, CONFIGS)
        }
        for job in jobs:
            payload = client.result(job["job_id"], events=True)
            config = by_fingerprint[job["fingerprint"]]
            direct = run_sweep([config], backend="ensemble")[0]
            assert strip_volatile(payload["results"][0]) == strip_volatile(
                result_to_dict(direct, include_events=True)
            )
    finally:
        process.terminate()
        process.wait(timeout=30)
    assert process.returncode == 0
    assert JobJournal.replay(wal) == []  # nothing left to recover


def test_sigkill_midrun_then_restart_resumes_from_snapshot(tmp_path):
    wal = tmp_path / "jobs.wal"
    ckpt = tmp_path / "ckpt"
    # One long checkpointed run on a server started with default flags.
    config = EvolutionConfig(
        n_ssets=8, generations=1500, rounds=16, seed=2300,
        checkpoint_every=300,
    )
    spec = JobSpec(configs=(config,))

    process, client = start_server(
        ["--workers", "1", "--journal", str(wal),
         "--checkpoint-dir", str(ckpt), "--faults", SLOW_PLAN],
    )
    try:
        job_id = client.submit(spec)["job_id"]
        # Wait until at least one mid-run snapshot is durable, then kill
        # while the run is still far from done (the slow plan stretches
        # the full horizon to ~30s; the first snapshot lands around 6s).
        deadline = time.monotonic() + 60
        while True:
            checkpoints = client.stats()["queue"]["checkpoints"]
            if checkpoints["written_total"] >= 1:
                break
            assert time.monotonic() < deadline, "no snapshot before deadline"
            time.sleep(0.2)
    finally:
        process.kill()
        process.wait(timeout=10)
    assert [r["job_id"] for r in JobJournal.replay(wal)] == [job_id]
    assert list(ckpt.glob("unit-*/gen-*/meta.json"))  # durable snapshot

    process, client = start_server(
        ["--workers", "1", "--journal", str(wal),
         "--checkpoint-dir", str(ckpt)],
    )
    try:
        assert "journal replayed 1 pending job(s)" in process.stdout.readline()
        deadline = time.monotonic() + 120
        while True:
            (job,) = client.jobs()
            if job["state"] in ("done", "failed", "cancelled"):
                break
            assert time.monotonic() < deadline, f"job never finished: {job}"
            time.sleep(0.2)

        assert job["state"] == "done"
        assert job["recovered_from"] == job_id
        assert client.stats()["queue"]["checkpoints"]["resumed_total"] >= 1

        # An uninterrupted local run of the same config, its progress
        # ticks counted: the restarted server must have executed strictly
        # less than that — the resumed tail, not the whole horizon.
        # (Same config for the reference: without a sink armed the
        # cadence field is inert.)
        full_ticks = 0

        def count_tick(tick):
            nonlocal full_ticks
            full_ticks += 1

        with progress_scope(count_tick):
            direct = run_sweep([config], backend="ensemble")[0]
        assert 0 < job["progress"]["ticks_seen"] < full_ticks

        # ... and partial execution is invisible in the science: the
        # payload is bit-identical to the uninterrupted run.
        payload = client.result(job["job_id"], events=True)
        assert strip_volatile(payload["results"][0]) == strip_volatile(
            result_to_dict(direct, include_events=True)
        )
    finally:
        process.terminate()
        process.wait(timeout=30)
    assert process.returncode == 0
    assert JobJournal.replay(wal) == []


def test_sigterm_drains_cleanly_and_journals_the_backlog(tmp_path):
    wal = tmp_path / "jobs.wal"
    process, client = start_server(
        ["--workers", "1", "--journal", str(wal),
         "--drain-timeout", "0.5", "--faults", SLOW_PLAN],
    )
    killed = False
    try:
        assert "fault plan armed" in process.stdout.readline()
        admitted = [client.submit(spec)["job_id"] for spec in SPECS[:2]]
        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
    except BaseException:
        killed = True
        process.kill()
        process.wait(timeout=10)
        raise
    finally:
        if not killed and process.poll() is None:  # pragma: no cover
            process.kill()
            process.wait(timeout=10)

    # Graceful exit: running job cancelled cooperatively at the 0.5s drain
    # deadline, the queued one immediately — neither got a terminal WAL
    # record, so both replay on the next start.
    assert process.returncode == 0
    assert "drained cleanly" in out
    assert [r["job_id"] for r in JobJournal.replay(wal)] == admitted
