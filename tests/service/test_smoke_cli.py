"""Subprocess smoke test: `repro serve` + client, the CI acceptance path.

Starts the real server process, submits two identical and one distinct
job, and asserts the duplicate is served from cache with results matching
a direct in-process ``run_sweep`` call.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.io import result_to_dict
from repro.service import JobSpec, SweepClient

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def served_url():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"listening on (http://[0-9.:]+)", line)
        assert match, f"no listen line from serve: {line!r}"
        yield match.group(1)
    finally:
        process.terminate()
        process.wait(timeout=10)


def test_serve_cache_hit_matches_direct(served_url):
    client = SweepClient(served_url)
    deadline = time.monotonic() + 10
    while True:
        try:
            client.health()
            break
        except Exception:
            assert time.monotonic() < deadline, "server never came up"
            time.sleep(0.1)

    configs = tuple(
        EvolutionConfig(n_ssets=8, generations=300, rounds=16, seed=700 + i)
        for i in range(2)
    )
    spec = JobSpec(configs=configs, backend="ensemble")
    distinct = JobSpec(
        configs=tuple(c.with_updates(seed=c.seed + 50) for c in configs),
        backend="ensemble",
    )

    first = client.submit(spec)
    second = client.submit(spec)
    third = client.submit(distinct)
    finals = [
        client.wait(s["job_id"], timeout=120) for s in (first, second, third)
    ]
    assert all(s["state"] == "done" for s in finals)
    assert finals[1]["cache_hit"] or finals[1]["coalesced_with"]
    assert not finals[2]["cache_hit"]

    p1 = client.result(first["job_id"], events=True)
    p2 = client.result(second["job_id"], events=True)
    assert p1["results"] == p2["results"]  # bit-identical duplicate payload

    volatile = ("wallclock_seconds", "cache_hits", "cache_misses", "backend")
    strip = lambda d: {k: v for k, v in d.items() if k not in volatile}
    direct = run_sweep(list(configs), backend="ensemble")
    for served, local in zip(p1["results"], direct):
        assert strip(served) == strip(
            result_to_dict(local, include_events=True)
        )
