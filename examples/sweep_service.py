#!/usr/bin/env python3
"""Sweep service: submit ensembles to a long-lived server and reuse results.

Starts an in-process sweep server (the same thing ``repro serve`` runs),
then walks through the service workflow:

1. submit a replicate ensemble through the HTTP front door;
2. poll its live progress while the lanes advance;
3. resubmit the *identical* science and get the cached result back in
   milliseconds — bit-identical payload, no re-execution;
4. submit an ``interactive``-priority job and watch it jump the batch
   queue;
5. cancel a runaway job — it stops cooperatively at tick cadence;
6. the fault-tolerance finale: ``kill -9`` a real ``repro serve``
   process mid-queue, restart it on the same ``--journal``, and watch
   every admitted job replay to completion;
7. the durability finale: ``kill -9`` a server mid-*run* and watch the
   restart resume the job from its newest mid-run snapshot
   (``--checkpoint-dir``) instead of recomputing from generation zero —
   with a bit-identical result.

Everything below also works against a separate server process — start one
with ``repro serve`` and point ``SweepClient`` at its URL.

Run:  python examples/sweep_service.py
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro import EvolutionConfig
from repro.service import JobSpec, SweepClient, SweepServer

REPLICATES = 8
MASTER_SEED = 20130521  # the paper's conference date


def spec_for(seed0: int, priority: str = "batch", label: str = "") -> JobSpec:
    return JobSpec(
        configs=tuple(
            EvolutionConfig(
                memory_steps=2, n_ssets=16, generations=20_000, rounds=200,
                seed=seed0 + i, record_events=False,
            )
            for i in range(REPLICATES)
        ),
        priority=priority,
        label=label,
    )


def main() -> None:
    with SweepServer(port=0, workers=2) as server:
        client = SweepClient(server.url)
        print(f"server up at {server.url}\n")

        # 1. Submit a batch ensemble.
        job = client.submit(spec_for(MASTER_SEED, label="demo-ensemble"))
        print(f"submitted {job['job_id']} "
              f"({REPLICATES} replicates, state={job['state']})")

        # 2. Poll progress while it runs.
        while True:
            status = client.job(job["job_id"])
            progress = status["progress"]
            print(f"  {status['state']:<8} "
                  f"runs {progress['runs_done']}/{progress['runs_total']}  "
                  f"ticks {progress['ticks_seen']}")
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.2)

        # 3. Resubmit the identical science: a cache hit, no re-execution.
        started = time.perf_counter()
        duplicate = client.submit(spec_for(MASTER_SEED))
        elapsed_ms = (time.perf_counter() - started) * 1e3
        print(f"\nduplicate submission: state={duplicate['state']} "
              f"cache_hit={duplicate['cache_hit']} in {elapsed_ms:.1f} ms")
        original = client.result(job["job_id"], population=False)
        cached = client.result(duplicate["job_id"], population=False)
        print(f"payloads bit-identical: "
              f"{original['results'] == cached['results']}")

        # 4. Interactive jobs jump the batch queue.
        batch = client.submit(spec_for(MASTER_SEED + 1000, "batch"))
        urgent = client.submit(
            spec_for(MASTER_SEED + 2000, "interactive", label="urgent")
        )
        client.wait(urgent["job_id"], timeout=300)
        client.wait(batch["job_id"], timeout=300)
        stats = client.stats()
        print(f"\nqueue: {stats['queue']['submitted_total']} submitted, "
              f"{stats['queue']['cache_hit_total']} cache hits; "
              f"store: {stats['store']['entries']} entries")

        for i, run in enumerate(original["results"][:3]):
            dominant = run["dominant"]
            print(f"[run={i}] dominant {dominant['bits']} "
                  f"at {dominant['share']:.1%}")

        # 5. Cancel a runaway job: DELETE /jobs/<id> interrupts the
        # running execution cooperatively at progress-tick cadence.
        runaway = client.submit(JobSpec(
            configs=(EvolutionConfig(
                memory_steps=2, n_ssets=16, generations=100_000_000,
                seed=MASTER_SEED + 9000, record_events=False,
            ),),
            label="runaway",
        ))
        time.sleep(0.3)  # let it reach the worker
        client.cancel(runaway["job_id"])
        final = client.wait(runaway["job_id"], timeout=60)
        print(f"\nrunaway job {final['job_id']}: state={final['state']} "
              f"({final['error']})")


def kill_and_recover() -> None:
    """Durable journal: SIGKILL a live server mid-queue, lose nothing."""
    state = Path(tempfile.mkdtemp(prefix="sweep-service-demo-"))
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--workers", "1", "--journal", str(state / "jobs.wal"),
        "--artifact-dir", str(state / "results"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).resolve().parents[1])
        + os.pathsep + env.get("PYTHONPATH", "")
    )

    def start():
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        banner = process.stdout.readline()
        url = re.search(r"listening on (http://[0-9.:]+)", banner).group(1)
        return process, SweepClient(url)

    process, client = start()
    admitted = [
        client.submit(spec_for(MASTER_SEED + 3000 + i * 100))["job_id"]
        for i in range(2)
    ]
    # The crash: no drain, no shutdown hooks.  Both jobs were journaled
    # before their submissions were acknowledged, so the WAL has them.
    process.kill()
    process.wait()
    print(f"\nkilled -9 with {len(admitted)} jobs admitted: {admitted}")

    process, client = start()
    try:
        print(process.stdout.readline().strip())  # "journal replayed ..."
        while any(
            status["state"] not in ("done", "failed", "cancelled")
            for status in client.jobs()
        ):
            time.sleep(0.2)
        for status in client.jobs():
            print(f"  {status['job_id']} "
                  f"(was {status['recovered_from']} before the crash) "
                  f"-> {status['state']}")
    finally:
        process.terminate()  # SIGTERM: graceful drain, clean exit
        process.wait(timeout=30)


def kill_and_resume_midrun() -> None:
    """Mid-run checkpointing: SIGKILL a server mid-*run*, resume, finish.

    The job's configs set ``checkpoint_every``, the server a
    ``--checkpoint-dir`` — together they snapshot the full run state
    (arrays, RNG stream positions, event log) at that cadence.  After the
    kill, the restart replays the journaled job and resumes it from the
    newest snapshot; the finished payload is bit-identical to an
    uninterrupted run.
    """
    state = Path(tempfile.mkdtemp(prefix="sweep-service-demo-"))
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--workers", "1",
        "--journal", str(state / "jobs.wal"),
        "--checkpoint-dir", str(state / "checkpoints"),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(repro.__file__).resolve().parents[1])
        + os.pathsep + env.get("PYTHONPATH", "")
    )

    def start():
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        banner = process.stdout.readline()
        url = re.search(r"listening on (http://[0-9.:]+)", banner).group(1)
        return process, SweepClient(url)

    # One long run, snapshotting every 20k generations.
    spec = JobSpec(
        configs=(EvolutionConfig(
            memory_steps=2, n_ssets=16, generations=200_000, rounds=200,
            seed=MASTER_SEED + 5000, record_events=False,
            checkpoint_every=20_000,
        ),),
        label="long-checkpointed-run",
    )

    process, client = start()
    job_id = client.submit(spec)["job_id"]
    while client.stats()["queue"]["checkpoints"]["written_total"] < 2:
        time.sleep(0.05)
    process.kill()
    process.wait()
    print(f"\nkilled -9 mid-run with snapshots on disk for {job_id}")

    process, client = start()
    try:
        print(process.stdout.readline().strip())  # "journal replayed ..."
        while any(
            status["state"] not in ("done", "failed", "cancelled")
            for status in client.jobs()
        ):
            time.sleep(0.2)
        (status,) = client.jobs()
        checkpoints = client.stats()["queue"]["checkpoints"]
        generations = spec.configs[0].generations
        print(f"  {status['job_id']} "
              f"(was {status['recovered_from']}) -> {status['state']}; "
              f"resumed {checkpoints['resumed_total']} run(s); the "
              f"{status['progress']['ticks_seen']} progress ticks cover "
              f"only the resumed tail of the {generations}-generation "
              f"horizon")
    finally:
        process.terminate()
        process.wait(timeout=30)


if __name__ == "__main__":
    main()
    kill_and_recover()
    kill_and_resume_midrun()
