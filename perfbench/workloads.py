"""The benchmark's three workloads: inputs, timed loop and output checks.

Importing this module is cheap (no NumPy, no ``repro``): the parent
process reads :data:`WORKLOADS` for names and reasons, and only the child
process (:mod:`worker`) builds and runs a workload.

Every input is derived from the workload seed, so one seed always gives
the same inputs.  An *operation* is one ``run_sweep`` call (ensemble
workloads) or one job (``serve-event``); timing covers operations only,
and every output check runs after the timed region.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Replicates of the ensemble sweeps.  Their generations are set so one
#: call takes 2-4 s: the host's speed drifts in regimes lasting seconds,
#: and calls that each span several seconds keep the per-call latency
#: median from jumping between regimes.
REPLICATES = 64
#: Lanes of an ensemble sweep re-run on the ``event`` backend as a check.
CHECK_LANES = (0, REPLICATES - 1)
#: Generations of the warm-up call's few lanes (absorbs lazy set-up: the
#: rawstream self-check, kernel and engine allocation).
WARM_GENERATIONS = 200

#: serve-event: closed-loop clients, replicates per job, generations per
#: replicate, how often a submission repeats an earlier spec, and the
#: per-client job window the exact per-layer counts are taken over.
CLIENTS = 2
JOB_REPLICATES = 2
JOB_GENERATIONS = 4000
REPEAT_EVERY = 4
COUNT_WINDOW = 8
#: serve-event drives the server in segments of this many seconds, with a
#: host reference slice between them (see reference.py).
SEGMENT_S = 5.0
#: Executed jobs per client whose payloads are re-run locally as a check.
CHECK_JOBS = 2
#: Result-payload keys that legitimately differ between two executions.
VOLATILE = ("wallclock_seconds", "cache_hits", "cache_misses", "backend")

#: name -> (why, parameters)
WORKLOADS: dict[str, tuple[str, dict]] = {
    "wm-m2-ens": (
        "paper's headline replicate sweep on the shared-engine fast path; "
        "rawstream decoding and the per-event loop dominate",
        dict(structure="well-mixed", memory=2, generations=10_000),
    ),
    "wm-m2-e01-ens": (
        "noise regime: play_pairs_uniforms dominates and no deterministic "
        "layer runs, so it bypasses every deterministic optimisation",
        dict(structure="well-mixed", memory=2, generations=500, noise=0.01),
    ),
    "serve-event": (
        "repro serve with 2 closed-loop clients on the event backend; the "
        "only workload that runs the event driver and the service layers",
        dict(),
    ),
}


def child_seeds(seed: int, *key: int, n: int) -> list[int]:
    """``n`` independent 63-bit seeds from the workload seed and a key."""
    import numpy as np

    state = np.random.SeedSequence([seed, *key]).generate_state(n, np.uint64)
    return [int(s >> np.uint64(1)) for s in state]


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size of this process (or of ``pid``), in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def comparable(result_dict: dict) -> dict:
    """A result payload without the keys that vary between executions,
    normalised through JSON so local and served forms compare equal."""
    data = json.loads(json.dumps(result_dict))
    return {k: v for k, v in data.items() if k not in VOLATILE}


class Outcome:
    """What one measured run produced (the child's JSON line)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.data: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            **self.data,
        }


# -- ensemble workloads ---------------------------------------------------------


class EnsembleWorkload:
    """One 64-replicate ``run_sweep(backend="ensemble")`` per operation.

    Every operation repeats the same seeded sweep, so per-operation work —
    and every per-layer count — is identical within a run, and the run's
    spread is the machine's alone.
    """

    def __init__(self, seed: int, params: dict) -> None:
        self.seed = seed
        self.params = params

    def setup(self) -> None:
        from repro import EvolutionConfig, run_sweep

        p = self.params
        noise = p.get("noise", 0.0)
        self.configs = [
            EvolutionConfig(
                memory_steps=p["memory"],
                n_ssets=16,
                generations=p["generations"],
                structure=p["structure"],
                noise=noise,
                sampled_batched=noise > 0,
                seed=s,
                record_events=False,
            )
            for s in child_seeds(self.seed, 0, n=REPLICATES)
        ]
        self._run_sweep = run_sweep
        warm = [
            c.with_updates(generations=WARM_GENERATIONS, seed=c.seed + 1)
            for c in self.configs[:4]
        ]
        run_sweep(warm, backend="ensemble")

    def close(self) -> None:
        pass

    @staticmethod
    def _fingerprint(results) -> list:
        return [
            (
                r.n_pc_events,
                r.n_adoptions,
                r.n_mutations,
                [s.key() for s in r.population.strategies()],
            )
            for r in results
        ]

    def measure(self, seconds: float, host, tracer=None) -> Outcome:
        """Repeat the sweep for ``seconds``, with a slice of the ``host``
        :class:`~reference.Reference` after each call.  With a tracer,
        odd-numbered calls run traced and even-numbered ones untraced, so
        both halves see the same machine and the overhead ratio is fair."""
        out = Outcome()
        generations = len(self.configs) * self.configs[0].generations
        plain: list[float] = []
        traced: list[float] = []
        reference = first = None
        engine_stats: dict = {}
        slices = len(host.times)
        deadline = time.perf_counter() + seconds
        call = 0
        while call < 2 or time.perf_counter() < deadline:
            trace_this = tracer is not None and call % 2 == 1
            if trace_this:
                tracer.install()
            scope = tracer.request(str(call)) if trace_this else nullcontext()
            out.attempted += 1
            try:
                with scope:
                    started = time.perf_counter()
                    results = self._run_sweep(self.configs, backend="ensemble")
                    elapsed = time.perf_counter() - started
            except Exception as err:  # recorded as a failed operation
                out.fail(f"call {call}: {type(err).__name__}: {err}")
                call += 1
                continue
            finally:
                if trace_this:
                    tracer.uninstall()
            (traced if trace_this else plain).append(elapsed)
            host.slice()
            fingerprint = self._fingerprint(results)
            if reference is None:
                reference, first = fingerprint, results
                report = results[0].backend_report
                if report is not None and report.shared_engine is not None:
                    engine_stats = dict(report.shared_engine)
            elif fingerprint != reference:
                out.fail(f"call {call}: results differ from the first call")
            call += 1
        out.data["peak_rss_mb"] = peak_rss_mb()
        out.data["slowdown"] = host.slowdown(since=slices)
        out.data["generations_per_op"] = generations
        out.data["latencies"] = plain
        out.data["traced_latencies"] = traced
        out.data["engine"] = engine_stats
        if first is not None:
            self._check_lanes(first, out)
        return out

    def _check_lanes(self, results, out: Outcome) -> None:
        """Sampled lanes must bit-match their same-seed ``event`` runs (the
        serial ``sampled_batched`` run in the noise regime)."""
        from repro.io import result_to_dict

        for lane in CHECK_LANES:
            (serial,) = self._run_sweep([self.configs[lane]], backend="event")
            got = comparable(result_to_dict(results[lane]))
            want = comparable(result_to_dict(serial))
            if got != want:
                out.fail(f"lane {lane} differs from its event run")


# -- serve-event ----------------------------------------------------------------


@functools.cache
def _client_class():
    from repro.service import SweepClient

    class CountingClient(SweepClient):
        """A :class:`~repro.service.SweepClient` that counts status polls."""

        polls = 0

        def _request(self, method, path, payload=None):
            if method == "GET" and re.fullmatch(r"/jobs/[^/]+", path):
                self.polls += 1
            return super()._request(method, path, payload)

    return CountingClient


def _client(url: str, rng: random.Random):
    return _client_class()(url, timeout=60.0, rng=rng)


class ServeWorkload:
    """``repro serve --workers 1`` driven by closed-loop clients.

    Client ``c``'s ``k``-th submission is a fresh 2-replicate job, except
    every :data:`REPEAT_EVERY`-th, which repeats that client's submission
    ``k - 2``: that job has finished (the loop is closed), so the repeat is
    a cache hit, never a coalesced duplicate.
    """

    def __init__(self, seed: int, params: dict) -> None:
        self.seed = seed
        self.server: subprocess.Popen | None = None
        self._output: list[str] = []

    # -- inputs ------------------------------------------------------------------

    def spec(self, client: int, k: int):
        from repro import EvolutionConfig
        from repro.service import JobSpec

        if k % REPEAT_EVERY == REPEAT_EVERY - 1:
            k -= 2
        seeds = child_seeds(self.seed, 1, client, k, n=JOB_REPLICATES)
        return JobSpec(
            configs=tuple(
                EvolutionConfig(
                    memory_steps=2,
                    n_ssets=16,
                    generations=JOB_GENERATIONS,
                    structure="well-mixed",
                    seed=s,
                    record_events=False,
                )
                for s in seeds
            ),
            backend="event",
        )

    # -- server lifecycle --------------------------------------------------------

    def setup(self, trace_out: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        # Without --no-warm-pool the server shares pair evaluations across
        # jobs in arrival order: per-job work and server RSS would then
        # depend on how many jobs ran before and how the clients
        # interleaved (RSS grew 300 -> 443 MB from 20 s to 25 s runs, for
        # no throughput gain on this job mix).
        command += ["--", "--port", "0", "--workers", "1", "--no-warm-pool"]
        self.server = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        line = self.server.stdout.readline()
        match = re.search(r"listening on (http://[0-9.:]+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self._drain = threading.Thread(
            target=lambda: self._output.extend(self.server.stdout), daemon=True
        )
        self._drain.start()
        self.url = match.group(1)
        client = _client(self.url, random.Random(self.seed))
        deadline = time.monotonic() + 30
        while True:
            try:
                client.health()
                break
            except Exception:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        # Warm-up job: imports, engine allocation and the HTTP path.
        warm = self.spec(CLIENTS, 0).configs[:1]
        from repro.service import JobSpec

        status = client.submit(JobSpec(configs=warm, backend="event"))
        client.wait(status["job_id"], timeout=60, poll_interval=0.005)
        client.result(status["job_id"])

    def close(self) -> None:
        """Drain the server (SIGTERM) and wait for it to exit."""
        if self.server is None:
            return
        server, self.server = self.server, None
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        self._drain.join(timeout=5)
        server.stdout.close()

    # -- measurement -------------------------------------------------------------

    def _client_loop(
        self, client, c: int, deadline: float, jobs: list, next_k: list
    ) -> None:
        k = next_k[c]
        while time.perf_counter() < deadline:
            spec = self.spec(c, k)
            record: dict = {"client": c, "k": k}
            try:
                started = time.perf_counter()
                status = client.submit(spec)
                record["submit_s"] = time.perf_counter() - started
                polls = client.polls
                if status["state"] != "done":
                    status = client.wait(
                        status["job_id"], timeout=60,
                        poll_interval=0.005, poll_cap=0.02,
                    )
                record["polls"] = client.polls - polls
                fetched = time.perf_counter()
                payload = client.result(status["job_id"], population=True)
                done = time.perf_counter()
                record.update(
                    job_id=status["job_id"],
                    state=status["state"],
                    cache_hit=bool(status["cache_hit"]),
                    latency_s=done - started,
                    result_s=done - fetched,
                    finished_at=done,
                    queue_wait_s=_span(status, "submitted_unix", "started_unix"),
                    exec_s=_span(status, "started_unix", "finished_unix"),
                    generations=sum(cfg.generations for cfg in spec.configs),
                    payload=payload.get("results"),
                    configs=spec.configs,
                )
            except Exception as err:  # recorded as a failed operation
                record["error"] = f"{type(err).__name__}: {err}"
            jobs.append(record)
            k += 1
        next_k[c] = k

    def measure(self, seconds: float, host) -> Outcome:
        """Drive the server for ``seconds`` in segments of
        :data:`SEGMENT_S`.  Each segment ends when both clients have their
        last result; a slice of the ``host`` :class:`~reference.Reference`
        then runs while the server is idle.  The timed region is the sum
        of the segments, each up to its last result."""
        from repro.service import SweepClient

        out = Outcome()
        stats_client = SweepClient(self.url, timeout=60)
        coalesced0 = stats_client.stats()["queue"]["coalesced_total"]
        clients = [
            _client(self.url, random.Random(self.seed * 100 + c))
            for c in range(CLIENTS)
        ]
        next_k = [0] * CLIENTS
        jobs: list[dict] = []
        elapsed = 0.0
        slices = len(host.times)
        end = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            deadline = min(started + SEGMENT_S, end)
            first = len(jobs)
            threads = [
                threading.Thread(
                    target=self._client_loop,
                    args=(clients[c], c, deadline, jobs, next_k),
                )
                for c in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            finished = [
                j["finished_at"] for j in jobs[first:] if j.get("state") == "done"
            ]
            elapsed += max(finished, default=time.perf_counter()) - started
            host.slice()
            if time.perf_counter() >= end:
                break
        done = [j for j in jobs if j.get("state") == "done"]
        out.attempted = len(jobs)
        for job in jobs:
            if "error" in job or job.get("state") != "done":
                out.fail(f"job {job['client']}/{job['k']}: "
                         f"{job.get('error') or job.get('state')}")
        out.data["peak_rss_mb"] = peak_rss_mb(self.server.pid)
        out.data["slowdown"] = host.slowdown(since=slices)
        out.data["coalesced"] = (
            stats_client.stats()["queue"]["coalesced_total"] - coalesced0
        )
        out.data["generations"] = sum(j["generations"] for j in done)
        out.data["seconds"] = elapsed
        out.data["latencies"] = [j["latency_s"] for j in done]
        out.data["jobs"] = [
            {k: v for k, v in j.items() if k not in ("payload", "configs")}
            for j in jobs
        ]
        self._check(jobs, out)
        return out

    def _check(self, jobs: list[dict], out: Outcome) -> None:
        """Repeats must return their original's payload bit for bit, and
        the first executed jobs must equal a direct ``run_sweep``."""
        from repro import run_sweep
        from repro.io import result_to_dict

        by_key = {(j["client"], j["k"]): j for j in jobs if "payload" in j}
        checked = {c: 0 for c in range(CLIENTS)}
        for (c, k), job in sorted(by_key.items()):
            if k % REPEAT_EVERY == REPEAT_EVERY - 1:
                original = by_key.get((c, k - 2))
                if original is not None and original["payload"] != job["payload"]:
                    out.fail(f"job {c}/{k}: repeat payload differs")
            elif not job["cache_hit"] and checked[c] < CHECK_JOBS:
                checked[c] += 1
                direct = run_sweep(list(job["configs"]), backend="event")
                want = [comparable(result_to_dict(r)) for r in direct]
                got = [comparable(r) for r in job["payload"]]
                if got != want:
                    out.fail(f"job {c}/{k}: payload differs from run_sweep")


def _span(status: dict, start: str, end: str) -> float | None:
    if status.get(start) is None or status.get(end) is None:
        return None
    return status[end] - status[start]


def make(name: str, seed: int):
    cls = ServeWorkload if name == "serve-event" else EnsembleWorkload
    return cls(seed, WORKLOADS[name][1])


def check_source(root: Path) -> None:
    """Fail unless ``repro`` imports from this checkout's ``src``."""
    import repro

    origin = Path(repro.__file__).resolve()
    if (root / "src") not in origin.parents:
        raise RuntimeError(f"repro imported from {origin}, not {root / 'src'}")


def thread_env() -> dict[str, str]:
    keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "PYTHONHASHSEED")
    return {k: os.environ[k] for k in keys if k in os.environ}
