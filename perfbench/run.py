#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out PATH]
    python3 perfbench/run.py --stability [--seconds S] [--out PATH]

The first form is one measured run.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones; either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--all`` runs every workload untraced and
traced, prints a table, checks that the traced layers separate the
workloads as designed and writes ``perfbench/TRACE.json``.
``--stability`` runs two sets of ten seeds of the same code, interleaved
per seed, and reports per metric and workload each set's median and
quartiles and the median delta against the bound in ``BENCHMARK.json``
(see README.md); it writes ``perfbench/STABILITY.json``.

Each run happens in fresh child processes (``worker.py``) with BLAS and
OpenMP pinned to one thread and a fixed ``PYTHONHASHSEED``.  This parent
process imports neither NumPy nor ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = float(BENCH["run_seconds"])

#: Set-up-only child processes per untraced run, besides the measured one:
#: half before it and half after, so the samples straddle the run and
#: ``setup_s`` (their median) does not hang on one moment's host speed.
SETUP_REPEATS = 4
SETUP_TIMEOUT = 30.0
#: Stability mode: sets of runs of the same code, and seeds per set.
SETS = 2
SEEDS = 10

#: (name, unit) of the end-to-end metrics, in report order.  Operation
#: latency percentiles are per-layer metrics: with a fixed number of
#: closed-loop clients (or one sweep caller) they restate ``gen_per_s``,
#: and on this host they spread past any usable bound (see README.md).
END_TO_END = (
    ("gen_per_s", "gen/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics.  Times are self seconds per
#: operation (one sweep call or one job) of the traced run.
LAYER_TIMES = (
    "ensemble.driver.loop_s",
    "ensemble.rawstream.decode_s",
    "ensemble.engine.pool_s",
    "ensemble.engine.check_s",
    "ensemble.engine.gather_s",
    "core.vectorgame.cycle_s",
    "core.vectorgame.sampled_s",
    "core.engine.plan_s",
    "core.engine.uniforms_s",
    "core.engine.fuse_s",
    "core.evolution.loop_s",
    "core.nature_s",
    "core.engine.intern_s",
    "structure.fitness_s",
    "core.population_s",
)
#: Counts that repeat exactly for a seed (per sweep call on the ensemble
#: workloads; over the first COUNT_WINDOW jobs per client on serve-event).
EXACT_COUNTS = (
    "ensemble.rawstream.draws",
    "ensemble.engine.distinct",
    "core.vectorgame.cycle_calls",
    "core.vectorgame.pairs",
    "core.vectorgame.sampled_calls",
    "core.vectorgame.games",
    "service.cache_hits",
    "service.coalesced",
)
PER_LAYER = (
    *((name, "s/op") for name in LAYER_TIMES),
    *((name, "count") for name in EXACT_COUNTS),
    ("ensemble.engine.capacity", "count"),
    ("core.paymat.bytes", "B"),
    ("service.submit_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.exec_s", "s"),
    ("service.result_s", "s"),
    ("service.hit_s", "s"),
    ("service.polls_per_job", "count"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("trace.overhead", "ratio"),
)


class RunError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(
    workload: str, seed: int, mode: str, seconds: float, timeout: float
) -> tuple[float, dict | None]:
    """Run one worker; returns (set-up seconds, its JSON result or None)."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
    ]
    started = time.perf_counter()
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
    )
    watchdog = threading.Timer(timeout, child.kill)
    watchdog.start()
    try:
        setup_s = None
        last = ""
        for line in child.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - started
            elif line.strip():
                last = line
        code = child.wait()
    finally:
        watchdog.cancel()
        child.stdout.close()
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or setup_s is None:
        raise RunError(f"{workload} {mode} child exited with code {code}")
    return setup_s, json.loads(last)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90 by tens) of ``values``, never
    extrapolated past the largest sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def _median(values: list) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: the measured child between set-up repeats."""

    def setup_only() -> float:
        setup_s, result = run_child(workload, seed, "setup", 0, SETUP_TIMEOUT)
        return setup_s / result["setup_slowdown"]

    setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    setup_s, result = run_child(
        workload, seed, "run", seconds, seconds + 60
    )
    setups.append(setup_s / result["setup_slowdown"])
    setups += [setup_only() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    latencies = result["latencies"]
    raw = _gen_per_s(result)
    values = {
        "gen_per_s": raw * result["slowdown"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["samples"] = {"setup_s": len(setups), "latency": len(latencies)}
    result["host"] = {"slowdown": result["slowdown"], "raw_gen_per_s": raw}
    return _report(result, values, END_TO_END)


def _gen_per_s(result: dict) -> float:
    """Generations per second of a worker's timed region, unscaled."""
    if "generations" in result:  # serve-event
        return result["generations"] / result["seconds"]
    latencies = result["latencies"]
    return result["generations_per_op"] * len(latencies) / sum(latencies)


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    """One traced run (the worker alternates untraced and traced work)."""
    _, result = run_child(workload, seed, "trace", seconds, seconds + 90)
    ops = max(1, result["ops_traced"])
    values = {name: result["self_s"].get(name, 0.0) / ops for name in LAYER_TIMES}
    counts = result["counts"]
    values.update({name: counts.get(name, 0) for name in EXACT_COUNTS})
    engine = result.get("engine") or {}
    values["ensemble.engine.distinct"] = engine.get("distinct", 0)
    values["ensemble.engine.capacity"] = engine.get("capacity", 0)
    values["core.paymat.bytes"] = engine.get("peak_paymat_bytes", 0)
    if workload == "serve-event":
        jobs = [j for j in result["jobs"] if j.get("state") == "done"]
        executed = [j for j in jobs if not j["cache_hit"]]
        hits = [j for j in jobs if j["cache_hit"]]
        values.update({
            "service.submit_s": _median([j["submit_s"] for j in jobs]),
            "service.queue_wait_s": _median([j["queue_wait_s"] for j in executed]),
            "service.exec_s": _median([j["exec_s"] for j in executed]),
            "service.result_s": _median([j["result_s"] for j in jobs]),
            "service.hit_s": _median([j["latency_s"] for j in hits]),
            "service.polls_per_job": (
                statistics.fmean(j["polls"] for j in jobs) if jobs else 0.0
            ),
        })
        # The halves run one after the other, so each is scaled to the
        # host speed it ran at.
        untraced = result["untraced"]
        values["trace.overhead"] = (
            _gen_per_s(result) * result["slowdown"]
        ) / (_gen_per_s(untraced) * untraced["slowdown"])
        latencies = untraced["latencies"]
    else:
        for name in ("submit_s", "queue_wait_s", "exec_s", "result_s", "hit_s",
                     "polls_per_job"):
            values[f"service.{name}"] = 0.0
        traced, plain = result["traced_latencies"], result["latencies"]
        values["trace.overhead"] = (sum(plain) / len(plain)) / (
            sum(traced) / len(traced)
        )
        latencies = plain
    # Latency percentiles come from the untraced operations of the run.
    values["job_p50_s"] = statistics.median(latencies)
    values["job_p90_s"] = _quantile(latencies, 90)
    return _report(result, values, PER_LAYER)


def _report(result: dict, values: dict, metrics: tuple) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in metrics
        },
        "errors": result["errors"],
        "samples": result.get("samples", {"ops_traced": result.get("ops_traced")}),
        "host": result.get("host", {"slowdown": result["slowdown"]}),
        "provenance": result["provenance"],
    }


def _print_table(workload: str, report: dict) -> None:
    print(f"[{workload}] attempted={report['attempted']} "
          f"failed={report['failed']} samples={report['samples']} "
          f"host={report['host']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    for error in report["errors"]:
        print(f"  ERROR {error}")


def contract_output(report: dict) -> str:
    return json.dumps({
        k: report[k] for k in ("correct", "attempted", "failed", "metrics")
    })


# -- stability mode ---------------------------------------------------------------


def _worse(name: str) -> int:
    better = {m["name"]: m["better"] for m in BENCH["end_to_end"]}[name]
    return -1 if better == "higher" else 1


def stability(args: argparse.Namespace) -> int:
    """Two sets of untraced runs of the same code, summarised against bounds.

    The sets are interleaved per seed and workload in the order A B, B A,
    A B, ..., so host drift over the time the mode takes falls on both
    sets alike instead of showing up as a median delta between them.
    """
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    seconds = args.seconds
    names = list(workloads.WORKLOADS)
    seeds = list(range(1, SEEDS + 1))
    runs: dict = {w: [[] for _ in range(SETS)] for w in names}
    for seed in seeds:
        for w in names:
            order = range(SETS) if seed % 2 else reversed(range(SETS))
            for s in order:
                report = end_to_end(w, seed, seconds)
                if not report["correct"]:
                    raise RunError(f"{w} seed {seed}: {report['errors']}")
                runs[w][s].append(
                    {k: m["value"] for k, m in report["metrics"].items()}
                )
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{k}={v:.5g}" for k, v in runs[w][s][-1].items()
                ), flush=True)
    summary: dict = {}
    ok = True
    for w in names:
        for name, _ in END_TO_END:
            row = {"bound": bounds[name], "sets": []}
            for values in runs[w]:
                series = [v[name] for v in values]
                q1, median, q3 = statistics.quantiles(series, n=4)
                row["sets"].append({
                    "median": median, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / median, "values": series,
                })
            first, last = row["sets"][0]["median"], row["sets"][-1]["median"]
            # Positive means the second set is worse; the code is the same,
            # so a move either way counts against the bound.
            row["median_delta"] = _worse(name) * (last - first) / first
            row["spread_ok"] = all(s["spread"] <= bounds[name] for s in row["sets"])
            row["delta_ok"] = abs(row["median_delta"]) <= bounds[name]
            ok = ok and row["spread_ok"] and row["delta_ok"]
            summary[f"{w}/{name}"] = row
            print(f"{w:<14} {name:<12} " + "  ".join(
                f"med={s['median']:.5g} iqr/med={s['spread']:.3f}"
                for s in row["sets"]
            ) + f"  delta={row['median_delta']:+.3f} bound={bounds[name]}")
    repeats = {}
    for w in names:
        first, second = (per_layer(w, seeds[0], seconds) for _ in range(2))
        same = all(
            first["metrics"][n]["value"] == second["metrics"][n]["value"]
            for n in EXACT_COUNTS
        )
        repeats[w] = {n: first["metrics"][n]["value"] for n in EXACT_COUNTS}
        repeats[w]["identical"] = same
        ok = ok and same
        print(f"{w:<14} exact counts repeat: {same}")
    payload = {
        "run_seconds": seconds,
        "seeds": seeds,
        "sets": SETS,
        "order": "seed, then workload, then set (A B, B A, ...)",
        "ok": ok,
        "provenance": first["provenance"],
        "metrics": summary,
        "count_repeats": repeats,
    }
    out = Path(args.out or HERE / "STABILITY.json")
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out} (ok={ok})")
    return 0 if ok else 1


def layer_shares(report: dict) -> dict[str, float]:
    """Each layer's share of the summed layer self times of one traced run."""
    times = {n: report["metrics"][n]["value"] for n in LAYER_TIMES}
    total = sum(times.values()) or 1.0
    return {n: t / total for n, t in times.items()}


#: Layers that run inside the server only, so they must be 0 elsewhere.
SERVE_ONLY = (
    "core.evolution.loop_s", "core.nature_s", "service.submit_s",
    "service.queue_wait_s", "service.exec_s", "service.result_s",
)


def separation(traced: dict[str, dict]) -> dict[str, bool]:
    """The layer separation the workloads are built on, from traced runs:
    decoding weighs clearly more on ``wm-m2-ens`` than in the noise
    regime, ``sampled_s`` is the largest layer in the noise regime, and
    the server-side layers run on ``serve-event`` only."""
    decode = "ensemble.rawstream.decode_s"
    wm = layer_shares(traced["wm-m2-ens"])
    noisy = layer_shares(traced["wm-m2-e01-ens"])
    serve = traced["serve-event"]["metrics"]
    return {
        "decode_share_wm_over_2x_noise": wm[decode] > 2 * noisy[decode],
        "sampled_largest_in_noise": max(noisy, key=noisy.get)
        == "core.vectorgame.sampled_s",
        "serve_layers_only_on_serve": all(serve[n]["value"] > 0 for n in SERVE_ONLY)
        and all(
            traced[w]["metrics"][n]["value"] == 0
            for w in traced if w != "serve-event" for n in SERVE_ONLY
        ),
    }


def run_all(args: argparse.Namespace) -> int:
    results = {}
    ok = True
    for w in workloads.WORKLOADS:
        results[w] = {}
        for label, fn in (("end_to_end", end_to_end), ("per_layer", per_layer)):
            report = fn(w, args.seed, args.seconds)
            _print_table(w, report)
            results[w][label] = report
            ok = ok and report["correct"]
    traced = {w: r["per_layer"] for w, r in results.items()}
    checks = separation(traced)
    for name, passed in checks.items():
        print(f"separation {name}: {passed}")
    ok = ok and all(checks.values())
    payload = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "ok": ok,
        "separation": checks,
        "layer_shares": {w: layer_shares(r) for w, r in traced.items()},
        "results": results,
    }
    out = Path(args.out or HERE / "TRACE.json")
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out} (ok={ok})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--stability", action="store_true")
    parser.add_argument("--out", default=None,
                        help="result file of --all or --stability")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.stability:
            return stability(args)
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload, --all or --stability is required")
        fn = per_layer if args.trace else end_to_end
        report = fn(args.workload, args.seed, args.seconds)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _print_table(args.workload, report)
    print(contract_output(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
