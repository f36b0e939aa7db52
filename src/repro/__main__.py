"""Command-line interface: ``python -m repro <command>`` (or ``repro ...``).

Commands
--------
``list``                      list the registered experiments
``backends``                  list the registered execution backends
``structures``                list the registered population-structure families
``run <id> [--full]``         regenerate one paper table/figure
``run-all [--full]``          regenerate everything
``evolve [options]``          run one evolution and print the outcome
``resume <artifact>``         finish an interrupted run from a mid-run snapshot
``sweep [options]``           run an ensemble of evolutions (process pool)
``serve [options]``           start the sweep service (JSON over HTTP)
``submit [options]``          submit a sweep to a running service
``jobs --url URL``            list a running service's jobs
``result <job-id> --url URL`` fetch a finished job's results
``cancel <job-id> --url URL`` cancel a queued or running job

``serve`` is restart-safe with ``--journal``: admitted jobs are written to
an fsync'd write-ahead log and replayed on the next start, and ``SIGTERM``
triggers a graceful drain (stop admitting, finish running jobs up to
``--drain-timeout``, journal the rest, exit clean).  ``--faults`` (or the
``REPRO_FAULTS`` environment variable) arms a deterministic
fault-injection plan — see :mod:`repro.faults` — which is how the chaos
tests prove all of the above.

Long runs survive interruption with ``--checkpoint-dir``: ``evolve``,
``sweep`` and ``serve`` snapshot full run state every
``--checkpoint-every`` generations (:mod:`repro.core.runstate`), rerunning
the same command resumes **bit-identically** from the newest valid
snapshot, and ``resume <artifact>`` (or ``evolve --resume-from``) pins an
explicit snapshot directory.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .analysis import (
    classify,
    largest_cluster_fraction,
    nearest_classic,
    neighborhood_cooperation,
    render_raster,
)
from .api import Simulation, available_backends, get_backend, run_sweep
from .core import PAPER_MUTATION_RATE, PAPER_PC_RATE, EvolutionConfig
from .experiments import Scale, all_experiments, get, set_default_backend
from .structure import structure_families


def _cmd_list(_args: argparse.Namespace) -> int:
    for exp in all_experiments():
        print(f"{exp.experiment_id:<10} {exp.paper_ref:<22} {exp.title}")
    return 0


def _cmd_backends(_args: argparse.Namespace) -> int:
    for name in available_backends():
        print(f"{name:<14} {get_backend(name).summary}")
    return 0


def _cmd_structures(_args: argparse.Namespace) -> int:
    for name, params in structure_families():
        print(f"{name:<14} {params}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scale = Scale.FULL if args.full else Scale.SMOKE
    if args.backend is not None:
        set_default_backend(args.backend)
    result = get(args.experiment).run(scale)
    print(result)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    scale = Scale.FULL if args.full else Scale.SMOKE
    if args.backend is not None:
        set_default_backend(args.backend)
    for exp in all_experiments():
        print(exp.run(scale))
        print()
    return 0


def _evolution_config(args: argparse.Namespace, memory: int) -> EvolutionConfig:
    return EvolutionConfig(
        memory_steps=memory,
        n_ssets=args.ssets,
        generations=args.generations,
        rounds=args.rounds,
        pc_rate=args.pc_rate,
        mutation_rate=args.mutation_rate,
        noise=args.noise,
        expected_fitness=args.expected_fitness,
        sampled_batched=args.sampled_batched,
        structure=args.structure,
        record_every=args.record_every,
        seed=args.seed,
        engine=args.engine,
        record_events=args.record_events,
        engine_pool_cap=args.engine_pool_cap,
        checkpoint_every=args.checkpoint_every,
    )


def _backend_opts(args: argparse.Namespace) -> dict[str, object]:
    """Map CLI flags onto the selected backend's options."""
    if args.backend == "des":
        return {"n_ranks": args.ranks}
    return {}


def _load_resume_artifact(path: Path):
    """``(meta, arrays)`` of the snapshot at ``path``, with clear errors.

    Accepts either one snapshot directory (``state.npz`` + ``meta.json``)
    or a unit directory holding ``gen-*`` snapshots (newest loadable one
    wins).  A *file* can only be a version-1 population checkpoint
    (``.npz``) — those hold a final population, not mid-run state, and get
    a :class:`~repro.errors.CheckpointError` pointing at the right flags.
    An ensemble snapshot whose layout (``mode``) is not the one its
    configurations run now (:func:`repro.ensemble.driver._group_mode`) is
    refused as well: the driver would start that group again from zero.
    """
    from .errors import CheckpointError
    from .io.run_checkpoint import load_run_checkpoint

    if path.is_file():
        raise CheckpointError(
            f"{path} is a file — that is a version-1 population checkpoint "
            f"(.npz), which stores a final population, not mid-run state; "
            f"start from it with `repro evolve --checkpoint {path} "
            f"--resume`. Mid-run run-state snapshots are directories "
            f"(state.npz + meta.json) written under --checkpoint-dir"
        )
    generations = sorted(path.glob("gen-*")) if path.is_dir() else []
    if generations and not (path / "meta.json").exists():
        last_error: CheckpointError | None = None
        for candidate in reversed(generations):
            try:
                found = load_run_checkpoint(candidate)
                break
            except CheckpointError as err:
                last_error = err
        else:
            assert last_error is not None
            raise last_error
    else:
        found = load_run_checkpoint(path)
    meta = found[0]
    if meta.get("kind") == "ensemble":
        # The ensemble driver starts a group afresh from a snapshot of
        # another layout; a pinned artifact must not rerun silently.
        from .ensemble.driver import _group_mode

        saved = meta.get("mode")
        runs = _group_mode(EvolutionConfig.from_dict(meta["configs"][0]))
        if saved != runs:
            raise CheckpointError(
                f"{path}: the snapshot holds the {saved!r} ensemble layout, "
                f"but this build runs its configurations in the {runs!r} "
                "layout and cannot continue it — start the sweep again from "
                "generation 0"
            )
    return found


class _PinnedSnapshotSink:
    """Checkpoint sink serving one explicit snapshot (``--resume-from``).

    ``load_latest`` ignores the unit key — the caller pinned the artifact,
    and the driver's own resume validation refuses any science mismatch
    with the field-by-field did-you-mean error, and a snapshot of another
    science version with an error naming both versions
    (:func:`repro.core.runstate.validate_resume_config`).  Saves forward
    to a real :class:`~repro.io.run_checkpoint.RunCheckpointer` when
    ``--checkpoint-dir`` is also given, and are dropped otherwise.
    """

    def __init__(self, path: Path, forward=None) -> None:
        self.path = path
        self.forward = forward

    def save(self, unit, generation, meta, arrays) -> None:
        if self.forward is not None:
            self.forward.save(unit, generation, meta, arrays)

    def load_latest(self, unit):
        return _load_resume_artifact(self.path)


def _arm_cli_checkpointing(args: argparse.Namespace):
    """Context manager installing the sink the checkpoint flags ask for."""
    from .core.runstate import checkpoint_scope
    from .io.run_checkpoint import RunCheckpointer

    sink = None
    if getattr(args, "checkpoint_dir", None) is not None:
        sink = RunCheckpointer(args.checkpoint_dir)
    if getattr(args, "resume_from", None) is not None:
        sink = _PinnedSnapshotSink(Path(args.resume_from), forward=sink)
    return checkpoint_scope(sink) if sink is not None else nullcontext()


def _describe_dominant(result) -> str:
    dominant, share = result.dominant()
    name = classify(dominant)
    if name is None and dominant.is_pure:
        near, dist = nearest_classic(dominant)
        name = f"~{near}+{dist}"
    bits = dominant.bits() if dominant.is_pure else "<mixed>"
    return (
        f"dominant: {bits} ({name}) at {share:.1%} "
        f"after {result.generations_run:,} generations "
        f"({result.n_pc_events} PC events, {result.n_mutations} mutations)"
    )


def _cmd_evolve(args: argparse.Namespace) -> int:
    simulation = Simulation(
        _evolution_config(args, args.memory),
        backend=args.backend,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        **_backend_opts(args),
    )
    with _arm_cli_checkpointing(args):
        result = simulation.run()
    print(render_raster(result.population.strategy_matrix(), max_rows=20,
                        title="final population"))
    print()
    print(result.config.summary())
    print(_describe_dominant(result))
    if not result.config.is_well_mixed:
        coop = neighborhood_cooperation(
            result.population, result.config.structure,
            rounds=result.config.rounds, payoff=result.config.payoff,
            noise=result.config.noise,
        )
        cluster = largest_cluster_fraction(
            result.population, result.config.structure
        )
        print(f"neighborhood cooperation: {float(coop.mean()):.1%} mean "
              f"(min {float(coop.min()):.1%}, max {float(coop.max()):.1%}); "
              f"largest dominant cluster: {cluster:.1%} of SSets")
    assert result.backend_report is not None
    print(result.backend_report.summary())
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .core.runstate import checkpoint_scope
    from .errors import CheckpointError
    from .io.run_checkpoint import RunCheckpointer

    artifact = Path(args.artifact)
    # Load eagerly so a missing/corrupt/v1 artifact fails with its clear
    # error before any science starts; the configs come from the snapshot
    # itself, so the drivers' resume validation passes by construction.
    meta, _ = _load_resume_artifact(artifact)
    kind = meta.get("kind")
    forward = (
        RunCheckpointer(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else None
    )
    sink = _PinnedSnapshotSink(artifact, forward=forward)
    if kind == "run":
        config = EvolutionConfig.from_dict(meta["config"])
        with checkpoint_scope(sink):
            results = [Simulation(config, backend=args.backend).run()]
    elif kind == "ensemble":
        configs = [EvolutionConfig.from_dict(d) for d in meta["configs"]]
        with checkpoint_scope(sink):
            results = run_sweep(configs, backend="ensemble", workers=1)
    else:
        raise CheckpointError(
            f"{artifact}: unrecognised run-state snapshot kind {kind!r} "
            f"(expected 'run' or 'ensemble')"
        )
    for result in results:
        print(result.config.summary())
        print(_describe_dominant(result))
        if result.backend_report is not None:
            print(result.backend_report.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    labels = [
        (memory, run)
        for memory in args.memory_values
        for run in range(args.runs)
    ]
    configs = [_evolution_config(args, memory) for memory, _ in labels]

    def report(index: int, result) -> None:
        memory, run = labels[index]
        seed = result.config.seed
        print(f"[memory={memory} run={run} seed={seed}] "
              f"{_describe_dominant(result)}")

    # --workers sizes the sweep's process pool.  The ensemble backend
    # defaults to a single lane-batched process (one shared engine across
    # every replicate); pass --workers explicitly to chunk its lanes over a
    # pool.
    backend = get_backend(args.backend)(**_backend_opts(args))
    if args.workers is not None:
        pool_workers = args.workers
    else:
        pool_workers = 1 if args.backend == "ensemble" else 2
    base_seed = args.base_seed if args.base_seed is not None else args.seed
    # Snapshots reach in-process execution only (the sink is thread-local);
    # a pooled sweep runs them without checkpointing.
    with _arm_cli_checkpointing(args):
        run_sweep(
            configs,
            backend=backend,
            workers=pool_workers,
            on_result=report,
            base_seed=base_seed,
        )
    print(f"\n{len(configs)} runs complete "
          f"(backend={args.backend}, workers={pool_workers})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from . import faults
    from .service import JobQueue, ResultStore, SweepServer

    plan = (
        faults.FaultPlan.from_json(args.faults)
        if args.faults
        else faults.FaultPlan.from_env()
    )
    if plan is not None:
        faults.arm(plan)
    store = ResultStore(
        max_entries=args.cache_entries, artifact_dir=args.artifact_dir
    )
    queue = JobQueue(
        workers=args.workers if args.workers is not None else 2,
        max_queued=args.max_queued,
        store=store,
        journal=args.journal,
        checkpoint_dir=args.checkpoint_dir,
    )
    server = SweepServer(
        host=args.host, port=args.port, queue=queue, verbose=args.verbose
    )

    draining = threading.Event()

    def _on_sigterm(signum: int, frame: object) -> None:
        # The handler interrupts serve_forever's own thread, so the drain
        # must run elsewhere: shutting the listener down from in here
        # would deadlock on the very loop this handler suspended.
        if draining.is_set():
            return
        draining.set()
        threading.Thread(
            target=server.drain,
            args=(args.drain_timeout,),
            name="sweep-drain",
            daemon=True,
        ).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    print(f"sweep service listening on {server.url} "
          f"(workers={queue.workers}, max_queued={queue.max_queued}, "
          f"artifacts={args.artifact_dir or 'off'}, "
          f"journal={args.journal or 'off'}, "
          f"checkpoints={args.checkpoint_dir or 'off'})")
    if queue.recovered_total:
        print(f"journal replayed {queue.recovered_total} pending job(s)"
              + (f" ({queue.recovery_errors} unreadable)"
                 if queue.recovery_errors else ""))
    if plan is not None:
        print(f"fault plan armed: {len(plan.specs)} fault spec(s), "
              f"seed={plan.seed}")
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        queue.close()
    if draining.is_set():
        print("drained cleanly; journaled jobs will replay on restart")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import SweepClient

    client = SweepClient(args.url)
    status = client.submit_sweep(
        _evolution_config(args, args.memory),
        n_runs=args.runs,
        base_seed=args.base_seed,
        backend=args.backend,
        priority=args.priority,
        label=args.label,
    )
    job_id = status["job_id"]
    print(f"{job_id} state={status['state']} "
          f"cache_hit={status['cache_hit']} "
          f"fingerprint={status['fingerprint'][:16]}…")
    if not args.wait:
        return 0
    final = client.wait(job_id, timeout=args.timeout)
    if final["state"] == "failed":
        print(f"repro: error: job failed: {final['error']}", file=sys.stderr)
        return 2
    payload = client.result(job_id, population=False)
    for i, run in enumerate(payload["results"]):
        dominant = run["dominant"]
        print(f"[run={i} seed={run['config']['seed']}] "
              f"dominant: {dominant['bits']} at {dominant['share']:.1%} "
              f"after {run['generations_run']:,} generations")
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .service import SweepClient

    for status in SweepClient(args.url).jobs():
        progress = status["progress"]
        print(f"{status['job_id']:<12} {status['state']:<8} "
              f"{status['priority']:<12} "
              f"runs={progress['runs_done']}/{progress['runs_total']} "
              f"cache_hit={status['cache_hit']} "
              f"label={status['label'] or '-'}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from .service import SweepClient

    response = SweepClient(args.url).cancel(args.job_id)
    if response["cancelled"]:
        print(f"{response['job_id']} cancel requested "
              f"(state={response['state']})")
        return 0
    print(f"repro: {response['job_id']} already finished "
          f"(state={response['state']}); nothing to cancel",
          file=sys.stderr)
    return 1


def _cmd_result(args: argparse.Namespace) -> int:
    from .service import SweepClient

    payload = SweepClient(args.url).result(
        args.job_id, population=not args.no_population, events=args.events
    )
    if payload.get("state") != "done":
        print(f"repro: job {args.job_id} is {payload.get('state')!r}; "
              f"poll again later", file=sys.stderr)
        return 1
    if args.json:
        import json as _json

        print(_json.dumps(payload, indent=2))
        return 0
    print(f"{payload['job_id']} cache_hit={payload['cache_hit']} "
          f"runs={len(payload['results'])}")
    for i, run in enumerate(payload["results"]):
        dominant = run["dominant"]
        print(f"[run={i} seed={run['config']['seed']}] "
              f"dominant: {dominant['bits']} at {dominant['share']:.1%} "
              f"after {run['generations_run']:,} generations "
              f"({run['n_pc_events']} PC events, "
              f"{run['n_mutations']} mutations)")
    return 0


def _add_evolution_arguments(parser: argparse.ArgumentParser) -> None:
    """Science flags shared by ``evolve`` and ``sweep``."""
    parser.add_argument("--ssets", type=int, default=128,
                        help="number of Strategy Sets (default 128)")
    parser.add_argument("--generations", type=int, default=100_000)
    parser.add_argument("--rounds", type=int, default=200,
                        help="IPD rounds per game (default 200)")
    parser.add_argument("--pc-rate", type=float, default=PAPER_PC_RATE,
                        dest="pc_rate",
                        help="pairwise-comparison rate (default: paper's 0.1)")
    parser.add_argument("--mutation-rate", type=float,
                        default=PAPER_MUTATION_RATE, dest="mutation_rate",
                        help="mutation rate (default: paper's 0.05)")
    parser.add_argument("--noise", type=float, default=0.0,
                        help="trembling-hand error probability per move")
    parser.add_argument("--expected-fitness", action="store_true",
                        dest="expected_fitness",
                        help="exact expected payoffs (Markov engine) instead "
                             "of sampled games; recommended with --noise")
    parser.add_argument("--sampled-batched", action="store_true",
                        dest="sampled_batched",
                        help="batch sampled-stochastic games (--noise or "
                             "mixed strategies without --expected-fitness) "
                             "into one vectorised kernel per event over a "
                             "dedicated seed stream; unlocks the ensemble "
                             "backend for noisy sweeps. Statistically "
                             "equivalent to the scalar sampled path, not "
                             "bit-identical; bit-reproducible per seed")
    parser.add_argument("--structure", default="well-mixed",
                        help="population structure: well-mixed (default), "
                             "complete, ring:k=4, grid, grid:rows=8,cols=8, "
                             "regular:d=4,seed=7, smallworld:k=4,p=0.1,seed=7, "
                             "or scalefree:m=2,seed=7 (see `repro structures`)")
    parser.add_argument("--record-every", type=int, default=0,
                        dest="record_every",
                        help="snapshot the population every N generations")
    parser.add_argument("--engine", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="dense interned-strategy fitness engine "
                             "(default on; --no-engine forces the legacy "
                             "payoff-cache reference path — trajectories "
                             "are bit-identical either way)")
    parser.add_argument("--record-events", dest="record_events",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="keep per-event records in the result "
                             "(--no-record-events saves memory on very "
                             "long runs; counters are kept regardless)")
    parser.add_argument("--engine-pool-cap", type=int, default=0,
                        dest="engine_pool_cap",
                        help="bound the expected-fitness engine's strategy "
                             "pool: once live+retired strategies reach the "
                             "cap, the oldest retired slot is recycled "
                             "(0 = unbounded, the legacy-mirroring default). "
                             "Applies to the expected regime only")
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        dest="checkpoint_every",
                        help="snapshot full run state every N generations "
                             "(0 = never, the default); with "
                             "--checkpoint-dir an interrupted run resumes "
                             "bit-identically from the newest snapshot")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--ranks", type=int, default=8,
                        help="simulated MPI ranks (des backend)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Evolutionary game dynamics reproduction (IPDPS 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser(
        "backends", help="list registered execution backends"
    ).set_defaults(func=_cmd_backends)
    sub.add_parser(
        "structures",
        help="list registered population-structure families and their "
             "spec parameters",
    ).set_defaults(func=_cmd_structures)

    run = sub.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", help="experiment id, e.g. table6 or fig4")
    run.add_argument("--full", action="store_true", help="paper-scale run")
    # Only serial/event handle the stochastic expected-fitness configs the
    # evolution experiments (fig2) use; the other backends would reject them.
    experiment_backends = ["serial", "event"]
    run.add_argument("--backend", choices=experiment_backends, default=None,
                     help="execution backend for experiments that run "
                          "front-end evolutions (currently fig2); DES-based "
                          "experiments are unaffected")
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="regenerate everything")
    run_all.add_argument("--full", action="store_true")
    run_all.add_argument("--backend", choices=experiment_backends,
                         default=None)
    run_all.set_defaults(func=_cmd_run_all)

    evolve = sub.add_parser("evolve", help="run an evolution")
    evolve.add_argument("--memory", type=int, default=1,
                        help="memory steps n of the strategy model")
    evolve.add_argument("--backend", choices=available_backends(),
                        default="event")
    evolve.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="save the final population to PATH (.npz)")
    evolve.add_argument("--resume", action="store_true",
                        help="start from --checkpoint when the file exists")
    evolve.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                        metavar="DIR",
                        help="write mid-run run-state snapshots under DIR "
                             "every --checkpoint-every generations; "
                             "rerunning the same command resumes "
                             "bit-identically from the newest one")
    evolve.add_argument("--resume-from", default=None, dest="resume_from",
                        metavar="ARTIFACT",
                        help="resume from an explicit snapshot directory "
                             "(a gen-NNN artifact or its unit directory); "
                             "refused with a field-by-field mismatch "
                             "report if the flags describe different "
                             "science than the snapshot")
    _add_evolution_arguments(evolve)
    evolve.set_defaults(func=_cmd_evolve)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted run from a mid-run snapshot (the "
             "config comes from the snapshot itself)",
    )
    resume.add_argument("artifact", metavar="ARTIFACT",
                        help="snapshot directory (gen-NNN artifact or its "
                             "unit directory) written by --checkpoint-dir")
    resume.add_argument("--backend", choices=["serial", "event"],
                        default="event",
                        help="driver for single-run snapshots (ensemble "
                             "snapshots always replay on the ensemble "
                             "backend); trajectories are bit-identical "
                             "either way")
    resume.add_argument("--checkpoint-dir", default=None,
                        dest="checkpoint_dir", metavar="DIR",
                        help="keep snapshotting the resumed run under DIR "
                             "at the snapshot config's cadence")
    resume.set_defaults(func=_cmd_resume)

    sweep = sub.add_parser(
        "sweep",
        help="run an ensemble of evolutions (lane-batched with "
             "--backend ensemble; process pool with --workers)",
    )
    sweep.add_argument("--memory", type=int, nargs="+", default=[1],
                       dest="memory_values",
                       help="memory steps to sweep (one or more values)")
    sweep.add_argument("--runs", type=int, default=4,
                       help="replicates per memory value (default 4)")
    sweep.add_argument("--base-seed", type=int, default=None, dest="base_seed",
                       help="master seed every run's seed is derived from "
                            "(default: --seed), so replicates are distinct "
                            "but reproducible")
    sweep.add_argument("--backend", choices=available_backends(),
                       default="event")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default 2 — except the "
                            "ensemble backend, which lane-batches the "
                            "whole sweep in one process unless told "
                            "otherwise)")
    sweep.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                       metavar="DIR",
                       help="write mid-run run-state snapshots under DIR "
                            "every --checkpoint-every generations "
                            "(in-process sweeps only); rerunning the same "
                            "sweep resumes bit-identically")
    _add_evolution_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="start the sweep service: JSON-over-HTTP job queue with "
             "result caching",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = let the OS pick; default 8642)")
    serve.add_argument("--workers", type=int, default=None,
                       help="concurrently executing jobs (default 2)")
    serve.add_argument("--max-queued", type=int, default=64,
                       dest="max_queued",
                       help="waiting-job bound before submissions are "
                            "rejected with 429 (default 64)")
    serve.add_argument("--cache-entries", type=int, default=256,
                       dest="cache_entries",
                       help="in-memory result-cache LRU size (default 256)")
    serve.add_argument("--artifact-dir", default=None, dest="artifact_dir",
                       metavar="DIR",
                       help="also persist results under DIR/<fingerprint>/ "
                            "so cache hits survive restarts")
    # Retired: accepted so existing launch scripts keep working, no effect.
    serve.add_argument("--warm-pool", action=argparse.BooleanOptionalAction,
                       help=argparse.SUPPRESS)
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="durable job journal (fsync'd JSONL WAL): "
                            "admitted jobs survive crashes and restarts — "
                            "pending work replays from PATH on start")
    serve.add_argument("--checkpoint-dir", default=None,
                       dest="checkpoint_dir", metavar="DIR",
                       help="mid-run run-state snapshots for jobs whose "
                            "configs set checkpoint_every: a replayed or "
                            "retried job resumes bit-identically from its "
                            "newest snapshot instead of recomputing from "
                            "generation zero")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       dest="drain_timeout",
                       help="seconds SIGTERM lets running jobs finish "
                            "before they are cancelled back to the journal "
                            "(default 30)")
    serve.add_argument("--faults", default=None, metavar="PLAN",
                       help="arm a deterministic fault-injection plan: "
                            "inline JSON or @path (also honored from the "
                            "REPRO_FAULTS environment variable); testing "
                            "only — see repro.faults")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a sweep to a running service"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8642",
                        help="service base URL")
    submit.add_argument("--memory", type=int, default=1,
                        help="memory steps n of the strategy model")
    submit.add_argument("--runs", type=int, default=4,
                        help="replicates (seeds derive client-side from "
                             "--base-seed / --seed)")
    submit.add_argument("--base-seed", type=int, default=None,
                        dest="base_seed",
                        help="master seed for replicate derivation "
                             "(default: --seed)")
    submit.add_argument("--backend", choices=available_backends(),
                        default=None,
                        help="execution backend (default: event or "
                             "ensemble, whichever measured faster for the "
                             "job's shape and --runs)")
    submit.add_argument("--priority", choices=["interactive", "batch"],
                        default="batch")
    submit.add_argument("--label", default="", help="free-form job tag")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print each "
                             "run's outcome")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default 600)")
    _add_evolution_arguments(submit)
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser("jobs", help="list a running service's jobs")
    jobs.add_argument("--url", default="http://127.0.0.1:8642")
    jobs.set_defaults(func=_cmd_jobs)

    cancel = sub.add_parser(
        "cancel", help="cancel a queued or running job"
    )
    cancel.add_argument("job_id", metavar="JOB_ID")
    cancel.add_argument("--url", default="http://127.0.0.1:8642")
    cancel.set_defaults(func=_cmd_cancel)

    result = sub.add_parser(
        "result", help="fetch a finished job's results"
    )
    result.add_argument("job_id", metavar="JOB_ID")
    result.add_argument("--url", default="http://127.0.0.1:8642")
    result.add_argument("--events", action="store_true",
                        help="include per-event records in the payload")
    result.add_argument("--no-population", action="store_true",
                        dest="no_population",
                        help="skip final population matrices")
    result.add_argument("--json", action="store_true",
                        help="dump the raw JSON payload")
    result.set_defaults(func=_cmd_result)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; library errors propagate (tests rely on this)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def cli(argv: list[str] | None = None) -> int:
    """Console entry point: render library errors as clean CLI messages."""
    from .errors import ReproError

    try:
        return main(argv)
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli())
