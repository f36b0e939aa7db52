"""Mid-run checkpoint state: capture and restore a run, bit-identically.

The v1 checkpoint (:mod:`repro.io.checkpoint`) persists only a *final*
population — resuming from it replays nothing and proves nothing.  This
module defines the v2 **run-state** snapshot: everything a driver needs to
continue an interrupted run on the *exact* trajectory of the uninterrupted
one — same events, same snapshots, same counters, same final population:

* the population (strategy matrix, per-SSet counters, and the histogram's
  insertion order, which the legacy fitness accumulation is sensitive to);
* every RNG position as a raw bit-generator state (the Nature Agent's four
  Philox streams; the ensemble's per-lane raw-decoder cursors including
  their half-word carry);
* the accumulated result (event stream, snapshots, event counters);
* the fitness evaluator's *fill history* — not its float matrix.  Payoff
  state is **rebuilt deterministically**: deterministic engines re-derive
  their live pairs from the population (integer-exact in any batch order),
  while lazy expected-regime engines and legacy caches replay an ordered
  evaluation log (same kernels, same batch membership, hence the same
  ulps).  Snapshots therefore stay small and carry no derived floats.

Drivers discover their checkpoint **sink** through a thread-local scope
(:func:`checkpoint_scope`), mirroring :mod:`repro.core.progress`: backends
and ``run_sweep`` stay call-compatible and a service worker thread
checkpoints only its own job.  A sink exposes ``save(unit, generation,
meta, arrays)`` and ``load_latest(unit) -> (meta, arrays) | None``; the
production implementation is :class:`repro.io.run_checkpoint.RunCheckpointer`.

The **unit key** identifies a resumable unit of work: the sha256 of the
run's config dict(s) with execution-only fields stripped
(:data:`RESUME_NEUTRAL_FIELDS`), so a snapshot is only ever offered to a
run asking the same science question.  :func:`validate_resume_config`
produces the did-you-mean mismatch report the CLI surfaces.

A config can also ask its question under a newer **science version**
(:func:`science_version`): the same fields, a changed trajectory contract.
The unit key and the job fingerprint hash any version above 1, and every
snapshot carries its version, so neither a checkpoint directory nor a
pinned artifact continues a run under a different contract.

One regime does not arm (:func:`checkpointing_supported`): a capped
expected-regime pool, whose slot recycling erases the fill history the
replay needs.  The run executes exactly as before, no snapshots are
written, and a service replay falls back to full re-execution.
"""

from __future__ import annotations

import hashlib
import json
import threading
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Protocol

import numpy as np

from ..errors import CheckpointError
from ..rng import make_rng
from .config import EvolutionConfig
from .engine import FitnessEngine, SampledFitnessEngine, is_integer_payoff
from .payoff_cache import PayoffCache, StrategyHistogram
from .population import Population
from .strategy import Strategy

__all__ = [
    "RUN_STATE_VERSION",
    "RESUME_NEUTRAL_FIELDS",
    "CheckpointSink",
    "checkpoint_scope",
    "checkpoint_sink",
    "encode_bitgen",
    "decode_bitgen",
    "generator_state",
    "restore_generator",
    "science_version",
    "science_fields",
    "unit_key",
    "config_mismatches",
    "validate_resume_config",
    "checkpointing_supported",
    "capture_population",
    "restore_population",
    "capture_events",
    "restore_events",
    "capture_snapshots",
    "restore_snapshots",
    "capture_evaluator",
    "restore_evaluator",
]

#: Run-state snapshot format version (v1 is the final-population ``.npz``).
RUN_STATE_VERSION = 2

#: Config fields a resume may change freely: execution knobs whose value
#: does not perturb the science trajectory (``engine`` is *not* here — it
#: swaps the evaluator implementation and with it the hit/miss counters
#: that are part of the result payload).  ``array_backend`` and
#: ``paymat_block`` are retired, but every config dict written before their
#: removal carries them, so they stay here to keep those dicts' keys —
#: snapshots' unit keys, job fingerprints and resume checks — stable.
RESUME_NEUTRAL_FIELDS = frozenset(
    {"checkpoint_every", "array_backend", "paymat_block", "engine_pool_cap"}
)


class CheckpointSink(Protocol):
    """Where drivers put snapshots and look for one to resume from."""

    def save(
        self,
        unit: str,
        generation: int,
        meta: dict[str, Any],
        arrays: dict[str, np.ndarray],
    ) -> None:  # pragma: no cover - protocol
        ...

    def load_latest(
        self, unit: str
    ) -> tuple[dict[str, Any], dict[str, np.ndarray]] | None:  # pragma: no cover
        ...


#: Per-thread sink stack (a list so scopes nest), exactly like the
#: progress-listener stack in :mod:`repro.core.progress`.
_LOCAL = threading.local()


def checkpoint_sink() -> CheckpointSink | None:
    """The innermost active sink of this thread, or ``None``.

    Drivers read this once at run start — installing a scope mid-run has no
    effect on runs already executing, by design.
    """
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return None
    return stack[-1]


@contextmanager
def checkpoint_scope(sink: CheckpointSink) -> Iterator[CheckpointSink]:
    """Install ``sink`` as this thread's checkpoint sink for the block."""
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    stack.append(sink)
    try:
        yield sink
    finally:
        stack.pop()


# -- RNG bit-generator state ---------------------------------------------------


def encode_bitgen(state: Mapping[str, Any]) -> dict[str, Any]:
    """JSON-compatible form of a Philox ``bit_generator.state`` dict.

    The counter/key/buffer words are uint64 (beyond float precision), so
    they are carried as exact Python int lists — ``json`` round-trips
    arbitrary-precision ints losslessly.  ``uinteger`` is written as 0
    while ``has_uint32`` is 0: NumPy reads it only while a half-word is
    buffered, so the value it leaves there after spending one is not
    part of the stream position, and two generators at the same position
    encode alike whichever draws got them there.
    """
    name = str(state["bit_generator"])
    if name != "Philox":  # every repro stream is Philox (repro.rng.make_rng)
        raise CheckpointError(
            f"can only checkpoint Philox bit-generator state, got {name}"
        )
    inner = state["state"]
    return {
        "bit_generator": name,
        "counter": [int(x) for x in inner["counter"]],
        "key": [int(x) for x in inner["key"]],
        "buffer": [int(x) for x in state["buffer"]],
        "buffer_pos": int(state["buffer_pos"]),
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]) if state["has_uint32"] else 0,
    }


def decode_bitgen(data: Mapping[str, Any]) -> dict[str, Any]:
    """Invert :func:`encode_bitgen` into a settable state dict."""
    name = str(data["bit_generator"])
    if name != "Philox":
        raise CheckpointError(
            f"can only restore Philox bit-generator state, got {name}"
        )
    return {
        "bit_generator": name,
        "state": {
            "counter": np.array(data["counter"], dtype=np.uint64),
            "key": np.array(data["key"], dtype=np.uint64),
        },
        "buffer": np.array(data["buffer"], dtype=np.uint64),
        "buffer_pos": int(data["buffer_pos"]),
        "has_uint32": int(data["has_uint32"]),
        "uinteger": int(data["uinteger"]),
    }


def generator_state(rng: np.random.Generator) -> dict[str, Any]:
    """Snapshot one Generator's full bit-generator position."""
    return encode_bitgen(rng.bit_generator.state)


def restore_generator(rng: np.random.Generator, data: Mapping[str, Any]) -> None:
    """Rewind ``rng`` to a position captured by :func:`generator_state`."""
    rng.bit_generator.state = decode_bitgen(data)


# -- unit identity + config validation ----------------------------------------


def science_version(config_dict: Mapping[str, Any]) -> int:
    """Version of the trajectory contract a run of ``config_dict`` follows.

    2 for pure ``sampled_batched`` configurations with ``noise > 0``, whose
    noise flips are drawn as geometric gaps
    (:meth:`~repro.core.engine.SampledFitnessEngine.draw_uniforms`); 1 for
    every other configuration.  Bump a regime's version whenever its
    trajectories change for unchanged configs.
    """
    if (
        config_dict.get("sampled_batched")
        and not config_dict.get("mixed_strategies")
        and not config_dict.get("expected_fitness")
        and config_dict.get("noise", 0.0) > 0.0
    ):
        return 2
    return 1


def science_fields(config_dict: Mapping[str, Any]) -> dict[str, Any]:
    """The part of a config dict that the unit key and the job fingerprint
    hash: every field but the resume-neutral ones, plus the
    :func:`science_version` when it is above 1 (so version-1 keys are
    those of builds that predate versioning)."""
    fields = {
        k: v for k, v in config_dict.items() if k not in RESUME_NEUTRAL_FIELDS
    }
    version = science_version(config_dict)
    if version != 1:
        fields["science_version"] = version
    return fields


def unit_key(config_dicts: list[dict[str, Any]]) -> str:
    """Content hash identifying a resumable unit of work.

    Covers every science-bearing config field of the run (one dict for a
    single run, the ordered lane dicts for an ensemble group) and nothing
    else — so the same question asked with a different checkpoint cadence
    or pool cap still finds its snapshot, while any science change
    misses cleanly (:func:`science_fields`).
    """
    blob = json.dumps(
        [science_fields(d) for d in config_dicts],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_mismatches(
    saved: Mapping[str, Any], current: Mapping[str, Any]
) -> list[str]:
    """Human-readable list of science-bearing fields that differ."""
    out = []
    for key in sorted(set(saved) | set(current)):
        if key in RESUME_NEUTRAL_FIELDS:
            continue
        sv = saved.get(key, "<missing>")
        cv = current.get(key, "<missing>")
        if sv != cv:
            out.append(f"{key}: checkpoint has {sv!r}, run has {cv!r}")
    return out


def validate_resume_config(
    saved_dicts: list[dict[str, Any]],
    current_dicts: list[dict[str, Any]],
    *,
    saved_version: int = 1,
    source: str = "checkpoint",
) -> None:
    """Refuse a resume whose config differs in any science-bearing field,
    or whose snapshot follows another science version.

    ``saved_version`` is the snapshot's ``science_version`` (1 when its
    meta has none: it predates versioning).  The config error names every
    differing field with both values (the CLI's did-you-mean message), so
    a near-miss — wrong seed, wrong structure spec — is diagnosable
    without opening the snapshot.
    """
    if len(saved_dicts) != len(current_dicts):
        raise CheckpointError(
            f"{source} holds state for {len(saved_dicts)} run(s), the "
            f"current request has {len(current_dicts)}"
        )
    for current in current_dicts:
        version = science_version(current)
        if version != saved_version:
            regime = (
                "pure sampled_batched noise"
                if 2 in (version, saved_version)
                else "this configuration's"
            )
            raise CheckpointError(
                f"{source} was written under science version "
                f"{saved_version} of the {regime} regime; this build runs "
                f"version {version}, so the run would continue under "
                "another trajectory contract — start it again from "
                "generation 0"
            )
    problems: list[str] = []
    for i, (saved, current) in enumerate(zip(saved_dicts, current_dicts)):
        for line in config_mismatches(saved, current):
            prefix = f"run {i}: " if len(saved_dicts) > 1 else ""
            problems.append(prefix + line)
    if problems:
        raise CheckpointError(
            f"{source} does not match the requested configuration — "
            "did you mean to change these fields?\n  "
            + "\n  ".join(problems)
        )


def _engine_regime(config: EvolutionConfig) -> str | None:
    """``"det"``, ``"expected"``, or ``None`` (legacy cache) — mirrors the
    regime split of :meth:`FitnessEngine.from_config`."""
    if not config.engine or config.is_stochastic:
        return None
    expected = config.expected_fitness and (
        config.noise > 0.0 or config.mixed_strategies
    )
    if not expected and not is_integer_payoff(config.payoff):
        return None
    return "expected" if expected else "det"


def checkpointing_supported(config: EvolutionConfig) -> bool:
    """Whether mid-run checkpointing can guarantee a bit-identical resume
    for ``config``.

    The one refusal (the run simply executes without snapshots) is the
    expected regime with ``engine_pool_cap > 0``: slot recycling erases
    exactly the fill history a deterministic rebuild must replay.
    """
    return not (
        _engine_regime(config) == "expected" and config.engine_pool_cap > 0
    )


# -- population ----------------------------------------------------------------


def capture_population(
    population: Population,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Snapshot a population: strategies, per-SSet counters, histogram order.

    The histogram's dict insertion order is science-bearing (the legacy
    fitness accumulation adds payoffs in that order, and float addition is
    order-sensitive in the expected regime), so it is captured as the
    first-holder SSet index of each key in current order and rebuilt
    verbatim on restore.
    """
    ssets = population.ssets
    matrix = population.strategy_matrix()
    key_to_first: dict[bytes, int] = {}
    for i, sset in enumerate(ssets):
        key_to_first.setdefault(sset.strategy.key(), i)
    hist_order = [key_to_first[k] for k in population.histogram.counts]
    meta = {
        "memory_steps": population.memory_steps,
        "histogram_order": hist_order,
    }
    arrays = {
        "strategy_matrix": matrix,
        "sset_n_agents": np.array([s.n_agents for s in ssets], dtype=np.int64),
        "sset_adoptions": np.array([s.adoptions for s in ssets], dtype=np.int64),
        "sset_mutations": np.array([s.mutations for s in ssets], dtype=np.int64),
        "sset_fitness": np.array([s.fitness for s in ssets], dtype=np.float64),
    }
    return meta, arrays


def restore_population(
    meta: Mapping[str, Any], arrays: Mapping[str, np.ndarray]
) -> Population:
    """Rebuild the population captured by :func:`capture_population`
    (no engine bound yet — see :func:`restore_evaluator`)."""
    matrix = np.asarray(arrays["strategy_matrix"])
    memory_steps = int(meta["memory_steps"])
    strategies = [
        Strategy._trusted(np.array(row), memory_steps) for row in matrix
    ]
    population = Population.from_strategies(strategies)
    n_agents = arrays["sset_n_agents"]
    adoptions = arrays["sset_adoptions"]
    mutations = arrays["sset_mutations"]
    fitness = arrays["sset_fitness"]
    for i, sset in enumerate(population.ssets):
        sset.n_agents = int(n_agents[i])
        sset.adoptions = int(adoptions[i])
        sset.mutations = int(mutations[i])
        sset.fitness = float(fitness[i])
    # Rebuild the histogram in its captured insertion order (the fresh one
    # is in SSet order, which is not in general the historical order).
    rebuilt = population.histogram
    ordered = StrategyHistogram()
    for idx in meta["histogram_order"]:
        strategy = strategies[int(idx)]
        key = strategy.key()
        ordered.counts[key] = rebuilt.counts[key]
        ordered.exemplars[key] = strategy
    if len(ordered.counts) != len(rebuilt.counts):
        raise CheckpointError(
            "run checkpoint histogram order is inconsistent with its "
            "strategy matrix"
        )
    population.histogram = ordered
    return population


# -- events and snapshots ------------------------------------------------------

_EVENT_KINDS = ("pc", "mutation")


def capture_events(events: list) -> dict[str, np.ndarray]:
    """Column-encode the accumulated :class:`EventRecord` stream."""
    try:
        kinds = np.array(
            [_EVENT_KINDS.index(e.kind) for e in events], dtype=np.uint8
        )
    except ValueError:  # pragma: no cover - future event kinds
        raise CheckpointError(
            "run checkpoint cannot encode an unknown event kind; known: "
            f"{_EVENT_KINDS}"
        ) from None
    return {
        "events_generation": np.array(
            [e.generation for e in events], dtype=np.int64
        ),
        "events_kind": kinds,
        "events_source": np.array([e.source for e in events], dtype=np.int64),
        "events_target": np.array([e.target for e in events], dtype=np.int64),
        "events_applied": np.array([e.applied for e in events], dtype=np.bool_),
        "events_teacher_fitness": np.array(
            [e.teacher_fitness for e in events], dtype=np.float64
        ),
        "events_learner_fitness": np.array(
            [e.learner_fitness for e in events], dtype=np.float64
        ),
    }


def restore_events(arrays: Mapping[str, np.ndarray]) -> list:
    """Invert :func:`capture_events` (float fitness survives bit-exactly —
    the columns are float64 end to end)."""
    from .evolution import EventRecord  # deferred: evolution imports us

    return [
        EventRecord(
            generation=int(g),
            kind=_EVENT_KINDS[int(k)],
            source=int(s),
            target=int(t),
            applied=bool(a),
            teacher_fitness=float(tf),
            learner_fitness=float(lf),
        )
        for g, k, s, t, a, tf, lf in zip(
            arrays["events_generation"],
            arrays["events_kind"],
            arrays["events_source"],
            arrays["events_target"],
            arrays["events_applied"],
            arrays["events_teacher_fitness"],
            arrays["events_learner_fitness"],
        )
    ]


def capture_snapshots(snapshots: list) -> dict[str, np.ndarray]:
    """Stack the accumulated :class:`Snapshot` records into arrays."""
    arrays = {
        "snap_generation": np.array(
            [s.generation for s in snapshots], dtype=np.int64
        ),
        "snap_dominant_share": np.array(
            [s.dominant_share for s in snapshots], dtype=np.float64
        ),
    }
    if snapshots:
        arrays["snap_matrix"] = np.stack(
            [s.strategy_matrix for s in snapshots]
        )
    return arrays


def restore_snapshots(arrays: Mapping[str, np.ndarray]) -> list:
    """Invert :func:`capture_snapshots`."""
    from .evolution import Snapshot  # deferred: evolution imports us

    generations = arrays["snap_generation"]
    if len(generations) == 0:
        return []
    shares = arrays["snap_dominant_share"]
    matrices = np.asarray(arrays["snap_matrix"])
    return [
        Snapshot(
            generation=int(generations[i]),
            strategy_matrix=np.array(matrices[i]),
            dominant_share=float(shares[i]),
        )
        for i in range(len(generations))
    ]


# -- evaluator state -----------------------------------------------------------


def _encode_ref_ops(
    ops: list[tuple], strategies: list[Strategy], refs: dict[bytes, int]
) -> None:
    """(helper) intern every strategy an op references, in first-use order."""
    for op in ops:
        for strategy in op[1:]:
            if isinstance(strategy, Strategy):
                key = strategy.key()
                if key not in refs:
                    refs[key] = len(strategies)
                    strategies.append(strategy)
            else:
                for s in strategy:
                    key = s.key()
                    if key not in refs:
                        refs[key] = len(strategies)
                        strategies.append(s)


def capture_evaluator(
    evaluator: "FitnessEngine | PayoffCache", population: Population
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Snapshot the fitness evaluator's *rebuildable* state.

    * Deterministic :class:`FitnessEngine` — counters only; the eager
      live-pair matrix re-derives from the population (integer-exact in
      any batch order).
    * Expected-regime :class:`FitnessEngine` — the pool's slot strategies,
      refcounts and both insertion orders (live + retired), the per-SSet
      sid binding, and the ordered fill log (see
      :attr:`FitnessEngine._fill_log`).
    * Legacy :class:`PayoffCache` — the ordered evaluation log with a
      strategy reference table; the sampled-stochastic regime never caches,
      so its log is empty and only the counters travel.
    * Batched :class:`SampledFitnessEngine` — the same ordered log (it only
      ever records the *deterministic* probes its inherited cache served;
      sampled games are never cached, so replaying the log consumes no
      randomness) plus the dedicated sampled stream's raw bit-generator
      state, which lives here rather than in the Nature Agent's stream
      snapshot so legacy checkpoint payloads stay byte-stable.
    """
    if isinstance(evaluator, FitnessEngine):
        if evaluator.pool.pinned:
            # A restore rebuilds the pool from the population alone.
            raise CheckpointError(
                f"{evaluator.pool.pinned} prefetch pin(s) outstanding at "
                "a checkpoint boundary; prefetch windows must end with "
                "their batch"
            )
        meta: dict[str, Any] = {
            "type": "engine",
            "expected": evaluator.expected,
            "hits": evaluator.hits,
            "misses": evaluator.misses,
        }
        if not evaluator.expected:
            return meta, {}
        pool = evaluator.pool
        tracked = pool.tracked
        if evaluator._fill_log is None:
            raise CheckpointError(
                "expected-regime engine has no fill log; checkpointing "
                "must be armed from run start"
            )
        # Non-evicting uncapped pools assign slots 0..tracked-1 in first-
        # intern order and never free one — the property the rebuild relies
        # on (a capped pool is refused by checkpointing_supported).
        tables = np.stack(
            [pool._strategies[k].table for k in range(tracked)]
        ) if tracked else np.zeros((0, pool.n_states), dtype=pool.tables.dtype)
        kinds, sids_col, flat, offsets = _encode_fill_log(evaluator._fill_log)
        meta["live_order"] = [int(s) for s in pool._order]
        meta["retired_order"] = [int(s) for s in pool._retired]
        arrays = {
            "eval_pool_tables": tables,
            "eval_pool_refcounts": pool._refcounts[:tracked].copy(),
            "eval_fill_kind": kinds,
            "eval_fill_sid": sids_col,
            "eval_fill_flat": flat,
            "eval_fill_offsets": offsets,
            "eval_sids": population.sids.copy(),
        }
        return meta, arrays

    # Legacy PayoffCache.
    if evaluator._eval_log is None:
        raise CheckpointError(
            "payoff cache has no evaluation log; checkpointing must be "
            "armed from run start"
        )
    strategies: list[Strategy] = []
    refs: dict[bytes, int] = {}
    _encode_ref_ops(evaluator._eval_log, strategies, refs)
    kinds_list: list[int] = []
    a_refs: list[int] = []
    flat_refs: list[int] = []
    offsets_list: list[int] = [0]
    for op in evaluator._eval_log:
        if op[0] == "pair":
            kinds_list.append(0)
            a_refs.append(refs[op[1].key()])
            flat_refs.append(refs[op[2].key()])
        else:
            kinds_list.append(1)
            a_refs.append(refs[op[1].key()])
            flat_refs.extend(refs[s.key()] for s in op[2])
        offsets_list.append(len(flat_refs))
    if strategies:
        tables = np.stack([s.table for s in strategies])
    else:
        tables = np.zeros((0, 0), dtype=np.uint8)
    meta = {
        "type": "cache",
        "hits": evaluator.hits,
        "misses": evaluator.misses,
    }
    if isinstance(evaluator, SampledFitnessEngine):
        # Only deterministic probes ever reach the log (the batched games
        # are redrawn, not cached), so the logged strategies are all pure
        # and the replay consumes no randomness — the stream position
        # snapshot alone carries the sampled state.
        meta["type"] = "sampled"
        meta["rng"] = generator_state(evaluator.rng)
        meta["games_played"] = evaluator.games_played
        meta["batches"] = evaluator.batches
    arrays = {
        "eval_tables": tables,
        "eval_op_kind": np.array(kinds_list, dtype=np.uint8),
        "eval_op_a": np.array(a_refs, dtype=np.int64),
        "eval_op_flat": np.array(flat_refs, dtype=np.int64),
        "eval_op_offsets": np.array(offsets_list, dtype=np.int64),
    }
    return meta, arrays


def _encode_fill_log(
    ops: list[tuple],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    kinds = np.zeros(len(ops), dtype=np.uint8)
    sids = np.zeros(len(ops), dtype=np.int64)
    flat: list[int] = []
    offsets = [0]
    for i, op in enumerate(ops):
        if op[0] == "row":
            kinds[i] = 0
            sids[i] = op[1]
            flat.extend(op[2])
        else:
            kinds[i] = 1
            sids[i] = op[1]
        offsets.append(len(flat))
    return (
        kinds,
        sids,
        np.array(flat, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
    )


def restore_evaluator(
    config: EvolutionConfig,
    meta: Mapping[str, Any],
    arrays: Mapping[str, np.ndarray],
    population: Population,
    games_rng: np.random.Generator | None,
) -> "FitnessEngine | PayoffCache":
    """Rebuild the evaluator captured by :func:`capture_evaluator` and bind
    it to ``population`` (the restored population of the same snapshot).

    ``games_rng`` is the Nature Agent's (already rewound) games stream,
    handed to a sampled-regime cache exactly like
    :func:`~repro.core.evolution._make_cache` does.
    """
    if meta["type"] == "engine":
        engine = FitnessEngine.from_config(config)
        if engine is None:
            raise CheckpointError(
                "run checkpoint was written by a FitnessEngine run but the "
                "current configuration resolves to the legacy cache"
            )
        if bool(meta["expected"]) != engine.expected:
            raise CheckpointError(
                "run checkpoint evaluator regime does not match the "
                "current configuration"
            )
        if not engine.expected:
            # Eager deterministic rebuild: intern in SSet order and refill
            # every live pair (float-exact regardless of batch shape).
            population.bind_engine(engine)
            engine.hits = int(meta["hits"])
            engine.misses = int(meta["misses"])
            return engine
        tables = np.asarray(arrays["eval_pool_tables"])
        for row in tables:
            engine.intern(Strategy._trusted(np.array(row), config.memory_steps))
        pool = engine.pool
        tracked = len(tables)
        pool._refcounts[:tracked] = arrays["eval_pool_refcounts"]
        pool._order = dict.fromkeys(int(s) for s in meta["live_order"])
        pool._order_array = None
        pool._retired = dict.fromkeys(int(s) for s in meta["retired_order"])
        engine.enable_fill_log()
        kinds = arrays["eval_fill_kind"]
        sids = arrays["eval_fill_sid"]
        flat = arrays["eval_fill_flat"]
        offsets = arrays["eval_fill_offsets"]
        for i in range(len(kinds)):
            if int(kinds[i]) == 0:
                missing = [
                    int(j) for j in flat[int(offsets[i]):int(offsets[i + 1])]
                ]
                engine._ensure_row(int(sids[i]), missing)
            else:
                engine._self_payoff(int(sids[i]))
        engine.hits = int(meta["hits"])
        engine.misses = int(meta["misses"])
        # Bind without re-interning: the pool already carries the exact
        # refcounts; the captured per-SSet sid array is the binding.
        population._engine = engine
        population._sids = np.asarray(arrays["eval_sids"], dtype=np.int64).copy()
        return engine

    # Legacy PayoffCache — or its batched sampled subclass.
    population.bind_engine(None)
    if meta["type"] == "sampled":
        cache = SampledFitnessEngine.from_config(config, make_rng(0))
        if cache is None:
            raise CheckpointError(
                "run checkpoint was written by a sampled_batched run but "
                "the current configuration resolves to a different "
                "evaluator"
            )
    else:
        cache = PayoffCache(
            rounds=config.rounds,
            payoff=config.payoff,
            noise=config.noise,
            rng=games_rng if config.is_stochastic else None,
            expected=config.expected_fitness,
        )
    cache.enable_eval_log()
    tables = np.asarray(arrays["eval_tables"])
    strategies = [
        Strategy._trusted(np.array(row), config.memory_steps) for row in tables
    ]
    kinds = arrays["eval_op_kind"]
    a_refs = arrays["eval_op_a"]
    flat = arrays["eval_op_flat"]
    offsets = arrays["eval_op_offsets"]
    for i in range(len(kinds)):
        span = flat[int(offsets[i]):int(offsets[i + 1])]
        focal = strategies[int(a_refs[i])]
        if int(kinds[i]) == 0:
            cache.pair_payoffs(focal, strategies[int(span[0])])
        else:
            cache.payoffs_to_many(focal, [strategies[int(j)] for j in span])
    cache.hits = int(meta["hits"])
    cache.misses = int(meta["misses"])
    if meta["type"] == "sampled":
        # Replay above consumed no randomness (deterministic probes only);
        # pinning the captured stream position makes the resumed run's
        # batched draws bit-identical to the uninterrupted one.
        restore_generator(cache.rng, meta["rng"])
        cache.games_played = int(meta["games_played"])
        cache.batches = int(meta["batches"])
    return cache
