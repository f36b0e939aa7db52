"""Lane-batched ensemble driver: a whole sweep as one array program.

:func:`run_ensemble` executes many independent replicates ("lanes") of the
evolutionary dynamics in a single interpreter loop.  Lanes with identical
science (every config field except the seed) are stacked: their populations
live in one ``(R, n_ssets)`` strategy-id array over one shared
:class:`~repro.ensemble.engine.EnsembleEngine` pool/payoff matrix, their
event flags are scanned together, and pairwise-comparison fitness is
evaluated for all of a generation's event lanes in one batched
payoff-matrix reduction — ``counts``-style gathers for well-mixed lanes,
one flat CSR gather + segment reduction over the structure's
``indptr``/``indices`` adjacency for graph lanes
(:meth:`~repro.ensemble.engine.EnsembleEngine.fitness_pc_graph`).  Mutant
payoff rows are prefilled a *window* of generations ahead — mutation draws
are state-independent, so the window's mutants can be drawn and evaluated
in one batched kernel call before their events apply.

**Bit-parity contract.**  Every lane follows the *bit-identical trajectory*
of the same-seed serial :func:`~repro.core.evolution.run_event_driven` run
(pinned by the lane-parity tests): per-lane RNG streams are consumed
through exactly the serial call sequence (``batch_event_flags`` layout for
the events stream, the teacher-then-learner-with-rejection draw of
:meth:`~repro.structure.WellMixed.select_pair` — or the graph structures'
learner-then-neighbor draw, both decoded in bulk off the raw Philox
stream by :mod:`repro.ensemble.rawstream` — plus one adoption uniform for
PC, target + mutant draws for mutation), Fermi decisions use the same
scalar ``math.exp`` path, and shared-matrix fitness values are float-exact
integer sums, hence bitwise equal to the per-run engine's.

Regimes:

* **deterministic** (pure strategies, no noise, integer payoffs, ``engine``
  on) — the shared-engine fast path above.
* **expected** Markov fitness, non-integer payoffs, or ``engine=False`` —
  lanes run with per-lane evaluators (the exact serial objects:
  :class:`~repro.core.engine.FitnessEngine` or the legacy
  :class:`~repro.core.payoff_cache.PayoffCache`), still sharing the merged
  event scan.  The expected regime cannot share one matrix bit-identically
  across lanes — its Markov kernel is not perspective-symmetric in the last
  ulp, so entry values depend on which lane evaluated a pair first.
* **sampled-stochastic** fitness is rejected by default: every game is an
  independent draw from the per-lane games stream, so there is nothing to
  share without changing the trajectory (use the ``event`` backend per
  run).  With the explicit ``sampled_batched=True`` opt-in
  (``--sampled-batched``) lanes instead carry per-lane
  :class:`~repro.core.engine.SampledFitnessEngine` evaluators over
  dedicated ``("nature", "sampled")`` streams, and a generation's event
  lanes are evaluated as **one** fused
  :func:`~repro.core.vectorgame.play_pairs_uniforms` kernel call
  (:meth:`~repro.core.engine.SampledFitnessEngine.eval_plans`).  Each
  lane pre-draws its own uniform block, so its trajectory is bit-identical
  to the same-seed serial ``sampled_batched`` run — and statistically
  equivalent to the scalar legacy path.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from typing import Iterable, Sequence

import numpy as np

from ..core.config import EvolutionConfig
from ..core.engine import FitnessEngine, SampledFitnessEngine
from ..core.evolution import (
    EventRecord,
    EvolutionResult,
    Snapshot,
    _enable_capture_logs,
    _maybe_snapshot,
)
from ..core.fermi import fermi_probability
from ..core.payoff_cache import PayoffCache
from ..core.population import Population
from .. import faults
from ..core.progress import (
    ProgressTick,
    cancel_token,
    progress_callback,
    progress_scope,
)
from ..core.runstate import (
    RUN_STATE_VERSION,
    capture_evaluator,
    capture_events,
    capture_population,
    capture_snapshots,
    checkpoint_sink,
    checkpointing_supported,
    decode_bitgen,
    encode_bitgen,
    restore_evaluator,
    restore_events,
    restore_population,
    restore_snapshots,
    unit_key,
    validate_resume_config,
)
from ..core.strategy import random_mixed, random_pure
from ..errors import CheckpointError, ConfigurationError
from ..rng import SeedSequenceTree
from ..structure import GraphStructure, InteractionModel, build_structure
from . import rawstream
from .engine import EnsembleEngine, supports_shared_engine

__all__ = ["run_ensemble", "run_ensemble_detailed", "lane_signature"]

#: Target mutants per lane per prefetch window.  Larger windows batch more
#: mutants per kernel call but prefill more pairs that die unqueried;
#: around three per lane balances both, so the window length adapts to the
#: configured mutation rate (64 generations at the paper's mu = 0.05).
_MUTANTS_PER_WINDOW = 3.2


def _fill_window(mutation_rate: float) -> int:
    if mutation_rate <= 0.0:
        return 1024
    return max(32, min(1024, round(_MUTANTS_PER_WINDOW / mutation_rate)))


def lane_signature(config: EvolutionConfig) -> tuple:
    """Grouping key: lanes batch together iff their science is identical
    up to the seed (the standard replicate-ensemble shape).

    Derived from the config's dataclass fields so a future
    :class:`EvolutionConfig` field can never silently fall out of the key
    (which would co-batch configs that differ in it); only the seed is
    excluded, and the two non-hashable fields get canonical stand-ins.
    """
    parts: list = []
    for field in dataclasses.fields(EvolutionConfig):
        if field.name == "seed":
            continue
        value = getattr(config, field.name)
        if field.name == "structure":
            value = (
                ("instance", id(value))
                if isinstance(value, InteractionModel)
                else ("spec", config.canonical_structure())
            )
        elif field.name == "payoff":
            value = tuple(float(v) for v in value.vector)
        parts.append((field.name, value))
    return tuple(parts)


def _validate_config(config: EvolutionConfig) -> None:
    if config.is_stochastic and not config.sampled_batched:
        raise ConfigurationError(
            "the ensemble driver supports deterministic and expected-"
            "fitness configurations only; sampled-stochastic fitness draws "
            "one fresh game per probe from the per-lane games stream and "
            "cannot be lane-batched without changing the trajectory — opt "
            "in to the batched sampled engine with sampled_batched=True "
            "(CLI --sampled-batched; statistically equivalent, not "
            "bit-identical to the scalar path), or use the event or "
            "serial backend per run"
        )


def run_ensemble(
    configs: Iterable[EvolutionConfig],
    populations: Sequence[Population | None] | None = None,
    *,
    batch_size: int = 1 << 16,
) -> list[EvolutionResult]:
    """Run every config lane-batched; results come back in config order."""
    results, _ = run_ensemble_detailed(
        configs, populations, batch_size=batch_size
    )
    return results


def run_ensemble_detailed(
    configs: Iterable[EvolutionConfig],
    populations: Sequence[Population | None] | None = None,
    *,
    batch_size: int = 1 << 16,
) -> tuple[list[EvolutionResult], list[dict]]:
    """:func:`run_ensemble` plus one per-result execution-metadata dict
    (``lanes`` and ``shared_engine`` stats) for the backend report."""
    run_configs = list(configs)
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    if populations is None:
        initial: list[Population | None] = [None] * len(run_configs)
    else:
        initial = list(populations)
        if len(initial) != len(run_configs):
            raise ConfigurationError(
                f"got {len(initial)} initial populations for "
                f"{len(run_configs)} configs"
            )
    for config in run_configs:
        _validate_config(config)

    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(run_configs):
        groups.setdefault(lane_signature(config), []).append(i)

    results: list[EvolutionResult | None] = [None] * len(run_configs)
    metas: list[dict | None] = [None] * len(run_configs)
    # Progress listeners (repro.core.progress) see sweep-level config
    # indices, not lane-local ones: each group's driver emits ticks with
    # its own lane numbering, remapped here through a nested scope.
    outer_progress = progress_callback()
    for indices in groups.values():
        group_configs = [run_configs[i] for i in indices]
        group_initial = [initial[i] for i in indices]
        if outer_progress is not None:
            remap = list(indices)
            scope = progress_scope(
                lambda tick, _remap=remap, _cb=outer_progress: _cb(
                    tick.with_run_index(_remap[tick.run_index])
                )
            )
        else:
            scope = nullcontext()
        # The shared fast path speaks the structure layer's two batched
        # dialects: well-mixed gathers and GraphStructure's CSR adjacency
        # (decoders + fitness_pc_graph).  A custom InteractionModel
        # subclass registered through register_structure implements only
        # the abstract per-event API, so it runs the per-lane generic
        # path (exact serial objects and draws) instead.
        head = group_configs[0]
        structure = build_structure(head.structure, head.n_ssets)
        with scope:
            if supports_shared_engine(head) and (
                structure.is_well_mixed or isinstance(structure, GraphStructure)
            ):
                outs, meta = _run_group_shared(
                    group_configs, group_initial, batch_size
                )
            else:
                outs, meta = _run_group_generic(
                    group_configs, group_initial, batch_size
                )
        for i, out in zip(indices, outs):
            results[i] = out
            metas[i] = meta
    return results, metas  # type: ignore[return-value]


def _lane_setup(
    configs: list[EvolutionConfig], initial: list[Population | None]
) -> tuple[list, list, list, list, list[Population]]:
    """Per-lane RNG streams (serial stream layout) and initial populations."""
    trees = [SeedSequenceTree(c.seed) for c in configs]
    events_rngs = [t.generator("nature", "events") for t in trees]
    pc_rngs = [t.generator("nature", "pc") for t in trees]
    mu_rngs = [t.generator("nature", "mutation") for t in trees]
    pops: list[Population] = []
    for r, config in enumerate(configs):
        population = initial[r]
        if population is None:
            population = Population.random(config, trees[r].generator("init"))
        pops.append(population)
    return trees, events_rngs, pc_rngs, mu_rngs, pops


def _draw_flags(
    events_rngs: list, pc_rate: float, mutation_rate: float, batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of per-lane event flags (NatureAgent.batch_event_flags
    stream layout: two uniforms per generation, PC first)."""
    n_lanes = len(events_rngs)
    pc_flags = np.empty((n_lanes, batch), dtype=bool)
    mu_flags = np.empty((n_lanes, batch), dtype=bool)
    for r in range(n_lanes):
        draws = events_rngs[r].random(2 * batch)
        pc_flags[r] = draws[0::2] < pc_rate
        mu_flags[r] = draws[1::2] < mutation_rate
    return pc_flags, mu_flags


# -- mid-run checkpointing -----------------------------------------------------


def _group_checkpointing(cfg: EvolutionConfig, initial: list):
    """The active checkpoint sink, iff this group is eligible for mid-run
    snapshots (same arming rule as the serial drivers, plus one ensemble
    refusal: an LRU-capped blocked *shared* store can evict filled blocks
    mid-run, so a captured valid-pair set cannot pin the resumed run's
    fill counters to the clean run's)."""
    sink = checkpoint_sink()
    if sink is None:
        return None
    if any(p is not None for p in initial):
        return None
    if not checkpointing_supported(cfg):
        return None
    if cfg.paymat_block > 0 and cfg.engine_pool_cap > 0:
        return None
    return sink


def _lane_arrays(arrays: dict, r: int) -> dict:
    """One lane's arrays, with the ``l{r}_`` namespace prefix stripped."""
    prefix = f"l{r}_"
    return {
        key[len(prefix):]: value
        for key, value in arrays.items()
        if key.startswith(prefix)
    }


def _load_group_state(sink, unit: str, configs: list[EvolutionConfig],
                      mode: str):
    """Newest valid ensemble checkpoint for this group, or ``None``.

    A snapshot of a different kind/mode (say a one-lane sweep that resolved
    to a serial driver earlier) is not an error — the group just starts
    fresh; a science-config mismatch *is* one (the did-you-mean error of
    :func:`~repro.core.runstate.validate_resume_config`)."""
    found = sink.load_latest(unit)
    if found is None:
        return None
    meta, arrays = found
    if meta.get("kind") != "ensemble" or meta.get("mode") != mode:
        return None
    version = int(meta.get("version", 0))
    if version != RUN_STATE_VERSION:
        raise CheckpointError(
            f"run-state checkpoint is format v{version}; this build reads "
            f"v{RUN_STATE_VERSION}"
        )
    validate_resume_config(meta["configs"], [c.to_dict() for c in configs])
    return meta, arrays


def _capture_group_shared(
    configs: list[EvolutionConfig],
    base: int,
    engine: EnsembleEngine,
    pops: list[Population],
    sids: np.ndarray,
    results: list[EvolutionResult],
    next_snap: list,
    events_rngs: list,
    pc_decoders: list,
    mu_decoders: list,
    adopt_counts: np.ndarray,
    mut_counts: np.ndarray,
    n_pc: list[int],
    n_adopt: list[int],
    n_mut: list[int],
) -> tuple[dict, dict]:
    """Snapshot the whole shared-engine group at a batch boundary.

    Population objects are bystanders mid-run (the sid array is the state,
    diffed back into the generation-0 populations at the end), so each lane
    captures its *initial* population plus the strategy tables its sids
    point at now; the shared matrix is captured as the live x live valid
    pair set (table-keyed, sid numbering is ephemeral), re-evaluated
    bit-exactly on resume."""
    lanes: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for r, _config in enumerate(configs):
        pop_meta, lane_arrays = capture_population(pops[r])
        lane_arrays["sid_tables"] = engine.tables[sids[r]].copy()
        lane_arrays["adopt_counts"] = adopt_counts[r].copy()
        lane_arrays["mut_counts"] = mut_counts[r].copy()
        lane_arrays.update(capture_events(results[r].events))
        lane_arrays.update(capture_snapshots(results[r].snapshots))
        lanes.append(
            {
                "population": pop_meta,
                "counters": {
                    "n_pc_events": int(n_pc[r]),
                    "n_adoptions": int(n_adopt[r]),
                    "n_mutations": int(n_mut[r]),
                },
                "next_snapshot": next_snap[r],
                "events_rng": encode_bitgen(
                    events_rngs[r].bit_generator.state
                ),
                "pc_stream": pc_decoders[r].state_dict(),
                "mu_stream": mu_decoders[r].state_dict(),
            }
        )
        for key, value in lane_arrays.items():
            arrays[f"l{r}_{key}"] = value
    # Every live slot is some lane's member at a batch boundary (prefetch
    # pins are released), so live x live covers the whole forward-reachable
    # valid set; dead strategies re-enter through fresh slots and refill.
    live = np.unique(sids)
    valid = engine._store.pair_valid(live[:, None], live[None, :])
    pair_i, pair_j = np.nonzero(np.triu(valid))
    arrays["engine_live_tables"] = engine.tables[live].copy()
    arrays["engine_pair_a"] = pair_i.astype(np.int64)
    arrays["engine_pair_b"] = pair_j.astype(np.int64)
    arrays["engine_lane_fills"] = engine.lane_fills.copy()
    meta = {
        "version": RUN_STATE_VERSION,
        "kind": "ensemble",
        "mode": "shared",
        "generation": int(base),
        "configs": [c.to_dict() for c in configs],
        "lanes": lanes,
        "engine": {
            "fills": int(engine.fills),
            "fill_calls": int(engine.fill_calls),
        },
    }
    return meta, arrays


def _capture_group_generic(
    configs: list[EvolutionConfig],
    base: int,
    pops: list[Population],
    evaluators: list,
    results: list[EvolutionResult],
    next_snap: list,
    events_rngs: list,
    pc_rngs: list,
    mu_rngs: list,
) -> tuple[dict, dict]:
    """Snapshot one per-lane-evaluator group at a batch boundary (current
    populations, each lane's evaluator state, and all three scalar RNG
    stream positions)."""
    lanes: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for r, _config in enumerate(configs):
        pop_meta, lane_arrays = capture_population(pops[r])
        eval_meta, eval_arrays = capture_evaluator(evaluators[r], pops[r])
        lane_arrays.update(eval_arrays)
        lane_arrays.update(capture_events(results[r].events))
        lane_arrays.update(capture_snapshots(results[r].snapshots))
        lanes.append(
            {
                "population": pop_meta,
                "evaluator": eval_meta,
                "counters": {
                    "n_pc_events": int(results[r].n_pc_events),
                    "n_adoptions": int(results[r].n_adoptions),
                    "n_mutations": int(results[r].n_mutations),
                },
                "next_snapshot": next_snap[r],
                "events_rng": encode_bitgen(
                    events_rngs[r].bit_generator.state
                ),
                "pc_rng": encode_bitgen(pc_rngs[r].bit_generator.state),
                "mu_rng": encode_bitgen(mu_rngs[r].bit_generator.state),
            }
        )
        for key, value in lane_arrays.items():
            arrays[f"l{r}_{key}"] = value
    meta = {
        "version": RUN_STATE_VERSION,
        "kind": "ensemble",
        "mode": "generic",
        "generation": int(base),
        "configs": [c.to_dict() for c in configs],
        "lanes": lanes,
        "engine": None,
    }
    return meta, arrays


# -- shared deterministic engine path -----------------------------------------


def _run_group_shared(
    configs: list[EvolutionConfig],
    initial: list[Population | None],
    batch_size: int,
) -> tuple[list[EvolutionResult], dict]:
    """Advance one signature-group of deterministic lanes over the shared
    engine, generation by generation."""
    started = time.perf_counter()
    cfg = configs[0]
    n_lanes = len(configs)
    n_ssets = cfg.n_ssets
    generations = cfg.generations
    structure = build_structure(cfg.structure, n_ssets)
    well_mixed = structure.is_well_mixed

    _, events_rngs, pc_rngs, mu_rngs, pops = _lane_setup(configs, initial)

    sink = _group_checkpointing(cfg, initial)
    unit = (
        unit_key([c.to_dict() for c in configs]) if sink is not None else None
    )
    restored = (
        _load_group_state(sink, unit, configs, "shared")
        if sink is not None
        else None
    )
    save_every = cfg.checkpoint_every if sink is not None else 0
    start_gen = 0
    lane_state: list[dict] = []
    if restored is not None:
        meta_r, arrays_r = restored
        start_gen = int(meta_r["generation"])
        lane_state = [_lane_arrays(arrays_r, r) for r in range(n_lanes)]
        for r in range(n_lanes):
            pops[r] = restore_population(
                meta_r["lanes"][r]["population"], lane_state[r]
            )

    # Size for the worst case (every SSet distinct) plus prefetch-pin
    # headroom up front: growth doubles the dense matrix, so a big ensemble
    # that barely overflows would pay double the memory.  Memory-one's
    # strategy space (16 pure tables) caps the pool outright.
    n_states = 4 ** cfg.memory_steps
    capacity = n_lanes * n_ssets + 512
    if n_states < 32:
        capacity = min(capacity, 2**n_states)
    engine = EnsembleEngine(
        cfg.memory_steps,
        cfg.rounds,
        cfg.payoff,
        n_lanes=n_lanes,
        capacity=capacity,
        paymat_block=cfg.paymat_block,
        block_cap=cfg.engine_pool_cap if cfg.paymat_block else 0,
    )
    # Well-mixed shallow memories (cheap pairs) prefill every pair a
    # window could read, so the hot loop runs check-free; deep memories
    # (4**n >= 64 states, ~4x the kernel cost per pair) evaluate on demand
    # instead — there the prefetch's mutant x live overshoot costs more
    # than the per-generation check-and-fill it avoids.  Graph lanes are
    # *always* on demand: a fitness gather reads only the 2k event
    # neighborhoods (O(degree) pairs), a tiny fraction of the mutant x
    # live-population coverage the invariant would prefill, so the
    # check-and-fill inside fitness_pc_graph is the cheaper side at every
    # memory depth (measured: 64-lane ring m1/m2 both faster on demand).
    # An LRU-capped blocked paymat can evict filled blocks mid-run, which
    # breaks the fill-once coverage invariant — those runs always take the
    # on-demand check-and-fill path (refills are bit-exact, so the
    # trajectory is unchanged; only fill counts differ).
    full_cover = n_states <= 16 and well_mixed and not engine.evictable
    sids = np.empty((n_lanes, n_ssets), dtype=np.int64)
    for r in range(n_lanes):
        # Population objects are bystanders during the shared-mode run (the
        # sid array is the state); drop any stale per-run engine binding so
        # the final write-back goes through the plain histogram path.  On
        # resume the lanes' *current* strategies come from the snapshot's
        # table capture, not the (generation-0) population.
        pops[r].bind_engine(None)
        if restored is not None:
            sids[r] = engine.intern_lane(
                np.asarray(lane_state[r]["sid_tables"], dtype=np.uint8)
            )
        else:
            sids[r] = engine.intern_lane(pops[r].strategy_matrix())
    if restored is not None:
        # Refill the snapshot's live x live valid-pair set (bit-exact — the
        # kernel is order-independent for these integer/compact sums) and
        # pin the counters to the interrupted run's, so the resumed run's
        # provenance matches an uninterrupted one.  Every captured live
        # table was re-interned just above, so the key lookup cannot miss.
        live_new = engine.sids_of(
            np.asarray(arrays_r["engine_live_tables"], dtype=np.uint8)
        )
        pair_a = np.asarray(arrays_r["engine_pair_a"])
        pair_b = np.asarray(arrays_r["engine_pair_b"])
        if pair_a.shape[0]:
            engine._fill_pairs(live_new[pair_a], live_new[pair_b])
        engine.fills = int(meta_r["engine"]["fills"])
        engine.fill_calls = int(meta_r["engine"]["fill_calls"])
        engine.lane_fills[:] = np.asarray(arrays_r["engine_lane_fills"])
    elif full_cover:
        # Initial coverage: every within-lane pair (diagonal included) is
        # evaluated up front, deduplicated across lanes.  Together with the
        # window prefetch below this establishes the standing invariant
        # that every pair a fitness gather can read is valid — a pair's
        # two members either coexisted at t=0 (covered here) or the
        # younger entered by mutation with the older live or arriving in
        # the same window (covered by its window's prefetch), and slots
        # recycle only when a strategy leaves every lane — so the hot loop
        # needs no per-query checks.
        a_init: list[np.ndarray] = []
        b_init: list[np.ndarray] = []
        lanes_init: list[np.ndarray] = []
        for r in range(n_lanes):
            uniq = np.unique(sids[r])
            iu, ju = np.triu_indices(uniq.shape[0])
            a_init.append(uniq[iu])
            b_init.append(uniq[ju])
            lanes_init.append(np.full(iu.shape[0], r, dtype=np.int64))
        engine.fill_missing(
            np.concatenate(a_init), np.concatenate(b_init),
            np.concatenate(lanes_init),
        )
        del a_init, b_init, lanes_init

    results = [
        EvolutionResult(config=config, population=population)
        for config, population in zip(configs, pops)
    ]
    if restored is None:
        for result, population in zip(results, pops):
            _maybe_snapshot(result, population, 0, force=True)

    every = cfg.record_every
    next_snap: list[int | None] = [every if every > 0 else None] * n_lanes
    include_self = cfg.include_self_play
    downhill = cfg.allow_downhill_learning
    beta = cfg.beta
    record_events = cfg.record_events
    progress = progress_callback()
    cancel = cancel_token()
    fault = faults.hook("driver.generation")

    # Per-lane decision-stream pre-draw (see repro.ensemble.rawstream):
    # PC selections and mutations are state-independent, so each batch's
    # draws happen up front — vectorised straight off the Philox raw
    # stream when the primitives verify, through the ordinary Generator
    # calls otherwise — and the event loop just walks cursors.  Graph
    # structures decode their learner-then-neighbor select_pair order
    # (teacher resolved through the CSR adjacency inside the decoder).
    if well_mixed:
        pc_decoders = [
            rawstream.pc_decoder(pc_rngs[r], n_ssets) for r in range(n_lanes)
        ]
    else:
        pc_decoders = [
            rawstream.graph_pc_decoder(pc_rngs[r], structure)
            for r in range(n_lanes)
        ]
    mu_decoders = [
        rawstream.mutation_decoder(mu_rngs[r], n_ssets, n_states)
        for r in range(n_lanes)
    ]

    # Population state lives in the sid array during the run; SSet-level
    # bookkeeping is tracked in arrays and written back at the end.
    adopt_counts = np.zeros((n_lanes, n_ssets), dtype=np.int64)
    mut_counts = np.zeros((n_lanes, n_ssets), dtype=np.int64)
    n_pc = [0] * n_lanes
    n_adopt = [0] * n_lanes
    n_mut = [0] * n_lanes
    event_lists = [result.events for result in results]
    if restored is not None:
        for r in range(n_lanes):
            lane_meta = meta_r["lanes"][r]
            state = lane_state[r]
            results[r].events.extend(restore_events(state))
            results[r].snapshots.extend(restore_snapshots(state))
            results[r].resumed_from_generation = start_gen
            counters = lane_meta["counters"]
            n_pc[r] = int(counters["n_pc_events"])
            n_adopt[r] = int(counters["n_adoptions"])
            n_mut[r] = int(counters["n_mutations"])
            adopt_counts[r] = np.asarray(state["adopt_counts"])
            mut_counts[r] = np.asarray(state["mut_counts"])
            pending = lane_meta["next_snapshot"]
            next_snap[r] = None if pending is None else int(pending)
            events_rngs[r].bit_generator.state = decode_bitgen(
                lane_meta["events_rng"]
            )
            pc_decoders[r].set_state(lane_meta["pc_stream"])
            mu_decoders[r].set_state(lane_meta["mu_stream"])
    # Reference counts are plain list ops inlined below (engine.recycle
    # handles the rare zero).  _grow() extends this list in place; only
    # compact() replaces it, and the alias is refreshed there.
    refs = engine._refs
    rows_all = np.arange(n_lanes)

    base = start_gen
    remaining = generations - start_gen
    while remaining > 0:
        batch = min(batch_size, remaining)
        # A nonzero cadence aligns batch edges to its multiples whether or
        # not a sink is armed: the prefetch-window grouping below restarts
        # per batch and steers fill attribution, so clean and resumed runs
        # of the same config must split batches identically for the fill
        # counters to match (the trajectory itself is split-independent).
        if cfg.checkpoint_every > 0:
            batch = min(
                batch, cfg.checkpoint_every - base % cfg.checkpoint_every
            )
        pc_flags, mu_flags = _draw_flags(
            events_rngs, cfg.pc_rate, cfg.mutation_rate, batch
        )
        # Event (generation, lane) pairs sorted by generation; the merged
        # pointer walk below visits each event generation once.
        pc_gen_arr, pc_lane_arr = np.nonzero(pc_flags.T)
        mu_gen_arr, mu_lane_arr = np.nonzero(mu_flags.T)
        pc_gen = pc_gen_arr.tolist()
        pc_lane = pc_lane_arr.tolist()
        mu_gen = mu_gen_arr.tolist()
        mu_lane = mu_lane_arr.tolist()
        pi, mi = 0, 0
        n_pc_ev, n_mu_ev = len(pc_gen), len(mu_gen)
        window = _fill_window(cfg.mutation_rate)

        # Pre-draw the whole batch's decisions per lane (exact serial
        # stream consumption; see module docstring of rawstream).  The
        # mutants are laid out in event order — a stable sort by lane
        # lists each lane's events in generation order, which is its draw
        # order — and packed into interning keys once per batch.
        mu_counts = np.count_nonzero(mu_flags, axis=1)
        mu_slots = np.argsort(mu_lane_arr, kind="stable")
        mu_targets = np.empty(n_mu_ev, dtype=np.int64)
        mu_tables = np.empty((n_mu_ev, n_states), dtype=np.uint8)
        lo = 0
        for r in range(n_lanes):
            targets_r, tables_r = mu_decoders[r].draw(int(mu_counts[r]))
            hi = lo + len(targets_r)
            slots = mu_slots[lo:hi]
            mu_targets[slots] = targets_r
            mu_tables[slots] = tables_r
            lo = hi
        mu_keys = engine.pack_keys(mu_tables)
        pc_counts = np.count_nonzero(pc_flags, axis=1)
        pc_teachers: list[list[int]] = []
        pc_learners: list[list[int]] = []
        pc_uniforms: list[list[float]] = []
        for r in range(n_lanes):
            t_r, l_r, u_r = pc_decoders[r].draw(int(pc_counts[r]))
            pc_teachers.append(t_r)
            pc_learners.append(l_r)
            pc_uniforms.append(u_r)
        pc_cur = [0] * n_lanes
        for w_lo in range(0, batch, window):
            w_hi = min(w_lo + window, batch)
            p_end = pi
            while p_end < n_pc_ev and pc_gen[p_end] < w_hi:
                p_end += 1
            m_end = mi
            while m_end < n_mu_ev and mu_gen[m_end] < w_hi:
                m_end += 1
            if p_end == pi and m_end == mi:
                continue

            # The ensemble's initial populations intern thousands of
            # mostly-distinct random strategies; once selection has thinned
            # them out, re-pack the matrix so fitness gathers stay hot.
            # Safe here: no prefetch pins are outstanding.
            mapping = engine.compact()
            if mapping is not None:
                sids = mapping[sids]
                refs = engine._refs

            # Window prefetch: mutation draws are state-independent (the
            # mutation stream is consumed only at mutation events, in
            # generation order — exactly how we walk them here), so the
            # window's mutants can be drawn, interned, and their payoff
            # rows filled in ONE batched kernel call instead of one small
            # fill per generation.  Pinning (an extra reference until the
            # window ends) keeps their slots — and any dead strategy they
            # resurrect — from being recycled before their events apply,
            # which also guarantees no slot is re-tenanted mid-window.
            pins: list[int] = []
            pin_targets: list[int] = []
            if m_end > mi:
                mutant_sids = engine.intern_lane(
                    mu_tables[mi:m_end], mu_keys[mi:m_end]
                )
                pins = mutant_sids.tolist()
                pin_targets = mu_targets[mi:m_end].tolist()
                if full_cover:
                    engine.fill_missing(
                        *_window_pairs(
                            sids, mu_lane_arr[mi:m_end], mutant_sids
                        )
                    )
            pre_idx = 0

            while pi < p_end or mi < m_end:
                off_p = pc_gen[pi] if pi < p_end else batch
                off_m = mu_gen[mi] if mi < m_end else batch
                off = off_p if off_p <= off_m else off_m
                gen = base + off
                pj = pi
                while pj < p_end and pc_gen[pj] == off:
                    pj += 1
                mj = mi
                while mj < m_end and mu_gen[mj] == off:
                    mj += 1
                pc_lanes = pc_lane[pi:pj]
                pc_lanes_np = pc_lane_arr[pi:pj]
                mu_lanes = mu_lane[mi:mj]
                pi, mi = pj, mj

                # Tick-cadence cancellation: a cancelled/timed-out group
                # aborts before this generation's events apply (the group's
                # results are discarded wholesale, so mid-window engine
                # state needs no unwinding).
                if cancel is not None:
                    cancel.check()
                if fault is not None:
                    fault(generation=gen)

                if every > 0:
                    # The serial driver snapshots after applying a
                    # generation's events; per lane, emit pending snapshots
                    # strictly before this event generation (state is
                    # unchanged in between).
                    for r in set(pc_lanes) | set(mu_lanes):
                        pending = next_snap[r]
                        while pending is not None and pending < gen:
                            if pending < generations:
                                _snapshot_lane(
                                    results[r], engine, sids[r], pending
                                )
                            pending += every
                        next_snap[r] = pending

                k = len(pc_lanes)
                if k:
                    teachers = [0] * k
                    learners = [0] * k
                    uniforms = [0.0] * k
                    for i, r in enumerate(pc_lanes):
                        j = pc_cur[r]
                        pc_cur[r] = j + 1
                        teachers[i] = pc_teachers[r][j]
                        learners[i] = pc_learners[r][j]
                        uniforms[i] = pc_uniforms[r][j]
                    if well_mixed:
                        lane_block = sids[pc_lanes_np]
                        rows = rows_all[:k]
                        sid_t = lane_block[rows, teachers]
                        sid_l = lane_block[rows, learners]
                        if not full_cover:
                            engine.ensure_rows(
                                np.concatenate((sid_t, sid_l)),
                                np.concatenate((lane_block, lane_block)),
                                np.concatenate((pc_lanes_np, pc_lanes_np)),
                            )
                        # (With full_cover every gathered pair is valid by
                        # the coverage invariant: initial fill + window
                        # prefetch.)
                        fit_t, fit_l = engine.fitness_pc_well_mixed(
                            lane_block, sid_t, sid_l, include_self
                        )
                    else:
                        # Graph lanes: the generation's event lanes share
                        # one flat CSR gather + segment reduction (and, in
                        # the deep-memory regime, one batched fill of every
                        # pair the gather will read).
                        t_nodes = np.asarray(teachers, dtype=np.int64)
                        l_nodes = np.asarray(learners, dtype=np.int64)
                        sid_t = sids[pc_lanes_np, t_nodes]
                        sid_l = sids[pc_lanes_np, l_nodes]
                        fit_t, fit_l = engine.fitness_pc_graph(
                            sids,
                            pc_lanes_np,
                            t_nodes,
                            l_nodes,
                            structure,
                            include_self,
                            ensure=not full_cover,
                        )
                    for i, r in enumerate(pc_lanes):
                        ft = fit_t[i]
                        fl = fit_l[i]
                        if not downhill and not ft > fl:
                            adopted = False
                        else:
                            adopted = uniforms[i] < fermi_probability(
                                ft, fl, beta
                            )
                        if adopted:
                            learner = learners[i]
                            new_sid = int(sid_t[i])
                            old_sid = int(sid_l[i])
                            refs[new_sid] += 1
                            sids[r, learner] = new_sid
                            left = refs[old_sid] - 1
                            refs[old_sid] = left
                            if left == 0:
                                engine.recycle(old_sid)
                            adopt_counts[r, learner] += 1
                        n_pc[r] += 1
                        n_adopt[r] += adopted
                        if record_events:
                            event_lists[r].append(
                                EventRecord(
                                    generation=gen,
                                    kind="pc",
                                    source=teachers[i],
                                    target=learners[i],
                                    applied=adopted,
                                    teacher_fitness=ft,
                                    learner_fitness=fl,
                                )
                            )

                for r in mu_lanes:
                    target = pin_targets[pre_idx]
                    new_sid = pins[pre_idx]
                    pre_idx += 1
                    refs[new_sid] += 1
                    old_sid = int(sids[r, target])
                    sids[r, target] = new_sid
                    left = refs[old_sid] - 1
                    refs[old_sid] = left
                    if left == 0:
                        engine.recycle(old_sid)
                    mut_counts[r, target] += 1
                    n_mut[r] += 1
                    if record_events:
                        event_lists[r].append(
                            EventRecord(
                                generation=gen,
                                kind="mutation",
                                source=target,
                                target=target,
                                applied=True,
                            )
                        )

                if progress is not None:
                    # One tick per (lane, event generation) — the serial
                    # drivers' cadence, so tick streams match across
                    # backends (pinned by the ensemble-hook tests).
                    for r in sorted(set(pc_lanes) | set(mu_lanes)):
                        progress(
                            ProgressTick(
                                run_index=r,
                                generation=gen,
                                generations=generations,
                                n_pc_events=n_pc[r],
                                n_adoptions=n_adopt[r],
                                n_mutations=n_mut[r],
                            )
                        )

                if every > 0:
                    for r in set(pc_lanes) | set(mu_lanes):
                        if next_snap[r] == gen:
                            if gen < generations:
                                _snapshot_lane(
                                    results[r], engine, sids[r], gen
                                )
                            next_snap[r] = gen + every

            for sid in pins:
                engine.release(sid)
        base += batch
        remaining -= batch
        if (
            save_every > 0
            and base % save_every == 0
            and 0 < base < generations
        ):
            # Flush snapshots due strictly before the boundary first (lane
            # state is unchanged since their generation), so the snapshot
            # list rides along in the capture.
            for r in range(n_lanes):
                pending = next_snap[r]
                while pending is not None and pending < base:
                    if pending < generations:
                        _snapshot_lane(results[r], engine, sids[r], pending)
                    pending += every
                next_snap[r] = pending
            meta_save, arrays_save = _capture_group_shared(
                configs, base, engine, pops, sids, results, next_snap,
                events_rngs, pc_decoders, mu_decoders, adopt_counts,
                mut_counts, n_pc, n_adopt, n_mut,
            )
            sink.save(unit, base, meta_save, arrays_save)

    # Snapshots scheduled after each lane's last event.
    for r in range(n_lanes):
        pending = next_snap[r]
        while pending is not None and pending < generations:
            _snapshot_lane(results[r], engine, sids[r], pending)
            pending += every
        next_snap[r] = pending

    elapsed = time.perf_counter() - started
    for r, result in enumerate(results):
        population = pops[r]
        lane_sids = sids[r]
        # Only changed SSets get a new Strategy.  A table the lane started
        # with reuses its generation-0 object, so a named strategy that
        # spread by adoption keeps its name, as in the serial drivers.
        initial_strategies = {s.key(): s for s in population.strategies()}
        changed = (
            engine.tables[lane_sids] != population.strategy_matrix()
        ).any(axis=1)
        for i in np.flatnonzero(changed).tolist():
            final = engine.strategy(int(lane_sids[i]))
            population.set_strategy(
                i, initial_strategies.get(final.key(), final)
            )
        for i, sset in enumerate(population.ssets):
            sset.adoptions += int(adopt_counts[r, i])
            sset.mutations += int(mut_counts[r, i])
        result.n_pc_events = n_pc[r]
        result.n_adoptions = n_adopt[r]
        result.n_mutations = n_mut[r]
        result.generations_run = generations
        _maybe_snapshot(result, population, generations, force=True)
        # Mirror the per-run engine's accounting: two dense fitness queries
        # per PC event; pair evaluations attributed to the lane whose
        # demand triggered them (cross-lane reuse means the ensemble
        # evaluates strictly fewer pairs than R serial runs).
        result.cache_hits = 2 * n_pc[r]
        result.cache_misses = int(engine.lane_fills[r])
        # One fused array program: the group's wallclock is indivisible,
        # so every lane reports it (the backend report carries lane count).
        result.wallclock_seconds = elapsed
    meta = {"lanes": n_lanes, "shared_engine": engine.stats()}
    return results, meta


def _snapshot_lane(
    result: EvolutionResult,
    engine: EnsembleEngine,
    lane_sids: np.ndarray,
    generation: int,
) -> None:
    """Serial-equivalent Snapshot straight from the shared-engine state
    (the strategy raster is a table gather; the dominant share only needs
    the maximum multiset count, so sid ties don't matter)."""
    counts = np.bincount(lane_sids)
    result.snapshots.append(
        Snapshot(
            generation=generation,
            strategy_matrix=engine.tables[lane_sids],
            dominant_share=int(counts.max()) / lane_sids.shape[0],
        )
    )


def _window_pairs(
    sids: np.ndarray, lanes: np.ndarray, mutants: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefetch pairs of one window's mutants, as ``(a, b, lanes)``.

    Everything a window event can pair a mutant with is live in its lane
    now or is itself one of the lane's window mutants, so each mutant is
    paired with its lane's sid row plus its lane's mutants (itself
    included).  Duplicates are left in; the fill drops them.  Pairs are
    grouped by lane, lanes in the order of their first mutant in the
    window, which fixes the lane each missing pair is attributed to.
    """
    n_lanes, n_ssets = sids.shape
    _, first, inverse = np.unique(lanes, return_index=True, return_inverse=True)
    group = first[inverse]  # window index of the lane's first mutant
    order = np.argsort(group, kind="stable")
    group = group[order]
    lanes = lanes[order]
    mutants = mutants[order]
    start = np.searchsorted(group, group)
    count = np.searchsorted(group, group, side="right") - start
    # Two segments per mutant in one source array: its lane's sid row,
    # then its lane's run of mutants.
    source = np.concatenate((sids.ravel(), mutants))
    seg_start = np.stack(
        (lanes * n_ssets, n_lanes * n_ssets + start), axis=1
    ).ravel()
    seg_len = np.stack((np.full_like(count, n_ssets), count), axis=1).ravel()
    ends = np.cumsum(seg_len)
    index = np.arange(ends[-1]) + np.repeat(seg_start - (ends - seg_len), seg_len)
    per_mutant = n_ssets + count
    return (
        np.repeat(mutants, per_mutant),
        source[index],
        np.repeat(lanes, per_mutant),
    )


# -- per-lane evaluator path ---------------------------------------------------


def _run_group_generic(
    configs: list[EvolutionConfig],
    initial: list[Population | None],
    batch_size: int,
) -> tuple[list[EvolutionResult], dict]:
    """Advance one signature-group of lanes with per-lane evaluators (the
    expected-fitness regime, non-integer payoffs, and ``engine=False``),
    sharing only the merged event scan.

    Opt-in ``sampled_batched`` lanes additionally share the sampled-game
    kernel: a generation's event lanes collect their plans and evaluate
    them as one fused :meth:`SampledFitnessEngine.eval_plans` call — each
    lane's uniform block comes off its own dedicated stream, so every
    lane stays bit-identical to its same-seed serial run.
    """
    started = time.perf_counter()
    cfg = configs[0]
    n_lanes = len(configs)
    n_ssets = cfg.n_ssets
    generations = cfg.generations
    structure = build_structure(cfg.structure, n_ssets)
    sampled_mode = cfg.sampled_batched and cfg.is_stochastic

    trees, events_rngs, pc_rngs, mu_rngs, pops = _lane_setup(configs, initial)

    sink = _group_checkpointing(cfg, initial)
    unit = (
        unit_key([c.to_dict() for c in configs]) if sink is not None else None
    )
    restored = (
        _load_group_state(sink, unit, configs, "generic")
        if sink is not None
        else None
    )
    save_every = cfg.checkpoint_every if sink is not None else 0
    start_gen = 0
    lane_state: list[dict] = []
    evaluators: list[FitnessEngine | PayoffCache] = []
    if restored is not None:
        meta_r, arrays_r = restored
        start_gen = int(meta_r["generation"])
        lane_state = [_lane_arrays(arrays_r, r) for r in range(n_lanes)]
        for r, config in enumerate(configs):
            lane_meta = meta_r["lanes"][r]
            pops[r] = restore_population(
                lane_meta["population"], lane_state[r]
            )
            evaluators.append(
                restore_evaluator(
                    config, lane_meta["evaluator"], lane_state[r],
                    pops[r], None,
                )
            )
    else:
        for r, config in enumerate(configs):
            if sampled_mode:
                pops[r].bind_engine(None)
                evaluators.append(
                    SampledFitnessEngine.from_config(
                        config, trees[r].generator("nature", "sampled")
                    )
                )
            else:
                lane_engine = FitnessEngine.from_config(config)
                pops[r].bind_engine(lane_engine)
                evaluators.append(
                    lane_engine
                    if lane_engine is not None
                    else PayoffCache(
                        rounds=config.rounds,
                        payoff=config.payoff,
                        noise=config.noise,
                        rng=None,
                        expected=config.expected_fitness,
                    )
                )
            if sink is not None:
                _enable_capture_logs(evaluators[r])

    results = [
        EvolutionResult(config=config, population=population)
        for config, population in zip(configs, pops)
    ]
    if restored is None:
        for result, population in zip(results, pops):
            _maybe_snapshot(result, population, 0, force=True)

    every = cfg.record_every
    next_snap: list[int | None] = [every if every > 0 else None] * n_lanes
    include_self = cfg.include_self_play
    downhill = cfg.allow_downhill_learning
    beta = cfg.beta
    record_events = cfg.record_events
    make_mutant = random_mixed if cfg.mixed_strategies else random_pure
    memory = cfg.memory_steps
    progress = progress_callback()
    cancel = cancel_token()
    fault = faults.hook("driver.generation")

    if restored is not None:
        for r in range(n_lanes):
            lane_meta = meta_r["lanes"][r]
            state = lane_state[r]
            results[r].events.extend(restore_events(state))
            results[r].snapshots.extend(restore_snapshots(state))
            results[r].resumed_from_generation = start_gen
            counters = lane_meta["counters"]
            results[r].n_pc_events = int(counters["n_pc_events"])
            results[r].n_adoptions = int(counters["n_adoptions"])
            results[r].n_mutations = int(counters["n_mutations"])
            pending = lane_meta["next_snapshot"]
            next_snap[r] = None if pending is None else int(pending)
            events_rngs[r].bit_generator.state = decode_bitgen(
                lane_meta["events_rng"]
            )
            pc_rngs[r].bit_generator.state = decode_bitgen(
                lane_meta["pc_rng"]
            )
            mu_rngs[r].bit_generator.state = decode_bitgen(
                lane_meta["mu_rng"]
            )

    base = start_gen
    remaining = generations - start_gen
    while remaining > 0:
        batch = min(batch_size, remaining)
        if save_every > 0:
            batch = min(batch, save_every - base % save_every)
        pc_flags, mu_flags = _draw_flags(
            events_rngs, cfg.pc_rate, cfg.mutation_rate, batch
        )
        event_cols = np.nonzero((pc_flags | mu_flags).any(axis=0))[0]
        for col in event_cols.tolist():
            gen = base + col
            if cancel is not None:
                cancel.check()
            if fault is not None:
                fault(generation=gen)
            pc_lanes = np.flatnonzero(pc_flags[:, col]).tolist()
            mu_lanes = np.flatnonzero(mu_flags[:, col]).tolist()
            if every > 0:
                for r in set(pc_lanes) | set(mu_lanes):
                    pending = next_snap[r]
                    while pending is not None and pending < gen:
                        if pending < generations:
                            _maybe_snapshot(
                                results[r], pops[r], pending, force=True
                            )
                        pending += every
                    next_snap[r] = pending

            # Draw every event lane's PC selection first (each lane has its
            # own pc stream, so the draw/evaluate interleaving across lanes
            # is trajectory-neutral), then evaluate fitness: per lane for
            # the legacy evaluators, or — in sampled_batched mode — all
            # lanes' sampled games fused into one kernel call, each lane's
            # uniform block drawn from its own dedicated stream.
            drawn: list[tuple[int, int, int, float]] = []
            for r in pc_lanes:
                rng = pc_rngs[r]
                teacher, learner = structure.select_pair(rng)
                drawn.append((r, teacher, learner, float(rng.random())))
            if sampled_mode and drawn:
                fits = SampledFitnessEngine.eval_plans(
                    [
                        (
                            evaluators[r],
                            evaluators[r].pc_plan(
                                pops[r], structure, teacher, learner,
                                include_self,
                            ),
                        )
                        for r, teacher, learner, _ in drawn
                    ]
                )
            else:
                fits = [
                    structure.pair_fitness(
                        pops[r], teacher, learner, evaluators[r],
                        include_self,
                    )
                    for r, teacher, learner, _ in drawn
                ]
            for (r, teacher, learner, uniform), (ft, fl) in zip(drawn, fits):
                if not downhill and not ft > fl:
                    adopted = False
                else:
                    adopted = uniform < fermi_probability(ft, fl, beta)
                if adopted:
                    pops[r].adopt(learner, pops[r][teacher].strategy)
                result = results[r]
                result.n_pc_events += 1
                result.n_adoptions += int(adopted)
                if record_events:
                    result.events.append(
                        EventRecord(
                            generation=gen,
                            kind="pc",
                            source=teacher,
                            target=learner,
                            applied=adopted,
                            teacher_fitness=ft,
                            learner_fitness=fl,
                        )
                    )

            for r in mu_lanes:
                rng = mu_rngs[r]
                target = int(rng.integers(n_ssets))
                strategy = make_mutant(rng, memory)
                pops[r].mutate(target, strategy)
                result = results[r]
                result.n_mutations += 1
                if record_events:
                    result.events.append(
                        EventRecord(
                            generation=gen,
                            kind="mutation",
                            source=target,
                            target=target,
                            applied=True,
                        )
                    )

            if progress is not None:
                for r in sorted(set(pc_lanes) | set(mu_lanes)):
                    result = results[r]
                    progress(
                        ProgressTick(
                            run_index=r,
                            generation=gen,
                            generations=generations,
                            n_pc_events=result.n_pc_events,
                            n_adoptions=result.n_adoptions,
                            n_mutations=result.n_mutations,
                        )
                    )

            if every > 0:
                for r in set(pc_lanes) | set(mu_lanes):
                    if next_snap[r] == gen:
                        if gen < generations:
                            _maybe_snapshot(results[r], pops[r], gen, force=True)
                        next_snap[r] = gen + every
        base += batch
        remaining -= batch
        if (
            save_every > 0
            and base % save_every == 0
            and 0 < base < generations
        ):
            for r in range(n_lanes):
                pending = next_snap[r]
                while pending is not None and pending < base:
                    if pending < generations:
                        _maybe_snapshot(
                            results[r], pops[r], pending, force=True
                        )
                    pending += every
                next_snap[r] = pending
            meta_save, arrays_save = _capture_group_generic(
                configs, base, pops, evaluators, results, next_snap,
                events_rngs, pc_rngs, mu_rngs,
            )
            sink.save(unit, base, meta_save, arrays_save)

    for r in range(n_lanes):
        pending = next_snap[r]
        while pending is not None and pending < generations:
            _maybe_snapshot(results[r], pops[r], pending, force=True)
            pending += every
        next_snap[r] = pending

    elapsed = time.perf_counter() - started
    for r, result in enumerate(results):
        result.generations_run = generations
        _maybe_snapshot(result, pops[r], generations, force=True)
        result.cache_hits = evaluators[r].hits
        result.cache_misses = evaluators[r].misses
        result.wallclock_seconds = elapsed
    meta = {"lanes": n_lanes, "shared_engine": None}
    return results, meta
