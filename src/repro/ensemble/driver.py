"""Lane-batched ensemble driver: a whole sweep as one array program.

:func:`run_ensemble` executes many independent replicates ("lanes") of the
evolutionary dynamics in a single interpreter loop.  Lanes with identical
science (every config field except the seed) are stacked: their populations
live in one ``(R, n_ssets)`` strategy-id array over one shared
:class:`~repro.ensemble.engine.EnsembleEngine` pool/payoff matrix, and
their event flags are scanned together.  Mutant payoff rows are prefilled
a *window* of events ahead — mutation draws are state-independent, so
the window's mutants can be drawn and evaluated in one batched kernel
call before their events apply.

**Windows and waves.**  Each batch lays its events out lane-major, each
lane's in its serial order: by generation, PC before mutation
(:class:`_BatchEvents`), so an event's rank within its lane is rank
arithmetic.  A window holds every lane's events of a span of ranks,
:func:`_window_events` of them (10 at the paper's rates, about
:data:`_MUTANTS_PER_WINDOW` mutants per lane), and advances in waves:
wave ``w`` applies every lane's ``w``-th event of the window as one array
step (:func:`_advance_wave`): one batched fitness gather for all of the
wave's PC lanes (``counts``-style gathers for well-mixed lanes, one flat
CSR gather + segment reduction over the structure's
``indptr``/``indices`` adjacency for graph lanes,
:meth:`~repro.ensemble.engine.EnsembleEngine.fitness_pc_graph`), the Fermi
decisions, the sid writes, the counters, and one reference move that
recycles every slot left without references in one engine call.  A batch
therefore runs as many waves as its busiest lane has events: at the
paper's rates a 64-lane, 10,000-generation batch runs ~1,580 waves where
windows of 64 generations, each as long as its busiest lane, ran ~2,700.

**Bit-parity contract.**  Every lane follows the *bit-identical trajectory*
of the same-seed serial :func:`~repro.core.evolution.run_event_driven` run
(pinned by the lane-parity tests): per-lane RNG streams are consumed
through exactly the serial call sequence (``batch_event_flags`` layout for
the events stream, the teacher-then-learner-with-rejection draw of
:meth:`~repro.structure.WellMixed.select_pair` — or the graph structures'
learner-then-neighbor draw, both decoded in bulk off the raw Philox
stream by :mod:`repro.ensemble.rawstream` — plus one adoption uniform for
PC, target + mutant draws for mutation), Fermi decisions are the scalar
rule's (:func:`~repro.core.fermi.fermi_adoptions` re-decides any uniform
within a guard band of its vectorised ``np.exp`` probability with the
scalar ``math.exp`` rule), and shared-matrix fitness values are
float-exact integer sums, hence bitwise equal to the per-run engine's.

Waves keep these bits because lanes are independent: a lane's events read
and write only its own sid row, counters and streams, so any interleaving
that keeps each lane's own event order gives every lane the same
trajectory.  What lanes share is the pool, and its numbering is
science-neutral.  No slot is interned mid-window (the window's mutants
are interned and pinned before its first wave), and a slot that a lane can
still reach holds a reference from that lane or from a pin, so a count
that reaches zero stays at zero until the window ends: the set of slots
recycled per window is the same as in generation order, and only the
order of the free list changes, which renumbers later sids.  Fills are
attributed by pair order, not by sid, so a full-cover group's fill
counts and per-lane ``cache_misses`` follow from its windows' edges
alone (it fills at window start); on-demand groups fill per wave, with
the same totals in fewer kernel calls.

**Hooks** keep their per-lane contracts under waves, on both paths below
(:func:`_before_wave`, :func:`_after_wave`).  A lane's progress tick
fires once per event generation, after its last event of that
generation, with its running counts; its ``record_every`` snapshots due
before a generation are taken before its first event of it, and the one
due at it after its last; ``record_events`` records follow each lane's
event order.  ``faults.hook("driver.generation")`` fires once per (lane,
event generation), before the lane's first event of it — as the serial
drivers do for a one-lane group, once per lane-generation for a wider
one.  A lane's first and last event of a generation are marked over the
whole batch, since a window can end between a generation's PC event and
its mutation.  Cancellation is checked once per wave, and checkpoints are
taken at batch boundaries.

Regimes:

* **deterministic** (pure strategies, no noise, integer payoffs, ``engine``
  on) — the shared-engine fast path above.
* **pure sampled** (``sampled_batched=True``, pure strategies, ``noise >
  0``: science version 2) on well-mixed populations — the same shared
  path over a pool-only :class:`~repro.ensemble.engine.EnsembleEngine`
  (sid rows, no pair matrix): nothing is filled ahead, so each batch is
  one window, and a wave's PC lanes play their games afresh in **one**
  :func:`~repro.core.vectorgame.play_pairs_uniforms` call
  (:meth:`~repro.core.engine.SampledFitnessEngine.eval_wave`).  Each lane
  plays its strategies in its histogram's insertion order, kept as
  per-SSet insertion stamps (:class:`_SampledLanes`), and draws its noise
  flips as geometric gaps from its own dedicated ``("nature",
  "sampled")`` stream, so its trajectory is bit-identical to the same-seed
  serial ``sampled_batched`` run — and statistically equivalent to the
  scalar legacy path.  A 64-lane, 500-generation memory-2 sweep is ~95
  such calls, one per wave with PC events.
* **expected** Markov fitness, non-integer payoffs, ``engine=False``, a
  custom structure, and sampled lanes on graphs or with mixed strategies
  — lanes run with per-lane evaluators (the exact serial objects:
  :class:`~repro.core.engine.FitnessEngine`, the legacy
  :class:`~repro.core.payoff_cache.PayoffCache` or
  :class:`~repro.core.engine.SampledFitnessEngine`) through
  :func:`_run_group_generic`, still sharing the merged event scan and the
  same waves, one batch of events at a time; a wave's sampled lanes fuse
  their plans into one kernel call
  (:meth:`~repro.core.engine.SampledFitnessEngine.eval_plans`).  The
  expected regime cannot share one matrix bit-identically across lanes —
  its Markov kernel is not perspective-symmetric in the last ulp, so entry
  values depend on which lane evaluated a pair first.
* **sampled-stochastic** fitness without the ``sampled_batched=True``
  opt-in (``--sampled-batched``) is rejected: every game is an
  independent draw from the per-lane games stream, so there is nothing to
  share without changing the trajectory (use the ``event`` backend per
  run).

**Wide groups.**  A shared group's pool and pair matrix are sized for
its worst case up front (:func:`_group_slots`), so the matrix grows with
the square of its lanes times SSets.  A group whose matrix would pass
:data:`_GROUP_PAYMAT_BYTES` runs as the fewest near-equal consecutive
sub-groups that fit (:func:`_split_group`), each a group of its own: its
own engine, report (``lanes`` is the sub-group's size) and mid-run
snapshots (keyed by the sub-group's configs).  Lanes are independent, so
no trajectory changes; only the per-lane ``cache_misses``, which
attribute shared fills to lanes, follow the grouping.  Pool-only and
per-lane groups have no pair matrix and never split.

:func:`_group_mode` routes a signature group to its path; the path is
also the ``mode`` of the group's mid-run snapshots, and a pinned snapshot
written in the other one is refused (``repro resume``, ``evolve
--resume-from``).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Iterable, NamedTuple, Sequence

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
from ..core.fermi import fermi_adoptions, fermi_probability
from ..core.payoff_cache import PayoffCache
from ..core.population import Population
from .. import faults
from ..core.progress import (
    ProgressTick,
    cancel_token,
    progress_listener,
    progress_runs,
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
    science_version,
    unit_key,
    validate_resume_config,
)
from ..core.strategy import Strategy, random_mixed, random_pure
from ..errors import CheckpointError, ConfigurationError
from ..rng import SeedSequenceTree
from ..structure import GraphStructure, InteractionModel, build_structure
from . import rawstream
from .engine import EnsembleEngine, pair_dtype, supports_shared_engine

__all__ = ["run_ensemble", "run_ensemble_detailed", "lane_signature"]

_NO_SIDS = np.zeros(0, dtype=np.int64)

#: Target mutants per lane per prefetch window.  Larger windows batch more
#: mutants per kernel call but prefill more pairs that die unqueried;
#: around three per lane balances both.  A window ends after a fixed count
#: of every lane's own events (:func:`_window_events`: 10 at the paper's
#: rates), so each window runs exactly that many waves but its last.
_MUTANTS_PER_WINDOW = 3.2


#: Expected events per batch of the groups that advance each whole batch
#: in waves: the per-lane evaluator path and the shared path's sampled
#: lanes.  A batch's wave schedule, its lists and its pre-drawn decisions
#: cost a few hundred bytes per event, so long wide sweeps split into
#: batches of about this many events (~1,700 generations of 64 lanes at
#: the paper's rates); the event flags are drawn from the same stream
#: words however the generations split.
_BATCH_EVENTS = 1 << 14

#: Expected bytes of a deterministic shared batch's pre-drawn decisions
#: and schedule over its group (:func:`_capped_batch_bytes`): every event
#: holds ~24 bytes of schedule (flat position, draw index, generation,
#: kind and hook flags), a PC decision three values, and a mutant its
#: target, its table and its interning key.  Each batch runs as many
#: waves as its busiest lane has events, so fewer, longer batches run
#: fewer waves: 64 memory-2 lanes keep ~17,000 generations per batch,
#: while 16 memory-6 lanes, whose mutants hold 4.5 KB of table and key
#: each, keep ~2,200.
_BATCH_BYTES = 8 << 20

#: Most bytes one shared group's dense pair store may take
#: (:func:`_group_slots`); a wider group runs as consecutive sub-groups
#: that fit (:func:`_split_group`).  Lanes are independent, so the split
#: changes no trajectory, only the per-lane fill attribution.  Measured
#: at 5,000 generations, memory 2-3, well-mixed and ``ring:k=4``, with
#: stores sized for 512 spare slots (medians against the whole group):
#: halves of a 379 MB group (128 lanes x 64 SSets) ran 17% faster to 3%
#: slower, within run-to-run spread; thirds of a 1.43 GB one (256 x 64)
#: 8-46% faster; but halves of a 106 MB one (64 x 64) up to 38% slower,
#: so only groups past 256 MiB split.
_GROUP_PAYMAT_BYTES = 256 << 20

#: Pool headroom for a prefetch window's pins, as a multiple of the
#: window's expected mutants over all lanes (:func:`_group_slots`).  A
#: lane's mutants in one window are binomial over its
#: :func:`_window_events` events, so 1.5 times the mean is more than ten
#: standard deviations above it wherever the 512-slot floor does not bind
#: (from ~103 lanes at the paper's rates).
_PIN_MARGIN = 1.5


def _window_events(cfg: EvolutionConfig) -> int:
    """Each lane's events per prefetch window of a deterministic shared
    group, enough for about :data:`_MUTANTS_PER_WINDOW` mutants per lane;
    0 without mutations, when each batch is one window."""
    mu = cfg.mutation_rate
    if mu <= 0.0:
        return 0
    return max(1, round(_MUTANTS_PER_WINDOW * (cfg.pc_rate + mu) / mu))


def _capped_batch_size(
    batch_size: int, n_lanes: int, cfg: EvolutionConfig
) -> int:
    """``batch_size`` cut to about :data:`_BATCH_EVENTS` expected events."""
    events_per_generation = n_lanes * (cfg.pc_rate + cfg.mutation_rate)
    if events_per_generation > 0:
        batch_size = min(
            batch_size, max(1, int(_BATCH_EVENTS / events_per_generation))
        )
    return batch_size


def _capped_batch_bytes(
    batch_size: int, n_lanes: int, cfg: EvolutionConfig
) -> int:
    """``batch_size`` cut so that a deterministic shared batch's expected
    pre-drawn decisions and schedule stay within :data:`_BATCH_BYTES`
    (keys as :meth:`~repro.ensemble.engine.EnsembleEngine.pack_keys`
    packs them)."""
    n_states = 4 ** cfg.memory_steps
    mutant = 8 + n_states + max(8, n_states // 8)
    per_generation = n_lanes * (
        (cfg.pc_rate + cfg.mutation_rate) * 24
        + cfg.pc_rate * 24
        + cfg.mutation_rate * mutant
    )
    if per_generation > 0:
        batch_size = min(
            batch_size, max(1, int(_BATCH_BYTES / per_generation))
        )
    return batch_size


def _samples_on_pool(config: EvolutionConfig) -> bool:
    """Whether ``config`` plays pure noisy ``sampled_batched`` games
    (science version 2), which the shared path can run over a pool-only
    engine."""
    return (
        config.sampled_batched
        and config.is_stochastic
        and not config.mixed_strategies
    )


def _group_mode(config: EvolutionConfig) -> str:
    """The path a signature group of ``config`` runs, which is also the
    ``mode`` its snapshots are written in: ``"shared"`` or ``"generic"``.

    The shared path speaks the structure layer's two batched dialects:
    well-mixed gathers and :class:`GraphStructure`'s CSR adjacency
    (decoders + ``fitness_pc_graph``).  Deterministic lanes take it on
    both; pure noisy sampled lanes on well-mixed populations only.  A
    custom :class:`InteractionModel` subclass registered through
    ``register_structure`` implements only the abstract per-event API, so
    it runs the per-lane generic path (exact serial objects and draws),
    as do every other regime and the sampled lanes of graphs and mixed
    strategies.
    """
    structure = build_structure(config.structure, config.n_ssets)
    if supports_shared_engine(config):
        shared = structure.is_well_mixed or isinstance(
            structure, GraphStructure
        )
    else:
        shared = _samples_on_pool(config) and structure.is_well_mixed
    return "shared" if shared else "generic"


def _group_slots(cfg: EvolutionConfig, n_lanes: int) -> tuple[int, int]:
    """Engine slots of a shared group of ``n_lanes`` lanes of ``cfg``, and
    the bytes of its dense pair store (payoffs plus evaluated flags).

    The pool is sized for the worst case up front: every SSet distinct,
    plus headroom for a prefetch window's pinned mutants of
    :data:`_PIN_MARGIN` times their expected number over all lanes (a
    window holds :func:`_window_events` of each lane's events, a share
    ``mutation_rate / (pc_rate + mutation_rate)`` of them mutations),
    never below 512 slots.  Growth doubles the slots, so a big ensemble
    that barely overflows would pay four times the bytes.  Memory one and
    two cap it at their pure strategy spaces (16 and 65,536 tables).
    """
    mu = cfg.mutation_rate
    pins = 0.0
    if mu > 0.0:
        pins = n_lanes * _window_events(cfg) * mu / (cfg.pc_rate + mu)
    slots = n_lanes * cfg.n_ssets + max(512, math.ceil(_PIN_MARGIN * pins))
    n_states = 4 ** cfg.memory_steps
    if n_states < 32:
        slots = min(slots, 2**n_states)
    item = pair_dtype(cfg.rounds, cfg.payoff).itemsize
    return slots, slots * slots * (item + 1)


def _split_group(indices: list[int], cfg: EvolutionConfig) -> list[list[int]]:
    """A shared group's lanes as the fewest near-equal consecutive
    sub-groups whose pair store fits :data:`_GROUP_PAYMAT_BYTES` (one
    lane each, when even one does not fit)."""
    n = len(indices)
    parts = 1
    while (
        parts < n
        and _group_slots(cfg, -(-n // parts))[1] > _GROUP_PAYMAT_BYTES
    ):
        parts += 1
    return [part.tolist() for part in np.array_split(indices, parts)]


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
    (``lanes`` and ``shared_engine`` stats of the run's group, or of its
    sub-group when the group was split) for the backend report."""
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
    # indices, not lane-local ones: each group's driver stamps lane r's
    # ticks with entry r of the run-index map opened here.
    for group in groups.values():
        cfg = run_configs[group[0]]
        mode = _group_mode(cfg)
        # A group with a pair matrix runs in sub-groups whose matrix fits.
        parts = (
            _split_group(group, cfg)
            if mode == "shared" and not _samples_on_pool(cfg)
            else [group]
        )
        for indices in parts:
            group_configs = [run_configs[i] for i in indices]
            group_initial = [initial[i] for i in indices]
            with progress_runs(indices):
                if mode == "shared":
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
) -> np.ndarray:
    """One batch of per-lane event flags, ``flags[lane, generation, kind]``
    with kind 0 a PC event and 1 a mutation (NatureAgent.batch_event_flags
    stream layout: two uniforms per generation, PC first)."""
    flags = np.empty((len(events_rngs), batch, 2), dtype=bool)
    rates = np.array([pc_rate, mutation_rate])
    for r, rng in enumerate(events_rngs):
        np.less(rng.random(2 * batch).reshape(batch, 2), rates, out=flags[r])
    return flags


# -- mid-run checkpointing -----------------------------------------------------


def _group_checkpointing(cfg: EvolutionConfig, initial: list):
    """The active checkpoint sink, iff this group is eligible for mid-run
    snapshots (the serial drivers' arming rule)."""
    sink = checkpoint_sink()
    if sink is None:
        return None
    if any(p is not None for p in initial):
        return None
    if not checkpointing_supported(cfg):
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
    validate_resume_config(
        meta["configs"],
        [c.to_dict() for c in configs],
        saved_version=int(meta.get("science_version", 1)),
    )
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
    sampled: "_SampledLanes | None",
) -> tuple[dict, dict]:
    """Snapshot the whole shared-engine group at a batch boundary.

    Population objects are bystanders mid-run (the sid array is the state,
    diffed back into the generation-0 populations at the end), so each lane
    captures its *initial* population plus the strategy tables its sids
    point at now; the shared matrix is captured as the live x live valid
    pair set (table-keyed, sid numbering is ephemeral), re-evaluated
    bit-exactly on resume.  Sampled lanes have no pair matrix; each
    captures its sampled stream and its SSets' insertion stamps instead."""
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
        if sampled is not None:
            lane_arrays["stamps"] = sampled.stamps[r].copy()
            lanes[r]["sampled_rng"] = encode_bitgen(
                sampled.rngs[r].bit_generator.state
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
    config_dicts = [c.to_dict() for c in configs]
    meta = {
        "version": RUN_STATE_VERSION,
        # One signature group: every lane shares the version.
        "science_version": science_version(config_dicts[0]),
        "kind": "ensemble",
        "mode": "shared",
        "generation": int(base),
        "configs": config_dicts,
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
    config_dicts = [c.to_dict() for c in configs]
    meta = {
        "version": RUN_STATE_VERSION,
        # One signature group: every lane shares the version.
        "science_version": science_version(config_dicts[0]),
        "kind": "ensemble",
        "mode": "generic",
        "generation": int(base),
        "configs": config_dicts,
        "lanes": lanes,
        "engine": None,
    }
    return meta, arrays


# -- shared engine path ---------------------------------------------------------


def _insertion_stamps(pops: list[Population]) -> np.ndarray:
    """``(R, n_ssets)`` insertion stamps seeded from each lane's
    population: SSet ``j``'s stamp is the rank of its strategy in the
    histogram's insertion order (not the SSet order: a population built
    and then edited can list its strategies in any order)."""
    stamps = np.empty((len(pops), len(pops[0])), dtype=np.int64)
    for r, population in enumerate(pops):
        rank = {key: i for i, key in enumerate(population.histogram.counts)}
        stamps[r] = [rank[s.strategy.key()] for s in population.ssets]
    return stamps


class _SampledLanes:
    """What pure noisy sampled lanes add to the shared path.

    Their games are played afresh at every PC event, each lane's flips
    drawn from its dedicated ``("nature", "sampled")`` stream (``rngs``),
    in the insertion order of the lane's strategy histogram — which the
    serial run's population keeps as a dict and the shared path keeps as
    ``stamps``.  ``stamps[r, j]`` is the step at which SSet ``j``'s current
    strategy entered lane ``r``: every holder of a strategy shares its
    stamp, and a strategy that enters the lane takes a stamp above every
    other there, so a lane's stamp order is its histogram's order.
    """

    def __init__(
        self, config: EvolutionConfig, rngs: list, stamps: np.ndarray
    ) -> None:
        self.rngs = rngs
        self.stamps = stamps
        self.rounds = config.rounds
        self.payoff = config.payoff
        self.noise = config.noise
        self.include_self = config.include_self_play

    def fitness(
        self,
        tables: np.ndarray,
        lane_block: np.ndarray,
        pc_lanes: np.ndarray,
        sid_t: np.ndarray,
        sid_l: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The wave's PC fitness, one kernel call for all its lanes."""
        return SampledFitnessEngine.eval_wave(
            tables, lane_block, self.stamps[pc_lanes], sid_t, sid_l,
            [self.rngs[r] for r in pc_lanes.tolist()],
            self.rounds, self.payoff, self.noise, self.include_self,
        )

    def adopt(
        self, lanes: np.ndarray, learners: np.ndarray, teachers: np.ndarray
    ) -> None:
        """Learners take their teachers' strategies, present already."""
        self.stamps[lanes, learners] = self.stamps[lanes, teachers]

    def mutate(
        self,
        sids: np.ndarray,
        lanes: np.ndarray,
        targets: np.ndarray,
        mutants: np.ndarray,
    ) -> None:
        """Targets take their mutants; call before ``sids`` is written.

        A mutant its lane holds already (the target's own strategy
        included, when the histogram does not change) keeps that
        strategy's place; any other enters last.
        """
        held = sids[lanes] == mutants[:, None]
        stamps = self.stamps[lanes]
        self.stamps[lanes, targets] = np.where(
            held.any(axis=1),
            stamps[np.arange(lanes.shape[0]), held.argmax(axis=1)],
            stamps.max(axis=1) + 1,
        )


def _run_group_shared(
    configs: list[EvolutionConfig],
    initial: list[Population | None],
    batch_size: int,
) -> tuple[list[EvolutionResult], dict]:
    """Advance one signature-group of lanes over the shared engine,
    prefetch window by window, each window in waves.

    Deterministic lanes gather their fitness from the shared pair matrix;
    their batches are cut at :data:`_BATCH_BYTES` of pre-drawn decisions
    (:func:`_capped_batch_bytes`).
    Pure noisy sampled lanes (:func:`_samples_on_pool`) share the engine's
    pool only: nothing is filled ahead for them, so each batch is one
    window, capped like the generic path's batches, a wave's mutants are
    interned as it applies them, and its fitness is played by
    :meth:`~repro.core.engine.SampledFitnessEngine.eval_wave`
    (:class:`_SampledLanes`).
    """
    started = time.perf_counter()
    cfg = configs[0]
    n_lanes = len(configs)
    n_ssets = cfg.n_ssets
    generations = cfg.generations
    structure = build_structure(cfg.structure, n_ssets)
    well_mixed = structure.is_well_mixed

    trees, events_rngs, pc_rngs, mu_rngs, pops = _lane_setup(configs, initial)

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
    sampled = None
    if _samples_on_pool(cfg):
        sampled = _SampledLanes(
            cfg,
            [t.generator("nature", "sampled") for t in trees],
            _insertion_stamps(pops)
            if restored is None
            else np.array([state["stamps"] for state in lane_state]),
        )

    n_states = 4 ** cfg.memory_steps
    engine = EnsembleEngine(
        cfg.memory_steps,
        cfg.rounds,
        cfg.payoff,
        n_lanes=n_lanes,
        capacity=_group_slots(cfg, n_lanes)[0],
        pairs=sampled is None,
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
    full_cover = n_states <= 16 and well_mixed and sampled is None
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
        for r, result in enumerate(results):
            _snapshot_lane(result, engine, sids[r], 0)

    every = cfg.record_every
    next_snap: list[int | None] = [every if every > 0 else None] * n_lanes
    include_self = cfg.include_self_play
    downhill = cfg.allow_downhill_learning
    beta = cfg.beta
    record_events = cfg.record_events
    progress, run_indices = progress_listener(n_lanes)
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
    n_pc = np.zeros(n_lanes, dtype=np.int64)
    n_adopt = np.zeros(n_lanes, dtype=np.int64)
    n_mut = np.zeros(n_lanes, dtype=np.int64)
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
            if sampled is not None:
                sampled.rngs[r].bit_generator.state = decode_bitgen(
                    lane_meta["sampled_rng"]
                )
    pre_hooks = fault is not None or every > 0
    post_hooks = progress is not None or every > 0

    def take_snapshot(r: int, generation: int) -> None:
        _snapshot_lane(results[r], engine, sids[r], generation)

    def counts(r: int) -> tuple[int, int, int]:
        return int(n_pc[r]), int(n_adopt[r]), int(n_mut[r])

    # Only hooks and event records read the waves' lanes, generations and
    # first/last marks, event by event.
    marks = pre_hooks or post_hooks or record_events

    if sampled is not None:
        batch_size = _capped_batch_size(batch_size, n_lanes, cfg)
        window = 0
    else:
        batch_size = _capped_batch_bytes(batch_size, n_lanes, cfg)
        window = _window_events(cfg)
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
        events = _BatchEvents(
            _draw_flags(events_rngs, cfg.pc_rate, cfg.mutation_rate, batch)
        )

        # Pre-draw the whole batch's decisions per lane (exact serial
        # stream consumption; see module docstring of rawstream), lane
        # after lane, into the batch's lane-major PC and mutation arrays.
        # The mutants are packed into interning keys once per batch.
        pc_counts = events.pc_count.tolist()
        mu_counts = events.mu_count.tolist()
        mu_targets = np.empty(sum(mu_counts), dtype=np.int64)
        mu_tables = np.empty((mu_targets.shape[0], n_states), dtype=np.uint8)
        pc_teachers = np.empty(sum(pc_counts), dtype=np.int64)
        pc_learners = np.empty(pc_teachers.shape[0], dtype=np.int64)
        pc_uniforms = np.empty(pc_teachers.shape[0], dtype=np.float64)
        m_lo = p_lo = 0
        for r in range(n_lanes):
            m_hi = m_lo + mu_counts[r]
            mu_targets[m_lo:m_hi], mu_tables[m_lo:m_hi] = (
                mu_decoders[r].draw(mu_counts[r])
            )
            p_hi = p_lo + pc_counts[r]
            (
                pc_teachers[p_lo:p_hi],
                pc_learners[p_lo:p_hi],
                pc_uniforms[p_lo:p_hi],
            ) = pc_decoders[r].draw(pc_counts[r])
            m_lo, p_lo = m_hi, p_hi
        mu_keys = engine.pack_keys(mu_tables)

        # Windows of `window` ranks: window k holds every lane's events
        # of ranks k * window .. (k + 1) * window, so all but the last run
        # exactly `window` waves, and the batch runs as many waves as its
        # busiest lane has events.  A batch without events has no window.
        span = window or max(events.most, 1)
        for lo in range(0, events.most, span):
            waves = events.waves(lo, min(lo + span, events.most), marks)

            # The ensemble's initial populations intern thousands of
            # mostly-distinct random strategies; once selection has thinned
            # them out, re-pack the matrix so fitness gathers stay hot.
            # Safe here: no prefetch pins are outstanding.
            mapping = engine.compact()
            if mapping is not None:
                sids = mapping[sids]

            # Window prefetch: mutation draws are state-independent, so the
            # window's mutants are interned and their payoff rows filled in
            # ONE batched kernel call before any of their events apply.
            # Each lane's events of the window follow its events of the
            # windows before, so every pair they read joins the lane's
            # rows at the window start or its mutants of the window.
            # Pinning (an extra reference until the window ends) keeps
            # their slots — and any dead strategy they resurrect — from
            # being recycled before their events apply, and no slot is
            # interned mid-window, so none is re-tenanted mid-window.
            pins = _NO_SIDS
            if waves.mu.shape[0] and sampled is None:
                pins = engine.intern_lane(
                    mu_tables[waves.mu], mu_keys[waves.mu]
                )
                if full_cover:
                    engine.fill_missing(
                        *_window_pairs(sids, waves.mu_lane, pins)
                    )

            w_lanes = waves.pc_lane
            w_teachers = pc_teachers[waves.pc]
            w_learners = pc_learners[waves.pc]
            w_uniforms = pc_uniforms[waves.pc]
            w_mu_lanes = waves.mu_lane
            w_targets = mu_targets[waves.mu]
            if marks:
                lanes = waves.lane.tolist()
                gens = (waves.gen + base).tolist()
                firsts = waves.first.tolist()
                lasts = waves.last.tolist()
            if record_events:
                rec_teachers = w_teachers.tolist()
                rec_learners = w_learners.tolist()
                rec_targets = w_targets.tolist()
            bounds = waves.bounds.tolist()
            pc_bounds = waves.pc_bounds.tolist()
            mu_bounds = waves.mu_bounds.tolist()
            for w in range(len(bounds) - 1):
                # Wave-cadence cancellation: a cancelled/timed-out group
                # aborts before this wave's events apply (the group's
                # results are discarded wholesale, so mid-window engine
                # state needs no unwinding).
                if cancel is not None:
                    cancel.check()
                c0, c1 = bounds[w], bounds[w + 1]
                if pre_hooks:
                    _before_wave(
                        c0, c1, firsts, lanes, gens, fault, next_snap, every,
                        generations, take_snapshot,
                    )

                p0, p1 = pc_bounds[w], pc_bounds[w + 1]
                m0, m1 = mu_bounds[w], mu_bounds[w + 1]
                if sampled is None:
                    mutants = pins[m0:m1]
                elif m1 > m0:
                    # Nothing is filled ahead for sampled lanes, so their
                    # mutants are interned as their wave applies them; the
                    # reference taken here is the lane's own.
                    at = waves.mu[m0:m1]
                    mutants = engine.intern_lane(mu_tables[at], mu_keys[at])
                else:
                    mutants = _NO_SIDS
                fit_t, fit_l, adopted = _advance_wave(
                    engine, sids, structure, full_cover, include_self,
                    beta, downhill,
                    w_lanes[p0:p1], w_teachers[p0:p1], w_learners[p0:p1],
                    w_uniforms[p0:p1],
                    w_mu_lanes[m0:m1], w_targets[m0:m1], mutants,
                    adopt_counts, mut_counts, n_pc, n_adopt, n_mut, sampled,
                )

                if record_events and p1 > p0:
                    if sampled is not None:
                        # As the serial sampled run records them.
                        fit_t, fit_l = fit_t.tolist(), fit_l.tolist()
                    for c, teacher, learner, applied, ft, fl in zip(
                        range(c0, c0 + p1 - p0),
                        rec_teachers[p0:p1],
                        rec_learners[p0:p1],
                        adopted.tolist(),
                        fit_t,
                        fit_l,
                    ):
                        event_lists[lanes[c]].append(
                            EventRecord(
                                generation=gens[c],
                                kind="pc",
                                source=teacher,
                                target=learner,
                                applied=applied,
                                teacher_fitness=ft,
                                learner_fitness=fl,
                            )
                        )
                if record_events:
                    for c, target in zip(
                        range(c0 + p1 - p0, c1), rec_targets[m0:m1]
                    ):
                        event_lists[lanes[c]].append(
                            EventRecord(
                                generation=gens[c],
                                kind="mutation",
                                source=target,
                                target=target,
                                applied=True,
                            )
                        )

                if post_hooks:
                    _after_wave(
                        c0, c1, lasts, lanes, gens, progress, run_indices,
                        counts, next_snap, every, generations, take_snapshot,
                    )

            if pins.shape[0]:
                engine.release(pins)
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
                _flush_snapshots(
                    next_snap, r, base, every, generations, take_snapshot
                )
            meta_save, arrays_save = _capture_group_shared(
                configs, base, engine, pops, sids, results, next_snap,
                events_rngs, pc_decoders, mu_decoders, adopt_counts,
                mut_counts, n_pc, n_adopt, n_mut, sampled,
            )
            sink.save(unit, base, meta_save, arrays_save)

    # Snapshots scheduled after each lane's last event.
    for r in range(n_lanes):
        _flush_snapshots(
            next_snap, r, generations, every, generations, take_snapshot
        )

    elapsed = time.perf_counter() - started
    for r, result in enumerate(results):
        population = pops[r]
        lane_sids = sids[r]
        # Only changed SSets get a new Strategy.  A table the lane started
        # with reuses its generation-0 object, so a named strategy that
        # spread by adoption keeps its name, as in the serial drivers.
        initial_strategies = {s.key(): s for s in population.strategies()}
        changed = np.flatnonzero(
            (engine.tables[lane_sids] != population.strategy_matrix()).any(
                axis=1
            )
        ).tolist()
        strategies = population.strategies()
        finals: dict[int, Strategy] = {}
        for i in changed:
            sid = int(lane_sids[i])
            final = finals.get(sid)
            if final is None:
                final = engine.strategy(sid)
                final = finals[sid] = initial_strategies.get(final.key(), final)
            strategies[i] = final
        if sampled is not None:
            # In the lane's histogram order, where its serial run ends.
            population.reassign(
                strategies,
                np.argsort(sampled.stamps[r], kind="stable").tolist(),
            )
        else:
            for i in changed:
                population.set_strategy(i, strategies[i])
        for i, sset in enumerate(population.ssets):
            sset.adoptions += int(adopt_counts[r, i])
            sset.mutations += int(mut_counts[r, i])
        result.n_pc_events = int(n_pc[r])
        result.n_adoptions = int(n_adopt[r])
        result.n_mutations = int(n_mut[r])
        result.generations_run = generations
        _snapshot_lane(result, engine, lane_sids, generations)
        # Mirror the per-run engine's accounting: two dense fitness queries
        # per PC event; pair evaluations attributed to the lane whose
        # demand triggered them (cross-lane reuse means the ensemble
        # evaluates strictly fewer pairs than R serial runs).  A sampled
        # run caches nothing: its serial engine counts no hits or misses.
        result.cache_hits = (
            0 if sampled is not None else 2 * result.n_pc_events
        )
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


def _flush_snapshots(
    next_snap: list, r: int, before: int, every: int, generations: int,
    take,
) -> None:
    """Take lane ``r``'s ``record_every`` snapshots due strictly before
    generation ``before`` (none at or past the run's end) and advance its
    schedule; ``take(r, generation)`` records one."""
    pending = next_snap[r]
    while pending is not None and pending < before:
        if pending < generations:
            take(r, pending)
        pending += every
    next_snap[r] = pending


def _before_wave(
    c0: int, c1: int, firsts: list, lanes: list, gens: list, fault,
    next_snap: list, every: int, generations: int, take,
) -> None:
    """The hooks due before wave entries ``c0 .. c1`` apply.

    At each lane's first event of a generation: the ``driver.generation``
    fault site, then the lane's snapshots due strictly before that
    generation — the serial drivers snapshot after a generation's events,
    and the lane's state is unchanged in between.
    """
    for c in range(c0, c1):
        if firsts[c]:
            r, gen = lanes[c], gens[c]
            if fault is not None:
                fault(generation=gen)
            _flush_snapshots(next_snap, r, gen, every, generations, take)


def _after_wave(
    c0: int, c1: int, lasts: list, lanes: list, gens: list, progress,
    run_indices, counts, next_snap: list, every: int, generations: int,
    take,
) -> None:
    """The hooks due after wave entries ``c0 .. c1`` applied.

    At each lane's last event of a generation: one progress tick with the
    lane's running ``counts(r)``, stamped ``run_indices[r]`` — the serial
    drivers' cadence, so each lane's tick stream matches across backends
    — then the lane's snapshot if one is due at that generation.
    """
    for c in range(c0, c1):
        if lasts[c]:
            r, gen = lanes[c], gens[c]
            if progress is not None:
                n_pc, n_adopt, n_mut = counts(r)
                progress(
                    ProgressTick(
                        run_indices[r], gen, generations, n_pc, n_adopt, n_mut
                    )
                )
            if next_snap[r] == gen:
                if gen < generations:
                    take(r, gen)
                next_snap[r] = gen + every


class _Waves(NamedTuple):
    """One window's events, listed wave by wave.

    Within a wave the PC events come first, then the mutations, lanes
    ascending within each kind; every event of a wave is from a different
    lane.  ``lane``, ``gen`` (offset in the batch), ``first`` and ``last``
    run over all events in that order; ``first``/``last`` mark a lane's
    first and last event of a generation in the whole batch.  ``pc`` and
    ``mu`` index the batch's PC and mutation arrays in the same order, and
    ``pc_lane``/``mu_lane`` are those events' lanes; ``bounds``,
    ``pc_bounds`` and ``mu_bounds`` delimit wave ``w`` as entries
    ``[w, w + 1)`` of each.
    """

    lane: np.ndarray
    gen: np.ndarray | None
    first: np.ndarray | None
    last: np.ndarray | None
    pc: np.ndarray
    mu: np.ndarray
    pc_lane: np.ndarray
    mu_lane: np.ndarray
    bounds: np.ndarray
    pc_bounds: np.ndarray
    mu_bounds: np.ndarray


class _BatchEvents:
    """One batch's events, lane-major in each lane's serial order.

    Lane ``r``'s events are entries ``start[r] .. start[r] + count[r]``,
    by generation, PC before mutation, so an event's rank in its lane is
    its offset there and its wave is rank arithmetic
    (:meth:`waves`).  ``pos`` indexes each event in the batch's PC or
    mutation arrays (``is_mu``), which list each kind lane-major in the
    same order, so the lanes' pre-drawn decisions fill them lane after
    lane.  ``first``/``last`` mark a lane's first and last event of a
    generation over the whole batch, so they hold when a window ends
    between a generation's PC event and its mutation.
    """

    def __init__(self, flags: np.ndarray) -> None:
        batch = flags.shape[1]
        # Flat index (lane * batch + generation) * 2 + kind: flatnonzero
        # lists the events lane-major, by generation, PC before mutation.
        flat = np.flatnonzero(flags)
        self.is_mu = (flat & 1).astype(bool)
        flat >>= 1
        cut = flat[1:] != flat[:-1]
        self.first = np.concatenate(([True], cut))
        self.last = np.concatenate((cut, [True]))
        flat %= batch
        self.gen = flat
        mu_before = np.cumsum(self.is_mu)
        mu_before -= self.is_mu
        self.pos = np.arange(flat.shape[0])
        self.pos -= mu_before
        np.copyto(self.pos, mu_before, where=self.is_mu)
        self.pc_count, self.mu_count = np.count_nonzero(flags, axis=1).T
        self.count = self.pc_count + self.mu_count
        self.start = np.cumsum(self.count) - self.count
        self.most = int(self.count.max(initial=0))

    def waves(self, lo: int, hi: int, marks: bool = True) -> _Waves:
        """Every lane's events of ranks ``lo .. hi`` (``hi <=``
        :attr:`most`) as waves: wave ``w`` holds each lane's event of rank
        ``lo + w``.  Without ``marks`` the events' ``gen``, ``first`` and
        ``last`` are not gathered (``None``): only hooks and event records
        read them."""
        rank = np.arange(lo, hi)[:, None]
        at = self.start + rank
        valid = rank < self.count
        mu = self.is_mu[np.minimum(at, self.is_mu.shape[0] - 1)]
        by_kind = np.stack((valid & ~mu, valid & mu), axis=1)
        wave, kind, lane = np.nonzero(by_kind)
        event = at[wave, lane]
        is_pc = kind == 0
        pc_bounds = np.zeros(hi - lo + 1, dtype=np.int64)
        mu_bounds = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(by_kind[:, 0], axis=1), out=pc_bounds[1:])
        np.cumsum(np.count_nonzero(by_kind[:, 1], axis=1), out=mu_bounds[1:])
        return _Waves(
            lane=lane,
            gen=self.gen[event] if marks else None,
            first=self.first[event] if marks else None,
            last=self.last[event] if marks else None,
            pc=self.pos[event[is_pc]],
            mu=self.pos[event[~is_pc]],
            pc_lane=lane[is_pc],
            mu_lane=lane[~is_pc],
            bounds=pc_bounds + mu_bounds,
            pc_bounds=pc_bounds,
            mu_bounds=mu_bounds,
        )


def _advance_wave(
    engine: EnsembleEngine,
    sids: np.ndarray,
    structure: InteractionModel,
    full_cover: bool,
    include_self: bool,
    beta: float,
    downhill: bool,
    pc_lanes: np.ndarray,
    teachers: np.ndarray,
    learners: np.ndarray,
    uniforms: np.ndarray,
    mu_lanes: np.ndarray,
    targets: np.ndarray,
    mutants: np.ndarray,
    adopt_counts: np.ndarray,
    mut_counts: np.ndarray,
    n_pc: np.ndarray,
    n_adopt: np.ndarray,
    n_mut: np.ndarray,
    sampled: "_SampledLanes | None" = None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Apply one wave — one event each of distinct lanes — as array steps.

    PC lanes gather their teacher and learner fitness in one engine call
    (sampled lanes play theirs in one kernel call) and decide by the Fermi
    rule (:func:`~repro.core.fermi.fermi_adoptions`); adoptions and
    mutations write the sid array, the per-SSet and per-lane counters, and
    move the references of the sids they install and replace in one
    :meth:`~EnsembleEngine.move_refs` call.  A sampled wave's ``mutants``
    already hold their lanes' references.  Returns the PC events' teacher
    fitness, learner fitness and decisions (``None`` without PC events).
    """
    gained = lost = _NO_SIDS
    fit_t = fit_l = adopted = None
    if pc_lanes.shape[0]:
        if structure.is_well_mixed:
            lane_block = sids[pc_lanes]
            rows = np.arange(pc_lanes.shape[0])
            sid_t = lane_block[rows, teachers]
            sid_l = lane_block[rows, learners]
            if sampled is not None:
                fit_t, fit_l = sampled.fitness(
                    engine.tables, lane_block, pc_lanes, sid_t, sid_l
                )
            else:
                if not full_cover:
                    engine.ensure_rows(
                        np.concatenate((sid_t, sid_l)),
                        np.concatenate((lane_block, lane_block)),
                        np.concatenate((pc_lanes, pc_lanes)),
                    )
                # (With full_cover every gathered pair is valid by the
                # coverage invariant: initial fill + window prefetch.)
                fit_t, fit_l = engine.fitness_pc_well_mixed(
                    lane_block, sid_t, sid_l, include_self
                )
        else:
            # Graph lanes share one flat CSR gather + segment reduction
            # (and, on demand, one batched fill of every pair it reads).
            sid_t = sids[pc_lanes, teachers]
            sid_l = sids[pc_lanes, learners]
            fit_t, fit_l = engine.fitness_pc_graph(
                sids, pc_lanes, teachers, learners, structure,
                include_self, ensure=not full_cover,
            )
        adopted = fermi_adoptions(fit_t, fit_l, uniforms, beta, downhill)
        lanes_a = pc_lanes[adopted]
        learners_a = learners[adopted]
        gained = sid_t[adopted]
        lost = sid_l[adopted]
        if sampled is not None:
            sampled.adopt(lanes_a, learners_a, teachers[adopted])
        sids[lanes_a, learners_a] = gained
        adopt_counts[lanes_a, learners_a] += 1
        n_pc[pc_lanes] += 1
        n_adopt[lanes_a] += 1
    if mu_lanes.shape[0]:
        if sampled is not None:
            sampled.mutate(sids, mu_lanes, targets, mutants)
        else:
            gained = np.concatenate((gained, mutants))
        replaced = sids[mu_lanes, targets]
        sids[mu_lanes, targets] = mutants
        mut_counts[mu_lanes, targets] += 1
        n_mut[mu_lanes] += 1
        lost = np.concatenate((lost, replaced))
    if lost.shape[0]:
        engine.move_refs(gained, lost)
    return fit_t, fit_l, adopted


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
    expected-fitness regime, non-integer payoffs, ``engine=False``, custom
    structures, and the ``sampled_batched`` lanes of graphs and of mixed
    strategies), batch by batch, each batch in waves.

    The lanes share the merged event scan and the wave schedule of the
    shared path (:class:`_BatchEvents`, the whole batch one window): wave
    ``w`` applies every lane's ``w``-th event of the batch, through the lane's
    own evaluator, streams and population, so each lane keeps its serial
    event order and trajectory.  Sampled lanes also share the sampled-game
    kernel: a wave's PC lanes collect their plans and evaluate them as one
    fused :meth:`SampledFitnessEngine.eval_plans` call, each lane drawing
    its games off its own dedicated stream, so every lane stays
    bit-identical to its same-seed serial run.  Pure noisy sampled lanes
    on well-mixed populations run on :func:`_run_group_shared` instead
    (:func:`_group_mode`); this path still runs them when called directly.
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
    progress, run_indices = progress_listener(n_lanes)
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

    pre_hooks = fault is not None or every > 0
    post_hooks = progress is not None or every > 0

    def take_snapshot(r: int, generation: int) -> None:
        _maybe_snapshot(results[r], pops[r], generation, force=True)

    def counts(r: int) -> tuple[int, int, int]:
        result = results[r]
        return result.n_pc_events, result.n_adoptions, result.n_mutations

    batch_size = _capped_batch_size(batch_size, n_lanes, cfg)
    base = start_gen
    remaining = generations - start_gen
    while remaining > 0:
        batch = min(batch_size, remaining)
        if save_every > 0:
            batch = min(batch, save_every - base % save_every)
        events = _BatchEvents(
            _draw_flags(events_rngs, cfg.pc_rate, cfg.mutation_rate, batch)
        )
        if events.most:
            waves = events.waves(0, events.most)
            lanes = waves.lane.tolist()
            gens = (waves.gen + base).tolist()
            firsts = waves.first.tolist()
            lasts = waves.last.tolist()
            bounds = waves.bounds.tolist()
            pc_bounds = waves.pc_bounds.tolist()
            n_waves = len(bounds) - 1
        else:
            n_waves = 0
        for w in range(n_waves):
            if cancel is not None:
                cancel.check()
            c0, c1 = bounds[w], bounds[w + 1]
            if pre_hooks:
                _before_wave(
                    c0, c1, firsts, lanes, gens, fault, next_snap, every,
                    generations, take_snapshot,
                )
            # The wave's PC events (entries c0 .. c_mu), then its
            # mutations.  Each PC lane draws its selection first (each lane
            # has its own pc stream, so the draw/evaluate interleaving
            # across lanes is trajectory-neutral), then fitness is
            # evaluated: per lane for the legacy evaluators, or — in
            # sampled_batched mode — every PC lane's sampled games fused
            # into one kernel call, each lane drawing its games from its
            # own dedicated stream.
            c_mu = c0 + pc_bounds[w + 1] - pc_bounds[w]
            drawn: list[tuple[int, int, int, int, float]] = []
            for c in range(c0, c_mu):
                r = lanes[c]
                rng = pc_rngs[r]
                teacher, learner = structure.select_pair(rng)
                uniform = float(rng.random())
                drawn.append((r, gens[c], teacher, learner, uniform))
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
                        for r, _, teacher, learner, _ in drawn
                    ]
                )
            else:
                fits = [
                    structure.pair_fitness(
                        pops[r], teacher, learner, evaluators[r],
                        include_self,
                    )
                    for r, _, teacher, learner, _ in drawn
                ]
            for (r, gen, teacher, learner, uniform), (ft, fl) in zip(
                drawn, fits
            ):
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

            for c in range(c_mu, c1):
                r = lanes[c]
                rng = mu_rngs[r]
                target = int(rng.integers(n_ssets))
                strategy = make_mutant(rng, memory)
                pops[r].mutate(target, strategy)
                result = results[r]
                result.n_mutations += 1
                if record_events:
                    result.events.append(
                        EventRecord(
                            generation=gens[c],
                            kind="mutation",
                            source=target,
                            target=target,
                            applied=True,
                        )
                    )

            if post_hooks:
                _after_wave(
                    c0, c1, lasts, lanes, gens, progress, run_indices,
                    counts, next_snap, every, generations, take_snapshot,
                )
        base += batch
        remaining -= batch
        if (
            save_every > 0
            and base % save_every == 0
            and 0 < base < generations
        ):
            for r in range(n_lanes):
                _flush_snapshots(
                    next_snap, r, base, every, generations, take_snapshot
                )
            meta_save, arrays_save = _capture_group_generic(
                configs, base, pops, evaluators, results, next_snap,
                events_rngs, pc_rngs, mu_rngs,
            )
            sink.save(unit, base, meta_save, arrays_save)

    for r in range(n_lanes):
        _flush_snapshots(
            next_snap, r, generations, every, generations, take_snapshot
        )

    elapsed = time.perf_counter() - started
    for r, result in enumerate(results):
        result.generations_run = generations
        _maybe_snapshot(result, pops[r], generations, force=True)
        result.cache_hits = evaluators[r].hits
        result.cache_misses = evaluators[r].misses
        result.wallclock_seconds = elapsed
        pops[r].bind_engine(None)  # results must not pin the lane engines
    meta = {"lanes": n_lanes, "shared_engine": None}
    return results, meta
