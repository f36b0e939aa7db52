"""Serial evolution drivers (the paper's population dynamics, Section IV).

Two equivalent drivers are provided:

* :func:`run_serial` — the faithful per-generation loop: every generation
  draws its event flags, and PC learning / mutation are applied in the
  paper's order (PC first, then mutation).

* :func:`run_event_driven` — the fast-forward driver: population state only
  changes at PC/mutation events, so generations are scanned in vectorised
  batches and only event generations execute Python logic.  Because the
  event flags come from a dedicated RNG stream (consumed in the same order)
  and the pc/mutation/games streams are touched only at events, this driver
  follows the **identical trajectory** to :func:`run_serial` for any seed —
  a property pinned by the test suite.  The pc and mutation draws never
  read the population, so each batch's PC selections and mutants are
  pre-drawn in one call per stream (:class:`_BatchDecisions`, decoding the
  raw Philox words through :mod:`repro.ensemble.rawstream`) before its
  events apply, and the deterministic engine fills a window of those
  mutants' payoffs in one kernel call before their events
  (:meth:`~repro.core.engine.FitnessEngine.prefetch`).  It is what makes
  the paper's 10^7-generation validation run (Fig. 2) feasible.

Fitness is evaluated lazily: only the PC-selected teacher/learner fitness is
computed, exactly the values the dynamics consume.  By default the values
come from the interned-strategy :class:`~repro.core.engine.FitnessEngine`
(dense payoff-matrix kernel, ``config.engine``); configurations the dense
kernel cannot serve bit-identically — sampled-stochastic fitness,
non-integer payoffs — fall back to the legacy strategy histogram +
:class:`~repro.core.payoff_cache.PayoffCache` automatically, and
``engine=False`` forces that reference path.  Either way the trajectory is
identical, pinned by the golden-hash tests.

Both drivers honour ``config.structure`` (:mod:`repro.structure`): the
default well-mixed model keeps the histogram fast path and the historical
RNG draw order (hence the bit-identical guarantee above), while graph
structures evaluate fitness over neighborhoods and pick PC teachers from
the learner's neighbors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .. import faults
from ..errors import CheckpointError, ConfigurationError
from ..rng import SeedSequenceTree
from ..structure import GraphStructure, InteractionModel, build_structure
from .config import EvolutionConfig
from .engine import FitnessEngine, SampledFitnessEngine
from .nature import NatureAgent, adopts
from .payoff_cache import PayoffCache
from .population import Population
from .progress import ProgressTick, cancel_token, progress_callback
from .runstate import (
    RUN_STATE_VERSION,
    capture_evaluator,
    capture_events,
    capture_population,
    capture_snapshots,
    checkpoint_sink,
    checkpointing_supported,
    restore_evaluator,
    restore_events,
    restore_population,
    restore_snapshots,
    science_version,
    unit_key,
    validate_resume_config,
)
from .states import num_states
from .strategy import Strategy

#: Either fitness evaluator the drivers thread through the structure layer.
Evaluator = PayoffCache | FitnessEngine

if TYPE_CHECKING:  # pragma: no cover - avoid a runtime core -> api cycle
    from ..api.report import BackendReport

__all__ = [
    "EventRecord",
    "Snapshot",
    "EvolutionResult",
    "run_serial",
    "run_event_driven",
]


@dataclass(frozen=True)
class EventRecord:
    """One applied (or rejected) population-dynamics event."""

    generation: int
    kind: str  # "pc" or "mutation"
    #: For PC: (teacher, learner); for mutation: (target, target).
    source: int
    target: int
    #: For PC: whether the learner adopted.  Mutations always apply.
    applied: bool
    teacher_fitness: float = 0.0
    learner_fitness: float = 0.0


@dataclass(frozen=True)
class Snapshot:
    """Population strategy raster at one generation (Fig. 2 material)."""

    generation: int
    strategy_matrix: np.ndarray
    dominant_share: float


@dataclass
class EvolutionResult:
    """Everything a run produces."""

    config: EvolutionConfig
    population: Population
    events: list[EventRecord] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)
    n_pc_events: int = 0
    n_adoptions: int = 0
    n_mutations: int = 0
    generations_run: int = 0
    wallclock_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Execution metadata attached by the :mod:`repro.api` front-end; the
    #: legacy drivers leave it ``None``.
    backend_report: "BackendReport | None" = None
    #: Generation this run was restored from (mid-run checkpoint resume),
    #: ``None`` for an uninterrupted run.  Provenance only: it is *not*
    #: part of the result payload, which stays bit-identical either way.
    resumed_from_generation: int | None = None

    def dominant(self) -> tuple[Strategy, float]:
        """Most common final strategy and its population share."""
        return self.population.dominant_share()

    def summary(self) -> str:
        strategy, share = self.dominant()
        return (
            f"{self.generations_run} generations, "
            f"{self.n_pc_events} PC events ({self.n_adoptions} adoptions), "
            f"{self.n_mutations} mutations; dominant strategy "
            f"{strategy.bits() if strategy.is_pure else '<mixed>'} "
            f"at {share:.1%}"
        )


def _make_cache(config: EvolutionConfig, nature: NatureAgent) -> PayoffCache:
    return PayoffCache(
        rounds=config.rounds,
        payoff=config.payoff,
        noise=config.noise,
        rng=nature.games_rng if config.is_stochastic else None,
        expected=config.expected_fitness,
    )


def _make_evaluator(
    config: EvolutionConfig, nature: NatureAgent, population: Population
) -> Evaluator:
    """Build the run's fitness evaluator and bind/unbind the population.

    With ``config.engine`` (the default) this is the dense
    :class:`FitnessEngine` whenever the configuration's fitness regime
    supports it bit-identically; otherwise — sampled-stochastic fitness,
    non-integer payoffs, or ``engine=False`` — the legacy
    :class:`PayoffCache` reference path.  A ``sampled_batched`` opt-in
    swaps in the batched :class:`SampledFitnessEngine` instead, fed by
    the Nature Agent's dedicated ``("nature", "sampled")`` stream.
    """
    sampled = SampledFitnessEngine.from_config(config, nature.sampled_rng)
    if sampled is not None:
        population.bind_engine(None)
        return sampled
    engine = FitnessEngine.from_config(config)
    population.bind_engine(engine)
    if engine is not None:
        return engine
    return _make_cache(config, nature)


def _maybe_snapshot(
    result: EvolutionResult, population: Population, generation: int, force: bool
) -> None:
    every = result.config.record_every
    if force or (every > 0 and generation % every == 0):
        _, share = population.dominant_share()
        result.snapshots.append(
            Snapshot(
                generation=generation,
                strategy_matrix=population.strategy_matrix(),
                dominant_share=share,
            )
        )


def _apply_generation_events(
    generation: int,
    pc: tuple[int, int, float] | None,
    mutation: tuple[int, Strategy] | None,
    population: Population,
    evaluator: Evaluator,
    result: EvolutionResult,
    structure: InteractionModel,
    progress=None,
    cancel=None,
    fault=None,
) -> None:
    """Apply one generation's events in the paper's order (PC, then mutation).

    ``pc`` is the generation's drawn PC decision ``(teacher, learner,
    adoption_uniform)`` and ``mutation`` its ``(target, mutant)``, each
    ``None`` when that event does not fire.  ``progress`` is the thread's
    :func:`~repro.core.progress.progress_scope` callback (or ``None``): one
    :class:`ProgressTick` per event generation, after the generation's
    events applied.  ``cancel`` is the thread's
    :class:`~repro.core.progress.CancelToken` (or ``None``), checked before
    the generation's events so a cancelled or timed-out run aborts at tick
    cadence with the population untouched by the aborted generation.
    ``fault`` is the armed :func:`repro.faults.hook` for the
    ``"driver.generation"`` site (or ``None``, the production case).
    """
    if cancel is not None:
        cancel.check()
    if fault is not None:
        fault(generation=generation)
    config = result.config
    if pc is not None:
        teacher, learner, uniform = pc
        # pair_fitness is two fitness_of calls for well-mixed / legacy
        # evaluators; graph structures with an eager FitnessEngine serve
        # both sides from one batched CSR payoff-matrix gather (same
        # values — integer sums are float-exact in any order).
        fit_t, fit_l = structure.pair_fitness(
            population, teacher, learner, evaluator, config.include_self_play
        )
        adopted = adopts(config, uniform, fit_t, fit_l)
        if adopted:
            population.adopt(learner, population[teacher].strategy)
        result.n_pc_events += 1
        result.n_adoptions += int(adopted)
        if config.record_events:
            result.events.append(
                EventRecord(
                    generation=generation,
                    kind="pc",
                    source=teacher,
                    target=learner,
                    applied=adopted,
                    teacher_fitness=fit_t,
                    learner_fitness=fit_l,
                )
            )
    if mutation is not None:
        target, strategy = mutation
        population.mutate(target, strategy)
        result.n_mutations += 1
        if config.record_events:
            result.events.append(
                EventRecord(
                    generation=generation,
                    kind="mutation",
                    source=target,
                    target=target,
                    applied=True,
                )
            )
    if progress is not None:
        progress(
            ProgressTick(
                run_index=0,
                generation=generation,
                generations=config.generations,
                n_pc_events=result.n_pc_events,
                n_adoptions=result.n_adoptions,
                n_mutations=result.n_mutations,
            )
        )


#: Expected bytes of pre-drawn decisions an event-driver batch may hold
#: (:func:`_batch_cap`): a PC decision holds three values, a pure mutant
#: its target and one byte per table entry, a mixed one eight.
_PREDRAW_BYTES = 1 << 20


def _batch_cap(config: EvolutionConfig) -> int:
    """Most generations one event-driver batch spans, so that its expected
    pre-drawn decisions stay within :data:`_PREDRAW_BYTES` (a memory-6
    batch of 2**16 generations would otherwise draw ~13 MB of mutant
    tables at the paper's rates)."""
    table_bytes = num_states(config.memory_steps) * (
        8 if config.mixed_strategies else 1
    )
    per_generation = config.pc_rate * 24 + config.mutation_rate * (
        8 + table_bytes
    )
    if per_generation <= 0:
        return 1 << 62
    return max(1, int(_PREDRAW_BYTES / per_generation))


class _BatchDecisions:
    """One batch's PC selections and mutations, drawn before its events.

    Which SSets a PC event pairs, its adoption uniform, and which SSet a
    mutation hits with which mutant never depend on the population, so
    :meth:`draw` takes a batch's worth in one call per stream, in the
    serial call order.  Well-mixed and graph PC selections and pure
    mutants decode the raw Philox words of the Nature Agent's own ``pc``
    and ``mutation`` generators (:mod:`repro.ensemble.rawstream`, whose
    scalar fallbacks make the same Generator calls when its self-check
    fails); any other structure drives its own ``select_pair`` through
    rawstream's scalar graph decoder.  Each raw decoder holds the
    generator's buffered half-word only for its draw (``claim_carry`` /
    ``fold_carry``), so :meth:`NatureAgent.stream_states` at every batch
    boundary equals :func:`run_serial`'s.  Mixed-strategy mutants have no
    decoder: the scalar :meth:`NatureAgent.mutation_selection` calls fill
    the same list.
    """

    def __init__(
        self, nature: NatureAgent, structure: InteractionModel, n_ssets: int
    ):
        # Imported here: repro.ensemble's driver imports this module.
        from ..ensemble import rawstream

        if structure.n_ssets != n_ssets:
            raise ConfigurationError(
                f"structure is bound to {structure.n_ssets} SSets, "
                f"population has {n_ssets}"
            )
        config = nature.config
        self._nature = nature
        self._n_ssets = n_ssets
        self._memory = config.memory_steps
        if structure.is_well_mixed:
            self._pc = rawstream.pc_decoder(nature.pc_rng, n_ssets)
        elif isinstance(structure, GraphStructure):
            self._pc = rawstream.graph_pc_decoder(nature.pc_rng, structure)
        else:
            self._pc = rawstream._ScalarGraphPCDecoder(nature.pc_rng, structure)
        self._mutation = None
        if not config.mixed_strategies:
            self._mutation = rawstream.mutation_decoder(
                nature.mutation_rng, n_ssets, num_states(self._memory)
            )

    def draw(self, n_pc: int, n_mutations: int) -> tuple[list, list]:
        """``n_pc`` PC decisions ``(teacher, learner, adoption_uniform)``
        and ``n_mutations`` mutations ``(target, mutant)``, in draw order."""
        self._pc.claim_carry()
        pcs = list(zip(*self._pc.draw(n_pc)))
        self._pc.fold_carry()
        if self._mutation is None:
            nature = self._nature
            mutations = []
            for _ in range(n_mutations):
                d = nature.mutation_selection(self._n_ssets)
                mutations.append((d.target, d.strategy))
        else:
            self._mutation.claim_carry()
            targets, tables = self._mutation.draw(n_mutations)
            self._mutation.fold_carry()
            memory = self._memory
            # One fresh table per mutant: a row view would pin the batch.
            mutations = [
                (target, Strategy._trusted(row.copy(), memory))
                for target, row in zip(targets, tables)
            ]
        return pcs, mutations


def _finalise(
    result: EvolutionResult,
    population: Population,
    evaluator: Evaluator,
    started: float,
) -> EvolutionResult:
    result.generations_run = result.config.generations
    _maybe_snapshot(result, population, result.config.generations, force=True)
    # PayoffCache and FitnessEngine both expose hit/miss counters (the
    # engine counts dense fitness queries / pair evaluations performed).
    result.cache_hits = evaluator.hits
    result.cache_misses = evaluator.misses
    # A finished result must not pin its run's engine (the pool and the
    # capacity x capacity payoff matrix): callers such as the service's
    # result store keep results long after the run.
    population.bind_engine(None)
    result.wallclock_seconds = time.perf_counter() - started
    return result


def _arm_checkpointing(config: EvolutionConfig, population: Population | None):
    """This run's checkpoint sink, or ``None`` when checkpointing is off.

    Armed only when the run is fully self-describing — no caller-supplied
    population (it carries state a snapshot cannot re-create) — and the
    fitness regime can honour the bit-identical resume contract
    (:func:`checkpointing_supported`).  Unarmed runs execute exactly as
    before, without snapshots.
    """
    sink = checkpoint_sink()
    if sink is None or population is not None:
        return None
    return sink if checkpointing_supported(config) else None


def _enable_capture_logs(evaluator: Evaluator) -> None:
    """Arm the evaluator's replay log from generation 0 (capture needs the
    full fill history; the eager deterministic engine needs none)."""
    if isinstance(evaluator, FitnessEngine):
        if evaluator.expected:
            evaluator.enable_fill_log()
    else:
        evaluator.enable_eval_log()


def _capture_run_state(
    config: EvolutionConfig,
    generation: int,
    nature: NatureAgent,
    population: Population,
    evaluator: Evaluator,
    result: EvolutionResult,
    next_snapshot: int | None,
) -> tuple[dict, dict]:
    """Snapshot the run at a generation boundary: generation ``generation``
    is about to be drawn, nothing of it has been consumed yet.

    ``next_snapshot`` is the smallest not-yet-recorded ``record_every``
    multiple (``None`` when recording is off) — the one piece of driver
    bookkeeping that must travel so either driver can resume the snapshot
    schedule exactly where the other left off.
    """
    pop_meta, pop_arrays = capture_population(population)
    eval_meta, eval_arrays = capture_evaluator(evaluator, population)
    config_dict = config.to_dict()
    meta = {
        "version": RUN_STATE_VERSION,
        "science_version": science_version(config_dict),
        "kind": "run",
        "generation": int(generation),
        "config": config_dict,
        "structure": config.canonical_structure(),
        "nature": nature.stream_states(),
        "counters": {
            "n_pc_events": result.n_pc_events,
            "n_adoptions": result.n_adoptions,
            "n_mutations": result.n_mutations,
        },
        "next_snapshot": None if next_snapshot is None else int(next_snapshot),
        "population": pop_meta,
        "evaluator": eval_meta,
    }
    arrays = dict(pop_arrays)
    arrays.update(eval_arrays)
    arrays.update(capture_events(result.events))
    arrays.update(capture_snapshots(result.snapshots))
    return meta, arrays


def _resume_run_state(sink, unit: str, config: EvolutionConfig, nature: NatureAgent):
    """Restore the newest snapshot for ``unit`` from ``sink``, if any.

    Returns ``(result, population, evaluator, generation, next_snapshot)``
    with every RNG stream rewound, or ``None`` for a fresh start.  A
    snapshot whose config differs in any science-bearing field is refused
    (:func:`validate_resume_config`) — the sink keys snapshots by unit
    hash, so this only fires when a caller pins an explicit snapshot.
    """
    found = sink.load_latest(unit)
    if found is None:
        return None
    meta, arrays = found
    if meta.get("kind") != "run":
        # A same-science artifact of a different driver shape (an ensemble
        # group snapshot can land on the same unit key for a one-lane
        # sweep): not this driver's state, so start fresh rather than fail.
        return None
    if int(meta.get("version", 0)) != RUN_STATE_VERSION:
        raise CheckpointError(
            f"unsupported run-state checkpoint version "
            f"{meta.get('version')!r} (this build reads "
            f"version {RUN_STATE_VERSION})"
        )
    validate_resume_config(
        [meta["config"]],
        [config.to_dict()],
        saved_version=int(meta.get("science_version", 1)),
    )
    nature.restore_stream_states(meta["nature"])
    population = restore_population(meta["population"], arrays)
    evaluator = restore_evaluator(
        config, meta["evaluator"], arrays, population, nature.games_rng
    )
    generation = int(meta["generation"])
    result = EvolutionResult(config=config, population=population)
    result.events = restore_events(arrays)
    result.snapshots = restore_snapshots(arrays)
    counters = meta["counters"]
    result.n_pc_events = int(counters["n_pc_events"])
    result.n_adoptions = int(counters["n_adoptions"])
    result.n_mutations = int(counters["n_mutations"])
    result.resumed_from_generation = generation
    next_snapshot = meta.get("next_snapshot")
    if next_snapshot is not None:
        next_snapshot = int(next_snapshot)
    return result, population, evaluator, generation, next_snapshot


def run_serial(
    config: EvolutionConfig, population: Population | None = None
) -> EvolutionResult:
    """Faithful generation-by-generation evolution (reference driver)."""
    started = time.perf_counter()
    tree = SeedSequenceTree(config.seed)
    nature = NatureAgent(config, tree)
    structure = build_structure(config.structure, config.n_ssets)
    sink = _arm_checkpointing(config, population)
    unit = unit_key([config.to_dict()]) if sink is not None else None
    restored = (
        _resume_run_state(sink, unit, config, nature)
        if sink is not None
        else None
    )
    if restored is not None:
        result, population, evaluator, start_gen, _ = restored
    else:
        if population is None:
            population = Population.random(config, tree.generator("init"))
        evaluator = _make_evaluator(config, nature, population)
        if sink is not None:
            _enable_capture_logs(evaluator)
        result = EvolutionResult(config=config, population=population)
        _maybe_snapshot(result, population, 0, force=True)
        start_gen = 0
    progress = progress_callback()
    cancel = cancel_token()
    fault = faults.hook("driver.generation")
    save_every = config.checkpoint_every if sink is not None else 0
    record = config.record_every

    for generation in range(start_gen, config.generations):
        # Generation boundary: nothing of `generation` drawn yet — the
        # snapshot resumes exactly here (skipped at the boundary a resume
        # itself started from, which is already on disk).
        if (
            save_every > 0
            and generation > 0
            and generation != start_gen
            and generation % save_every == 0
        ):
            pending = (
                ((generation + record - 1) // record) * record
                if record > 0
                else None
            )
            meta, arrays = _capture_run_state(
                config, generation, nature, population, evaluator, result,
                pending,
            )
            sink.save(unit, generation, meta, arrays)
        events = nature.generation_events()
        if events.pc or events.mutation:
            pc = mutation = None
            if events.pc:
                d = nature.pc_selection(len(population), structure)
                pc = (d.teacher, d.learner, d.adoption_uniform)
            if events.mutation:
                m = nature.mutation_selection(len(population))
                mutation = (m.target, m.strategy)
            _apply_generation_events(
                generation,
                pc,
                mutation,
                population,
                evaluator,
                result,
                structure,
                progress,
                cancel,
                fault,
            )
        if config.record_every > 0 and generation > 0:
            _maybe_snapshot(result, population, generation, force=False)
    return _finalise(result, population, evaluator, started)


def run_event_driven(
    config: EvolutionConfig,
    population: Population | None = None,
    batch_size: int = 1 << 16,
) -> EvolutionResult:
    """Fast-forward evolution: identical trajectory, ~1000x faster.

    Scans event flags in vectorised batches and executes Python logic only
    at event generations.  Each batch's PC selections and mutations are
    drawn up front, one call per stream (:class:`_BatchDecisions`), in
    the serial call order.  A batch spans at most ``batch_size``
    generations, fewer where its expected pre-drawn decisions would pass
    :data:`_PREDRAW_BYTES` (:func:`_batch_cap`), and it ends at every
    checkpoint multiple.  Snapshot recording (``record_every``) is aligned
    to the same generations as :func:`run_serial`.

    With an eager :class:`~repro.core.engine.FitnessEngine` and no pair
    sharing, a batch's mutants go through prefetch windows of
    :attr:`~repro.core.engine.FitnessEngine.prefetch_window` mutants
    (:func:`~repro.core.engine.prefetch_window`: 32 at memory 1 down to
    4 at memory 4, one at memory 5 and 6).  Before the event that holds a
    window's first mutation, the engine unpins the window before and pins
    this window's mutants, filling the fresh ones in one kernel call
    (:meth:`~repro.core.engine.FitnessEngine.prefetch`); the batch's end
    unpins the last.
    Pins never enter the SSet counts fitness reads, and ``cache_misses``
    counts what interning each mutant at its event counts, so results
    equal :func:`run_serial`'s.  Windows never cross a batch, so no pin
    is outstanding at a checkpoint.  A window of one mutant is no
    prefetch: the mutant's intern fills it at its event.
    """
    started = time.perf_counter()
    tree = SeedSequenceTree(config.seed)
    nature = NatureAgent(config, tree)
    structure = build_structure(config.structure, config.n_ssets)
    sink = _arm_checkpointing(config, population)
    unit = unit_key([config.to_dict()]) if sink is not None else None
    restored = (
        _resume_run_state(sink, unit, config, nature)
        if sink is not None
        else None
    )
    every = config.record_every
    if restored is not None:
        result, population, evaluator, start_gen, next_snapshot = restored
    else:
        if population is None:
            population = Population.random(config, tree.generator("init"))
        evaluator = _make_evaluator(config, nature, population)
        if sink is not None:
            _enable_capture_logs(evaluator)
        result = EvolutionResult(config=config, population=population)
        _maybe_snapshot(result, population, 0, force=True)
        start_gen = 0
        next_snapshot = every if every > 0 else None
    progress = progress_callback()
    cancel = cancel_token()
    fault = faults.hook("driver.generation")
    save_every = config.checkpoint_every if sink is not None else 0
    decisions = _BatchDecisions(nature, structure, len(population))
    batch_size = min(batch_size, _batch_cap(config))
    window = (
        evaluator.prefetch_window if isinstance(evaluator, FitnessEngine) else 1
    )

    generation = start_gen
    remaining = config.generations - start_gen
    while remaining > 0:
        batch = min(batch_size, remaining)
        if save_every > 0:
            # Stop the batch at the next checkpoint multiple so the
            # boundary state matches the serial driver's loop top exactly
            # (the batched flag draw consumes the same stream words either
            # way: random(2a) then random(2b) == random(2(a+b))).
            batch = min(batch, save_every - generation % save_every)
        pc_flags, mu_flags = nature.batch_event_flags(batch)
        event_offsets = np.flatnonzero(pc_flags | mu_flags)
        pcs, mutations = decisions.draw(
            int(np.count_nonzero(pc_flags)), int(np.count_nonzero(mu_flags))
        )
        pc_next = iter(pcs).__next__
        mutation_next = iter(mutations).__next__
        has_mutation = mu_flags[event_offsets]
        # Prefetch windows: the event holding every window-th mutation of
        # the batch opens a window of the next `window` mutants and closes
        # the one before; the last closes with the batch.  A window of one
        # is the mutant's own intern at its event: one fill either way,
        # without the pin.
        opens = [False] * len(event_offsets)
        if window > 1:
            for i in np.flatnonzero(has_mutation)[::window].tolist():
                opens[i] = True
        pins = None
        mutants = (strategy for _, strategy in mutations)
        for offset, pc, mutation, opens_window in zip(
            event_offsets.tolist(),
            pc_flags[event_offsets].tolist(),
            has_mutation.tolist(),
            opens,
        ):
            if opens_window:
                if pins is not None:
                    evaluator.unpin(pins)
                pins = evaluator.prefetch(list(islice(mutants, window)))
            gen = generation + offset
            # The serial driver snapshots *after* applying a generation's
            # events; emit pending snapshots strictly before this event's
            # generation, then the event, then a same-generation snapshot.
            while next_snapshot is not None and next_snapshot < gen:
                if next_snapshot < config.generations:
                    _maybe_snapshot(result, population, next_snapshot, force=True)
                next_snapshot += every
            _apply_generation_events(
                gen,
                pc_next() if pc else None,
                mutation_next() if mutation else None,
                population,
                evaluator,
                result,
                structure,
                progress,
                cancel,
                fault,
            )
            if next_snapshot is not None and next_snapshot == gen:
                if gen < config.generations:
                    _maybe_snapshot(result, population, gen, force=True)
                next_snapshot += every
        if pins is not None:
            evaluator.unpin(pins)
        generation += batch
        remaining -= batch
        if (
            save_every > 0
            and generation % save_every == 0
            and 0 < generation < config.generations
        ):
            # Bring the snapshot schedule to the boundary first (the serial
            # driver would have recorded these before reaching it), so the
            # captured state is driver-independent.
            while next_snapshot is not None and next_snapshot < generation:
                if next_snapshot < config.generations:
                    _maybe_snapshot(
                        result, population, next_snapshot, force=True
                    )
                next_snapshot += every
            meta, arrays = _capture_run_state(
                config, generation, nature, population, evaluator, result,
                next_snapshot,
            )
            sink.save(unit, generation, meta, arrays)
    # Snapshots scheduled after the last event.
    while next_snapshot is not None and next_snapshot < config.generations:
        _maybe_snapshot(result, population, next_snapshot, force=True)
        next_snapshot += every
    return _finalise(result, population, evaluator, started)
