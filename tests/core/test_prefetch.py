"""Prefetch pins: a window of mutants filled in one kernel call.

:meth:`repro.core.engine.FitnessEngine.prefetch` pins a window of
mutants in the :class:`~repro.core.engine.StrategyPool` and fills the
fresh ones before their events; :func:`repro.core.evolution.
run_event_driven` opens one window per :func:`~repro.core.engine.
prefetch_window` mutants of a batch.  Pins must stay out of everything
fitness reads (reference counts, the live order, ``len(pool)``), every
pair an event can read must be filled, ``misses`` must count what
one-at-a-time interning counts, and the run must stay bit-identical to
:func:`~repro.core.evolution.run_serial`.  Long rows split into calls of
at most ``_FILL_ENTRIES`` view states.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.core.engine as engine_module
from repro.core import (
    EvolutionConfig,
    FitnessEngine,
    StrategyPool,
    exact_payoffs,
    random_pure,
    run_event_driven,
    run_serial,
)
from repro.core.engine import prefetch_window
from repro.core.runstate import capture_evaluator, checkpoint_scope
from repro.core.strategy import Strategy
from repro.errors import CheckpointError, SimulationError


def pure(bits: int, memory: int = 1) -> Strategy:
    n = 4**memory
    table = np.array([(bits >> k) & 1 for k in range(n)], dtype=np.uint8)
    return Strategy._trusted(table, memory)


# -- the pool --------------------------------------------------------------


#: A small universe, so acquires, pins and releases keep colliding.
UNIVERSE = [pure(bits) for bits in (0, 1, 6, 9, 14, 15)]


class PoolWithPins(RuleBasedStateMachine):
    """Random acquire / release / pin / unpin calls against a model."""

    def __init__(self):
        super().__init__()
        self.pool = StrategyPool(1, np.dtype(np.uint8), capacity=2)
        self.refs = [0] * len(UNIVERSE)
        self.pins = [0] * len(UNIVERSE)
        self.order: list[int] = []  # live strategies, entry order
        self.sids: dict[int, int] = {}  # strategy -> its slot while held

    def held(self, i: int) -> bool:
        return self.refs[i] > 0 or self.pins[i] > 0

    def take_slot(self, i: int, sid: int, is_new: bool) -> None:
        assert is_new == (i not in self.sids)
        if is_new:
            assert sid not in self.sids.values()
            self.sids[i] = sid
        assert self.sids[i] == sid

    @rule(i=st.integers(0, len(UNIVERSE) - 1))
    def acquire(self, i):
        sid, is_new = self.pool.acquire(UNIVERSE[i])
        self.take_slot(i, sid, is_new)
        if self.refs[i] == 0:
            self.order.append(i)
        self.refs[i] += 1

    @precondition(lambda self: any(self.refs))
    @rule(data=st.data())
    def release(self, data):
        live = [i for i, r in enumerate(self.refs) if r]
        i = data.draw(st.sampled_from(live))
        left = self.pool.release(self.sids[i])
        self.refs[i] -= 1
        assert left == (self.refs[i] == 0)
        if not self.refs[i]:
            self.order.remove(i)
        if not self.held(i):
            del self.sids[i]

    @rule(i=st.integers(0, len(UNIVERSE) - 1))
    def pin(self, i):
        sid, is_new = self.pool.pin(UNIVERSE[i])
        self.take_slot(i, sid, is_new)
        self.pins[i] += 1

    @precondition(lambda self: any(self.pins))
    @rule(data=st.data())
    def unpin(self, data):
        pinned = [i for i, p in enumerate(self.pins) if p]
        i = data.draw(st.sampled_from(pinned))
        self.pool.unpin(self.sids[i])
        self.pins[i] -= 1
        if not self.held(i):
            del self.sids[i]

    @invariant()
    def pins_stay_out_of_the_counts(self):
        pool = self.pool
        assert len(pool) == len(self.order)
        assert pool.total == sum(self.refs)
        assert pool.pinned == sum(self.pins)
        order = [self.sids[i] for i in self.order]
        assert pool.ordered_sids().tolist() == order
        for i, sid in self.sids.items():
            assert pool.count(sid) == self.refs[i]
            assert pool.refcounts[sid] == self.refs[i]
            assert pool.pins.get(sid, 0) == self.pins[i]
            # A held slot keeps its strategy, pinned at refcount 0 too.
            assert pool.strategy(sid).key() == UNIVERSE[i].key()

    @invariant()
    def unheld_slots_are_free(self):
        for i, strategy in enumerate(UNIVERSE):
            assert (strategy in self.pool) == self.held(i)

    @invariant()
    def consistent(self):
        multiset = [
            UNIVERSE[i] for i, r in enumerate(self.refs) for _ in range(r)
        ]
        self.pool.check_consistent(multiset)


TestPoolWithPins = PoolWithPins.TestCase
TestPoolWithPins.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)


class TestPinErrors:
    def test_unpin_without_a_pin(self):
        pool = StrategyPool(1, np.dtype(np.uint8))
        sid, _ = pool.acquire(UNIVERSE[0])
        with pytest.raises(SimulationError, match="no pins"):
            pool.unpin(sid)

    def test_retiring_pool_takes_no_pins(self):
        pool = StrategyPool(1, np.dtype(np.uint8), evict=False)
        with pytest.raises(SimulationError, match="evicting"):
            pool.pin(UNIVERSE[0])

    def test_corrupt_bookkeeping_is_caught(self):
        pool = StrategyPool(1, np.dtype(np.uint8))
        pool.pin(UNIVERSE[0])
        pool._n_pins += 1
        with pytest.raises(SimulationError, match="bookkeeping"):
            pool.check_consistent([])


# -- the engine ------------------------------------------------------------


def exact(a: Strategy, b: Strategy, rounds: int) -> float:
    return exact_payoffs(a, b, rounds)[0]


def assert_covered(engine: FitnessEngine, rounds: int) -> None:
    """Every pair among live and pinned slots holds its exact payoff."""
    pool = engine.pool
    held = sorted(set(pool.ordered_sids().tolist()) | set(pool.pins))
    for a in held:
        for b in held:
            want = exact(pool.strategy(a), pool.strategy(b), rounds)
            assert engine.paymat[a, b] == want, (a, b)


def spy_kernel(monkeypatch) -> list[int]:
    calls: list[int] = []
    kernel = engine_module.cycle_payoffs_pairs

    def counting(tables, a_idx, b_idx, *args, **kwargs):
        calls.append(len(a_idx))
        return kernel(tables, a_idx, b_idx, *args, **kwargs)

    monkeypatch.setattr(engine_module, "cycle_payoffs_pairs", counting)
    return calls


class TestPrefetch:
    ROUNDS = 12

    def engine(self, memory: int) -> FitnessEngine:
        return FitnessEngine(memory_steps=memory, rounds=self.ROUNDS)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        memory=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        n_live=st.integers(1, 12),
        windows=st.lists(st.integers(1, 10), min_size=1, max_size=4),
    )
    def test_windows_match_one_at_a_time(self, memory, seed, n_live, windows):
        """Windows of mutants — fresh, repeated, already live — fill every
        pair an event can read, and the mutants' events count the
        ``misses`` of interning each at its event."""
        rng = np.random.default_rng(seed)
        distinct = [random_pure(rng, memory) for _ in range(12)]

        def draw(n):
            return [distinct[int(k)] for k in rng.integers(0, 12, size=n)]

        population = draw(n_live)
        windowed = self.engine(memory)
        single = self.engine(memory)
        sids = list(windowed.intern_all(population))
        single_sids = list(single.intern_all(population))
        for size in windows:
            mutants = draw(size)
            pins = windowed.prefetch(mutants)
            assert windowed.pool.pinned == size
            assert windowed.pool.total == len(sids)
            assert_covered(windowed, self.ROUNDS)
            for mutant in mutants:
                # Each event swaps one SSet for the mutant, as a
                # mutation does: intern first, then release.
                target = int(rng.integers(len(sids)))
                new = windowed.intern(mutant)
                windowed.release(sids[target])
                sids[target] = new
                new = single.intern(mutant)
                single.release(single_sids[target])
                single_sids[target] = new
                assert windowed.misses == single.misses
                assert_covered(windowed, self.ROUNDS)
            windowed.unpin(pins)
            assert windowed.pool.pinned == 0
            windowed.check_consistent(
                [windowed.pool.strategy(s) for s in sids]
            )

    def test_fills_refused_beside_outstanding_pins(self):
        """Windows come one at a time, and inside one only its pinned
        mutants may enter: a second window or a fresh intern while pins
        are out is a driver bug, refused before any fill."""

        def opened(seed):
            rng = np.random.default_rng(seed)
            engine = self.engine(2)
            sids = list(engine.intern_all([random_pure(rng, 2) for _ in range(6)]))
            window = engine.prefetch([random_pure(rng, 2) for _ in range(3)])
            return engine, sids, window, rng

        engine, _, _, rng = opened(4)
        with pytest.raises(SimulationError, match="pin"):
            engine.prefetch([random_pure(rng, 2)])
        engine, _, _, rng = opened(4)
        with pytest.raises(SimulationError, match="missed a mutant"):
            engine.intern(random_pure(rng, 2))
        engine, _, _, rng = opened(4)
        with pytest.raises(SimulationError, match="missed a mutant"):
            engine.intern_all([random_pure(rng, 2)])
        # A pinned mutant enters, counted as a fresh intern would be.
        engine, sids, window, _ = opened(4)
        misses, live = engine.misses, len(engine.pool)
        sids.append(engine.intern(engine.pool.strategy(window[0])))
        assert engine.misses == misses + live + 1
        engine.unpin(window)
        assert engine.pool.pinned == 0
        engine.check_consistent([engine.pool.strategy(s) for s in sids])

    def test_one_call_per_window(self, monkeypatch):
        engine = self.engine(2)
        rng = np.random.default_rng(3)
        engine.intern_all([random_pure(rng, 2) for _ in range(16)])
        calls = spy_kernel(monkeypatch)
        mutants = [random_pure(rng, 2) for _ in range(8)]
        engine.prefetch(mutants)
        live = len(engine.pool)
        # Mutant k meets the live set and the window's mutants up to itself.
        assert calls == [sum(live + k + 1 for k in range(8))]
        assert engine.misses == 16 * 17 // 2  # nothing counted yet

    def test_lazy_engine_refuses(self):
        expected = FitnessEngine(
            memory_steps=1, rounds=5, noise=0.1, expected=True
        )
        assert expected.prefetch_window == 1
        with pytest.raises(SimulationError, match="prefetch"):
            expected.prefetch([UNIVERSE[0]])

    def test_window_rule(self):
        windows = [prefetch_window(m) for m in range(1, 7)]
        assert windows == [32, 16, 8, 4, 1, 1]
        # The engine sizes its pool for a window of pins beside a full
        # population of distinct strategies and one intern in flight.
        config = EvolutionConfig(memory_steps=1, n_ssets=100)
        engine = FitnessEngine.from_config(config)
        assert engine.pool.capacity >= 100 + 1 + prefetch_window(1)

    def test_capture_refuses_outstanding_pins(self):
        config = EvolutionConfig(memory_steps=2, n_ssets=6, seed=1)
        from repro.core import Population

        population = Population.random(config, np.random.default_rng(1))
        engine = FitnessEngine.from_config(config)
        population.bind_engine(engine)
        engine.prefetch([pure(5, 2)])
        with pytest.raises(CheckpointError, match="pin"):
            capture_evaluator(engine, population)


class TestRowSplit:
    """A row above ``_FILL_ENTRIES`` view states fills in several calls."""

    @staticmethod
    def live_engine(memory, n_live, rounds, seed=0):
        rng = np.random.default_rng(seed)
        engine = FitnessEngine(memory_steps=memory, rounds=rounds)
        engine.intern_all([random_pure(rng, memory) for _ in range(n_live)])
        return engine, random_pure(rng, memory)

    @pytest.mark.parametrize("budget_pairs", [1, 5, 16])
    def test_values_match_the_unsplit_fill(self, monkeypatch, budget_pairs):
        unsplit, mutant = self.live_engine(3, 40, 30)
        unsplit_sid = unsplit.intern(mutant)
        monkeypatch.setattr(
            engine_module, "_FILL_ENTRIES", budget_pairs * 4**3
        )
        calls = spy_kernel(monkeypatch)
        split, mutant = self.live_engine(3, 40, 30)
        del calls[:]
        sid = split.intern(mutant)
        assert calls == [budget_pairs] * (41 // budget_pairs) + (
            [41 % budget_pairs] if 41 % budget_pairs else []
        )
        assert split.misses == unsplit.misses
        live = split.pool.ordered_sids()
        assert np.array_equal(live, unsplit.pool.ordered_sids())
        for got, want in (
            (split.paymat[sid, live], unsplit.paymat[unsplit_sid, live]),
            (split.paymat[live, sid], unsplit.paymat[live, unsplit_sid]),
        ):
            assert np.array_equal(got, want)
        # A window splits the same way.
        pins = split.prefetch([random_pure(np.random.default_rng(9), 3)])
        assert max(calls) <= budget_pairs
        assert_covered(split, 30)
        split.unpin(pins)

    def test_one_intern_is_bounded(self, monkeypatch):
        """One memory-6 intern against 128 live strategies keeps its
        kernel temporaries within a fixed multiple of the budget; handed
        the kernel whole, the same row peaks above it."""
        bound = 40 * engine_module._FILL_ENTRIES  # bytes

        def peak():
            rng = np.random.default_rng(0)
            engine = FitnessEngine(memory_steps=6, rounds=4)
            # Only the measured row is filled: the live strategies enter
            # the pool without their own rows.
            for _ in range(128):
                engine.pool.acquire(random_pure(rng, 6))
            engine._sync_capacity()
            mutant = random_pure(rng, 6)
            tracemalloc.start()
            try:
                engine.intern(mutant)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() <= bound
        monkeypatch.setattr(engine_module, "_FILL_ENTRIES", 1 << 30)
        assert peak() > bound


# -- the event driver ------------------------------------------------------


class ResumeSink:
    """Keeps every snapshot (meta through a JSON round trip, as the file
    format does) and resumes from the one at ``resume_at``, if set."""

    def __init__(self, resume_at=None):
        self.saved = []
        self.resume_at = resume_at

    def save(self, unit, generation, meta, arrays):
        meta = json.loads(json.dumps(meta))
        arrays = {k: np.array(v) for k, v in arrays.items()}
        self.saved.append((generation, meta, arrays))

    def load_latest(self, unit):
        if self.resume_at is None:
            return None
        _, meta, arrays = self.resume_at
        return meta, arrays


def outcome(result):
    return (
        result.events,
        [(s.generation, s.strategy_matrix.tobytes(), s.dominant_share)
         for s in result.snapshots],
        result.n_pc_events,
        result.n_adoptions,
        result.n_mutations,
        result.generations_run,
        result.cache_hits,
        result.cache_misses,
        [s.key() for s in result.population.strategies()],
    )


@st.composite
def event_configs(draw):
    memory = draw(st.integers(1, 4))
    n_ssets = draw(st.sampled_from([5, 7, 9, 12, 15]))
    structure = draw(st.sampled_from(
        ["well-mixed", "ring:k=2", "ring:k=4", "scalefree:m=1"]
    ))
    generations = draw(st.integers(50, 600))
    return EvolutionConfig(
        memory_steps=memory,
        n_ssets=n_ssets,
        generations=generations,
        rounds=draw(st.integers(1, 24)),
        mutation_rate=draw(st.floats(0.0, 0.5)),
        pc_rate=draw(st.floats(0.05, 1.0)),
        structure=structure,
        seed=draw(st.integers(0, 2**31)),
        record_every=draw(st.sampled_from([0, 1, 13, 50])),
        checkpoint_every=draw(st.sampled_from([0, 7, 40, 128])),
        record_events=True,
    )


class TestEventDifferential:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(config=event_configs(), data=st.data())
    def test_event_equals_serial(self, config, data):
        """Generated configs: events, snapshots and every counter of the
        event driver equal :func:`run_serial`'s with windows of mutants
        pinned and prefetched, checkpoints captured (never with a pin
        outstanding) and a resume from one of them."""
        serial_sink, event_sink = ResumeSink(), ResumeSink()
        with checkpoint_scope(serial_sink):
            serial = run_serial(config)
        with checkpoint_scope(event_sink):
            event = run_event_driven(config)
        assert outcome(event) == outcome(serial)
        assert [g for g, _, _ in event_sink.saved] == [
            g for g, _, _ in serial_sink.saved
        ]
        if event_sink.saved:
            snapshot = data.draw(st.sampled_from(event_sink.saved))
            with checkpoint_scope(ResumeSink(resume_at=snapshot)):
                resumed = run_event_driven(config)
            assert resumed.resumed_from_generation == snapshot[0]
            assert outcome(resumed) == outcome(serial)

    def test_windows_open_and_close_in_each_batch(self, monkeypatch):
        """Every window the driver opens it closes before its batch ends,
        in one prefetch call per window of mutants."""
        config = EvolutionConfig(
            memory_steps=2, n_ssets=12, generations=3000, rounds=10,
            mutation_rate=0.3, seed=11, checkpoint_every=256,
        )
        opened: list[int] = []
        real_prefetch = FitnessEngine.prefetch
        real_unpin = FitnessEngine.unpin

        def prefetch(self, strategies):
            assert self.pool.pinned == 0  # the window before has closed
            opened.append(len(strategies))
            return real_prefetch(self, strategies)

        def unpin(self, sids):
            real_unpin(self, sids)
            assert self.pool.pinned == 0

        monkeypatch.setattr(FitnessEngine, "prefetch", prefetch)
        monkeypatch.setattr(FitnessEngine, "unpin", unpin)
        with checkpoint_scope(ResumeSink()):
            result = run_event_driven(config)
        window = prefetch_window(2)
        assert sum(opened) == result.n_mutations
        assert max(opened) == window
        # Only a batch's last window is short; batches end at every
        # checkpoint multiple.
        assert sum(n < window for n in opened) <= -(-3000 // 256)
        assert result.cache_misses == run_serial(config).cache_misses
