"""The event driver's per-batch pre-draw of Nature decisions.

:func:`run_event_driven` draws each batch's PC selections and mutants in
one call per stream (:class:`repro.core.evolution._BatchDecisions`),
decoding the raw ``pc`` and ``mutation`` streams through
:mod:`repro.ensemble.rawstream` where a decoder exists and falling back to
the scalar :class:`~repro.core.nature.NatureAgent` calls where none does.
Either way the run must stay bit-identical to :func:`run_serial`, and the
Nature Agent's stream states at every batch and checkpoint boundary must
equal the serial driver's, buffered half-word included.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import EvolutionConfig, Population
from repro.core.evolution import (
    _PREDRAW_BYTES,
    _batch_cap,
    run_event_driven,
    run_serial,
)
from repro.core.runstate import (
    checkpoint_scope,
    generator_state,
    restore_generator,
)
from repro.ensemble import rawstream
from repro.errors import ConfigurationError
from repro.structure import InteractionModel, WellMixed, base


class MemorySink:
    """Checkpoint sink keeping every snapshot, meta through a JSON round
    trip as the file format does."""

    def __init__(self):
        self.saved = {}

    def save(self, unit, generation, meta, arrays):
        meta = json.loads(json.dumps(meta))
        self.saved.setdefault(unit, []).append((generation, meta, arrays))

    def load_latest(self, unit):
        return None  # every run here starts fresh


def assert_same_trajectory(a, b):
    assert a.events == b.events
    assert [s.generation for s in a.snapshots] == [
        s.generation for s in b.snapshots
    ]
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.strategy_matrix, sb.strategy_matrix)
    for field in ("n_pc_events", "n_adoptions", "n_mutations",
                  "cache_hits", "cache_misses"):
        assert getattr(a, field) == getattr(b, field), field
    assert [s.key() for s in a.population.strategies()] == [
        s.key() for s in b.population.strategies()
    ]

COMMON = dict(n_ssets=12, generations=600, rounds=20, record_every=50,
              record_events=True)

STAR = "predraw-test-star"


class Star(InteractionModel):
    """A custom model outside the well-mixed and graph families: SSet 0
    neighbors everyone, every other SSet neighbors SSet 0 only."""

    name = STAR

    def spec(self) -> str:
        return STAR

    def neighbors(self, sset_id):
        self._check_id(sset_id)
        if sset_id == 0:
            return np.arange(1, self.n_ssets, dtype=np.int64)
        return np.array([0], dtype=np.int64)

    def select_pair(self, rng):
        learner = int(rng.integers(self.n_ssets))
        neighbors = self.neighbors(learner)
        teacher = int(neighbors[int(rng.integers(len(neighbors)))])
        return teacher, learner

    def fitness_of(self, population, sset_id, evaluator,
                   include_self_play=False):
        # The well-mixed histogram sum over the whole population keeps the
        # model evaluator-agnostic; only the pair draw is custom here.
        return WellMixed(self.n_ssets).fitness_of(
            population, sset_id, evaluator, include_self_play
        )


@pytest.fixture
def star_registered(monkeypatch):
    monkeypatch.setitem(
        base._REGISTRY, STAR, (lambda params, n: Star(n), "(test only)")
    )


@pytest.fixture(params=["raw", "scalar"])
def decoders(request, monkeypatch):
    """Run each test with the raw decoders and with the scalar fallbacks
    rawstream picks when its self-check fails."""
    monkeypatch.setattr(rawstream, "_RAW_OK", request.param == "raw")
    return request.param


#: (label, config kwargs): the pre-draw's decoder families and fallbacks.
CASES = [
    ("well-mixed-m2", dict(memory_steps=2, seed=3, **COMMON)),
    ("well-mixed-m1-odd-n",
     dict(memory_steps=1, seed=4, **{**COMMON, "n_ssets": 11})),
    ("ring-m2", dict(memory_steps=2, structure="ring:k=2", seed=5, **COMMON)),
    ("scalefree-leaves",
     dict(memory_steps=1, structure="scalefree:m=1,seed=3", seed=6,
          **COMMON)),
    ("mixed-expected",
     dict(memory_steps=1, mixed_strategies=True, expected_fitness=True,
          noise=0.05, seed=7, **COMMON)),
    ("custom-structure", dict(memory_steps=1, structure=STAR, seed=8, **COMMON)),
]


def nature_states(sink):
    ((unit, entries),) = sink.saved.items()
    return {generation: meta["nature"] for generation, meta, _ in entries}


@pytest.mark.usefixtures("star_registered")
@pytest.mark.parametrize("label,kwargs", CASES, ids=[c[0] for c in CASES])
def test_event_run_matches_serial(decoders, label, kwargs):
    config = EvolutionConfig(**kwargs)
    serial = run_serial(config)
    event = run_event_driven(config)
    assert_same_trajectory(serial, event)
    # Batches cut short (and cut at odd places) draw the same decisions.
    assert_same_trajectory(serial, run_event_driven(config, batch_size=37))


@pytest.mark.usefixtures("star_registered")
@pytest.mark.parametrize("label,kwargs", CASES, ids=[c[0] for c in CASES])
def test_stream_states_match_serial_at_every_checkpoint(
    decoders, label, kwargs
):
    config = EvolutionConfig(**kwargs).with_updates(checkpoint_every=40)
    sinks = {}
    for driver in (run_serial, run_event_driven):
        sinks[driver] = MemorySink()
        with checkpoint_scope(sinks[driver]):
            driver(config)
    serial = nature_states(sinks[run_serial])
    event = nature_states(sinks[run_event_driven])
    assert sorted(serial) == list(range(40, config.generations, 40))
    assert event == serial


def test_boundaries_cover_carried_and_clear_half_words():
    """Over the checkpoints above, some batch ends on a carried half-word
    (``has_uint32 = 1``) and some on none — the fold must reproduce both,
    on both decoded streams."""
    config = EvolutionConfig(**CASES[0][1]).with_updates(checkpoint_every=40)
    sink = MemorySink()
    with checkpoint_scope(sink):
        run_event_driven(config)
    for stream in ("pc", "mutation"):
        carried = {
            state[stream]["has_uint32"]
            for state in nature_states(sink).values()
        }
        assert carried == {0, 1}, stream


def test_spent_half_word_is_not_stream_state():
    """NumPy leaves a spent half-word in ``uinteger`` but never reads it
    again, so the encoded state writes 0 there: two generators at the same
    position encode alike whichever draws got them there, and either
    encoding resumes the same stream."""
    halves = np.random.Generator(np.random.Philox(3))
    words = np.random.Generator(np.random.Philox(3))
    halves.integers(5, size=2, dtype=np.uint32)  # both halves of a word
    words.bit_generator.random_raw(1)
    assert halves.bit_generator.state["uinteger"] != 0
    encoded = generator_state(halves)
    assert encoded == generator_state(words)
    assert encoded["uinteger"] == 0
    restored = np.random.Generator(np.random.Philox(0))
    restore_generator(restored, encoded)
    assert np.array_equal(restored.integers(7, size=9), halves.integers(7, size=9))


def test_event_driver_draws_each_batch_once(monkeypatch):
    """One decoder draw per stream and batch, through the raw decoders
    (the per-event NatureAgent calls are gone from the well-mixed path)."""
    monkeypatch.setattr(rawstream, "_RAW_OK", True)
    calls = []
    for cls in (rawstream._RawPCDecoder, rawstream._RawMutationDecoder):
        draw = cls.draw
        monkeypatch.setattr(
            cls, "draw",
            lambda self, m, _draw=draw, _name=cls.__name__: (
                calls.append(_name), _draw(self, m))[1],
        )
    from repro.core.nature import NatureAgent

    def refuse(*args, **kwargs):
        raise AssertionError("per-event NatureAgent call")

    monkeypatch.setattr(NatureAgent, "pc_selection", refuse)
    monkeypatch.setattr(NatureAgent, "mutation_selection", refuse)
    monkeypatch.setattr(NatureAgent, "decide_learning", refuse)
    config = EvolutionConfig(memory_steps=2, n_ssets=16, generations=1000,
                             seed=9)
    run_event_driven(config, batch_size=300)
    # 1000 generations in batches of 300: four batches.
    assert calls == ["_RawPCDecoder", "_RawMutationDecoder"] * 4


@pytest.mark.usefixtures("star_registered")
@pytest.mark.parametrize("structure", ["well-mixed", "ring:k=2", STAR])
def test_population_of_another_size_is_refused(structure):
    """A population whose size is not the structure's fails as the serial
    driver's first PC event does; the event driver refuses it before any
    event applies."""
    config = EvolutionConfig(memory_steps=1, n_ssets=12, generations=50,
                             structure=structure, seed=13)

    def other():
        return Population.random(config.with_updates(n_ssets=10),
                                 np.random.default_rng(0))

    with pytest.raises(ConfigurationError, match="bound to 12 SSets"):
        run_serial(config, other())
    population = other()
    with pytest.raises(ConfigurationError, match="bound to 12 SSets"):
        run_event_driven(config, population)
    assert [s.key() for s in population.strategies()] == [
        s.key() for s in other().strategies()
    ]


class TestBatchCap:
    def test_memory_six_batches_stay_small(self):
        config = EvolutionConfig(memory_steps=6, n_ssets=8)
        cap = _batch_cap(config)
        expected_bytes = cap * (
            config.pc_rate * 24 + config.mutation_rate * (8 + 4**6)
        )
        assert expected_bytes <= _PREDRAW_BYTES
        assert cap < 1 << 16

    def test_paper_memory_two_keeps_the_default_batch(self):
        assert _batch_cap(EvolutionConfig(memory_steps=2)) > 1 << 16

    def test_no_events_has_no_cap(self):
        config = EvolutionConfig(pc_rate=0.0, mutation_rate=0.0)
        assert _batch_cap(config) >= 1 << 16

    def test_capped_memory_six_run_matches_serial(self, monkeypatch):
        from repro.core.nature import NatureAgent

        sizes = []
        flags = NatureAgent.batch_event_flags

        def recording(self, n_generations):
            sizes.append(n_generations)
            return flags(self, n_generations)

        monkeypatch.setattr(NatureAgent, "batch_event_flags", recording)
        config = EvolutionConfig(memory_steps=6, n_ssets=6, generations=1200,
                                 rounds=8, mutation_rate=0.5, seed=11,
                                 record_events=True)
        cap = _batch_cap(config)
        assert cap < config.generations // 2
        event = run_event_driven(config)
        assert max(sizes) == cap and sum(sizes) == config.generations
        assert_same_trajectory(run_serial(config), event)


@pytest.mark.parametrize("driver", [run_serial, run_event_driven],
                         ids=["serial", "event"])
def test_result_population_comes_back_unbound(driver):
    """A finished result does not pin its run's engine (pool and payoff
    matrix); the population's strategies are all it keeps."""
    config = EvolutionConfig(memory_steps=2, n_ssets=12, generations=300,
                             seed=12)
    result = driver(config)
    assert result.population.engine is None
    result.population.check_invariants()
    assert result.cache_misses > 0
