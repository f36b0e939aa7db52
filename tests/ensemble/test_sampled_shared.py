"""Pure noisy sampled lanes on the ensemble's shared path.

Pure ``sampled_batched`` groups with ``noise > 0`` on well-mixed
populations run over the shared engine's strategy pool (no pair matrix):
each wave's games are built as arrays in every lane's histogram insertion
order, kept as per-SSet insertion stamps, and every lane's flips are drawn
in one pass.  The contract is the per-lane evaluator path's: every lane is
bit-identical to its same-seed serial ``sampled_batched`` run.  Pinned
here:

* the insertion stamps reproduce ``StrategyHistogram`` order through any
  sequence of adoptions and mutations, and a lane seeded from a
  population whose histogram order is not its SSet order keeps its
  serial trajectory;
* the wave's flip draw gives each lane the flips and the stream position
  of its own per-event draw, top-ups included;
* snapshots of the other layout are refused when pinned (``repro
  resume``, ``evolve --resume-from``) and skipped (fresh start) through a
  checkpoint directory.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import cli
from repro.api import run_sweep
from repro.core import EvolutionConfig
from repro.core.engine import (
    _draw_flips,
    _flip_codes,
    _insertion_runs,
    _scatter_flips,
)
from repro.core.evolution import run_event_driven
from repro.core.payoff import PayoffMatrix
from repro.core.population import Population
from repro.core.runstate import checkpoint_scope, generator_state
from repro.core.strategy import Strategy, random_pure
from repro.ensemble import run_ensemble, run_ensemble_detailed
from repro.ensemble.driver import (
    _group_mode,
    _insertion_stamps,
    _run_group_generic,
    _SampledLanes,
)
from repro.io.run_checkpoint import RunCheckpointer, load_run_checkpoint
from repro.rng import make_rng


def pure_configs(n=4, **overrides):
    base = dict(
        memory_steps=2, n_ssets=8, generations=600, rounds=16, noise=0.05,
        sampled_batched=True,
    )
    base.update(overrides)
    return [EvolutionConfig(seed=900 + i, **base) for i in range(n)]


def assert_identical(a, b):
    assert a.events == b.events
    assert (a.n_pc_events, a.n_adoptions, a.n_mutations) == (
        b.n_pc_events, b.n_adoptions, b.n_mutations,
    )
    assert a.generations_run == b.generations_run
    assert np.array_equal(
        a.population.strategy_matrix(), b.population.strategy_matrix()
    )
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert np.array_equal(sa.strategy_matrix, sb.strategy_matrix)


class TestRouting:
    def test_pure_well_mixed_sampled_groups_run_shared(self):
        assert _group_mode(pure_configs(1)[0]) == "shared"
        _, metas = run_ensemble_detailed(pure_configs(2, generations=50))
        stats = metas[0]["shared_engine"]
        assert stats["fills"] == 0
        assert stats["peak_paymat_bytes"] == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mixed_strategies=True),
            dict(noise=0.0, mixed_strategies=True),
            dict(n_ssets=13, structure="ring:k=4"),
        ],
        ids=["mixed-noisy", "mixed", "ring"],
    )
    def test_other_sampled_groups_run_generic(self, overrides):
        assert _group_mode(pure_configs(1, **overrides)[0]) == "generic"


# -- insertion order ------------------------------------------------------------


def memory_one(index: int) -> Strategy:
    """One of the 16 pure memory-1 strategies, by its table bits."""
    table = np.array([(index >> bit) & 1 for bit in range(4)], dtype=np.uint8)
    return Strategy(table, memory_steps=1)


def histogram_view(sids, stamps, strategy_of):
    """The lane's (key, count) list in stamp order."""
    _, distinct, counts = _insertion_runs(sids[None, :], stamps[None, :])
    return [
        (strategy_of[int(sid)].key(), int(count))
        for sid, count in zip(distinct, counts)
    ]


class TestInsertionStamps:
    """The stamps list a lane's strategies in histogram insertion order."""

    @given(
        initial=st.lists(st.integers(0, 15), min_size=2, max_size=8),
        steps=st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 63), st.integers(0, 63),
                st.integers(0, 15),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_adopt_and_mutate_sequences(self, initial, steps):
        population = Population.from_strategies(
            [memory_one(i) for i in initial]
        )
        n = len(initial)
        # One memory-1 lane: sids are the table indices, so strategies
        # collide, leave and re-enter all the time.
        strategy_of = {i: memory_one(i) for i in range(16)}
        sids = np.array(initial, dtype=np.int64)
        lanes = _SampledLanes(
            pure_configs(1)[0], [None], _insertion_stamps([population])
        )
        lane = np.zeros(1, dtype=np.int64)
        assert histogram_view(sids, lanes.stamps[0], strategy_of) == list(
            population.histogram.counts.items()
        )
        for is_adoption, a, b, mutant in steps:
            if is_adoption:
                teacher, learner = a % n, b % n
                if teacher == learner:
                    continue
                lanes.adopt(lane, np.array([learner]), np.array([teacher]))
                sids[learner] = sids[teacher]
                population.adopt(learner, population[teacher].strategy)
            else:
                target = a % n
                lanes.mutate(
                    sids[None, :], lane, np.array([target]),
                    np.array([mutant]),
                )
                sids[target] = mutant
                population.mutate(target, memory_one(mutant))
            assert histogram_view(sids, lanes.stamps[0], strategy_of) == list(
                population.histogram.counts.items()
            )


def edited_population(seed: int, n_ssets: int = 8) -> Population:
    """A memory-2 population whose histogram order is not its SSet order:
    built from distinct strategies, then edited so that strategies leave
    and others move to the end."""
    rng = make_rng(seed)
    population = Population.from_strategies(
        [random_pure(rng, 2) for _ in range(n_ssets)]
    )
    population.adopt(0, population[5].strategy)
    population.mutate(3, random_pure(rng, 2))
    population.adopt(6, population[1].strategy)
    population.mutate(1, random_pure(rng, 2))
    first_seen = list(
        dict.fromkeys(s.strategy.key() for s in population.ssets)
    )
    assert list(population.histogram.counts) != first_seen
    return population


class TestHistogramOrderParity:
    """Lanes started from edited populations keep their serial runs."""

    def test_lanes_match_serial_runs(self):
        configs = pure_configs(4, generations=800)
        populations = [edited_population(50 + i) for i in range(4)]
        results = run_ensemble(configs, populations)
        for i, (config, result) in enumerate(zip(configs, results)):
            serial = run_event_driven(config, edited_population(50 + i))
            assert_identical(result, serial)
            # The written-back population ends in the serial order too, so
            # a follow-on sampled run from it stays on the same trajectory.
            assert list(result.population.histogram.counts) == list(
                serial.population.histogram.counts
            )


class TestLaneParity:
    """Every lane == its same-seed serial event run."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(include_self_play=True),
            dict(allow_downhill_learning=False),
            dict(memory_steps=1, n_ssets=16, noise=0.3),
            dict(memory_steps=3, rounds=40, noise=0.01),
            dict(
                payoff=PayoffMatrix(
                    reward=3.1, sucker=0.3, temptation=4.7, punishment=1.1
                )
            ),
        ],
        ids=["default", "self-play", "uphill", "m1-noisy", "m3", "fractional"],
    )
    def test_lanes_match_serial_runs(self, overrides):
        configs = pure_configs(4, **overrides)
        for config, result in zip(configs, run_ensemble(configs)):
            assert_identical(result, run_event_driven(config))

    def test_cache_counters_match_serial_runs(self):
        configs = pure_configs(3, generations=300)
        for config, result in zip(configs, run_ensemble(configs)):
            serial = run_event_driven(config)
            assert (result.cache_hits, result.cache_misses) == (
                serial.cache_hits, serial.cache_misses,
            )


# -- the wave's flip draw -------------------------------------------------------


def reference_draw(rng, rounds, n_games, noise):
    """One event's pure flip draw, as the per-event loop made it before
    waves were drawn in one pass (kept frozen here as the reference)."""
    with np.errstate(divide="ignore"):
        log_keep = float(np.log1p(-noise))
    moves = rounds * 2 * n_games
    chunks = []
    covered = 0
    while covered < moves:
        expected = (moves - covered) * noise
        budget = int(expected + 3.0 * math.sqrt(expected)) + 2
        gaps = np.log1p(-rng.random(budget))
        gaps /= log_keep
        np.minimum(gaps, moves, out=gaps)
        flips = gaps.astype(np.int64)
        flips += 1
        flips[0] += covered - 1
        np.cumsum(flips, out=flips)
        covered = int(flips[-1]) + 1
        chunks.append(flips)
    flips = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return flips[: np.searchsorted(flips, moves)]


def topped_up(seed, rounds, n_games, noise):
    """Whether the reference draw needed more than its first chunk."""
    rng = make_rng(seed)
    reference_draw(rng, rounds, n_games, noise)
    first = make_rng(seed)
    moves = rounds * 2 * n_games
    expected = moves * noise
    first.random(int(expected + 3.0 * math.sqrt(expected)) + 2)
    return generator_state(rng) != generator_state(first)


def check_wave(seeds, counts, rounds, noise):
    rngs = [make_rng(s) for s in seeds]
    with np.errstate(divide="ignore"):
        log_keep = float(np.log1p(-noise))
    flips, sizes = _draw_flips(
        rngs, [rounds * 2 * c for c in counts], noise, log_keep
    )
    assert sizes.sum() == flips.shape[0]
    lanes = np.split(flips, np.cumsum(sizes)[:-1])
    references = []
    for seed, count, rng, got in zip(seeds, counts, rngs, lanes):
        reference = make_rng(seed)
        want = reference_draw(reference, rounds, count, noise)
        # Positions past the last move are left in, for the scatter.
        assert np.array_equal(got[: want.shape[0]], want)
        assert (got[want.shape[0]:] >= rounds * 2 * count).all()
        assert generator_state(rng) == generator_state(reference)
        references.append(want)
    assert np.array_equal(
        _scatter_flips(rounds, flips, sizes, counts),
        _flip_codes(rounds, references, counts),
    )


class TestWaveDraw:
    """One pass over a wave's lanes == each lane's own per-event draw."""

    @pytest.mark.parametrize("noise", [1e-6, 0.01, 0.3, 1.0])
    @given(
        seed=st.integers(0, 2**32),
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=40),
        rounds=st.sampled_from([1, 7, 200]),
    )
    @settings(max_examples=25, deadline=None)
    def test_lanes_get_their_own_flips(self, noise, seed, counts, rounds):
        seeds = [seed + i for i in range(len(counts))]
        check_wave(seeds, counts, rounds, noise)

    def test_wave_mixing_top_up_lanes(self):
        # Seed 687 draws more than its first chunk's flips for a
        # 200-round, 13-game event at noise 0.01; its wave-mates do not.
        rounds, noise = 200, 0.01
        seeds = [3, 687, 11, 687, 5]
        counts = [13, 13, 40, 13, 1]
        needs = [topped_up(s, rounds, c, noise) for s, c in zip(seeds, counts)]
        assert needs == [False, True, False, True, False]
        check_wave(seeds, counts, rounds, noise)


# -- snapshots of the other layout ---------------------------------------------

SMALL = dict(
    memory_steps=2, n_ssets=8, generations=500, rounds=16, seed=11,
    noise=0.05, sampled_batched=True, checkpoint_every=200,
)


def generic_layout_unit(root, configs):
    """Snapshots of ``configs`` in the per-lane evaluator layout, as a
    build that ran pure sampled groups on the generic path wrote them."""
    with checkpoint_scope(RunCheckpointer(root)):
        _run_group_generic(configs, [None] * len(configs), 1 << 16)
    (unit_dir,) = root.glob("unit-*")
    for snapshot in unit_dir.glob("gen-*"):
        meta, _ = load_run_checkpoint(snapshot)
        assert meta["mode"] == "generic"
    return unit_dir


class TestOtherLayoutSnapshots:
    def configs(self):
        return [
            EvolutionConfig(**dict(SMALL, seed=11 + i)) for i in range(2)
        ]

    def test_resume_refuses_it(self, tmp_path, capsys):
        unit_dir = generic_layout_unit(tmp_path / "ckpt", self.configs())
        assert cli(["resume", str(unit_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "'generic'" in err and "'shared'" in err

    def test_evolve_resume_from_refuses_it(self, tmp_path, capsys):
        (config,) = self.configs()[:1]
        unit_dir = generic_layout_unit(tmp_path / "ckpt", [config])
        args = [
            "evolve", "--memory", "2", "--ssets", "8", "--generations",
            "500", "--rounds", "16", "--seed", "11", "--checkpoint-every",
            "200", "--noise", "0.05", "--sampled-batched", "--backend",
            "ensemble", "--resume-from", str(unit_dir),
        ]
        assert cli(args) == 2
        err = capsys.readouterr().err
        assert "'generic'" in err and "'shared'" in err

    def test_checkpoint_directory_starts_fresh(self, tmp_path):
        configs = self.configs()
        clean = run_ensemble(configs)
        root = tmp_path / "ckpt"
        generic_layout_unit(root, configs)
        with checkpoint_scope(RunCheckpointer(root)):
            rerun = run_sweep(configs, backend="ensemble")
        for a, b in zip(rerun, clean):
            assert a.resumed_from_generation is None
            assert_identical(a, b)

    def test_own_layout_resumes_bitwise(self, tmp_path, capsys):
        configs = self.configs()
        clean = run_ensemble(configs)
        root = tmp_path / "ckpt"
        with checkpoint_scope(RunCheckpointer(root)):
            run_sweep(configs, backend="ensemble")
        (unit_dir,) = root.glob("unit-*")
        for snapshot in unit_dir.glob("gen-*"):
            meta, arrays = load_run_checkpoint(snapshot)
            assert meta["mode"] == "shared"
            assert "sampled_rng" in meta["lanes"][0]
            assert "l0_stamps" in arrays
        assert cli(["resume", str(unit_dir)]) == 0
        out = capsys.readouterr().out
        assert "resumed-from=400" in out
        with checkpoint_scope(RunCheckpointer(root)):
            resumed = run_sweep(configs, backend="ensemble")
        for a, b in zip(resumed, clean):
            assert a.resumed_from_generation == 400
            assert_identical(a, b)
