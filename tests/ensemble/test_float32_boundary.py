"""Float32-paymat eligibility boundary.

The shared ensemble engine stores the pair matrix at float32 when game
totals fit float32's exact-integer range — ``rounds * max|payoff| <
2**24`` — and float64 otherwise.  For the paper payoff [3, 0, 4, 1]
(``max|payoff| = 4``) the boundary sits at ``rounds = 4_194_304``: one
round less stays compact, the boundary itself must widen.  Either side,
trajectories are bit-identical to the same-seed serial event run (sums
are accumulated in float64 in both layouts).
"""

from __future__ import annotations

import numpy as np

from repro.core import EvolutionConfig
from repro.core.evolution import run_event_driven
from repro.ensemble import run_ensemble
from repro.ensemble.engine import EnsembleEngine

#: rounds * 4 == 2**24 exactly at this value — the first float64 point.
BOUNDARY_ROUNDS = 4_194_304


class TestDtypeSelection:
    def test_below_boundary_is_float32(self):
        engine = EnsembleEngine(memory_steps=1, rounds=BOUNDARY_ROUNDS - 1)
        assert engine._store.dtype == np.float32

    def test_at_boundary_is_float64(self):
        engine = EnsembleEngine(memory_steps=1, rounds=BOUNDARY_ROUNDS)
        assert engine._store.dtype == np.float64

    def test_small_rounds_is_float32(self):
        engine = EnsembleEngine(memory_steps=1, rounds=200)
        assert engine._store.dtype == np.float32


class TestBoundaryParity:
    """Bit-identical to the serial event run on either side of 2**24."""

    def check(self, rounds: int) -> None:
        configs = [
            EvolutionConfig(
                memory_steps=1, n_ssets=8, generations=300, rounds=rounds,
                seed=4200 + i,
            )
            for i in range(3)
        ]
        for config, result in zip(configs, run_ensemble(configs)):
            serial = run_event_driven(config)
            assert result.events == serial.events
            assert result.n_pc_events == serial.n_pc_events
            assert result.n_adoptions == serial.n_adoptions
            assert result.n_mutations == serial.n_mutations
            assert np.array_equal(
                result.population.strategy_matrix(),
                serial.population.strategy_matrix(),
            )

    def test_last_float32_rounds(self):
        self.check(BOUNDARY_ROUNDS - 1)

    def test_first_float64_rounds(self):
        self.check(BOUNDARY_ROUNDS)
