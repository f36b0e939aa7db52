"""Population container: SSets plus a synchronized strategy histogram.

The histogram is the performance-critical view (fitness is a function of the
strategy multiset only); the SSet list is the identity-preserving view used
by the recorder, the heatmaps, and the parallel decomposition.  When a
:class:`~repro.core.engine.FitnessEngine` is bound, the population also
maintains a per-SSet strategy-id array over the engine's interned pool —
the integer-indexed mirror of the histogram that the dense fitness kernels
consume — kept in sync through the single :meth:`Population.set_strategy`
write path.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .config import EvolutionConfig
from .engine import FitnessEngine
from .payoff_cache import PayoffCache, StrategyHistogram
from .sset import SSet
from .states import num_states
from .strategy import Strategy

__all__ = ["Population"]


class Population:
    """All SSets of a simulation plus the derived strategy histogram."""

    def __init__(self, ssets: list[SSet]):
        if len(ssets) < 1:
            raise ConfigurationError("population needs at least one SSet")
        ids = [s.sset_id for s in ssets]
        if ids != list(range(len(ssets))):
            raise ConfigurationError("SSet ids must be 0..n-1 in order")
        memories = {s.strategy.memory_steps for s in ssets}
        if len(memories) != 1:
            raise ConfigurationError(
                f"all SSets must share memory_steps, got {sorted(memories)}"
            )
        self._ssets = ssets
        self.histogram = StrategyHistogram.from_strategies(
            [s.strategy for s in ssets]
        )
        self._engine: FitnessEngine | None = None
        self._sids: np.ndarray | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def random(
        cls, config: EvolutionConfig, rng: np.random.Generator
    ) -> "Population":
        """Random initial population (paper Fig. 2a: "strategies are randomly
        assigned to all SSets at the start")."""
        # One draw for all the tables: the generator fills it in C order,
        # exactly as one random_pure (random_mixed) call per SSet would — a
        # pure table's 4**n bytes take whole 32-bit words.
        memory = config.memory_steps
        shape = (config.n_ssets, num_states(memory))
        if config.mixed_strategies:
            tables = rng.random(shape)
        else:
            tables = rng.integers(0, 2, size=shape, dtype=np.uint8)
        ssets = [
            SSet(
                sset_id=i,
                strategy=Strategy._trusted(table, memory),
                n_agents=config.agents_per_sset,
            )
            for i, table in enumerate(tables)
        ]
        return cls(ssets)

    @classmethod
    def uniform(
        cls, strategy: Strategy, n_ssets: int, agents_per_sset: int = 1
    ) -> "Population":
        """Homogeneous population (for invasion / resistance studies)."""
        ssets = [
            SSet(sset_id=i, strategy=strategy, n_agents=agents_per_sset)
            for i in range(n_ssets)
        ]
        return cls(ssets)

    @classmethod
    def from_strategies(
        cls, strategies: list[Strategy], agents_per_sset: int = 1
    ) -> "Population":
        """Population with one SSet per given strategy, in order."""
        ssets = [
            SSet(sset_id=i, strategy=s, n_agents=agents_per_sset)
            for i, s in enumerate(strategies)
        ]
        return cls(ssets)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ssets)

    def __getitem__(self, sset_id: int) -> SSet:
        return self._ssets[sset_id]

    @property
    def ssets(self) -> list[SSet]:
        """The SSet records (mutate via :meth:`adopt` / :meth:`mutate`)."""
        return self._ssets

    @property
    def memory_steps(self) -> int:
        return self._ssets[0].strategy.memory_steps

    @property
    def n_agents(self) -> int:
        """Total agent count across SSets."""
        return sum(s.n_agents for s in self._ssets)

    def strategies(self) -> list[Strategy]:
        """Current strategy of every SSet, by SSet id."""
        return [s.strategy for s in self._ssets]

    def strategy_matrix(self) -> np.ndarray:
        """(n_ssets, 4**n) move/probability matrix — the Fig. 2 raster."""
        return np.stack([s.strategy.table for s in self._ssets])

    # -- engine binding -------------------------------------------------------

    @property
    def engine(self) -> FitnessEngine | None:
        """The bound :class:`FitnessEngine`, if any."""
        return self._engine

    @property
    def sids(self) -> np.ndarray:
        """Per-SSet strategy ids over the bound engine's pool."""
        if self._sids is None:
            raise SimulationError(
                "population has no bound FitnessEngine (call bind_engine)"
            )
        return self._sids

    def sid_of(self, sset_id: int) -> int:
        """Interned strategy id of one SSet (engine must be bound)."""
        return int(self.sids[sset_id])

    def bind_engine(self, engine: FitnessEngine | None) -> None:
        """Attach (or detach, with ``None``) a fitness engine.

        Interns every current strategy into the engine's pool, in SSet
        order — the same order the histogram was built in, so the pool's
        insertion order mirrors the histogram's (the expected-fitness
        regime relies on that).  A previously bound engine is simply
        dropped; engines are cheap per-run objects, not shared state.
        """
        if engine is None:
            self._engine = None
            self._sids = None
            return
        self._sids = engine.intern_all([s.strategy for s in self._ssets])
        self._engine = engine

    # -- mutation-preserving updates ------------------------------------------

    def set_strategy(self, sset_id: int, strategy: Strategy) -> None:
        """Replace one SSet's strategy — the per-SSet strategy write path.

        Every strategy write (learning, mutation, manual surgery) must go
        through here or through its bulk form :meth:`reassign`, so the SSet
        list, the derived histogram, and the engine's sid array / refcounts
        cannot desync; :meth:`check_invariants` verifies the pairing.  The
        engine update interns the new strategy *before* releasing the old
        one, matching the histogram's add-then-remove insertion-order
        semantics.
        """
        sset = self._ssets[sset_id]
        old = sset.strategy
        sset.strategy = strategy
        self.histogram.replace(old, strategy)
        if self._engine is not None:
            assert self._sids is not None
            new_sid = self._engine.intern(strategy)
            old_sid = int(self._sids[sset_id])
            self._sids[sset_id] = new_sid
            self._engine.release(old_sid)

    def reassign(self, strategies: list[Strategy], order: list[int]) -> None:
        """Set every SSet's strategy at once (no engine may be bound).

        The histogram is rebuilt with the strategies inserted in the order
        their SSets take in ``order``, a permutation of the SSet ids: the
        insertion order a run reached one :meth:`set_strategy` at a time.
        """
        if self._engine is not None:
            raise SimulationError(
                "reassign rebuilds the histogram only; unbind the engine"
            )
        for sset, strategy in zip(self._ssets, strategies):
            sset.strategy = strategy
        self.histogram = StrategyHistogram.from_strategies(
            [strategies[i] for i in order]
        )

    def adopt(self, learner_id: int, strategy: Strategy) -> None:
        """Learner SSet adopts a teacher's strategy (histogram kept in sync)."""
        self.set_strategy(learner_id, strategy)
        self._ssets[learner_id].adoptions += 1

    def mutate(self, target_id: int, strategy: Strategy) -> None:
        """Target SSet receives a fresh strategy (histogram kept in sync)."""
        self.set_strategy(target_id, strategy)
        self._ssets[target_id].mutations += 1

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the histogram (and bound engine, if any) matches a fresh
        recount of the SSet list.

        Raises :class:`~repro.errors.SimulationError` on any desync (a write
        bypassed :meth:`set_strategy`).  Cheap enough for tests and
        paranoid callers; not called on the hot path.
        """
        rebuilt = StrategyHistogram.from_strategies(
            [s.strategy for s in self._ssets]
        )
        if rebuilt.counts != self.histogram.counts:
            extra = set(self.histogram.counts) - set(rebuilt.counts)
            missing = set(rebuilt.counts) - set(self.histogram.counts)
            raise SimulationError(
                "population histogram desynced from SSet list "
                f"({len(extra)} stale keys, {len(missing)} missing keys, "
                "counts differ); strategy writes must go through "
                "Population.set_strategy"
            )
        for i, sset in enumerate(self._ssets):
            if sset.sset_id != i:
                raise SimulationError(
                    f"SSet at index {i} carries id {sset.sset_id}"
                )
        if self._engine is not None:
            assert self._sids is not None
            for i, sset in enumerate(self._ssets):
                pooled = self._engine.pool.strategy(int(self._sids[i]))
                if pooled.key() != sset.strategy.key():
                    raise SimulationError(
                        f"engine sid array desynced at SSet {i}: pool slot "
                        f"{int(self._sids[i])} holds a different strategy"
                    )
            self._engine.check_consistent([s.strategy for s in self._ssets])

    # -- fitness ---------------------------------------------------------------

    def fitness_of(
        self,
        sset_id: int,
        evaluator: "PayoffCache | FitnessEngine",
        include_self_play: bool = False,
    ) -> float:
        """Fitness of one SSet against the whole population.

        ``evaluator`` is either the legacy :class:`PayoffCache` (histogram
        fitness) or a bound :class:`FitnessEngine` (dense matrix fitness);
        both produce bit-identical values for supported configurations.
        """
        if isinstance(evaluator, FitnessEngine):
            if evaluator is not self._engine:
                raise SimulationError(
                    "fitness requested through a FitnessEngine the "
                    "population is not bound to (call bind_engine first)"
                )
            return evaluator.fitness_well_mixed(
                self.sid_of(sset_id), include_self_play
            )
        return self.histogram.fitness_of(
            self._ssets[sset_id].strategy, evaluator, include_self_play
        )

    def all_fitness(
        self,
        evaluator: "PayoffCache | FitnessEngine",
        include_self_play: bool = False,
    ) -> np.ndarray:
        """Fitness vector over all SSets (the paper's full per-generation
        evaluation; only needed for recording, since learning uses just the
        two selected SSets)."""
        # Distinct strategies share fitness: evaluate once per distinct key.
        by_key: dict[bytes, float] = {}
        out = np.empty(len(self._ssets), dtype=np.float64)
        for i, sset in enumerate(self._ssets):
            key = sset.strategy.key()
            if key not in by_key:
                by_key[key] = self.fitness_of(i, evaluator, include_self_play)
            out[i] = by_key[key]
            sset.fitness = out[i]
        return out

    # -- summaries ---------------------------------------------------------------

    def dominant_share(self) -> tuple[Strategy, float]:
        """Most common strategy and its fraction of SSets (Fig. 2's 85%)."""
        (strategy, count), = self.histogram.most_common(1)
        return strategy, count / len(self._ssets)

    def share_of(self, strategy: Strategy) -> float:
        """Fraction of SSets currently holding exactly ``strategy``."""
        return self.histogram.counts.get(strategy.key(), 0) / len(self._ssets)
