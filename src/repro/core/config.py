"""Configuration of the evolutionary simulation (paper Section V.C).

Defaults follow the paper's production parameters: payoff [3,0,4,1],
200 rounds per generation, pairwise-comparison rate 0.1, mutation rate
mu = 0.05, pure strategies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ..errors import ConfigurationError
from ..structure import InteractionModel, build_structure, validate_structure
from .fermi import PAPER_BETA
from .payoff import PAPER_PAYOFF, PayoffMatrix
from .states import MAX_MEMORY_STEPS

__all__ = ["EvolutionConfig", "PAPER_PC_RATE", "PAPER_MUTATION_RATE"]

#: Paper Section V.C: "Strategy evolution across the population was
#: controlled by a pairwise comparison rate of 10%".
PAPER_PC_RATE: float = 0.10
#: Paper Section V.C: "Random mutation ... was set to mu = 0.05".
PAPER_MUTATION_RATE: float = 0.05


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of one evolutionary-game-dynamics run.

    Parameters
    ----------
    memory_steps:
        ``n`` of the memory-*n* strategy model (paper: 1..6).
    n_ssets:
        Number of Strategy Sets in the population.
    generations:
        Number of generations to simulate.
    agents_per_sset:
        Agents per SSet.  Fitness is independent of this (each SSet's agents
        collectively play one game per opponent strategy); it matters for
        decomposition granularity in the parallel framework.
    rounds:
        IPD rounds per generation (paper: 200).
    pc_rate:
        Per-generation probability of a pairwise-comparison learning event.
    mutation_rate:
        Per-generation probability that a random SSet receives a brand-new
        random strategy.
    beta:
        Fermi selection intensity (Eq. 1); finite and ``>= 0``.
    payoff:
        The 2x2 game payoffs.
    noise:
        Trembling-hand execution error probability per move.
    mixed_strategies:
        When true, initial and mutant strategies are mixed (per-state
        defection probabilities) rather than pure.
    include_self_play:
        Include the game against the SSet's own strategy slot in fitness.
    allow_downhill_learning:
        When true, the Fermi rule alone decides adoption (standard in the
        cited literature).  The paper's listing additionally requires the
        teacher to be strictly fitter; ``False`` (default) keeps that gate.
    expected_fitness:
        Evaluate fitness as the exact *expected* game payoff (Markov
        engine) instead of one sampled game.  This is the many-agents-per-
        SSet limit (an SSet's fitness sums its agents' games) and makes
        long noisy runs (the Fig. 2 validation) tractable; it also keeps
        noisy dynamics deterministic given the seed.
    structure:
        Population-structure spec (:mod:`repro.structure`):
        ``"well-mixed"`` (the paper's population, default), ``"complete"``,
        ``"ring:k=4"``, ``"grid"``/``"grid:rows=8,cols=8"``, or
        ``"regular:d=4,seed=7"`` — or a hand-constructed, already-bound
        :class:`~repro.structure.InteractionModel`.  Structured populations
        evaluate fitness over graph neighborhoods and pick PC teachers from
        the learner's neighbors.
    seed:
        Master seed for all random streams.
    record_every:
        Record a population snapshot every this many generations
        (0 = record only the initial and final states).
    engine:
        Use the interned-strategy :class:`~repro.core.engine.FitnessEngine`
        (dense payoff-matrix fitness) when the configuration supports it
        (default).  The engine follows the bit-identical trajectory of the
        legacy :class:`~repro.core.payoff_cache.PayoffCache` path; drivers
        fall back to the legacy cache automatically for regimes the dense
        kernel cannot serve (sampled-stochastic fitness, non-integer
        payoff matrices).  ``False`` forces the legacy reference path.
    record_events:
        Keep per-event :class:`~repro.core.evolution.EventRecord` entries in
        ``EvolutionResult.events`` (default).  Long benchmark/experiment
        runs pass ``False`` so 10^7-generation runs stop accumulating
        millions of record objects; the scalar counters
        (``n_pc_events``/``n_adoptions``/``n_mutations``) are kept either
        way and the trajectory is unaffected.
    engine_pool_cap:
        Bound on the number of distinct strategies the expected-regime
        :class:`~repro.core.engine.StrategyPool` tracks (0 = unbounded, the
        default).  The expected regime *retires* dead strategies instead of
        recycling their slots so reappearances reuse previously evaluated
        payoffs bit-identically; very long deep-memory runs therefore grow
        without bound.  With a cap, once live + retired strategies reach the
        cap the oldest retired slot is recycled (its evaluated payoffs are
        dropped).  Runs whose distinct-strategy count never exceeds the cap
        are bit-identical to uncapped runs; runs that do exceed it may
        re-evaluate reappearing pairs from a different perspective and
        drift by ulps — which is why the cap is opt-in.  The cap applies
        to the expected regime only: deterministic-regime pools recycle at
        zero references already and ignore it.
    sampled_batched:
        Opt in to the batched sampled-stochastic fitness engine
        (:class:`~repro.core.engine.SampledFitnessEngine`): every sampled
        game a pairwise-comparison event needs is evaluated as one
        vectorised program over :func:`repro.core.vectorgame.play_pairs`,
        drawing game noise from a dedicated ``("nature", "sampled")``
        seed stream.  Trajectories are reproducible per seed and every
        ensemble lane is bit-identical to its same-seed serial run, but
        the mode is deliberately *not* bit-identical to the scalar legacy
        sampled path (the draws come from a different stream in a
        different order) — equivalence to legacy is statistical, pinned
        by distribution tests.  Requires a sampled-stochastic
        configuration (``is_stochastic``); it also unlocks the
        ``ensemble`` backend for noisy workloads.
    checkpoint_every:
        Emit a mid-run run-state checkpoint every this many generations
        (0 = never, the default).  Checkpoints capture the full run state
        (population, RNG bit-generator positions, evaluator fill history,
        event log cursor) so an interrupted run resumes **bit-identically**
        — same events, same trajectory, same final population as the
        uninterrupted same-seed run.  Only takes effect when a checkpoint
        sink is installed (:func:`repro.core.runstate.checkpoint_scope`,
        the CLI ``--checkpoint-every``/``--checkpoint-dir`` flags, or
        ``repro serve --checkpoint-dir``); the cadence does not perturb
        the science trajectory.
    """

    memory_steps: int = 1
    n_ssets: int = 64
    generations: int = 10_000
    agents_per_sset: int = 4
    rounds: int = 200
    pc_rate: float = PAPER_PC_RATE
    mutation_rate: float = PAPER_MUTATION_RATE
    beta: float = PAPER_BETA
    payoff: PayoffMatrix = field(default_factory=lambda: PAPER_PAYOFF)
    noise: float = 0.0
    mixed_strategies: bool = False
    include_self_play: bool = False
    allow_downhill_learning: bool = False
    expected_fitness: bool = False
    structure: "str | InteractionModel" = "well-mixed"
    seed: int = 2013
    record_every: int = 0
    engine: bool = True
    record_events: bool = True
    engine_pool_cap: int = 0
    sampled_batched: bool = False
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        # Integer fields first, so the range checks below compare ints and
        # a float or string fails here, naming its field.  NumPy integers
        # are stored as int.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, _coerce_int(name, value))
        if not 1 <= self.memory_steps <= MAX_MEMORY_STEPS:
            raise ConfigurationError(
                f"memory_steps must lie in [1, {MAX_MEMORY_STEPS}] "
                f"(MAX_MEMORY_STEPS), got {self.memory_steps}"
            )
        if self.n_ssets < 2:
            raise ConfigurationError(
                f"n_ssets must be >= 2 (pairwise comparison needs two SSets), "
                f"got {self.n_ssets}"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0 (NumPy seeds are non-negative), got "
                f"{self.seed}"
            )
        if self.generations < 0:
            raise ConfigurationError(
                f"generations must be >= 0, got {self.generations}"
            )
        if self.agents_per_sset < 1:
            raise ConfigurationError(
                f"agents_per_sset must be >= 1, got {self.agents_per_sset}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        for name, value in (
            ("pc_rate", self.pc_rate),
            ("mutation_rate", self.mutation_rate),
            ("noise", self.noise),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
        # Chained so NaN fails too; a NaN beta would never adopt.
        if not 0.0 <= self.beta < math.inf:
            raise ConfigurationError(
                f"beta must be finite and >= 0, got {self.beta}"
            )
        if self.record_every < 0:
            raise ConfigurationError(
                f"record_every must be >= 0, got {self.record_every}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0 (0 = never), got "
                f"{self.checkpoint_every}"
            )
        if self.engine_pool_cap < 0:
            raise ConfigurationError(
                f"engine_pool_cap must be >= 0 (0 = unbounded), got "
                f"{self.engine_pool_cap}"
            )
        if self.sampled_batched and not self.is_stochastic:
            raise ConfigurationError(
                "sampled_batched batches sampled-stochastic games and needs "
                "a sampled regime (noise > 0 or mixed_strategies, without "
                "expected_fitness); this configuration evaluates fitness "
                "deterministically, so there is nothing to sample"
            )
        # Parse + bind eagerly so a bad spec (or one incompatible with
        # n_ssets) fails at construction, not mid-run.
        validate_structure(self.structure, self.n_ssets)

    @property
    def is_well_mixed(self) -> bool:
        """Whether the population is the paper's well-mixed one.

        Goes through the bound model (cached) rather than spec parsing, so
        it also works when ``structure`` is a hand-constructed
        :class:`~repro.structure.InteractionModel` instance.
        """
        return build_structure(self.structure, self.n_ssets).is_well_mixed

    def canonical_structure(self) -> str:
        """The bound structure's canonical spec (checkpoints persist this)."""
        return build_structure(self.structure, self.n_ssets).spec()

    def summary(self) -> str:
        """One-line human description of the science configuration."""
        parts = [
            f"memory={self.memory_steps}",
            f"ssets={self.n_ssets}",
            f"generations={self.generations:,}",
            f"structure={self.canonical_structure()}",
            f"seed={self.seed}",
        ]
        if self.noise > 0.0:
            parts.append(f"noise={self.noise}")
        if self.mixed_strategies:
            parts.append("mixed")
        if self.expected_fitness:
            parts.append("expected-fitness")
        if self.sampled_batched:
            parts.append("sampled-batched")
        if not self.engine:
            parts.append("legacy-cache")
        if self.engine_pool_cap:
            parts.append(f"pool-cap={self.engine_pool_cap}")
        if self.checkpoint_every:
            parts.append(f"checkpoint-every={self.checkpoint_every}")
        return " ".join(parts)

    @property
    def population_size(self) -> int:
        """Total number of agents."""
        return self.n_ssets * self.agents_per_sset

    @property
    def is_stochastic(self) -> bool:
        """True when fitness evaluation consumes random draws.

        Noisy/mixed games sample unless ``expected_fitness`` replaces the
        samples with exact Markov expectations.
        """
        if self.expected_fitness:
            return False
        return self.noise > 0.0 or self.mixed_strategies

    def with_updates(self, **changes: Any) -> "EvolutionConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- dict / JSON round-trip -----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict of every field (``from_dict`` inverts it).

        The payoff matrix becomes a plain dict of its four values (plus
        ``require_dilemma``) and the structure its canonical spec string —
        including hand-constructed :class:`~repro.structure.InteractionModel`
        instances, which serialise as their ``spec()``.  The dict is the
        canonical wire form used by job specs
        (:mod:`repro.service.jobspec`) and result artifacts.
        """
        data: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "payoff":
                value = {
                    "reward": value.reward,
                    "sucker": value.sucker,
                    "temptation": value.temptation,
                    "punishment": value.punishment,
                    "require_dilemma": value.require_dilemma,
                }
            elif f.name == "structure":
                value = self.canonical_structure()
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvolutionConfig":
        """Build a config from :meth:`to_dict` output (strict validation).

        Unknown keys and wrong-typed values are rejected with a
        :class:`~repro.errors.ConfigurationError` that names the offending
        field; omitted fields take their defaults, so hand-written partial
        dicts (``{"memory_steps": 2, "seed": 7}``) work too.  ``payoff``
        accepts the :meth:`to_dict` mapping or a 4-item ``[R, S, T, P]``
        list; ``structure`` must be a spec string (instances do not
        round-trip through JSON).

        Dicts written by earlier releases carry retired keys, which are
        accepted with any value those releases accepted and dropped:
        ``"array_backend": "numpy"``, and ``paymat_block`` (0 or a power
        of two >= 4).  Any other value is rejected.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"EvolutionConfig.from_dict needs a mapping, got "
                f"{type(data).__name__}"
            )
        data = dict(data)
        retired = data.pop("array_backend", "numpy")
        if retired != "numpy":
            raise ConfigurationError(
                "field 'array_backend' is retired (the engines run on NumPy "
                f"only); only 'numpy' is accepted, got {retired!r}"
            )
        block = data.pop("paymat_block", 0)
        if (
            isinstance(block, bool)
            or not isinstance(block, numbers.Integral)
            or block < 0
            or (block and (block < 4 or block & (block - 1)))
        ):
            raise ConfigurationError(
                "field 'paymat_block' is retired (the payoff matrix is "
                "always dense); only 0 or a power of two >= 4 is accepted, "
                f"got {block!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown EvolutionConfig field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        kwargs: dict[str, Any] = {}
        for name, value in data.items():
            if name in _INT_FIELDS:
                kwargs[name] = _coerce_int(name, value)
            elif name in _FLOAT_FIELDS:
                kwargs[name] = _coerce_float(name, value)
            elif name in _BOOL_FIELDS:
                kwargs[name] = _coerce_bool(name, value)
            elif name == "payoff":
                kwargs[name] = _coerce_payoff(value)
            elif name == "structure":
                if not isinstance(value, str):
                    raise ConfigurationError(
                        f"field 'structure': expected a spec string (e.g. "
                        f"'well-mixed', 'ring:k=4'), got "
                        f"{type(value).__name__}; InteractionModel "
                        "instances do not round-trip through dicts"
                    )
                kwargs[name] = value
        # Range/consistency validation (values in [0,1], structure spec
        # parse, ...) happens in __post_init__ as usual and already names
        # the offending field in its messages.
        return cls(**kwargs)


#: Field classification for :meth:`EvolutionConfig.from_dict` coercion.
_INT_FIELDS = frozenset({
    "memory_steps", "n_ssets", "generations", "agents_per_sset", "rounds",
    "seed", "record_every", "engine_pool_cap", "checkpoint_every",
})
_FLOAT_FIELDS = frozenset({"pc_rate", "mutation_rate", "beta", "noise"})
_BOOL_FIELDS = frozenset({
    "mixed_strategies", "include_self_play", "allow_downhill_learning",
    "expected_fitness", "engine", "record_events", "sampled_batched",
})
# A future EvolutionConfig field that is not classified above (and is not
# one of the two structured fields) would silently fall out of the dict
# round-trip; fail at import instead.
_UNCLASSIFIED = (
    {f.name for f in fields(EvolutionConfig)}
    - _INT_FIELDS - _FLOAT_FIELDS - _BOOL_FIELDS
    - {"payoff", "structure"}
)
if _UNCLASSIFIED:  # pragma: no cover - tripwire for future fields
    raise TypeError(
        f"EvolutionConfig fields missing from_dict classification: "
        f"{sorted(_UNCLASSIFIED)}"
    )


def _coerce_int(name: str, value: Any) -> int:
    """``value`` as an int: Python and NumPy integers pass, booleans,
    floats (even integral ones) and strings are rejected by field name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(
            f"field {name!r}: expected an integer, got {value!r}"
        )
    return int(value)


def _coerce_float(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"field {name!r}: expected a number, got {value!r}"
        )
    return float(value)


def _coerce_bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(
            f"field {name!r}: expected a boolean, got {value!r}"
        )
    return value


def _coerce_payoff(value: Any) -> PayoffMatrix:
    if isinstance(value, PayoffMatrix):
        return value
    if isinstance(value, (list, tuple)):
        if len(value) != 4:
            raise ConfigurationError(
                f"field 'payoff': a payoff list needs exactly 4 values "
                f"[R, S, T, P], got {len(value)}"
            )
        r, s, t, p = (
            _coerce_float(f"payoff[{i}]", v) for i, v in enumerate(value)
        )
        return PayoffMatrix(reward=r, sucker=s, temptation=t, punishment=p)
    if isinstance(value, Mapping):
        allowed = {
            "reward", "sucker", "temptation", "punishment", "require_dilemma"
        }
        unknown = sorted(set(value) - allowed)
        if unknown:
            raise ConfigurationError(
                f"field 'payoff': unknown key(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )
        kwargs: dict[str, Any] = {}
        for key, v in value.items():
            if key == "require_dilemma":
                kwargs[key] = _coerce_bool(f"payoff.{key}", v)
            else:
                kwargs[key] = _coerce_float(f"payoff.{key}", v)
        return PayoffMatrix(**kwargs)
    raise ConfigurationError(
        f"field 'payoff': expected a mapping, 4-item list, or "
        f"PayoffMatrix, got {type(value).__name__}"
    )
