"""The Nature Agent — master of population dynamics (paper Section IV.E).

The Nature Agent is the *only* source of randomness for population dynamics:
it decides in which generations pairwise-comparison (PC) learning and
mutation occur, which SSets are involved, and what the mutant strategies
are.  Centralising the randomness is what makes the parallel implementation
deterministic — every rank sees the same broadcast decisions — and we
exploit the same property to guarantee that the serial driver, the
event-driven fast-forward driver, and the DES parallel programs all follow
the *same trajectory* for the same seed.

Stream layout (from :class:`repro.rng.SeedSequenceTree`):

* ``events``   — two uniforms per generation (PC? mutation?), batchable;
* ``pc``       — teacher/learner selection + the Fermi adoption uniform;
* ``mutation`` — target selection + mutant strategy bits;
* ``games``    — game sampling for stochastic configurations;
* ``sampled``  — game sampling for the opt-in *batched* sampled engine
  (:class:`~repro.core.engine.SampledFitnessEngine`).  A dedicated stream,
  so the batched mode is reproducible per seed without perturbing the four
  legacy streams (its games are deliberately not bit-identical to the
  scalar ``games`` draws — equivalence to legacy is statistical).  Not part
  of :meth:`NatureAgent.stream_states`: checkpoints carry its position in
  the evaluator snapshot instead, keeping legacy checkpoint payloads
  byte-stable.

Because streams are separate, a driver that *batches* the events stream
(event-driven mode) consumes exactly the same pc/mutation draws as one that
loops generation by generation, so the two are bit-identical.  The pc and
mutation draws are state-independent too (they never read the population),
so the event driver also draws a whole batch of them at once, straight off
the raw ``pc`` and ``mutation`` streams (:mod:`repro.ensemble.rawstream`),
in the same call order.

Paper-listing deviations (see DESIGN.md section 3): we read the prose as
authoritative — adoption happens *with* probability p (the listing's
``rand > p`` would invert it) and mutation *with* probability mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedSequenceTree
from ..structure import InteractionModel, WellMixed
from .config import EvolutionConfig
from .fermi import fermi_probability
from .strategy import Strategy, random_mixed, random_pure

__all__ = [
    "GenerationEvents",
    "PCDecision",
    "MutationDecision",
    "NatureAgent",
    "adopts",
]


@dataclass(frozen=True)
class GenerationEvents:
    """Which evolutionary processes fire this generation."""

    pc: bool
    mutation: bool


@dataclass(frozen=True)
class PCDecision:
    """A pairwise-comparison event: who teaches whom, and the adoption draw."""

    teacher: int
    learner: int
    adoption_uniform: float


@dataclass(frozen=True)
class MutationDecision:
    """A mutation event: which SSet receives which new strategy."""

    target: int
    strategy: Strategy


def adopts(
    config: EvolutionConfig,
    adoption_uniform: float,
    teacher_fitness: float,
    learner_fitness: float,
) -> bool:
    """The Fermi rule (Eq. 1) on a pre-drawn adoption uniform.

    The paper gates learning on the teacher being strictly fitter;
    ``allow_downhill_learning`` removes the gate (the plain Fermi process
    of the cited literature).
    """
    if not config.allow_downhill_learning and not teacher_fitness > learner_fitness:
        return False
    p = fermi_probability(teacher_fitness, learner_fitness, config.beta)
    return adoption_uniform < p


class NatureAgent:
    """Decision engine shared by all drivers (serial, event-driven, DES)."""

    def __init__(self, config: EvolutionConfig, tree: SeedSequenceTree):
        self.config = config
        self._events_rng = tree.generator("nature", "events")
        self._pc_rng = tree.generator("nature", "pc")
        self._mutation_rng = tree.generator("nature", "mutation")
        self.games_rng = tree.generator("nature", "games")
        self.sampled_rng = tree.generator("nature", "sampled")

    @property
    def pc_rng(self) -> np.random.Generator:
        """The ``pc`` stream, for drivers that pre-draw a batch of
        :meth:`pc_selection` calls through :mod:`repro.ensemble.rawstream`."""
        return self._pc_rng

    @property
    def mutation_rng(self) -> np.random.Generator:
        """The ``mutation`` stream, for drivers that pre-draw a batch of
        :meth:`mutation_selection` calls."""
        return self._mutation_rng

    # -- checkpointing ------------------------------------------------------

    def stream_states(self) -> dict:
        """All four stream positions as raw bit-generator state.

        Capturing the full state dict (counter position *and* the
        generator's buffered words) is what makes a mid-run checkpoint
        resume bit-identical — a freshly seeded agent fast-forwarded by
        draw *count* would lose the buffer/uinteger carry.
        """
        from .runstate import generator_state

        return {
            "events": generator_state(self._events_rng),
            "pc": generator_state(self._pc_rng),
            "mutation": generator_state(self._mutation_rng),
            "games": generator_state(self.games_rng),
        }

    def restore_stream_states(self, states: dict) -> None:
        """Rewind all four streams to positions from :meth:`stream_states`."""
        from .runstate import restore_generator

        restore_generator(self._events_rng, states["events"])
        restore_generator(self._pc_rng, states["pc"])
        restore_generator(self._mutation_rng, states["mutation"])
        restore_generator(self.games_rng, states["games"])

    # -- event scheduling ---------------------------------------------------

    def generation_events(self) -> GenerationEvents:
        """Draw this generation's event flags (two uniforms, fixed order)."""
        u_pc = self._events_rng.random()
        u_mu = self._events_rng.random()
        return GenerationEvents(
            pc=u_pc < self.config.pc_rate, mutation=u_mu < self.config.mutation_rate
        )

    def batch_event_flags(self, n_generations: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`generation_events` for ``n_generations``.

        Consumes the events stream in exactly the same order as n successive
        scalar calls, so a batching driver stays on the serial trajectory.
        """
        draws = self._events_rng.random(2 * n_generations)
        return (
            draws[0::2] < self.config.pc_rate,
            draws[1::2] < self.config.mutation_rate,
        )

    # -- pairwise comparison --------------------------------------------------

    def pc_selection(
        self, n_ssets: int, structure: InteractionModel | None = None
    ) -> PCDecision:
        """Select teacher and learner SSets (distinct) and the adoption draw.

        Without a ``structure`` (or with the well-mixed one) both SSets are
        uniform over the population — teacher drawn first, then the learner
        with rejection, the historical order the bit-identical-trajectory
        contract pins (that order lives in exactly one place:
        :meth:`repro.structure.WellMixed.select_pair`, to which the bare
        call delegates).  A graph structure instead draws the learner
        uniformly and the teacher uniformly from the learner's neighborhood
        (the structured-population convention); either way the Nature Agent
        stays the only source of randomness.
        """
        if structure is None:
            structure = WellMixed(n_ssets)
        elif structure.n_ssets != n_ssets:
            raise ConfigurationError(
                f"structure is bound to {structure.n_ssets} SSets, "
                f"population has {n_ssets}"
            )
        teacher, learner = structure.select_pair(self._pc_rng)
        return PCDecision(
            teacher=teacher,
            learner=learner,
            adoption_uniform=float(self._pc_rng.random()),
        )

    def decide_learning(
        self, decision: PCDecision, teacher_fitness: float, learner_fitness: float
    ) -> bool:
        """Apply the Fermi rule (:func:`adopts`) to the decision's
        pre-drawn adoption uniform."""
        return adopts(
            self.config, decision.adoption_uniform, teacher_fitness,
            learner_fitness,
        )

    # -- mutation -----------------------------------------------------------------

    def mutation_selection(self, n_ssets: int) -> MutationDecision:
        """Select the mutated SSet and generate its brand-new strategy."""
        target = int(self._mutation_rng.integers(n_ssets))
        make = random_mixed if self.config.mixed_strategies else random_pure
        strategy = make(self._mutation_rng, self.config.memory_steps)
        return MutationDecision(target=target, strategy=strategy)
