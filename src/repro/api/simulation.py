"""The unified simulation front-end.

One call shape for every execution substrate::

    from repro import Simulation

    result = Simulation(config).run()                      # event-driven
    result = Simulation(config, backend="serial").run()    # reference loop
    result = Simulation(config, backend="des", n_ranks=9).run()

``.run()`` always returns an :class:`~repro.core.EvolutionResult` whose
``backend_report`` says how the run executed.  Checkpointing is wired
through :mod:`repro.io.checkpoint`: pass ``checkpoint_path`` to persist the
final population, and ``resume=True`` to continue from a previously saved
one (backends that derive their own initial state, like ``des``, do not
support resume).
"""

from __future__ import annotations

from pathlib import Path

from ..core.config import EvolutionConfig
from ..core.evolution import EvolutionResult
from ..core.population import Population
from ..errors import CheckpointError, ConfigurationError
from ..io.checkpoint import load_checkpoint, save_population
from .backends import Backend, resolve_backend

__all__ = ["Simulation"]


class Simulation:
    """A configured run bound to one execution backend.

    Parameters
    ----------
    config:
        The science (population, dynamics, seed).
    backend:
        Registry name, :class:`Backend` subclass, or ready-made instance.
    initial_population:
        Start from this population instead of the seed-derived random one.
    checkpoint_path:
        After a successful run, save the final population here (``.npz``).
    resume:
        Load ``checkpoint_path`` as the initial population when the file
        exists (a missing file silently starts fresh, so restartable jobs
        need no first-run special case).  Note that the Nature Agent's
        decision streams derive from ``config.seed`` alone: resuming with
        an unchanged seed replays the same event schedule over the evolved
        population.  For a statistically independent continuation, give
        each leg its own seed (``config.with_updates(seed=...)``).
    **backend_opts:
        Forwarded to the backend class (e.g. ``batch_size=...``,
        ``n_ranks=9``).
    """

    def __init__(
        self,
        config: EvolutionConfig,
        backend: str | type[Backend] | Backend = "event",
        *,
        initial_population: Population | None = None,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        **backend_opts: object,
    ) -> None:
        self.config = config
        self.backend = resolve_backend(backend, dict(backend_opts))
        self.initial_population = initial_population
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume = resume
        if resume and self.checkpoint_path is None:
            raise ConfigurationError("resume=True requires a checkpoint_path")

    # -- checkpoint plumbing --------------------------------------------------

    def _resolve_initial_population(self) -> Population | None:
        population = self.initial_population
        if (
            population is None
            and self.resume
            and self.checkpoint_path is not None
            and self.checkpoint_path.exists()
        ):
            population, saved_structure = load_checkpoint(self.checkpoint_path)
            # Legacy checkpoints (no structure field) were written by
            # well-mixed-only code; treat them as well-mixed.
            saved = saved_structure if saved_structure is not None else "well-mixed"
            expected = self.config.canonical_structure()
            if saved != expected:
                raise CheckpointError(
                    f"checkpoint {self.checkpoint_path} was written under "
                    f"structure {saved!r}, config wants {expected!r}"
                )
        if population is None:
            return None
        if not self.backend.supports_initial_population:
            raise ConfigurationError(
                f"the {self.backend.name!r} backend does not support "
                "initial populations (checkpoint resume unavailable)"
            )
        if population.memory_steps != self.config.memory_steps:
            raise CheckpointError(
                f"population has memory_steps={population.memory_steps}, "
                f"config wants {self.config.memory_steps}"
            )
        if len(population) != self.config.n_ssets:
            raise CheckpointError(
                f"population has {len(population)} SSets, "
                f"config wants {self.config.n_ssets}"
            )
        return population

    # -- execution -------------------------------------------------------------

    def run(self) -> EvolutionResult:
        """Execute the run on the bound backend."""
        population = self._resolve_initial_population()
        result = self.backend.run(self.config, population)
        if self.checkpoint_path is not None:
            save_population(
                result.population,
                self.checkpoint_path,
                structure=self.config.canonical_structure(),
            )
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulation(backend={self.backend.name!r}, "
            f"config={self.config!r})"
        )
