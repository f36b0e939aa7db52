"""Execution backends and their registry.

A backend is *how* an evolutionary run executes — the science is fixed by
the :class:`~repro.core.EvolutionConfig` alone.  Every backend consumes the
same Nature-Agent decision streams, so for deterministic configurations the
``baseline``, ``serial`` and ``event`` backends follow bit-identical
trajectories for the same seed (pinned by the test suite), every
``ensemble`` lane matches its same-seed ``event`` run, and the ``des``
backend reproduces the same event sequence through the simulated machine.

Registering a backend::

    @register_backend
    @dataclass
    class MyBackend(Backend):
        name = "mine"
        summary = "my exotic execution substrate"

        def run(self, config, population=None):
            ...

    Simulation(config, backend="mine").run()
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, ClassVar

from ..core.baseline import run_baseline
from ..core.config import EvolutionConfig
from ..core.evolution import EvolutionResult, run_event_driven, run_serial
from ..core.population import Population
from ..ensemble import run_ensemble_detailed
from ..ensemble.driver import _validate_config as _validate_ensemble_config
from ..errors import ConfigurationError
from .report import BackendReport

if TYPE_CHECKING:  # pragma: no cover
    from ..framework.config import ParallelConfig

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "BaselineBackend",
    "SerialBackend",
    "EventBackend",
    "EnsembleBackend",
    "DESBackend",
]


class Backend(ABC):
    """One way of executing an :class:`~repro.core.EvolutionConfig`.

    Subclasses are dataclasses whose fields are the backend's options;
    :class:`~repro.api.Simulation` instantiates them from ``**backend_opts``.
    """

    #: Registry key (``Simulation(config, backend=<name>)``).
    name: ClassVar[str]
    #: One-line description shown by ``python -m repro backends``.
    summary: ClassVar[str]
    #: Whether :meth:`run` accepts a caller-supplied initial population
    #: (checkpoint resume relies on this).
    supports_initial_population: ClassVar[bool] = True
    #: Whether :meth:`run` honours structured (non-well-mixed) populations.
    #: Enforced by the base :meth:`validate`, so overriders must call
    #: ``super().validate(config)``.
    supports_structures: ClassVar[bool] = True

    @abstractmethod
    def run(
        self, config: EvolutionConfig, population: Population | None = None
    ) -> EvolutionResult:
        """Execute the run and return its result (``backend_report`` set).

        Implementations call :meth:`validate` first so the guard holds for
        direct ``run()`` use too, not just through :class:`Simulation`.
        """

    def validate(self, config: EvolutionConfig) -> None:
        """Reject configurations this backend cannot execute (fail fast).

        The base implementation enforces :attr:`supports_structures`;
        overriders extend it via ``super().validate(config)``.
        """
        if not self.supports_structures and not config.is_well_mixed:
            raise ConfigurationError(
                f"the {self.name} backend supports well-mixed populations "
                f"only (got structure={config.canonical_structure()!r}); "
                "use the serial, event or ensemble backend for "
                "structured populations"
            )

    def options(self) -> dict[str, Any]:
        """The option values this backend instance was built with."""
        return {f.name: getattr(self, f.name) for f in fields(self)}  # type: ignore[arg-type]

    def _report(self, result: EvolutionResult, **extra: Any) -> EvolutionResult:
        """Attach the :class:`BackendReport` envelope to ``result``."""
        extra.setdefault(
            "resumed_from_generation", result.resumed_from_generation
        )
        result.backend_report = BackendReport(
            backend=self.name,
            wallclock_seconds=result.wallclock_seconds,
            options=self.options(),
            structure=result.config.canonical_structure(),
            **extra,
        )
        return result


_REGISTRY: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Register a :class:`Backend` subclass under its ``name`` (decorator)."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"backend class {cls.__name__} must define a non-empty `name`"
        )
    if name in _REGISTRY:
        raise ConfigurationError(f"duplicate backend name {name!r}")
    _REGISTRY[name] = cls
    return cls


def get_backend(name: str) -> type[Backend]:
    """Look up a registered backend class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown backend {name!r}; registered: {known}"
        ) from None


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_REGISTRY)


def resolve_backend(
    backend: "str | type[Backend] | Backend", backend_opts: dict[str, Any]
) -> Backend:
    """Turn a name/class/instance plus options into a backend instance."""
    if isinstance(backend, Backend):
        if backend_opts:
            raise ConfigurationError(
                "backend_opts cannot be combined with a ready-made backend "
                f"instance (got {sorted(backend_opts)})"
            )
        return backend
    cls = get_backend(backend) if isinstance(backend, str) else backend
    return cls(**backend_opts)


def _require_positive_batch(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}"
        )


def _require_sampled_deterministic(config: EvolutionConfig, name: str) -> None:
    """Reject configs whose fitness the backend cannot evaluate faithfully.

    These backends hold a bit-parity-only contract with the reference
    drivers, so they cannot adopt the batched sampled mode (whose contract
    is statistical); the message routes noisy science to the backends that
    can run it.
    """
    if config.noise > 0.0 or config.mixed_strategies or config.expected_fitness:
        raise ConfigurationError(
            f"the {name} backend supports deterministic pure-strategy "
            "configurations only (no noise, no mixed strategies, sampled "
            "fitness); for stochastic science use the event or serial "
            "backend — or sampled_batched=True (CLI --sampled-batched) "
            "with the event, serial, or ensemble backend for the "
            "vectorised sampled-fitness fast path"
        )


# -- built-in backends --------------------------------------------------------


@register_backend
@dataclass
class BaselineBackend(Backend):
    """The paper's pre-SSet state of the art (Section IV.A)."""

    name: ClassVar[str] = "baseline"
    summary: ClassVar[str] = (
        "one agent per strategy, every game replayed serially (no cache)"
    )

    supports_structures: ClassVar[bool] = False

    def validate(self, config: EvolutionConfig) -> None:
        super().validate(config)
        # run_baseline replays plain noiseless games, so expected-fitness
        # configs would silently follow a different (noise-free) trajectory.
        _require_sampled_deterministic(config, self.name)

    def run(
        self, config: EvolutionConfig, population: Population | None = None
    ) -> EvolutionResult:
        self.validate(config)
        return self._report(run_baseline(config, population))


@register_backend
@dataclass
class SerialBackend(Backend):
    """Faithful generation-by-generation reference driver."""

    name: ClassVar[str] = "serial"
    summary: ClassVar[str] = (
        "faithful per-generation loop with SSet histogram + payoff cache"
    )

    def run(
        self, config: EvolutionConfig, population: Population | None = None
    ) -> EvolutionResult:
        self.validate(config)
        return self._report(run_serial(config, population))


@register_backend
@dataclass
class EventBackend(Backend):
    """Fast-forward driver: identical trajectory, vectorised event scan."""

    name: ClassVar[str] = "event"
    summary: ClassVar[str] = (
        "event-driven fast-forward (default; ~1000x serial, same trajectory)"
    )

    #: Generations scanned per vectorised event-flag batch.
    batch_size: int = 1 << 16

    def validate(self, config: EvolutionConfig) -> None:
        super().validate(config)
        _require_positive_batch(self.batch_size)

    def run(
        self, config: EvolutionConfig, population: Population | None = None
    ) -> EvolutionResult:
        self.validate(config)
        return self._report(
            run_event_driven(config, population, batch_size=self.batch_size)
        )


@register_backend
@dataclass
class EnsembleBackend(Backend):
    """Lane-batched ensemble execution (:mod:`repro.ensemble`).

    One run is a one-lane ensemble; the real payoff comes through
    :func:`repro.api.run_sweep`, which hands the *whole* config list to
    :meth:`run_many` so same-science replicates advance together over one
    shared strategy pool and payoff matrix.  Graph-structured lanes ride
    the same fast path as well-mixed ones: their learner-then-neighbor PC
    draws decode in bulk off the raw Philox stream and each generation's
    event fitness is one flat CSR gather across all event lanes.
    Sampled-stochastic lanes are accepted when the config opts in with
    ``sampled_batched=True``: each generation's event lanes fuse their
    sampled games into one vectorised kernel call over per-lane dedicated
    streams (bit-identical to the same-seed serial ``sampled_batched``
    run; statistically equivalent to the scalar legacy path).  Every
    lane's trajectory is bit-identical to the same-seed serial ``event``
    run (pinned by the lane-parity tests); execution metadata
    (``cache_hits``/``cache_misses`` and the backend report's
    ``lanes``/``shared_engine``) reflects the shared-engine accounting
    instead of per-run engines.
    """

    name: ClassVar[str] = "ensemble"
    summary: ClassVar[str] = (
        "lane-batched ensemble: same-science replicates as one array program"
    )

    #: Generations scanned per vectorised event-flag batch.
    batch_size: int = 1 << 16

    def validate(self, config: EvolutionConfig) -> None:
        super().validate(config)
        _require_positive_batch(self.batch_size)
        _validate_ensemble_config(config)

    def run(
        self, config: EvolutionConfig, population: Population | None = None
    ) -> EvolutionResult:
        self.validate(config)
        return self.run_many([config], [population])[0]

    def run_many(
        self,
        configs: list[EvolutionConfig],
        populations: list[Population | None] | None = None,
    ) -> list[EvolutionResult]:
        """Execute many runs lane-batched; results in config order."""
        run_configs = list(configs)
        for config in run_configs:
            self.validate(config)
        results, metas = run_ensemble_detailed(
            run_configs, populations, batch_size=self.batch_size
        )
        return [
            self._report(
                result,
                lanes=meta["lanes"],
                shared_engine=meta["shared_engine"],
            )
            for result, meta in zip(results, metas)
        ]


@register_backend
@dataclass
class DESBackend(Backend):
    """The paper's parallel algorithm on the simulated Blue Gene machine.

    Wraps :func:`repro.framework.driver.run_parallel_simulation` in
    executable mode: real strategies and fitness flow through the
    discrete-event MPI simulator, and the simulated timing (virtual
    makespan, compute/comm split, decomposition ratio) lands in the
    :class:`BackendReport` instead of a separate ``SimulationReport`` world.
    The result carries no intermediate snapshots — the DES records events
    and the final population only.
    """

    name: ClassVar[str] = "des"
    summary: ClassVar[str] = (
        "simulated-machine run (DES MPI): science + virtual Blue Gene timing"
    )
    supports_initial_population: ClassVar[bool] = False
    supports_structures: ClassVar[bool] = False

    #: Simulated MPI ranks, including the Nature Agent on rank 0.
    n_ranks: int = 8
    #: Full placement/machine control; overrides ``n_ranks`` when given.
    parallel: "ParallelConfig | None" = None

    def _parallel_config(self) -> "ParallelConfig":
        from ..framework.config import ParallelConfig

        if self.parallel is not None:
            if not self.parallel.executable:
                raise ConfigurationError(
                    "the des backend needs an executable ParallelConfig "
                    "(cost-only runs produce no science); use "
                    "repro.framework.run_parallel_simulation directly for "
                    "timing studies"
                )
            return self.parallel
        return ParallelConfig(n_ranks=self.n_ranks)

    def validate(self, config: EvolutionConfig) -> None:
        # supports_structures=False: the parallel decomposition broadcasts
        # the global histogram; a graph-structured fitness would need
        # neighborhood-aware sharding.
        super().validate(config)
        # The DES workers evaluate plain noiseless payoffs, so noisy or
        # expected-fitness configs would silently lose their noise model.
        _require_sampled_deterministic(config, self.name)
        if config.record_every > 0:
            raise ConfigurationError(
                "the des backend records events and the final population "
                "only; record_every is not supported — use the serial or "
                "event backend for snapshot rasters"
            )
        self._parallel_config()

    def run(
        self, config: EvolutionConfig, population: Population | None = None
    ) -> EvolutionResult:
        from ..framework.driver import run_parallel_simulation

        self.validate(config)
        if population is not None:
            raise ConfigurationError(
                "the des backend derives its initial population from the "
                "seed and cannot resume from a supplied population"
            )
        started = time.perf_counter()
        parallel = self._parallel_config()
        des = run_parallel_simulation(config, parallel)
        result = EvolutionResult(
            config=config,
            population=des.final_population(),
            # The DES always traces events internally (the science flows
            # through them); record_events only controls what the result
            # retains, matching the serial drivers.
            events=list(des.events) if config.record_events else [],
        )
        result.n_pc_events = sum(1 for e in des.events if e.kind == "pc")
        result.n_adoptions = sum(
            1 for e in des.events if e.kind == "pc" and e.applied
        )
        result.n_mutations = sum(1 for e in des.events if e.kind == "mutation")
        result.generations_run = config.generations
        result.wallclock_seconds = time.perf_counter() - started
        return self._report(
            result,
            n_ranks=parallel.n_ranks,
            ssets_per_worker=des.decomposition.ratio,
            makespan_seconds=des.makespan,
            compute_seconds=des.compute_seconds,
            comm_seconds=des.comm_seconds,
        )
