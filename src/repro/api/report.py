"""Backend execution metadata attached to every :class:`EvolutionResult`.

Before the unified front-end, timing/decomposition metadata lived in a
separate world per entry point (the DES returned a ``SimulationReport``,
the serial drivers only a wallclock).  :class:`BackendReport` is the common
envelope: every backend fills in the fields it can measure and leaves the
rest ``None``, so callers inspect one type regardless of how a run was
executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["BackendReport"]


@dataclass(frozen=True)
class BackendReport:
    """How a run was executed, and what it cost.

    Parameters
    ----------
    backend:
        Registry name of the backend that produced the result.
    wallclock_seconds:
        Real host time spent inside the backend.
    options:
        The backend options the run was configured with (e.g.
        ``batch_size``, ``n_ranks``) — whatever ``Simulation(**backend_opts)``
        forwarded.
    structure:
        Canonical population-structure spec the run executed under
        (``"well-mixed"``, ``"ring:k=4"``, ...).
    lanes:
        Number of replicates the ``ensemble`` backend executed together in
        this run's lane-batched group (1 = the run was its own group).  A
        group whose pair matrix would pass the driver's memory bound runs
        as consecutive sub-groups, and this is the sub-group's size.
    shared_engine:
        Shared-engine counters of the lane-batched (sub-)group (distinct
        strategies, pool capacity, pair evaluations and kernel calls, plus
        the paymat memory accounting: ``paymat_bytes`` /
        ``peak_paymat_bytes``) — ``None`` when the group ran on per-lane
        evaluators.
    resumed_from_generation:
        Generation the run was restored from when a mid-run checkpoint was
        found (:mod:`repro.core.runstate`); ``None`` for an uninterrupted
        run.  Provenance only — the result payload is bit-identical either
        way.
    n_ranks:
        Simulated MPI ranks (DES backend; includes the Nature Agent).
    ssets_per_worker:
        Decomposition ratio R of the simulated run (the paper's Table VI
        knob).
    makespan_seconds:
        Virtual wallclock of the simulated machine (DES backend).
    compute_seconds:
        Aggregate simulated computation time across ranks (DES backend).
    comm_seconds:
        Aggregate simulated communication + exposed sync (DES backend).
    """

    backend: str
    wallclock_seconds: float
    options: dict[str, Any] = field(default_factory=dict)
    structure: str | None = None
    lanes: int | None = None
    shared_engine: dict[str, int] | None = None
    resumed_from_generation: int | None = None
    n_ranks: int | None = None
    ssets_per_worker: float | None = None
    makespan_seconds: float | None = None
    compute_seconds: float | None = None
    comm_seconds: float | None = None

    def summary(self) -> str:
        """One-line human description of the execution."""
        parts = [f"backend={self.backend}", f"wallclock={self.wallclock_seconds:.3f}s"]
        if self.structure is not None and self.structure != "well-mixed":
            parts.append(f"structure={self.structure}")
        if self.lanes is not None:
            parts.append(f"lanes={self.lanes}")
        if self.shared_engine is not None:
            parts.append(
                f"shared-engine={self.shared_engine.get('distinct', 0)} "
                "distinct"
            )
        if self.resumed_from_generation is not None:
            parts.append(f"resumed-from={self.resumed_from_generation}")
        if self.n_ranks is not None:
            parts.append(f"ranks={self.n_ranks}")
        if self.makespan_seconds is not None:
            parts.append(f"virtual-makespan={self.makespan_seconds:.3f}s")
        return " ".join(parts)
