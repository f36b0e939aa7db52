"""Figure 5 — runtime breakdown vs memory steps.

Paper setup: 2048 SSets for 20 generations, PC rate 0.1, on 2048 processors
of Blue Gene/P.  Computation grows steeply with memory steps (the kernel's
state identification: ~n^2 in our calibrated model, giving memory-six ~220 s
vs memory-one ~11 s) while the communication bar stays small and nearly
flat (strategy broadcasts grow to 4 KB but remain microseconds).

SMOKE scale evaluates the analytic model (instant, DES-validated); FULL
additionally replays memory-one and memory-six through the DES at the full
2049 ranks and cross-checks the model, and times the real run of each
memory here (:func:`~repro.core.evolution.run_event_driven` on
:func:`fig5_config`, one process, wall seconds) beside the model's compute
bar.  The measured column is reported, not asserted: it depends on the
host, and this engine never searches for the current state the way the
paper's kernel does, so its growth from memory one to six need not match
the paper's.
"""

from __future__ import annotations

import time

from ..analysis.tables import format_table
from ..core.config import EvolutionConfig
from ..core.evolution import run_event_driven
from ..framework.config import ParallelConfig
from ..framework.driver import run_parallel_simulation
from ..machine.bluegene import BLUEGENE_P
from ..perfmodel.analytic import AnalyticModel
from .registry import ExperimentResult, Scale, register

__all__ = ["fig5"]


def fig5_config(memory_steps: int) -> EvolutionConfig:
    return EvolutionConfig(
        memory_steps=memory_steps,
        n_ssets=2048,
        generations=20,
        rounds=200,
        seed=5,
    )


@register("fig5", "Runtime vs memory steps", "Figure 5")
def fig5(scale: Scale = Scale.SMOKE) -> ExperimentResult:
    """Compute/communication split for memory-one through memory-six."""
    parallel = ParallelConfig(
        machine=BLUEGENE_P, n_ranks=2049, executable=False
    )
    rows = []
    compute = {}
    comm = {}
    measured = {}
    for n in range(1, 7):
        model = AnalyticModel(fig5_config(n), parallel)
        comp_total, comm_total = model.compute_comm_split()
        # Per-rank view (the paper plots per-run wallclock on 2048 procs).
        compute[n] = comp_total
        comm[n] = comm_total
        rows.append([n, round(comp_total, 1), round(comm_total, 2)])
        if scale is Scale.FULL:
            started = time.perf_counter()
            run_event_driven(fig5_config(n))
            measured[n] = time.perf_counter() - started
            rows[-1].append(round(measured[n], 2))
    headers = ["memory steps", "computation (s)", "communication (s)"]
    if measured:
        headers.append("measured run (s)")
    rendered = format_table(
        headers,
        rows,
        title="2048 SSets, 20 generations, 2048 processors (BG/P)",
    )
    checks = {}
    if scale is Scale.FULL:
        for n in (1, 6):
            des = run_parallel_simulation(fig5_config(n), parallel)
            checks[n] = {
                "des_makespan": des.makespan,
                "model_makespan": AnalyticModel(
                    fig5_config(n), parallel
                ).total_time(),
            }
    return ExperimentResult(
        experiment_id="fig5",
        title="Run time analysis for varying memory steps",
        rendered=rendered,
        data={
            "compute": compute,
            "comm": comm,
            "measured": measured,
            "des_checks": checks,
        },
        paper_expectation=(
            "computation rises steeply with memory steps (memory-six "
            "~220 s vs memory-one ~10 s); communication small and flat"
        ),
    )
