"""repro — reproduction of Randles et al., IPDPS 2013.

"Massively Parallel Model of Extended Memory Use in Evolutionary Game
Dynamics": memory-n iterated Prisoner's Dilemma populations evolved through
pairwise-comparison learning and mutation, with a multi-level parallel
decomposition (Strategy Sets over MPI ranks, agents over threads)
reproduced on a simulated Blue Gene substrate.

Quickstart
----------
>>> from repro import EvolutionConfig, Simulation
>>> result = Simulation(EvolutionConfig(n_ssets=64, generations=50_000)).run()
>>> strategy, share = result.dominant()

Every execution substrate hides behind the same front-end: pick it with
``Simulation(config, backend=...)`` (``baseline``, ``serial``, ``event``,
``ensemble``, ``des``, or anything registered through
:func:`repro.api.register_backend`), and batch independent runs with
:func:`run_sweep`.

Package map
-----------
``repro.api``         unified Simulation front-end + backend registry
``repro.core``        the evolutionary model (strategies, games, dynamics)
``repro.ensemble``    lane-batched ensemble engine (whole sweeps as one
                      array program, bit-identical per lane)
``repro.structure``   population structures (well-mixed, ring, grid, ...)
``repro.mpisim``      discrete-event MPI simulator
``repro.machine``     Blue Gene/P, Blue Gene/Q and generic machine models
``repro.framework``   the paper's parallel algorithm on the simulated machine
``repro.perfmodel``   calibrated analytic scaling model (paper-scale runs)
``repro.runtime``     process-pool payoff-matrix kernel (the paper's thread
                      level, measured by its ablation)
``repro.analysis``    k-means, strategy classification, metrics, heatmaps
``repro.experiments`` regenerates every table and figure of the paper
``repro.io``          generation recorder, checkpoints, result artifacts
``repro.service``     sweep-as-a-service: job queue, result cache, HTTP
                      front door (import explicitly: ``repro.service``)
``repro.faults``      deterministic fault-injection harness (import
                      explicitly: ``from repro import faults``)
"""

from .api import (
    Backend,
    BackendReport,
    Simulation,
    available_backends,
    get_backend,
    register_backend,
    run_sweep,
)
from .structure import (
    InteractionModel,
    available_structures,
    build_structure,
    register_structure,
)
from .core import (
    PAPER_BETA,
    PAPER_MUTATION_RATE,
    PAPER_PAYOFF,
    PAPER_PC_RATE,
    PAPER_ROUNDS,
    EvolutionConfig,
    EvolutionResult,
    GameResult,
    PayoffMatrix,
    Population,
    Strategy,
    all_c,
    all_d,
    grim,
    gtft,
    play_game,
    run_baseline,
    run_event_driven,
    run_serial,
    strategy_space_size,
    tf2t,
    tft,
    wsls,
)
from .ensemble import run_ensemble
from .version import __version__

__all__ = [
    "__version__",
    "Backend",
    "BackendReport",
    "Simulation",
    "available_backends",
    "get_backend",
    "register_backend",
    "run_ensemble",
    "run_sweep",
    "InteractionModel",
    "available_structures",
    "build_structure",
    "register_structure",
    "EvolutionConfig",
    "EvolutionResult",
    "GameResult",
    "PayoffMatrix",
    "Population",
    "Strategy",
    "PAPER_BETA",
    "PAPER_MUTATION_RATE",
    "PAPER_PAYOFF",
    "PAPER_PC_RATE",
    "PAPER_ROUNDS",
    "all_c",
    "all_d",
    "grim",
    "gtft",
    "play_game",
    "run_baseline",
    "run_event_driven",
    "run_serial",
    "strategy_space_size",
    "tf2t",
    "tft",
    "wsls",
]
