"""Unified simulation front-end with a pluggable backend registry.

The one entry point for running the paper's evolutionary dynamics::

    from repro import Simulation, run_sweep

    result = Simulation(config, backend="event").run()
    ensemble = run_sweep([config] * 8, workers=4, base_seed=7)

Built-in backends (``python -m repro backends`` lists them):

========================  ====================================================
``baseline``              paper Section IV.A pre-SSet algorithm (slow, naive)
``serial``                faithful per-generation reference loop
``event`` (default)       vectorised fast-forward, identical trajectory
``ensemble``              lane-batched replicates over one shared engine
``des``                   simulated Blue Gene machine (science + timing)
========================  ====================================================

New backends register through :func:`register_backend` and immediately work
everywhere a name is accepted — ``Simulation``, :func:`run_sweep`, and the
CLI.
"""

from .backends import (
    Backend,
    BaselineBackend,
    DESBackend,
    EnsembleBackend,
    EventBackend,
    SerialBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .report import BackendReport
from .simulation import Simulation
from .sweep import derive_sweep_seeds, run_sweep

__all__ = [
    "Backend",
    "BackendReport",
    "Simulation",
    "available_backends",
    "derive_sweep_seeds",
    "get_backend",
    "register_backend",
    "run_sweep",
    "BaselineBackend",
    "SerialBackend",
    "EventBackend",
    "EnsembleBackend",
    "DESBackend",
]
