"""In-run progress hooks: observe a run's trajectory while it executes.

Long runs were previously opaque until they returned.  The sweep service
(:mod:`repro.service`) needs a per-job generation counter and partial
metrics *while* a job runs, so the drivers emit lightweight
:class:`ProgressTick` records at every event generation — the same
granularity as the :class:`~repro.core.evolution.EventRecord` stream the
recorder persists, so tick counts match event-generation counts exactly
across backends (pinned by the ensemble-hook tests).

The hook is installed per thread with :func:`progress_scope` rather than
threaded through every driver signature: backends, ``run_sweep``, and the
ensemble driver all stay call-compatible, and a service worker thread
observes only its own job.

A scope carries a *run-index map* beside its listener.  ``run_sweep`` and
the ensemble driver open a :func:`progress_runs` block that says which
sweep-level run each run started inside it is, composed with any map
already in force (the ensemble's lane-local numbering inside a
deduplicated sweep's numbering).  A driver reads the listener and the
map once per run (:func:`progress_listener`) and builds each tick once,
already stamped with its final index: one small tuple and one listener
call per event generation, nothing on the no-listener path, and never
inside the vectorised batch scans.

Usage::

    from repro.core.progress import progress_scope

    def watch(tick):
        print(f"run {tick.run_index}: generation {tick.generation}")

    with progress_scope(watch):
        run_sweep(configs, backend="ensemble")

Scopes nest; the innermost listener wins, and a listener installed with
:func:`progress_scope` sees the run indices of the block it wraps (no map).
Callbacks must not raise — an exception would abort the run
mid-trajectory.

Cooperative cancellation rides the same cadence: a :class:`CancelToken`
installed with :func:`cancel_scope` is checked by every driver at each
event generation — the granularity progress ticks already use — so a
cancelled or timed-out run aborts within one event generation without any
polling thread reaching into driver internals.  The sweep service uses
this for job timeouts, ``DELETE /jobs/<id>``, and drain deadlines; the
check costs one thread-local read per run plus one comparison per event
generation, and nothing at all when no token is installed.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Sequence

from ..errors import JobCancelledError, JobTimeoutError

__all__ = [
    "ProgressTick",
    "progress_scope",
    "progress_callback",
    "progress_runs",
    "progress_listener",
    "CancelToken",
    "cancel_scope",
    "cancel_token",
]


class ProgressTick(NamedTuple):
    """Partial metrics of one run at one event generation.

    ``run_index`` identifies the run within the sweep that is executing:
    ``0`` for a single :class:`~repro.api.Simulation` run, the config index
    under :func:`~repro.api.run_sweep` (for a deduplicated config, the
    index of its first occurrence).  A tuple, so a driver builds one per
    event generation for the cost of a small tuple.
    """

    run_index: int
    generation: int
    #: Total generations the run is configured for (progress denominator).
    generations: int
    n_pc_events: int
    n_adoptions: int
    n_mutations: int

    @property
    def fraction(self) -> float:
        """Completed fraction of the run (1.0 when generations == 0: an
        empty run is complete)."""
        if self.generations <= 0:
            return 1.0
        return min(1.0, self.generation / self.generations)

    def with_run_index(self, run_index: int) -> "ProgressTick":
        return self._replace(run_index=run_index)


ProgressCallback = Callable[[ProgressTick], None]


class _Scope(NamedTuple):
    """One entry of the listener stack: the listener, and the sweep-level
    index of each run started in the block (``None``: run ``r`` is ``r``)."""

    callback: ProgressCallback
    runs: tuple[int, ...] | None


#: Per-thread listener stack (a list so scopes nest).
_LOCAL = threading.local()


def progress_listener(
    n_runs: int = 1,
) -> tuple[ProgressCallback | None, Sequence[int]]:
    """The innermost listener of this thread (or ``None``) and the index
    to stamp on the ticks of each of a driver's ``n_runs`` runs.

    Drivers read this once at run start — installing a scope mid-run has no
    effect on runs already executing, by design.
    """
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return None, range(n_runs)
    top = stack[-1]
    return top.callback, range(n_runs) if top.runs is None else top.runs


def progress_callback() -> ProgressCallback | None:
    """The innermost active callback of this thread, or ``None``.

    For drivers outside this package, which stamp their runs ``0 ..``:
    inside a :func:`progress_runs` block the callback restamps each tick
    with its sweep-level index.  The built-in drivers read
    :func:`progress_listener` instead and stamp the index themselves.
    """
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        return None
    callback, runs = stack[-1]
    if runs is None:
        return callback
    return lambda tick: callback(tick.with_run_index(runs[tick.run_index]))


@contextmanager
def progress_scope(callback: ProgressCallback) -> Iterator[ProgressCallback]:
    """Install ``callback`` as this thread's progress listener for the block."""
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    stack.append(_Scope(callback, None))
    try:
        yield callback
    finally:
        stack.pop()


@contextmanager
def progress_runs(runs: Sequence[int]) -> Iterator[None]:
    """Runs ``0, 1, ..`` started in the block are runs ``runs[0], runs[1],
    ..`` of the enclosing block, as the active listener sees them.

    Composes with the enclosing block's own map; does nothing when no
    listener is installed.
    """
    stack = getattr(_LOCAL, "stack", None)
    if not stack:
        yield
        return
    callback, outer = stack[-1]
    if outer is not None:
        runs = [outer[i] for i in runs]
    stack.append(_Scope(callback, tuple(runs)))
    try:
        yield
    finally:
        stack.pop()


# -- cooperative cancellation --------------------------------------------------


class CancelToken:
    """A cancel request and/or wall-clock deadline a run checks cooperatively.

    Thread-safe: any thread may :meth:`cancel`; the executing thread calls
    :meth:`check` at event-generation cadence and the run aborts with
    :class:`~repro.errors.JobCancelledError` (or
    :class:`~repro.errors.JobTimeoutError` past the deadline).  ``deadline``
    is a :func:`time.monotonic` instant; ``None`` means no timeout.
    """

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self._cancelled = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = reason or "cancelled"
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; True if cancelled meanwhile
        (retry backoffs sleep through this so cancels cut them short)."""
        return self._cancelled.wait(timeout)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def check(self) -> None:
        """Raise if this token was cancelled or its deadline passed."""
        if self._cancelled.is_set():
            raise JobCancelledError(self.reason)
        if self.expired():
            raise JobTimeoutError(
                "run exceeded its wall-clock timeout and was cancelled "
                "cooperatively"
            )


#: Per-thread token stack, exactly like the progress-listener stack.
_CANCEL_LOCAL = threading.local()


def cancel_token() -> CancelToken | None:
    """The innermost active token of this thread, or ``None``.

    Drivers read this once at run start — like :func:`progress_callback`,
    installing a scope mid-run has no effect on runs already executing.
    """
    stack = getattr(_CANCEL_LOCAL, "stack", None)
    if not stack:
        return None
    return stack[-1]


@contextmanager
def cancel_scope(token: CancelToken) -> Iterator[CancelToken]:
    """Install ``token`` as this thread's cancellation token for the block."""
    stack = getattr(_CANCEL_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _CANCEL_LOCAL.stack = stack
    stack.append(token)
    try:
        yield token
    finally:
        stack.pop()
