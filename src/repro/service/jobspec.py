"""Canonical sweep-job specification with a content-hash fingerprint.

A :class:`JobSpec` is the deterministic description of one
:func:`~repro.api.run_sweep` invocation: the fully-resolved config list
(seeds final — clients derive replicate seeds *before* submitting, so the
spec is explicit about the science it asks for) plus execution options.
It round-trips through plain dicts/JSON — the service's wire form — and
hashes to a stable :meth:`fingerprint` that keys the result cache.

The fingerprint covers the **science only**: the ordered config dicts,
minus the resume-neutral execution fields
(:data:`repro.core.runstate.RESUME_NEUTRAL_FIELDS` — checkpoint cadence,
pool caps, and the retired ``array_backend`` and ``paymat_block`` keys
that older dicts still carry), plus each config's science version
(:func:`repro.core.runstate.science_version`) when it is above 1 — the
same :func:`~repro.core.runstate.science_fields` the checkpoint unit key
hashes.  A version bump changes the trajectories of unchanged configs,
so it must miss every result cached under the old contract; version-1
fingerprints are those of builds that predate versioning.  Execution
options (backend, workers, priority) are likewise excluded — every
backend follows the bit-identical trajectory for a given config and
seed (pinned by the repo's parity suites), so an
``ensemble``-executed result is a valid cache hit for an
``event``-backend request, and a run submitted *with* checkpointing hits
the cache entry its uncheckpointed twin wrote.
Two submissions collide iff they ask for the same runs in the same order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.config import EvolutionConfig
from ..core.runstate import science_fields
from ..core.states import num_states
from ..errors import ConfigurationError
from .retry import RetryPolicy

__all__ = ["JobSpec", "PRIORITIES", "SPEC_FORMAT_VERSION", "default_backend"]

#: Scheduling classes, highest urgency first.  ``interactive`` jobs jump
#: every queued ``batch`` job; within a class the queue is FIFO.
PRIORITIES = ("interactive", "batch")

#: Version stamped into the hashed payload — bump to invalidate every
#: cached fingerprint when the canonical form changes incompatibly.
#: Version 2 dropped the resume-neutral execution fields from the hashed
#: config dicts; the *wire* field set is unchanged, so :meth:`from_dict`
#: still accepts version-1 dicts (journals written by older builds replay).
SPEC_FORMAT_VERSION = 2

_READABLE_VERSIONS = (1, SPEC_FORMAT_VERSION)

#: Run counts from which a job that names no backend runs on ``ensemble``
#: (fewer run on ``event``), by the view states of a config's population
#: (``n_ssets * 4**memory``, what filling one mutant's payoffs costs):
#: ``(most views, ensemble from)``.  Past the last bound every job takes
#: ``ensemble``.  Measured in-process at 1, 2, 4, 8, 12 and 16 runs on
#: well-mixed deterministic jobs of 4-512 SSets, memory 1-6 and
#: 2,000-50,000 generations (``benchmarks/backend_crossover.py``,
#: ``BENCH_backend.json``): ``event`` led at 4 runs in every shape up to
#: 8,192 views, at 2 runs up to 16,384 (at 4 it trailed by 41% with 64
#: memory-4 SSets and 2,000 generations), and at one run at 32,768 (128
#: memory-4 SSets; it trailed at 2, 8 and 12 runs).  Beyond, neither led
#: consistently: at 64 memory-5 SSets the lead changed sides between
#: repeat measurements, 16 memory-6 SSets were level at one run (746
#: against 748 ms), and at 64 ``ensemble`` led from one.  ``event``'s
#: time grows in proportion to the runs and ``ensemble``'s less, so
#: ``event`` leads at every run count below one where it led.
ENSEMBLE_FROM_RUNS = ((8192, 5), (16384, 3), (32768, 2))


def default_backend(configs: Sequence[EvolutionConfig]) -> str:
    """The backend a job of ``configs`` takes when it names none.

    Every backend follows the same trajectories, so only speed decides:
    ``event`` where it measured faster (:data:`ENSEMBLE_FROM_RUNS`, for
    well-mixed deterministic configs), and ``ensemble`` elsewhere, whose
    lane batching gains with every run.  Graphs keep ``ensemble``: on a
    ring of 64 memory-4 SSets ``event`` was 1.2-1.4x slower at one run.
    Sampled-stochastic configs take ``event``, since ``ensemble`` refuses
    them unless they opt into ``sampled_batched``.
    """
    if any(c.is_stochastic and not c.sampled_batched for c in configs):
        return "event"
    n_runs = len(configs)
    for c in configs:
        if c.is_stochastic or c.expected_fitness or not c.is_well_mixed:
            return "ensemble"
        views = c.n_ssets * num_states(c.memory_steps)
        ensemble_from = next(
            (runs for bound, runs in ENSEMBLE_FROM_RUNS if views <= bound), 0
        )
        if n_runs >= ensemble_from:
            return "ensemble"
    return "event"


@dataclass(frozen=True)
class JobSpec:
    """One sweep submission: the runs plus how to execute them.

    Parameters
    ----------
    configs:
        The runs, in result order.  Seeds are taken as-is (derive replicate
        seeds with :func:`~repro.api.derive_sweep_seeds` first).
    backend:
        Backend name for :func:`~repro.api.run_sweep`, validated against
        the registry at submit time.  ``None`` (the default) picks the
        faster one for the configs and their run count
        (:func:`default_backend`).  The spec then holds the picked name,
        so :meth:`to_dict` and the journal carry it.
    workers:
        ``run_sweep`` process-pool size (``None`` = in-process, the
        default: service jobs already share a worker pool, and in-process
        execution is what lets progress ticks stream to the job status).
    priority:
        ``"interactive"`` or ``"batch"`` (scheduling only — not part of
        the fingerprint).
    label:
        Free-form caller tag echoed in job listings.
    retry:
        :class:`~repro.service.retry.RetryPolicy` for transient failures
        (``None`` = the single-attempt default).  Execution envelope only
        — like every option below ``configs``, never fingerprinted.
    timeout:
        Wall-clock seconds the job may run before it is cancelled
        cooperatively at progress-tick cadence (``None`` = no timeout).
    """

    configs: tuple[EvolutionConfig, ...]
    backend: str | None = None
    workers: int | None = None
    priority: str = "batch"
    label: str = ""
    retry: RetryPolicy | None = None
    timeout: float | None = None
    #: Cached fingerprint (computed lazily; excluded from equality).
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.configs, tuple):
            object.__setattr__(self, "configs", tuple(self.configs))
        if not self.configs:
            raise ConfigurationError("a job spec needs at least one config")
        for i, config in enumerate(self.configs):
            if not isinstance(config, EvolutionConfig):
                raise ConfigurationError(
                    f"configs[{i}]: expected an EvolutionConfig, got "
                    f"{type(config).__name__}"
                )
        if self.backend is None:
            object.__setattr__(self, "backend", default_backend(self.configs))
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(
                f"field 'backend': expected a backend name, got "
                f"{self.backend!r}"
            )
        if self.workers is not None and (
            isinstance(self.workers, bool) or not isinstance(self.workers, int)
        ):
            raise ConfigurationError(
                f"field 'workers': expected an integer or null, got "
                f"{self.workers!r}"
            )
        if self.priority not in PRIORITIES:
            raise ConfigurationError(
                f"field 'priority': expected one of {PRIORITIES}, got "
                f"{self.priority!r}"
            )
        if not isinstance(self.label, str):
            raise ConfigurationError(
                f"field 'label': expected a string, got {self.label!r}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(
                f"field 'retry': expected a RetryPolicy or None, got "
                f"{type(self.retry).__name__}"
            )
        if self.timeout is not None:
            if isinstance(self.timeout, bool) or not isinstance(
                self.timeout, (int, float)
            ):
                raise ConfigurationError(
                    f"field 'timeout': expected a number or null, got "
                    f"{self.timeout!r}"
                )
            # Chained so NaN fails too; a NaN deadline would never expire.
            if not 0 < self.timeout < math.inf:
                raise ConfigurationError(
                    f"field 'timeout': must be a finite number of seconds "
                    f"> 0, got {self.timeout}"
                )

    # -- identity --------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the science (see module docstring)."""
        cached = self._fingerprint
        if cached is None:
            payload = {
                "format": SPEC_FORMAT_VERSION,
                "configs": [science_fields(c.to_dict()) for c in self.configs],
            }
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # -- dict / JSON round-trip -----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible wire form (``from_dict`` inverts it)."""
        return {
            "version": SPEC_FORMAT_VERSION,
            "configs": [c.to_dict() for c in self.configs],
            "backend": self.backend,
            "workers": self.workers,
            "priority": self.priority,
            "label": self.label,
            "retry": self.retry.to_dict() if self.retry is not None else None,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from :meth:`to_dict` output (strict validation).

        ``share_engine``, a retired field that switched cross-run pair
        sharing, is still accepted as a boolean or null and dropped, so
        journals and clients that wrote it replay unchanged.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"JobSpec.from_dict needs a mapping, got {type(data).__name__}"
            )
        known = {
            "version", "configs", "backend", "workers", "share_engine",
            "priority", "label", "retry", "timeout",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown JobSpec field(s): {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        version = data.get("version", SPEC_FORMAT_VERSION)
        if version not in _READABLE_VERSIONS:
            raise ConfigurationError(
                f"job spec version {version!r} is not supported "
                f"(this server speaks versions {_READABLE_VERSIONS})"
            )
        raw_configs = data.get("configs")
        if not isinstance(raw_configs, Sequence) or isinstance(
            raw_configs, (str, bytes)
        ):
            raise ConfigurationError(
                "field 'configs': expected a list of config dicts"
            )
        configs = []
        for i, raw in enumerate(raw_configs):
            try:
                configs.append(EvolutionConfig.from_dict(raw))
            except ConfigurationError as err:
                raise ConfigurationError(f"configs[{i}]: {err}") from err
        share = data.get("share_engine")  # retired: checked, then dropped
        if share is not None and not isinstance(share, bool):
            raise ConfigurationError(
                f"field 'share_engine': expected a boolean or null, got "
                f"{share!r}"
            )
        raw_retry = data.get("retry")
        retry = (
            RetryPolicy.from_dict(raw_retry) if raw_retry is not None else None
        )
        return cls(
            configs=tuple(configs),
            backend=data.get("backend"),
            workers=data.get("workers"),
            priority=data.get("priority", "batch"),
            label=data.get("label", ""),
            retry=retry,
            timeout=data.get("timeout"),
        )

    def summary(self) -> str:
        """One-line human description for listings and logs."""
        head = self.configs[0]
        return (
            f"{len(self.configs)} run(s) x {head.generations:,} gen "
            f"[{head.summary()}] backend={self.backend} "
            f"priority={self.priority}"
            + (f" label={self.label!r}" if self.label else "")
        )
