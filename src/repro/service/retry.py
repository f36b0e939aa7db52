"""Per-job retry policy: bounded attempts, backoff, error classification.

A :class:`RetryPolicy` rides on the :class:`~repro.service.jobspec.JobSpec`
(execution envelope only — never part of the science fingerprint) and
tells the queue how to treat a failed attempt:

* **classification** — *transient* errors (worker hiccups, flaky I/O:
  :class:`~repro.errors.TransientError`, ``OSError``, ``ConnectionError``,
  ``TimeoutError`` by default, overridable by name) are retried;
  everything else — bad configs, programming errors — is *permanent* and
  fails the job immediately, because re-running a deterministic job
  against the same bug reproduces the same crash.
* **exponential backoff with deterministic jitter** — the delay before
  attempt N+1 grows as ``base_delay * factor**(N-1)`` capped at
  ``max_delay``, scaled by a jitter fraction derived from a sha256 of the
  job's fingerprint and the attempt number.  Deterministic jitter keeps
  the fault-injection suites exactly reproducible while still decorrelating
  distinct jobs' retry storms (two jobs never share a fingerprint unless
  they are the same science — in which case they coalesce instead of
  retrying side by side).

The default policy (``max_attempts=1``) preserves PR 6 behavior: one
attempt, no retries, opt in per job.
"""

from __future__ import annotations

import builtins
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Mapping

from .. import errors
from ..core.config import _coerce_float, _coerce_int
from ..errors import ConfigurationError

__all__ = ["RetryPolicy", "DEFAULT_TRANSIENT"]

#: Exception class names the default policy treats as retryable.
DEFAULT_TRANSIENT = (
    "TransientError",
    "OSError",
    "ConnectionError",
    "TimeoutError",
)


def _resolve(name: str) -> type[BaseException]:
    cls = getattr(errors, name, None)
    if cls is None:
        cls = getattr(builtins, name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        raise ConfigurationError(
            f"retry transient class {name!r} is not a repro.errors or "
            "builtin exception class"
        )
    return cls


@dataclass(frozen=True)
class RetryPolicy:
    """How the queue re-attempts a job that failed transiently."""

    max_attempts: int = 1
    base_delay: float = 0.1
    max_delay: float = 30.0
    factor: float = 2.0
    #: Fraction of each delay that jitters: 0.0 = none, 1.0 = the whole
    #: delay scales by the deterministic [0, 1) draw.
    jitter: float = 0.5
    transient: tuple[str, ...] = DEFAULT_TRANSIENT

    def __post_init__(self) -> None:
        # Type checks first, naming the wire field, so the range checks
        # below compare numbers (JSON carries strings, floats and NaN).
        set_field = object.__setattr__
        set_field(
            self,
            "max_attempts",
            _coerce_int("retry.max_attempts", self.max_attempts),
        )
        for name in ("base_delay", "max_delay", "factor", "jitter"):
            value = _coerce_float(f"retry.{name}", getattr(self, name))
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"field 'retry.{name}': expected a finite number, got "
                    f"{value}"
                )
            set_field(self, name, value)
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"field 'retry.max_attempts': must be >= 1, got "
                f"{self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1, got {self.factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        transient = self.transient
        if not isinstance(transient, (list, tuple)) or not all(
            isinstance(n, str) for n in transient
        ):
            raise ConfigurationError(
                "field 'retry.transient': expected a list of exception "
                f"class names, got {transient!r}"
            )
        set_field(self, "transient", tuple(transient))
        for name in self.transient:
            _resolve(name)  # fail fast on unknown names

    # -- behavior --------------------------------------------------------------

    def is_transient(self, err: BaseException) -> bool:
        """Whether ``err`` is worth another attempt under this policy."""
        return isinstance(err, tuple(_resolve(n) for n in self.transient))

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based).

        Deterministic: the jitter fraction is a pure function of ``key``
        (the job fingerprint) and ``attempt``.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))
        if self.jitter == 0.0 or delay == 0.0:
            return delay
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return delay * (1.0 - self.jitter + self.jitter * fraction)

    # -- wire form -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "factor": self.factor,
            "jitter": self.jitter,
            "transient": list(self.transient),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"retry policy must be a mapping, got {type(data).__name__}"
            )
        known = {
            "max_attempts", "base_delay", "max_delay", "factor", "jitter",
            "transient",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown retry policy field(s): {', '.join(unknown)}"
            )
        return cls(
            max_attempts=data.get("max_attempts", 1),
            base_delay=data.get("base_delay", 0.1),
            max_delay=data.get("max_delay", 30.0),
            factor=data.get("factor", 2.0),
            jitter=data.get("jitter", 0.5),
            transient=data.get("transient", DEFAULT_TRANSIENT),
        )
