"""Shared scaffolding for the benchmark harnesses.

Every harness in ``benchmarks/`` used to carry its own copy of the same
three chores: put ``src/`` on ``sys.path`` so the harness runs without an
install, assemble the provenance envelope around its ``results`` list, and
write the JSON artifact.  They drifted (the service bench forgot the
``backend`` field; none recorded thread counts), so the chores live here
once.

Importing this module bootstraps ``sys.path`` as a side effect — harnesses
do ``import common`` (or ``from common import ...``) *before* importing
``repro``.

The payload schema is shared across all four harnesses::

    {
      "benchmark": "<engine|ensemble|structured|service>",
      "created_unix": ...,
      "mode": "smoke" | "full",
      "python": "3.x.y",
      "platform": "...",
      "repro_version": "...",
      "cpu_count": ...,                          # host parallelism
      "thread_env": {"OMP_NUM_THREADS": ...},    # BLAS/OpenMP pinning, if set
      ...harness extras (e.g. "backend": "event"),
      "results": [...],
    }
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # runnable without installation
    sys.path.insert(0, str(REPO_ROOT / "src"))

#: Thread-pinning variables that change NumPy/BLAS throughput; recorded so a
#: regression hunt can rule out "the box was pinned differently" first.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def thread_env() -> dict[str, str]:
    """The thread-pinning environment variables that are actually set."""
    return {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ}


def build_payload(
    benchmark: str,
    *,
    smoke: bool,
    results: list[dict],
    **extra: object,
) -> dict:
    """Assemble the shared provenance envelope around ``results``.

    ``extra`` key/values (e.g. ``backend="event"``) land between the
    provenance block and ``results``.
    """
    from repro import __version__

    payload: dict = {
        "benchmark": benchmark,
        "created_unix": int(time.time()),
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": __version__,
        "cpu_count": os.cpu_count(),
        "thread_env": thread_env(),
    }
    payload.update(extra)
    payload["results"] = results
    return payload


def checkpoint_provenance(results: list) -> dict:
    """Resume provenance of a result list, for bench records.

    Folds each run's ``BackendReport.resumed_from_generation`` into one
    dict — how many runs were restored from a mid-run snapshot and the
    deepest restore point — so an artifact row states whether its timings
    cover full executions or resumed tails.
    """
    resumed = [
        r.backend_report.resumed_from_generation
        for r in results
        if r.backend_report is not None
        and r.backend_report.resumed_from_generation is not None
    ]
    return {
        "runs": len(results),
        "resumed_runs": len(resumed),
        "max_resumed_from_generation": max(resumed) if resumed else None,
    }


def write_payload(out: str | Path, payload: dict, *, label: str) -> Path:
    """Write the artifact and print the one-line receipt every harness ends on."""
    out = Path(out)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(payload['results'])} {label})")
    return out
