"""Span tracing for the benchmark, installed from outside the program.

The tracer wraps entry points of the ``repro`` layers (module functions
and class methods) with a recorder, so no file under ``src/`` changes.
Every wrapped call becomes a span: name, start, end, parent span and
request id.  The request id is whatever :meth:`Tracer.request` set on the
calling thread: a sweep call index in the benchmark process, a job id
inside the server.

Self time is computed online from a per-thread span stack (a span's
duration minus the time its child spans cover) and summed per
``(request, layer)``; counters (pairs, games, draws, ...) are summed per
``(request, counter)``.  The first :data:`SPAN_CAP` raw spans are also kept in
memory and written out as JSON lines by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: ``counter(args, kwargs) -> {counter name: amount}`` for a wrapped call.
Counter = Callable[[tuple, dict], dict]


def _calls(name: str) -> Counter:
    return lambda args, kwargs: {name: 1}


def _pairs_of(calls: str, items: str) -> Counter:
    # Both vectorgame kernels take (tables, a_idx, b_idx, ...).
    return lambda args, kwargs: {calls: 1, items: len(args[1])}


#: (module, owner attribute path, attribute, layer, counter).  Owner ``""``
#: patches the module function itself; otherwise the named class.  The
#: vectorgame kernels are patched where they are imported, because their
#: callers bind them at import time.
LAYERS: tuple = (
    ("repro.ensemble.driver", "", "_run_group_shared", "ensemble.driver.loop_s", None),
    ("repro.ensemble.driver", "", "_run_group_generic", "ensemble.driver.loop_s", None),
    ("repro.ensemble.driver", "", "_draw_flags", "ensemble.rawstream.decode_s",
     _calls("ensemble.rawstream.draws")),
    *(
        ("repro.ensemble.rawstream", cls, "draw", "ensemble.rawstream.decode_s",
         _calls("ensemble.rawstream.draws"))
        for cls in (
            "_RawPCDecoder", "_ScalarPCDecoder", "_RawGraphPCDecoder",
            "_ScalarGraphPCDecoder", "_RawMutationDecoder",
            "_ScalarMutationDecoder",
        )
    ),
    *(
        ("repro.ensemble.engine", "EnsembleEngine", attr, "ensemble.engine.pool_s", None)
        for attr in ("acquire", "recycle", "compact", "intern_lane")
    ),
    ("repro.ensemble.engine", "EnsembleEngine", "fill_missing", "ensemble.engine.check_s", None),
    ("repro.ensemble.engine", "EnsembleEngine", "ensure_rows", "ensemble.engine.check_s", None),
    ("repro.ensemble.engine", "EnsembleEngine", "fitness_pc_well_mixed",
     "ensemble.engine.gather_s", None),
    ("repro.ensemble.engine", "EnsembleEngine", "fitness_pc_graph",
     "ensemble.engine.gather_s", None),
    *(
        (module, "", "cycle_payoffs_pairs", "core.vectorgame.cycle_s",
         _pairs_of("core.vectorgame.cycle_calls", "core.vectorgame.pairs"))
        for module in ("repro.ensemble.engine", "repro.core.engine")
    ),
    ("repro.core.engine", "", "play_pairs_uniforms", "core.vectorgame.sampled_s",
     _pairs_of("core.vectorgame.sampled_calls", "core.vectorgame.games")),
    ("repro.core.engine", "SampledFitnessEngine", "pc_plan", "core.engine.plan_s", None),
    ("repro.core.engine", "SampledFitnessEngine", "draw_uniforms",
     "core.engine.uniforms_s", None),
    ("repro.core.engine", "SampledFitnessEngine", "eval_plans", "core.engine.fuse_s", None),
    *(
        (module, "", "run_event_driven", "core.evolution.loop_s", None)
        for module in ("repro.core.evolution", "repro.api.backends")
    ),
    *(
        ("repro.core.nature", "NatureAgent", attr, "core.nature_s", None)
        for attr in (
            "generation_events", "batch_event_flags", "pc_selection",
            "decide_learning", "mutation_selection",
        )
    ),
    ("repro.core.engine", "FitnessEngine", "intern", "core.engine.intern_s", None),
    ("repro.core.engine", "FitnessEngine", "release", "core.engine.intern_s", None),
    ("repro.structure.base", "InteractionModel", "pair_fitness", "structure.fitness_s", None),
    ("repro.structure.graphs", "GraphStructure", "pair_fitness", "structure.fitness_s", None),
    ("repro.core.population", "Population", "adopt", "core.population_s", None),
    ("repro.core.population", "Population", "mutate", "core.population_s", None),
)


class _ThreadState:
    __slots__ = ("stack", "request")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.request: object = None


#: Raw spans kept in memory per process (aggregates cover every span).
SPAN_CAP = 50_000


class Tracer:
    """Records spans around wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.self_s: dict[tuple, float] = defaultdict(float)
        self.counts: dict[tuple, int] = defaultdict(int)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    @contextmanager
    def request(self, request_id: object):
        """Attribute the spans this thread records to ``request_id``."""
        state = self._state()
        previous, state.request = state.request, request_id
        try:
            yield
        finally:
            state.request = previous

    def wrap(self, layer: str, fn: Callable, counter: Counter | None = None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1][2] if stack else 0
            # [start, time covered by child spans, span id]
            frame = [clock(), 0.0, next(tracer._ids)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                rid = state.request
                with tracer._lock:
                    tracer.self_s[(rid, layer)] += duration - frame[1]
                    if counter is not None:
                        for name, amount in counter(args, kwargs).items():
                            tracer.counts[(rid, name)] += amount
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append(
                            (layer, frame[0], end, parent, frame[2], rid)
                        )

        return traced

    def install(self) -> None:
        """Patch every entry point in :data:`LAYERS` (idempotent)."""
        import importlib

        if self._patches:
            return
        for module_name, owner_name, attr, layer, counter in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if isinstance(raw, staticmethod):
                patched: object = staticmethod(
                    self.wrap(layer, raw.__func__, counter)
                )
            else:
                patched = self.wrap(layer, raw, counter)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def wrap_job_execution(self) -> None:
        """Attribute server-side spans to the job being executed.

        ``JobQueue._execute`` runs one job on a worker thread; wrapping it
        in :meth:`request` tags everything beneath with the job id.
        """
        from repro.service.queue import JobQueue

        raw = JobQueue.__dict__["_execute"]
        tracer = self

        @functools.wraps(raw)
        def execute(queue, job):
            with tracer.request(job.job_id):
                return raw(queue, job)

        JobQueue._execute = execute
        self._patches.append((JobQueue, "_execute", raw))

    def summary(self) -> dict:
        """Self seconds and counters, keyed by request id then name."""
        with self._lock:
            layers: dict = defaultdict(dict)
            for (rid, layer), seconds in self.self_s.items():
                layers[str(rid)][layer] = seconds
            counts: dict = defaultdict(dict)
            for (rid, name), amount in self.counts.items():
                counts[str(rid)][name] = amount
            return {"self_s": dict(layers), "counts": dict(counts)}

    def write(self, path: Path) -> None:
        """Write the kept spans (one JSON object per line) and the summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"summary": self.summary()}) + "\n")
            for layer, start, end, parent, span_id, rid in spans:
                out.write(
                    json.dumps(
                        {
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "span": span_id,
                            "request": str(rid),
                        }
                    )
                    + "\n"
                )


def per_request(summary: dict, requests: list[str]) -> tuple[dict, dict]:
    """Sum a :meth:`Tracer.summary` over ``requests``: (self_s, counts)."""
    self_s: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    for rid in requests:
        for layer, seconds in summary["self_s"].get(rid, {}).items():
            self_s[layer] += seconds
        for name, amount in summary["counts"].get(rid, {}).items():
            counts[name] += amount
    return dict(self_s), dict(counts)
