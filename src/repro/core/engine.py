"""Interned-strategy fitness engine: dense payoff-matrix population fitness.

The legacy :class:`~repro.core.payoff_cache.PayoffCache` keys every probe on
strategy *bytes* (``table.tobytes()`` + a dict of bytes tuples) and walks
Python loops per distinct opponent.  This module replaces those per-event
loops with integer-indexed array math:

* :class:`StrategyPool` interns every distinct strategy table into a stable
  integer id (**sid**) backed by one stacked ``(capacity, 4**n)`` table
  array (the layout of :func:`repro.core.vectorgame.stack_tables`).  Slots
  are reference-counted against the population multiset.  In the
  deterministic regime they are recycled when the last SSet drops a
  strategy, keeping the pool O(population) for arbitrarily long runs; the
  expected regime instead *retires* dead slots (see the bit-parity notes
  below), so there — like the legacy cache it mirrors, though with a
  denser footprint — memory grows with the distinct strategies ever seen.

* :class:`FitnessEngine` maintains a dense ``capacity x capacity`` payoff
  matrix over those slots — ``paymat[i, j]`` is the total game payoff
  strategy ``i`` earns against strategy ``j`` — and population fitness
  collapses to ``counts @ paymat[sid]`` for well-mixed populations and
  ``paymat[sid, sids[neighbors]].sum()`` for graph neighborhoods.

Bit-parity contract
-------------------
The engine is an *optimisation*, not a model change: for every supported
configuration it must follow the **bit-identical trajectory** of the legacy
``PayoffCache`` path (pinned by the golden-hash tests).  That drives the
regime split:

* **deterministic** (pure strategies, no noise) — new sids are filled
  *eagerly*, one batched cycle-exact row+column evaluation per intern
  (:func:`repro.core.vectorgame.cycle_payoffs_pairs`), or ahead of time
  for a window of mutants pinned by :meth:`FitnessEngine.prefetch`.
  Payoffs are sums of integer payoff-matrix entries, exact in float64 in
  any summation order, so the vectorised fills and dot products match the
  scalar cycle engine bit for bit.  Integer payoff matrices only — the
  engine refuses (and drivers fall back to the legacy cache) otherwise.

* **expected** (Markov-exact fitness for noisy / mixed games) — expected
  payoffs are irrational floats whose summation order matters, and the
  batched Markov kernel is *not* bitwise perspective-symmetric, so eager
  transposed fills would drift by ulps.  The engine instead fills rows
  *lazily at query time with the focal strategy as the evaluation
  perspective*, exactly when and how the legacy cache evaluates its
  misses (same kernel, :func:`repro.core.markov.expected_payoffs_many`,
  same batch membership), and accumulates fitness in the same
  histogram-insertion order with the same left-to-right float additions.

* **sampled** (stochastic games without ``expected_fitness``) — every game
  is an independent draw from the shared RNG stream and is never cached,
  so there is nothing to vectorise without changing the random-number
  consumption (and hence the trajectory).  :meth:`FitnessEngine.from_config`
  returns ``None`` and the drivers keep the legacy scalar path — unless the
  configuration *opts in* with ``sampled_batched=True``, which swaps in the
  :class:`SampledFitnessEngine` below: all of an event's sampled games run
  as one :func:`repro.core.vectorgame.play_pairs_uniforms` program over a
  dedicated seed stream.  That mode trades the bit-parity contract for a
  *statistical-equivalence* contract against the legacy scalar path
  (pinned by distribution tests), while staying bit-reproducible per seed
  and bit-identical between the serial and ensemble drivers.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, SimulationError, StrategyError
from .config import EvolutionConfig
from .cycle import exact_payoffs
from .markov import expected_payoffs, expected_payoffs_many
from .payoff import PAPER_PAYOFF, PayoffMatrix
from .payoff_cache import PayoffCache
from .states import num_states
from .strategy import Strategy
from .vectorgame import (
    cycle_payoffs_pairs,
    play_pairs_uniforms,
    sampled_draws_per_round,
    stack_tables,
)

__all__ = [
    "StrategyPool",
    "FitnessEngine",
    "SampledFitnessEngine",
    "SampledPlan",
    "is_integer_payoff",
]


def is_integer_payoff(payoff: PayoffMatrix) -> bool:
    """Whether every payoff value is integer-valued (float-exact sums)."""
    return all(float(v).is_integer() for v in payoff.vector)


#: View states (pairs x 4**memory) one deterministic fill hands the kernel
#: per call (:meth:`FitnessEngine._fill_rows`): about 8 MB of kernel
#: temporaries at ~32 bytes each, a memory-6 row over 64 sids.  Longer
#: rows split.
_FILL_ENTRIES = 1 << 18

#: The prefetch window's scale: :func:`prefetch_window` gives
#: ``sqrt(_PREFETCH_VIEWS / 4**memory)`` mutants.
_PREFETCH_VIEWS = 1 << 12

#: The smallest window that prefetches; smaller ones are no prefetch.
_MIN_WINDOW = 4


def prefetch_window(memory_steps: int) -> int:
    """Mutants per event-driver window of :meth:`FitnessEngine.prefetch`.

    A window of ``k`` mutants fills in one kernel call what ``k`` calls
    fill one mutant at a time, saving ``k - 1`` fixed costs of ~50 µs.  It
    overshoots by the pairs among its mutants, about ``k / 2`` per mutant,
    each costing in proportion to the ``4**memory`` view states.  The sum
    of the two per mutant, ``F / k + c * 4**memory * k / 2``, is least at
    ``k`` proportional to ``1 / sqrt(4**memory)``: 32, 16, 8 and 4
    mutants at memory 1-4, each the fastest window measured on 16-SSet
    event runs (2 runs x 4,000 generations), or tied with it.  Below
    :data:`_MIN_WINDOW` no window measured a gain (a window of two at
    memory 5 ran within run-to-run spread of none), so memory 5 and 6
    take a window of one: no prefetch, each mutant is filled when it is
    interned.
    """
    k = math.isqrt(_PREFETCH_VIEWS // num_states(memory_steps))
    return k if k >= _MIN_WINDOW else 1


class StrategyPool:
    """Interns distinct strategy tables into stable, recycled integer slots.

    The pool is the sid <-> strategy bijection behind the engine: one
    stacked table array plus per-slot reference counts.  ``acquire`` /
    ``release`` mirror the add/remove semantics of
    :class:`~repro.core.payoff_cache.StrategyHistogram` — including
    insertion order, which :meth:`ordered_sids` exposes because the
    expected-fitness regime must accumulate payoffs in exactly that order
    to stay on the legacy trajectory.

    Evicting pools also take *pins* (:meth:`pin` / :meth:`unpin`): a pin
    holds a slot, its table and its sid for a strategy that no SSet may
    hold yet, so a caller can fill its payoffs ahead of need.  Pins sit
    beside the reference counts and never enter them, the live order or
    ``len(pool)`` — well-mixed fitness reads :attr:`refcounts` as the SSet
    counts.  A slot is recycled once it has neither references nor pins.
    """

    def __init__(
        self,
        memory_steps: int,
        dtype: np.dtype,
        capacity: int = 64,
        evict: bool = True,
        cap: int = 0,
        on_evict: "Callable[[int], None] | None" = None,
    ):
        if memory_steps < 1:
            raise ConfigurationError(
                f"memory_steps must be >= 1, got {memory_steps}"
            )
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if cap < 0:
            raise ConfigurationError(
                f"cap must be >= 0 (0 = unbounded), got {cap}"
            )
        self.memory_steps = memory_steps
        self.n_states = num_states(memory_steps)
        #: With ``evict`` (deterministic regime) a slot whose refcount hits
        #: zero is recycled, keeping the pool O(live strategies).  Without
        #: it (expected regime) the slot is *retired* — the strategy, its
        #: id, and its matrix row survive so a strategy that dies and later
        #: reappears reuses its previously evaluated payoffs, exactly like
        #: the legacy cache's unbounded memoisation (bit-parity needs this:
        #: re-evaluating from a different perspective drifts by ulps).
        self.evict = evict
        #: Non-evicting pools only: bound on live + retired strategies
        #: tracked.  Once reached, acquiring a *new* strategy recycles the
        #: oldest retired slot (``on_evict`` is told so dependent matrices
        #: can invalidate the slot's rows) instead of tracking one more.
        #: 0 = unbounded, the legacy-mirroring default.
        self.cap = cap
        self.on_evict = on_evict
        #: Retired slots (refcount 0, strategy kept) in retirement order —
        #: the cap's recycling queue.  Always empty in evicting pools.
        self._retired: dict[int, None] = {}
        self._tables = np.zeros((capacity, self.n_states), dtype=dtype)
        self._strategies: list[Strategy | None] = [None] * capacity
        self._ids: dict[bytes, int] = {}
        self._refcounts = np.zeros(capacity, dtype=np.int64)
        #: Pin counts of the pinned slots (evicting pools only) and their
        #: sum.
        self._pins: dict[int, int] = {}
        self._n_pins = 0
        #: LIFO free list (low slots first) — slot assignment is
        #: deterministic but carries no science, only matrix layout.
        self._free = list(range(capacity - 1, -1, -1))
        #: Live sids in histogram insertion order (dict preserves order).
        self._order: dict[int, None] = {}
        self._order_array: np.ndarray | None = None

    # -- views ----------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._tables.shape[0]

    @property
    def tables(self) -> np.ndarray:
        """The stacked ``(capacity, 4**n)`` backing array (live rows valid)."""
        return self._tables

    @property
    def refcounts(self) -> np.ndarray:
        """Per-slot SSet counts (0 for free and pinned-only slots)."""
        return self._refcounts

    @property
    def pins(self) -> dict[int, int]:
        """Pin counts by pinned slot (see :meth:`pin`; read-only)."""
        return self._pins

    @property
    def pinned(self) -> int:
        """Pins outstanding, summed over slots."""
        return self._n_pins

    def __len__(self) -> int:
        """Number of distinct live strategies."""
        return len(self._order)

    @property
    def tracked(self) -> int:
        """Distinct strategies the pool holds tables for (live + retired)."""
        return len(self._order) + len(self._retired)

    @property
    def total(self) -> int:
        """Number of SSets represented (sum of refcounts)."""
        return int(self._refcounts.sum())

    def __contains__(self, strategy: Strategy) -> bool:
        return strategy.key() in self._ids

    def sid_of(self, strategy: Strategy) -> int:
        """The live sid of ``strategy`` (KeyError if not interned)."""
        return self._ids[strategy.key()]

    def strategy(self, sid: int) -> Strategy:
        found = self._strategies[sid]
        if found is None:
            raise SimulationError(f"slot {sid} is free (no live strategy)")
        return found

    def count(self, sid: int) -> int:
        return int(self._refcounts[sid])

    def ordered_sids(self) -> np.ndarray:
        """Live sids in histogram insertion order (cached array view)."""
        if self._order_array is None:
            self._order_array = np.fromiter(
                self._order, dtype=np.int64, count=len(self._order)
            )
        return self._order_array

    # -- interning ------------------------------------------------------------

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        tables = np.zeros((new, self.n_states), dtype=self._tables.dtype)
        tables[:old] = self._tables
        self._tables = tables
        refcounts = np.zeros(new, dtype=np.int64)
        refcounts[:old] = self._refcounts
        self._refcounts = refcounts
        self._strategies.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def _check_memory(self, strategy: Strategy) -> None:
        if strategy.memory_steps != self.memory_steps:
            raise StrategyError(
                f"pool interns memory-{self.memory_steps} strategies, got "
                f"memory-{strategy.memory_steps}"
            )

    def _allocate(self, strategy: Strategy, key: bytes) -> int:
        """Take a free slot (growing if none) and write ``strategy`` to it."""
        if not self._free:
            self._grow()
        sid = self._free.pop()
        table = (
            strategy.table
            if self._tables.dtype == strategy.table.dtype
            else strategy.defect_probabilities()
        )
        self._tables[sid] = table
        self._strategies[sid] = strategy
        self._ids[key] = sid
        return sid

    def _free_slot(self, sid: int) -> None:
        strategy = self._strategies[sid]
        assert strategy is not None
        del self._ids[strategy.key()]
        self._strategies[sid] = None
        self._free.append(sid)

    def acquire(self, strategy: Strategy) -> tuple[int, bool]:
        """Intern ``strategy`` (refcount + 1); returns ``(sid, is_new)``.

        ``is_new`` means the slot was allocated by this call.  A pinned
        strategy that no SSet held enters the live order with
        ``is_new`` false: its slot and table are already there.
        """
        self._check_memory(strategy)
        key = strategy.key()
        sid = self._ids.get(key)
        if sid is not None:
            if self._refcounts[sid] == 0:
                # Reviving a retired slot (non-evicting pools) or a pinned
                # one: the strategy re-enters the live order at the end,
                # exactly like a histogram re-add.
                self._order[sid] = None
                self._order_array = None
                self._retired.pop(sid, None)
            self._refcounts[sid] += 1
            return sid, False
        if (
            self.cap
            and not self.evict
            and self._retired
            and self.tracked >= self.cap
        ):
            self._evict_oldest_retired()
        sid = self._allocate(strategy, key)
        self._refcounts[sid] = 1
        self._order[sid] = None
        self._order_array = None
        return sid, True

    def release(self, sid: int) -> bool:
        """Drop one reference; returns True when the strategy left the live
        set (slot recycled when evicting and unpinned, retired when not
        evicting)."""
        if self._refcounts[sid] <= 0:
            raise SimulationError(f"release of slot {sid} with no references")
        self._refcounts[sid] -= 1
        if self._refcounts[sid] > 0:
            return False
        del self._order[sid]
        self._order_array = None
        if not self.evict:
            self._retired[sid] = None
        elif sid not in self._pins:
            self._free_slot(sid)
        return True

    def pin(self, strategy: Strategy) -> tuple[int, bool]:
        """Hold ``strategy``'s slot without an SSet reference; returns
        ``(sid, is_new)``, ``is_new`` when the slot was allocated for the
        pin (its payoffs are not filled yet).

        The slot survives every :meth:`release` until its last
        :meth:`unpin`, and an :meth:`acquire` of the strategy meanwhile
        reuses it.  Evicting pools only: a retiring pool keeps every slot
        anyway.
        """
        if not self.evict:
            raise SimulationError("pins need an evicting pool")
        self._check_memory(strategy)
        key = strategy.key()
        pins = self._pins
        sid = self._ids.get(key)
        is_new = sid is None
        if is_new:
            sid = self._allocate(strategy, key)
        pins[sid] = pins.get(sid, 0) + 1
        self._n_pins += 1
        return sid, is_new

    def unpin(self, sid: int) -> None:
        """Drop one pin; the slot is recycled if nothing else holds it."""
        pins = self._pins
        count = pins.get(sid, 0)
        if count <= 0:
            raise SimulationError(f"unpin of slot {sid} with no pins")
        self._n_pins -= 1
        if count > 1:
            pins[sid] = count - 1
            return
        del pins[sid]
        if not self._refcounts[sid]:
            self._free_slot(sid)

    def _evict_oldest_retired(self) -> None:
        """Recycle the longest-retired slot (cap enforcement).

        The slot's strategy, id, and — through ``on_evict`` — any dependent
        matrix rows are dropped, so a later reappearance of the strategy is
        re-evaluated from scratch (the documented over-cap ulp caveat).
        """
        sid = next(iter(self._retired))
        del self._retired[sid]
        self._free_slot(sid)
        if self.on_evict is not None:
            self.on_evict(sid)

    def stats(self) -> dict[str, int]:
        """Pool occupancy + memory accounting for reports/benchmarks."""
        return {
            "live": len(self._order),
            "retired": len(self._retired),
            "tracked": self.tracked,
            "pinned": self._n_pins,
            "capacity": self.capacity,
            "tables_bytes": int(self._tables.nbytes)
            + int(self._refcounts.nbytes),
        }

    def check_consistent(self, strategies: list[Strategy]) -> None:
        """Verify the live counts equal a recount of ``strategies`` and the
        slot bookkeeping agrees with itself — test/paranoia helper.

        Every slot is free, or held by references, pins or retirement;
        the live order lists exactly the referenced slots; pins sum to
        :attr:`pinned`.
        """
        counts: dict[bytes, int] = {}
        for s in strategies:
            counts[s.key()] = counts.get(s.key(), 0) + 1
        live = {self.strategy(int(j)).key(): self.count(int(j))
                for j in self.ordered_sids()}
        if counts != live:
            raise SimulationError(
                "strategy pool desynced from the population multiset "
                f"({len(counts)} distinct expected, {len(live)} live)"
            )
        refs = self._refcounts
        held = refs > 0
        held[list(self._pins)] = True
        held[list(self._retired)] = True
        occupied = [s is not None for s in self._strategies]
        free = np.zeros(self.capacity, dtype=bool)
        free[self._free] = True
        if (
            (refs < 0).any()
            or min(self._pins.values(), default=1) < 1
            or sum(self._pins.values()) != self._n_pins
            or set(self._order) != set(np.flatnonzero(refs > 0).tolist())
            or len(self._free) != int(free.sum())
            or not np.array_equal(held, occupied)
            or not np.array_equal(free, ~held)
            or sorted(self._ids.values()) != np.flatnonzero(held).tolist()
        ):
            raise SimulationError("strategy pool slot bookkeeping is corrupt")


class FitnessEngine:
    """Dense payoff-matrix fitness over interned strategies.

    Built directly (see ``__init__`` parameters, mirroring
    :class:`~repro.core.payoff_cache.PayoffCache`) or from a configuration
    via :meth:`from_config`, which returns ``None`` for regimes the dense
    kernel cannot serve bit-identically (sampled-stochastic fitness, or
    deterministic fitness under a non-integer payoff matrix) so callers
    fall back to the legacy cache.

    ``hits`` counts fitness queries served from the dense matrix.
    ``misses`` counts the ordered pair evaluations that interning one
    strategy at a time performs to fill it (the analogue of the legacy
    cache's evaluation count): a strategy entering the live set adds the
    live count, itself included, whether its row is filled then or was
    filled ahead by :meth:`prefetch`.  So ``misses`` is a property of the
    trajectory, not of the fill schedule: a prefetch also fills pairs no
    event reads (with strategies that die before a mutant's event,
    between mutants that never meet), which it does not count, and the
    kernel's own pair count (``core.vectorgame.pairs`` in a perfbench
    trace) shows that overshoot.
    """

    def __init__(
        self,
        memory_steps: int,
        rounds: int,
        payoff: PayoffMatrix = PAPER_PAYOFF,
        noise: float = 0.0,
        expected: bool = False,
        mixed: bool = False,
        capacity: int = 64,
        pool_cap: int = 0,
    ):
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if not expected:
            if noise > 0.0 or mixed:
                raise ConfigurationError(
                    "stochastic sampled fitness cannot be served from a "
                    "dense payoff matrix (every game is an independent "
                    "draw); use expected=True or the legacy PayoffCache"
                )
            if not is_integer_payoff(payoff):
                raise ConfigurationError(
                    "the deterministic dense kernel is float-exact (hence "
                    "trajectory-identical to the legacy cache) only for "
                    f"integer payoff matrices, got {list(payoff.vector)}; "
                    "use the legacy PayoffCache for non-integer payoffs"
                )
        self.rounds = rounds
        self.payoff = payoff
        self.noise = noise
        self.expected = expected
        #: Deterministic fills may keep float32 block sums in the batched
        #: kernel — exact (hence still bit-identical) while every partial
        #: sum stays under 2**24.
        self._compact_fill = not expected and rounds * max(
            abs(float(v)) for v in payoff.vector
        ) < 2.0**24
        self.pool = StrategyPool(
            memory_steps,
            np.dtype(np.float64) if mixed else np.dtype(np.uint8),
            capacity=capacity,
            # The expected regime retires slots instead of recycling them —
            # see StrategyPool.evict; the legacy cache it mirrors never
            # forgets an evaluated pair either.  ``pool_cap`` bounds the
            # retirement (EvolutionConfig.engine_pool_cap).
            evict=not expected,
            cap=pool_cap,
            on_evict=self._on_slot_evicted,
        )
        capacity = self.pool.capacity
        #: Dense ``capacity x capacity`` float64 matrix.
        self._paymat = np.zeros((capacity, capacity), dtype=np.float64)
        #: Lazy-regime fill mask; the eager deterministic regime keeps every
        #: live row/column filled by construction and leaves this ``None``.
        self._evaluated: np.ndarray | None = (
            np.zeros((capacity, capacity), dtype=bool) if expected else None
        )
        #: Mutants per event-driver prefetch window (:meth:`prefetch`).
        #: One, in the lazy regime, leaves each mutant to its own
        #: :meth:`intern`.
        self.prefetch_window = 1 if expected else prefetch_window(memory_steps)
        self.hits = 0
        self.misses = 0
        #: Ordered log of lazy (expected-regime) fill operations, armed by
        #: :meth:`enable_fill_log` when mid-run checkpointing is active.
        #: Each entry is ``("row", sid, missing_list)`` (an
        #: :meth:`_ensure_row` evaluation batch) or ``("self", sid)`` (a
        #: scalar :meth:`_self_payoff` evaluation).  Replaying the log on a
        #: freshly interned pool reproduces the matrix, the evaluated mask,
        #: and every ulp — same kernel, same batch membership — which is how
        #: :mod:`repro.core.runstate` rebuilds the engine deterministically
        #: instead of serialising the float matrix.  ``None`` (the default)
        #: costs nothing on the hot path.
        self._fill_log: list[tuple] | None = None

    def enable_fill_log(self) -> None:
        """Start recording lazy fill operations (idempotent; expected
        regime only — the eager deterministic matrix rebuilds from the
        population alone and needs no history)."""
        if self._fill_log is None:
            self._fill_log = []

    @classmethod
    def from_config(cls, config: EvolutionConfig) -> "FitnessEngine | None":
        """Build the engine for ``config``, or ``None`` when the dense
        kernel cannot reproduce the legacy trajectory bit-for-bit."""
        if not config.engine:
            return None
        if config.is_stochastic:
            # Sampled regime: the legacy path replays one fresh game per
            # probe from the shared games stream; caching would change both
            # the science and the RNG consumption.
            return None
        expected = config.expected_fitness and (
            config.noise > 0.0 or config.mixed_strategies
        )
        if not expected and not is_integer_payoff(config.payoff):
            return None
        return cls(
            memory_steps=config.memory_steps,
            rounds=config.rounds,
            payoff=config.payoff,
            noise=config.noise,
            expected=expected,
            mixed=config.mixed_strategies,
            # Room for every SSet distinct, one intern in flight and a
            # prefetch window's pins.
            capacity=max(
                64, config.n_ssets + 2 + prefetch_window(config.memory_steps)
            ),
            pool_cap=config.engine_pool_cap,
        )

    # -- matrix maintenance ----------------------------------------------------

    @property
    def paymat(self) -> np.ndarray:
        """The dense payoff matrix (rows/columns beyond live sids stale)."""
        return self._paymat

    def _sync_capacity(self) -> None:
        capacity = self.pool.capacity
        if self._paymat.shape[0] == capacity:
            return
        paymat = np.zeros((capacity, capacity), dtype=np.float64)
        old = self._paymat.shape[0]
        paymat[:old, :old] = self._paymat
        self._paymat = paymat
        if self._evaluated is not None:
            evaluated = np.zeros((capacity, capacity), dtype=bool)
            evaluated[:old, :old] = self._evaluated
            self._evaluated = evaluated

    def intern(self, strategy: Strategy) -> int:
        """Intern one strategy occurrence, filling the matrix if new."""
        pool = self.pool
        sid, is_new = pool.acquire(strategy)
        if is_new:
            self._sync_capacity()
            if self._evaluated is None:
                self._fill_new_rows(1)
        elif sid in pool.pins and pool.refcounts[sid] == 1:
            # A pinned strategy enters the live set: :meth:`prefetch`
            # filled its row, so count what interning it fresh would.
            self.misses += len(pool)
        return sid

    def intern_all(self, strategies: list[Strategy]) -> np.ndarray:
        """Bulk-intern a population's strategies; returns the sid array.

        Stacks the tables first (:func:`repro.core.vectorgame.stack_tables`)
        so a heterogeneous list fails loudly before any slot is allocated.
        The eager deterministic regime then fills all new strategies
        together (:meth:`_fill_new_rows`): the pairs, values
        and ``misses`` of one-at-a-time :meth:`intern` calls, in a few
        kernel calls instead of one per strategy.
        """
        _, memory_steps, any_mixed = stack_tables(strategies)
        if memory_steps != self.pool.memory_steps:
            raise StrategyError(
                f"engine interns memory-{self.pool.memory_steps} strategies, "
                f"got memory-{memory_steps}"
            )
        if any_mixed and self.pool.tables.dtype == np.uint8:
            raise StrategyError(
                "engine was built for pure strategies but the population "
                "holds mixed ones"
            )
        if self._evaluated is not None:
            return np.array(
                [self.intern(s) for s in strategies], dtype=np.int64
            )
        acquired = [self.pool.acquire(s) for s in strategies]
        n_new = sum(is_new for _, is_new in acquired)
        if n_new:
            self._sync_capacity()
            self._fill_new_rows(n_new)
        return np.array([sid for sid, _ in acquired], dtype=np.int64)

    def release(self, sid: int) -> None:
        """Drop one strategy occurrence (slot recycled or retired at zero;
        retired slots keep their evaluated payoffs for reappearances)."""
        self.pool.release(sid)

    def _on_slot_evicted(self, sid: int) -> None:
        """Pool cap recycled a retired slot: invalidate its matrix rows."""
        self._paymat[sid, :] = 0.0
        self._paymat[:, sid] = 0.0
        if self._evaluated is not None:
            self._evaluated[sid, :] = False
            self._evaluated[:, sid] = False

    def _fill_new_rows(self, n_new: int) -> None:
        """Eager batched cycle-exact fill for the ``n_new`` newest live
        sids, interned in live order with nothing released since.

        Each new sid is paired with every sid live when it arrived, itself
        included: the row + column one-at-a-time interning fills, and what
        ``misses`` counts.  Refused while prefetch pins are out: inside a
        window only its pinned mutants enter the population (an adoption
        copies a live strategy), so a fresh intern there means a window
        missed a mutant.
        """
        pool = self.pool
        if pool.pinned:
            raise SimulationError(
                f"fresh intern with {pool.pinned} prefetch pin(s) out: "
                "a window missed a mutant"
            )
        live = pool.ordered_sids()
        stop = live.shape[0]
        # Live position p meets live[: p + 1]: p + 1 pairs.
        self.misses += n_new * (2 * stop - n_new + 1) // 2
        self._fill_rows(live, n_new)

    def _fill_rows(self, sids: np.ndarray, n_rows: int) -> None:
        """Fill the rows of the last ``n_rows`` of ``sids``, each sid
        against ``sids`` up to itself, in kernel calls of at most
        :data:`_FILL_ENTRIES` view states.

        Whole rows go to the kernel together while they fit; a row longer
        than the budget (every later row is longer still) goes alone,
        split into calls of at most the budget.  The values do not depend
        on the grouping: each pair is an exact integer sum.
        """
        budget = max(1, _FILL_ENTRIES // self.pool.n_states)  # pairs/call
        stop = sids.shape[0]
        row = stop - n_rows
        while row < stop:
            # The sid at position p meets sids[: p + 1].
            if row + 1 > budget:
                focal = np.full(budget, sids[row])
                for lo in range(0, row + 1, budget):
                    opponents = sids[lo : min(lo + budget, row + 1)]
                    self._fill_pairs(focal[: opponents.shape[0]], opponents)
                row += 1
                continue
            end, pairs = row + 1, row + 1
            while end < stop and pairs + end + 1 <= budget:
                pairs += end + 1
                end += 1
            if end == row + 1:
                self._fill_pairs(np.full(pairs, sids[row]), sids[:pairs])
                row = end
                continue
            lengths = np.arange(row + 1, end + 1)
            # Row p's opponents are the prefix sids[: p + 1]: one flat
            # index per pair, restarting at 0 with every row.
            restarts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            self._fill_pairs(
                np.repeat(sids[row:end], lengths),
                sids[np.arange(pairs) - restarts],
            )
            row = end

    def _fill_pairs(self, focal: np.ndarray, opponents: np.ndarray) -> None:
        """One kernel call over the ordered pairs, both directions stored."""
        pay_focal, pay_opponents = cycle_payoffs_pairs(
            self.pool.tables, focal, opponents, self.rounds, self.payoff,
            compact_sums=self._compact_fill,
        )
        self._paymat[focal, opponents] = pay_focal
        self._paymat[opponents, focal] = pay_opponents

    def prefetch(self, strategies: list[Strategy]) -> list[int]:
        """Pin ``strategies`` (a window of mutants) and fill the payoffs
        of the fresh ones ahead of their events; returns their sids, to
        hand back to :meth:`unpin` once their events have applied.

        A strategy that is live already, or repeats in the window, only
        gains a pin.  Each fresh one is filled against the live strategies
        and the window's fresh strategies up to itself, in
        :meth:`_fill_rows`' groups — so every pair an event can read while
        the pins hold is valid.  ``misses`` counts nothing here:
        :meth:`intern` counts a pinned strategy when it goes live, as if
        it were filled then.  Eager engines only, one window at a time.
        """
        if self._evaluated is not None:
            raise SimulationError("prefetch needs an eager engine")
        pool = self.pool
        if pool.pinned:
            raise SimulationError(
                f"prefetch with {pool.pinned} pin(s) of the last window out"
            )
        base = pool.ordered_sids()
        sids = []
        fresh = []
        for strategy in strategies:
            sid, is_new = pool.pin(strategy)
            sids.append(sid)
            if is_new:
                fresh.append(sid)
        if fresh:
            self._sync_capacity()
            self._fill_rows(np.concatenate((base, fresh)), len(fresh))
        return sids

    def unpin(self, sids: list[int]) -> None:
        """Drop the pins :meth:`prefetch` returned."""
        unpin = self.pool.unpin
        for sid in sids:
            unpin(sid)

    def _ensure_row(self, sid: int, opponents: list[int]) -> "np.floating | None":
        """Lazy expected-regime fill: evaluate the not-yet-known opponents
        from the focal perspective, exactly like the legacy cache evaluates
        its misses (same kernel, same batch, both directions stored).

        Returns the focal-perspective *self-pair* value when the self pair
        was among this call's misses, else ``None``.  Quirk compatibility:
        the legacy cache's reverse-entry store overwrites a freshly
        evaluated ``(a, a)`` entry with the mirrored (opponent-perspective)
        value — which is not always bit-equal, the batched Markov kernel is
        not perspective-symmetric in the last ulp — while the *evaluating
        call itself* accumulates the focal-perspective value.  The matrix
        diagonal therefore keeps the mirrored value (what every later
        probe sees) and the caller patches this return value in for the
        current accumulation only.
        """
        evaluated = self._evaluated
        assert evaluated is not None
        row = evaluated[sid]
        missing = [j for j in opponents if not row[j]]
        if not missing:
            return None
        focal = self.pool.strategy(sid)
        targets = [self.pool.strategy(j) for j in missing]
        to_focal, to_targets = expected_payoffs_many(
            focal, targets, self.rounds, self.payoff, self.noise
        )
        cols = np.asarray(missing, dtype=np.intp)
        self._paymat[sid, cols] = to_focal
        self._paymat[cols, sid] = to_targets
        evaluated[sid, cols] = True
        evaluated[cols, sid] = True
        self.misses += len(missing)
        if self._fill_log is not None:
            self._fill_log.append(("row", int(sid), [int(j) for j in missing]))
        if sid in missing:
            return to_focal[missing.index(sid)]
        return None

    def _self_payoff(self, sid: int) -> float:
        """Payoff of a strategy against itself, legacy scalar semantics.

        The legacy cache reaches self-play through the *scalar*
        ``pair_payoffs`` path (cycle-exact for pure noiseless pairs, scalar
        Markov otherwise).  Quirk compatibility, same as the batched fill:
        on a self-pair the legacy reverse-entry store overwrites the cache
        with the opponent-perspective value, so the *evaluating* call
        returns ``pay_a`` while every later probe sees ``pay_b`` (not
        always bit-equal under the Markov engine).  The matrix keeps
        ``pay_b``; this call returns ``pay_a``.
        """
        if self._evaluated is None:
            return float(self._paymat[sid, sid])
        if self._evaluated[sid, sid]:
            return float(self._paymat[sid, sid])
        strategy = self.pool.strategy(sid)
        if self.noise == 0.0 and strategy.is_pure:
            pay_a, pay_b, _ = exact_payoffs(
                strategy, strategy, self.rounds, self.payoff
            )
        else:
            pay_a, pay_b, _ = expected_payoffs(
                strategy, strategy, self.rounds, self.payoff, noise=self.noise
            )
        self._paymat[sid, sid] = pay_b
        self._evaluated[sid, sid] = True
        self.misses += 1
        if self._fill_log is not None:
            self._fill_log.append(("self", int(sid)))
        return pay_a

    # -- fitness kernels ---------------------------------------------------------

    @property
    def is_eager(self) -> bool:
        """Whether the matrix is eagerly filled (deterministic regime) —
        every live row/column is valid by construction, so batched gathers
        (:meth:`gather_fitness`) can read it without per-pair checks."""
        return self._evaluated is None

    def gather_fitness(
        self,
        structure,
        sids: np.ndarray,
        nodes: np.ndarray | None = None,
        include_self_play: bool = False,
    ) -> np.ndarray:
        """Batched graph fitness over the structure's CSR adjacency.

        ``structure`` is a :class:`~repro.structure.graphs.GraphStructure`;
        the deterministic (eager) regime hands its dense matrix straight to
        :meth:`~repro.structure.graphs.GraphStructure.gather_fitness` — one
        flat gather + segment reduction for all ``nodes`` (default: every
        node), bit-identical to per-node :meth:`fitness_neighbors` calls
        because integer payoffs sum exactly in float64 in any order.  The
        lazy expected regime falls back to per-node evaluation to keep the
        legacy fill-and-accumulation order (and hence bit parity).
        """
        sids = np.asarray(sids)
        if self._evaluated is None:
            count = structure.n_ssets if nodes is None else len(nodes)
            self.hits += count
            return structure.gather_fitness(
                sids, self._paymat, nodes=nodes, include_self_play=include_self_play
            )
        node_list = range(structure.n_ssets) if nodes is None else nodes
        return np.array(
            [
                self.fitness_neighbors(
                    int(sids[i]),
                    sids[structure.neighbors(int(i))],
                    include_self_play,
                )
                for i in node_list
            ],
            dtype=np.float64,
        )

    def fitness_well_mixed(self, sid: int, include_self_play: bool = False) -> float:
        """Fitness of one SSet holding ``sid`` against the whole pool
        multiset: ``counts @ paymat[sid]`` (minus self-play by default)."""
        self.hits += 1
        counts = self.pool.refcounts
        if self._evaluated is None:
            total = self._paymat[sid] @ counts
            if not include_self_play:
                total = total - self._paymat[sid, sid]
            return total
        # Expected regime: replicate the legacy histogram accumulation —
        # same insertion order, same left-to-right float additions (and the
        # same np.float64 scalar type: the golden event hashes repr() it).
        order = self.pool.ordered_sids()
        fresh_self = self._ensure_row(sid, [int(j) for j in order])
        row = self._paymat[sid]
        total = 0.0
        for j in order:
            pay = fresh_self if (fresh_self is not None and j == sid) else row[j]
            total += counts[j] * pay
        if not include_self_play:
            total -= row[sid]
        return total

    def fitness_neighbors(
        self,
        sid: int,
        neighbor_sids: np.ndarray,
        include_self_play: bool = False,
    ) -> float:
        """Fitness of one SSet against a graph neighborhood (one game per
        neighbor): ``paymat[sid, sids[neighbors]].sum()``."""
        self.hits += 1
        if self._evaluated is None:
            total = self._paymat[sid, neighbor_sids].sum()
            if include_self_play:
                total = total + self._self_payoff(sid)
            return total
        # Expected regime: group by first occurrence, mirroring the local
        # neighborhood StrategyHistogram the legacy path builds per call.
        local_counts: dict[int, int] = {}
        for j in neighbor_sids:
            j = int(j)
            local_counts[j] = local_counts.get(j, 0) + 1
        fresh_self = self._ensure_row(sid, list(local_counts))
        row = self._paymat[sid]
        total = 0.0
        for j, count in local_counts.items():
            pay = fresh_self if (fresh_self is not None and j == sid) else row[j]
            total += count * pay
        if include_self_play:
            total += self._self_payoff(sid)
        return total

    # -- introspection -------------------------------------------------------------

    def payoff_between(self, sid_a: int, sid_b: int) -> float:
        """Payoff ``sid_a`` earns against ``sid_b`` (evaluating on demand
        in the lazy regime) — a debugging/testing convenience."""
        self.pool.strategy(sid_a)
        self.pool.strategy(sid_b)
        if self._evaluated is not None:
            self._ensure_row(sid_a, [sid_b])
        return float(self._paymat[sid_a, sid_b])

    def stats(self) -> dict[str, int]:
        """Counters + memory accounting for reports/benchmarks."""
        stats = {
            "distinct": len(self.pool),
            "capacity": self.pool.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }
        paymat_bytes = int(self._paymat.nbytes)
        if self._evaluated is not None:
            paymat_bytes += int(self._evaluated.nbytes)
        stats["paymat_bytes"] = paymat_bytes
        stats["pool"] = self.pool.stats()
        return stats

    def check_consistent(self, strategies: list[Strategy]) -> None:
        """Verify the pool matches a recount of ``strategies`` exactly
        (counts, insertion is not checked) — test/paranoia helper
        (:meth:`StrategyPool.check_consistent`)."""
        self.pool.check_consistent(strategies)


def _flip_budget(moves: int, noise: float) -> int:
    """Doubles one chunk of a pure flip draw takes for ``moves`` undecided
    moves (:meth:`SampledFitnessEngine.draw_uniforms`).

    The expected flip count plus three of its standard deviations, plus
    two: one for a flip and one for the gap that overshoots.  About one
    event in a thousand (0.10–0.15%) then needs a top-up.  The rule fixes
    how far each event advances the stream, so it is part of the draw
    contract.
    """
    expected = moves * noise
    return int(expected + 3.0 * math.sqrt(expected)) + 2


def _gap_positions(
    doubles: np.ndarray,
    starts: np.ndarray,
    moves: int,
    covered: int,
    log_keep: float,
) -> np.ndarray:
    """Flip positions from consecutive chunks of gap doubles.

    Chunk ``i`` of ``doubles`` starts at ``starts[i]``, and each chunk
    begins a flip sequence whose first ``covered`` moves are decided:
    each double ``u`` puts the next flip ``floor(log1p(-u) / log_keep)``
    moves past the previous one.  Returns every chunk's positions,
    ascending within the chunk, concatenated; a chunk's last position plus
    one is how many moves it has decided.  ``moves`` is at least every
    chunk's move count.
    """
    gaps = np.log1p(-doubles)
    gaps /= log_keep
    # A gap that reaches its chunk's last move overshoots whatever its
    # size; the clamp keeps the cast and the sums finite at tiny noise.
    np.minimum(gaps, moves, out=gaps)
    flips = gaps.astype(np.int64)
    flips += 1
    flips[starts] += covered - 1
    if starts.shape[0] > 1:
        # Each chunk's first step less the previous chunk's total: one
        # running sum over all chunks then restarts at every chunk.
        flips[starts[1:]] -= np.add.reduceat(flips, starts)[:-1]
    np.cumsum(flips, out=flips)
    return flips


def _draw_flips(
    rngs: list, moves, noise: float, log_keep: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every lane's noise flips for one wave: the concatenated flip
    positions of all lanes and the number of positions of each.

    Lane ``i`` draws the flips of its ``moves[i]`` moves from ``rngs[i]``
    by :meth:`SampledFitnessEngine.draw_uniforms`' contract: one
    ``rng.random`` chunk of :func:`_flip_budget` doubles per lane, then
    one transform of the whole wave's doubles (:func:`_gap_positions`),
    then a top-up from the lane's own stream for the rare lane whose gaps
    fall short of its last move.  NumPy's ``log1p`` gives the same bits
    for a double wherever it sits in the array, so each lane's flips are
    those of its own one-lane draw, and its stream advances by the same
    amount.  A lane's positions ascend, and those at or past its last
    move (the overshoot and the discarded doubles after it) are left in:
    :func:`_scatter_flips` drops them.
    """
    moves = np.asarray(moves, dtype=np.int64)
    # _flip_budget over the array: the same correctly rounded operations.
    expected = moves * noise
    budgets = (expected + 3.0 * np.sqrt(expected)).astype(np.int64) + 2
    ends = np.cumsum(budgets)
    doubles = np.empty(int(ends[-1]))
    lo = 0
    for rng, hi in zip(rngs, ends.tolist()):
        rng.random(out=doubles[lo:hi])
        lo = hi
    flips = _gap_positions(
        doubles, ends - budgets, int(moves.max()), 0, log_keep
    )
    short = flips[ends - 1] + 1 < moves
    if short.any():
        lanes = np.split(flips, ends[:-1])
        one = np.zeros(1, dtype=np.int64)
        for i in np.flatnonzero(short).tolist():
            lane_moves = int(moves[i])
            chunks = [lanes[i]]
            covered = int(lanes[i][-1]) + 1
            while covered < lane_moves:
                budget = _flip_budget(lane_moves - covered, noise)
                chunks.append(
                    _gap_positions(
                        rngs[i].random(budget), one, lane_moves, covered,
                        log_keep,
                    )
                )
                covered = int(chunks[-1][-1]) + 1
            lanes[i] = np.concatenate(chunks)
        budgets = np.array([f.shape[0] for f in lanes], dtype=np.int64)
        flips = np.concatenate(lanes)
    return flips, budgets


def _flip_codes(
    rounds: int, flips: list[np.ndarray], counts: list[int]
) -> np.ndarray:
    """``(rounds, sum(counts))`` uint8 flip codes from events' flip draws.

    Event ``e`` owns the next ``counts[e]`` game columns, and ``flips[e]``
    holds its flip positions in the ``(rounds, 2, counts[e])`` move order
    of :meth:`SampledFitnessEngine.draw_uniforms`.  A flip of side a sets
    bit 1 of its (round, game) code, one of side b bit 0 — the ``2 *
    flip_a + flip_b`` codes :func:`~repro.core.vectorgame.
    play_pairs_uniforms` reads.  One zeroed array, one scatter.
    """
    return _scatter_flips(
        rounds, np.concatenate(flips), [f.shape[0] for f in flips], counts
    )


def _scatter_flips(
    rounds: int, flips: np.ndarray, sizes, counts
) -> np.ndarray:
    """:func:`_flip_codes` over events' flips already concatenated, event
    ``e`` holding the next ``sizes[e]`` of them.

    Positions at or past an event's last move (as :func:`_draw_flips`
    leaves them) land in one extra row past the last round, which the
    returned view leaves out.  A (round, game) cell gets at most one flip
    per side, so adding 2 per side-a flip and 1 per side-b flip sets its
    code.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n_games = int(counts.sum())
    codes = np.zeros((rounds + 1, n_games), dtype=np.uint8)
    games = np.repeat(counts, sizes)
    first = np.repeat(np.cumsum(counts) - counts, sizes)
    two_g = 2 * games
    flips = np.minimum(flips, rounds * two_g)
    # Float division floors exactly for integers below 2**53, faster than
    # an integer divmod.
    rnd = (flips / two_g).astype(np.int64)
    rest = flips - rnd * two_g
    side_b = rest >= games
    cell = rnd * n_games
    cell += first
    cell += rest
    cell -= games * side_b
    np.add.at(codes.reshape(-1), cell, 2 >> side_b.view(np.uint8))
    return codes[:rounds]


def _insertion_runs(
    lane_sids: np.ndarray, lane_stamps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each lane's distinct strategies in histogram insertion order.

    ``lane_sids`` and ``lane_stamps`` are ``(k, n_ssets)``; SSets holding
    the same strategy share its insertion stamp, and stamps rise in
    insertion order.  Returns ``(lane, sid, count)`` with one entry per
    distinct strategy of each lane, lane by lane, each lane's strategies
    in ascending stamp order — the order of its ``StrategyHistogram``.
    """
    k, n = lane_stamps.shape
    # Flat positions of each lane's SSets in stamp order.
    order = np.argsort(lane_stamps, axis=1)
    order += np.arange(0, k * n, n)[:, None]
    order = order.ravel()
    stamps = lane_stamps.ravel()[order].reshape(k, n)
    first = np.ones((k, n), dtype=bool)
    np.not_equal(stamps[:, 1:], stamps[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = k * n
    return starts // n, lane_sids.ravel()[order[starts]], ends - starts


class SampledPlan:
    """The sampled games one PC event needs, collected but not yet played.

    Built by :meth:`SampledFitnessEngine.pc_plan` and executed by
    :meth:`SampledFitnessEngine.eval_plans`, which may fuse many plans —
    one per ensemble lane — into a single kernel call.  ``rows`` interns
    the distinct strategy tables the plan's games reference; ``a_idx``
    (always the focal side) and ``b_idx`` index into it.  ``sides`` says
    which of the event's two SSets each game belongs to, ``weights`` the
    histogram multiplicities (including the legacy ``-1`` self-play
    correction game), and ``base`` carries the two sides' deterministic
    (cached, pure-noiseless) payoff contributions.
    """

    __slots__ = ("rows", "_ids", "a_idx", "b_idx", "weights", "sides", "base")

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self._ids: dict[bytes, int] = {}
        self.a_idx: list[int] = []
        self.b_idx: list[int] = []
        self.weights: list[float] = []
        self.sides: list[int] = []
        self.base = [0.0, 0.0]

    @property
    def n_games(self) -> int:
        return len(self.a_idx)

    def intern(self, strategy: Strategy, table: np.ndarray) -> int:
        key = strategy.key()
        row = self._ids.get(key)
        if row is None:
            row = len(self.rows)
            self.rows.append(table)
            self._ids[key] = row
        return row

    def add_game(self, a_row: int, b_row: int, weight: float, side: int) -> None:
        self.a_idx.append(a_row)
        self.b_idx.append(b_row)
        self.weights.append(weight)
        self.sides.append(side)


class SampledFitnessEngine(PayoffCache):
    """Batched sampled-stochastic fitness (``EvolutionConfig.sampled_batched``).

    A :class:`~repro.core.payoff_cache.PayoffCache` subclass, so every
    legacy entry point (``pair_payoffs`` / ``payoffs_to_many`` / histogram
    fitness / checkpoint eval-log capture) keeps working — but stochastic
    games are evaluated through one vectorised
    :func:`~repro.core.vectorgame.play_pairs_uniforms` call per batch
    instead of the scalar :func:`~repro.core.game.play_game` loop, with
    each event's randomness pre-drawn from a **dedicated** Philox stream
    (``("nature", "sampled")``, see :meth:`draw_uniforms`).  Pure
    configurations draw only the noise flips, as geometric gaps between
    them; mixed ones draw one uniform per table move and per noise flip.
    Pure-noiseless pairs that arise in mixed-strategy configurations still
    go through the inherited deterministic cache (those payoffs carry no
    randomness).

    Three entry points play the games: :meth:`pc_pair_fitness` (one PC
    event, the serial drivers), :meth:`eval_plans` (many events' plans in
    one kernel call: the ensemble's per-lane evaluator path, which serves
    mixed and graph lanes) and :meth:`eval_wave` (the same for pure noisy
    well-mixed lanes built as arrays from the ensemble's shared strategy
    pool, with no engine object per lane).

    Contract: per-seed reproducible, and bit-identical between the serial
    drivers and the ensemble driver's per-lane trajectories (each event's
    draw depends only on its own games and stream, and the events' kernel
    inputs concatenate along the games axis without changing any lane's
    bits — see :func:`~repro.core.vectorgame.play_pairs_uniforms`).
    Deliberately **not** bit-identical to the scalar legacy sampled path:
    the draws come from a different stream in a different shape, so
    batched-vs-legacy agreement is statistical (KS / CI tests in the
    suite), which is exactly the trade the opt-in flag announces.  Every
    flip is still an independent Bernoulli(``noise``) event per move, so
    the two paths sample the same distribution.  The pure noisy draw is
    science version 2 (:func:`repro.core.runstate.science_version`):
    checkpoint unit keys and job fingerprints carry it, so results and
    snapshots of the earlier per-move uniform draw are never reused.
    """

    def __init__(
        self,
        rounds: int,
        payoff: PayoffMatrix = PAPER_PAYOFF,
        noise: float = 0.0,
        rng: "np.random.Generator | None" = None,
        mixed: bool = False,
    ):
        if noise <= 0.0 and not mixed:
            raise ConfigurationError(
                "SampledFitnessEngine serves sampled-stochastic fitness "
                "(noise > 0 or mixed strategies); deterministic "
                "configurations have nothing to sample"
            )
        if rng is None:
            raise ConfigurationError(
                "SampledFitnessEngine needs a dedicated rng (the "
                "('nature', 'sampled') stream)"
            )
        super().__init__(rounds, payoff, noise=noise, rng=rng, expected=False)
        #: The *configuration's* mixed flag, not a property of the live
        #: strategies: mixed runs stack float tables (which consume move
        #: draws) even for pure tables, so the per-round draw count stays
        #: constant across the run and across ensemble lanes.
        self.mixed = mixed
        # log1p(-noise), the flip draw's divisor (-inf at noise 1: every
        # gap is then 0).
        with np.errstate(divide="ignore"):
            self._log_keep = float(np.log1p(-noise))
        self.games_played = 0
        self.batches = 0

    @classmethod
    def from_config(
        cls, config: EvolutionConfig, rng: "np.random.Generator"
    ) -> "SampledFitnessEngine | None":
        """Build the batched sampled engine, or ``None`` when the config
        did not opt in (or is not sampled-stochastic)."""
        if not (config.sampled_batched and config.is_stochastic):
            return None
        return cls(
            rounds=config.rounds,
            payoff=config.payoff,
            noise=config.noise,
            rng=rng,
            mixed=config.mixed_strategies,
        )

    # -- batched kernel plumbing ------------------------------------------------

    @property
    def draws_per_round(self) -> int:
        """Uniform draws per game round (fixed per configuration)."""
        return sampled_draws_per_round(self.mixed, self.noise)

    def _table_of(self, strategy: Strategy) -> np.ndarray:
        return (
            strategy.defect_probabilities() if self.mixed else strategy.table
        )

    def draw_uniforms(self, n_games: int) -> np.ndarray:
        """Draw one event's randomness for ``n_games`` games from the
        dedicated stream.

        **Pure configurations** draw only the noise flips.  The event's
        ``rounds * 2 * n_games`` moves are taken in the flat order of a
        ``(rounds, 2, n_games)`` array — round, then side (0 is a, the
        focal side; 1 is b), then game — and each flip costs one double
        ``u`` of ``rng.random``: the next flip skips ``floor(log1p(-u) /
        log1p(-noise))`` moves (NumPy's ``log1p`` both times).  That
        inverts the geometric law of the gaps between Bernoulli(``noise``)
        successes, so every move still flips independently with
        probability ``noise``.  The doubles are drawn in chunks of
        :func:`_flip_budget` over the moves still undecided: when a chunk's
        gaps fall short of the last move, the next chunk tops them up, and
        the doubles after the first gap that overshoots are drawn and
        discarded.  Returns the sorted int64 flip positions in that flat
        order; :func:`_flip_codes` turns them into the kernel's flip codes.
        At noise 0.01 a 200-round game costs about four doubles instead of
        400.

        The gaps invert ``rng.random`` rather than call
        ``Generator.geometric``: NEP 19 does not promise that method's
        stream across NumPy releases, while ``rng.random`` is the stream
        every other sampled draw here already rests on.  ``log1p`` is the
        one transcendental in the draw; its last bit may differ between
        NumPy builds, which moves a flip only where a quotient lies within
        an ulp of an integer.

        **Mixed configurations** draw ``rng.random((rounds,
        draws_per_round, n_games))``, the float layout
        :func:`~repro.core.vectorgame.play_pairs_uniforms` consumes: their
        move draws compare against table probabilities.

        Either way the stream advances by an amount that depends only on
        this event's games, so a lane's consumption does not depend on who
        shares its kernel call.
        """
        if self.mixed:
            return self.rng.random(
                (self.rounds, self.draws_per_round, n_games)
            )
        moves = self.rounds * 2 * n_games
        flips, _ = _draw_flips([self.rng], [moves], self.noise, self._log_keep)
        return flips[: np.searchsorted(flips, moves)]

    def _play_games(
        self, games: list[tuple[Strategy, Strategy]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Play independent sampled games in one kernel call."""
        plan = SampledPlan()
        for a, b in games:
            plan.add_game(
                plan.intern(a, self._table_of(a)),
                plan.intern(b, self._table_of(b)),
                1.0,
                0,
            )
        tables = np.stack(plan.rows)
        uniforms = self.draw_uniforms(plan.n_games)
        if not self.mixed:
            uniforms = _flip_codes(self.rounds, [uniforms], [plan.n_games])
        self.games_played += plan.n_games
        self.batches += 1
        return play_pairs_uniforms(
            tables,
            np.asarray(plan.a_idx, dtype=np.intp),
            np.asarray(plan.b_idx, dtype=np.intp),
            self.rounds,
            self.payoff,
            self.noise,
            uniforms,
        )

    # -- legacy PayoffCache surface ---------------------------------------------

    def pair_payoffs(self, a: Strategy, b: Strategy) -> tuple[float, float]:
        """One game's ``(to_a, to_b)`` — batched kernel for sampled pairs,
        inherited deterministic cache for pure-noiseless ones."""
        if self._deterministic(a, b):
            return super().pair_payoffs(a, b)
        pay_a, pay_b = self._play_games([(a, b)])
        return float(pay_a[0]), float(pay_b[0])

    def payoffs_to_many(self, a: Strategy, others: list[Strategy]) -> np.ndarray:
        """Payoffs ``a`` earns against each of ``others``.

        Deterministic pairs resolve through the inherited cache (probe
        order preserved, so the eval log replays bit-exactly on restore);
        all sampled pairs run as one kernel batch.
        """
        out = np.empty(len(others), dtype=np.float64)
        games: list[tuple[Strategy, Strategy]] = []
        slots: list[int] = []
        for i, b in enumerate(others):
            if self._deterministic(a, b):
                out[i] = super().pair_payoffs(a, b)[0]
            else:
                games.append((a, b))
                slots.append(i)
        if games:
            pay_a, _ = self._play_games(games)
            out[np.asarray(slots, dtype=np.intp)] = pay_a
        return out

    # -- PC-event plans ----------------------------------------------------------

    def _side_into_plan(
        self,
        plan: SampledPlan,
        side: int,
        population,
        structure,
        sset_id: int,
        include_self_play: bool,
    ) -> None:
        """Collect one SSet's fitness games into ``plan``.

        Mirrors the legacy histogram semantics exactly: one game per
        *distinct* opponent strategy weighted by its multiplicity —
        the global population histogram (insertion order) when well-mixed,
        a local neighborhood histogram (first-occurrence order) on graphs —
        plus the self-play correction game (an independent ``-1``-weighted
        sample when self-play is excluded well-mixed; a ``+1`` game when a
        graph includes it, since graph neighborhoods carry no self-loop).
        """
        me = population[sset_id].strategy
        me_row: int | None = None
        if structure.is_well_mixed:
            hist = population.histogram
            items = [
                (hist.exemplars[key], count)
                for key, count in hist.counts.items()
            ]
            self_weight = 0.0 if include_self_play else -1.0
        else:
            local: dict[bytes, list] = {}
            for j in structure.neighbors(sset_id):
                opp = population[int(j)].strategy
                slot = local.get(opp.key())
                if slot is None:
                    local[opp.key()] = [opp, 1]
                else:
                    slot[1] += 1
            items = [(opp, count) for opp, count in local.values()]
            self_weight = 1.0 if include_self_play else 0.0
        for opp, count in items:
            if self._deterministic(me, opp):
                plan.base[side] += count * super().pair_payoffs(me, opp)[0]
            else:
                if me_row is None:
                    me_row = plan.intern(me, self._table_of(me))
                plan.add_game(
                    me_row,
                    plan.intern(opp, self._table_of(opp)),
                    float(count),
                    side,
                )
        if self_weight:
            if self._deterministic(me, me):
                plan.base[side] += (
                    self_weight * super().pair_payoffs(me, me)[0]
                )
            else:
                if me_row is None:
                    me_row = plan.intern(me, self._table_of(me))
                plan.add_game(me_row, me_row, self_weight, side)

    def pc_plan(
        self,
        population,
        structure,
        sset_a: int,
        sset_b: int,
        include_self_play: bool = False,
    ) -> SampledPlan:
        """Collect both sides' games of one PC event (no draws yet)."""
        plan = SampledPlan()
        self._side_into_plan(
            plan, 0, population, structure, sset_a, include_self_play
        )
        self._side_into_plan(
            plan, 1, population, structure, sset_b, include_self_play
        )
        return plan

    @staticmethod
    def eval_plans(
        pairs: "list[tuple[SampledFitnessEngine, SampledPlan]]",
    ) -> list[tuple[float, float]]:
        """Execute many ``(engine, plan)`` pairs as **one** kernel call.

        The plans' games concatenate along the games axis, and each engine
        draws its own plan's games (:meth:`draw_uniforms`), so a lane's
        stream consumption is independent of who else is in the batch; the
        fused kernel preserves every lane's bits — which is what makes each
        ensemble lane bit-identical to its same-seed serial run.  In pure
        configurations the call zeroes one ``(rounds, n_games)`` uint8
        flip-code array and scatters every plan's flips into its columns
        (:func:`_flip_codes`): ``rounds`` bytes per game.  Mixed ones
        concatenate the float draws, ``rounds * draws_per_round * 8`` bytes
        per game.  Only the plans' a-side (focal) totals are computed.
        Returns one ``(fitness_a, fitness_b)`` per pair, in order.
        """
        rows: list[np.ndarray] = []
        a_idx: list[int] = []
        b_idx: list[int] = []
        row_offsets: list[int] = []
        counts: list[int] = []
        for _, plan in pairs:
            row_offsets.append(len(rows))
            counts.append(plan.n_games)
            rows.extend(plan.rows)
            a_idx.extend(plan.a_idx)
            b_idx.extend(plan.b_idx)
        pay: list[float] = []
        if a_idx:
            head = pairs[0][0]
            draws: list[np.ndarray] = []
            sizes: list[int] = []
            for (engine, _), n in zip(pairs, counts):
                if n:
                    draws.append(engine.draw_uniforms(n))
                    sizes.append(n)
                    engine.games_played += n
                    engine.batches += 1
            kernel_draws = (
                np.concatenate(draws, axis=-1)
                if head.mixed
                else _flip_codes(head.rounds, draws, sizes)
            )
            # Plan-local row numbers -> rows of the stacked tables.
            shift = np.repeat(row_offsets, counts)
            pay_a, _ = play_pairs_uniforms(
                np.array(rows),
                np.add(a_idx, shift),
                np.add(b_idx, shift),
                head.rounds,
                head.payoff,
                head.noise,
                kernel_draws,
                b_totals=False,
            )
            pay = pay_a.tolist()
        results: list[tuple[float, float]] = []
        cursor = 0
        for (_, plan), n in zip(pairs, counts):
            fits = [plan.base[0], plan.base[1]]
            for side, weight, value in zip(
                plan.sides, plan.weights, pay[cursor : cursor + n]
            ):
                fits[side] += weight * value
            cursor += n
            results.append((float(fits[0]), float(fits[1])))
        return results

    @staticmethod
    def eval_wave(
        tables: np.ndarray,
        lane_sids: np.ndarray,
        lane_stamps: np.ndarray,
        teachers: np.ndarray,
        learners: np.ndarray,
        rngs: list,
        rounds: int,
        payoff: PayoffMatrix,
        noise: float,
        include_self_play: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Well-mixed PC fitness of many pure noisy lanes, one event each,
        as **one** kernel call: :meth:`eval_plans` built from arrays.

        Lane ``i`` holds the sid row ``lane_sids[i]`` over the pool's
        stacked uint8 ``tables``, its PC event's teacher and learner sids
        are ``teachers[i]`` and ``learners[i]``, and ``rngs[i]`` is its
        dedicated ``("nature", "sampled")`` stream.  Returns the teachers'
        and learners' fitness, bit for bit what :meth:`pc_pair_fitness`
        gives each lane's population.

        * **Games in histogram order.**  A plan plays one game per distinct
          strategy in ``StrategyHistogram`` insertion order (plus the
          ``-1``-weighted self-play game), and the draws and sums follow
          that order.  ``lane_stamps[i, j]`` is the step at which SSet
          ``j``'s strategy entered lane ``i``'s histogram, shared by every
          SSet holding it, so sorting a lane's SSets by stamp lists its
          strategies in exactly that order (:func:`_insertion_runs`).
          The games, and hence every trajectory, fingerprint and unit key,
          stay those of science version 2; a canonical order would change
          them and need a version bump.
        * **Draws.**  Each lane draws its games' flips from its own
          stream (:func:`_draw_flips`, one ``rng.random`` per lane), so
          its stream advances as its serial run's does.
        * **Kernel.**  Only the pool rows the wave's games touch are
          handed to :func:`~repro.core.vectorgame.play_pairs_uniforms`.
        * **Fold.**  ``np.bincount`` adds each side's weighted payoffs
          into a float64 zero one game at a time, in game order: the same
          additions, in the same order, as :meth:`eval_plans`' loop, so
          the bits match for any payoff matrix.
        """
        k = lane_sids.shape[0]
        lane, opp, count = _insertion_runs(lane_sids, lane_stamps)
        # One entry per (lane, side, opponent); without self-play each
        # side also plays its -1-weighted game against itself (opponent
        # -1 until the focal sid is known).  A stable sort on (lane,
        # side) puts the entries in plan order: per lane, the teacher's
        # games and then the learner's, each in insertion order with the
        # self-play game last.
        key = 2 * lane
        keys = [key, key + 1]
        opps = [opp, opp]
        count = count.astype(np.float64)
        weights = [count, count]
        if not include_self_play:
            own = 2 * np.arange(k, dtype=np.int64)
            keys += [own, own + 1]
            opps.append(np.full(2 * k, -1, dtype=np.int64))
            weights.append(np.full(2 * k, -1.0))
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        key = key[order]
        game_lane = key >> 1
        a_sid = np.concatenate((teachers, learners))[(key & 1) * k + game_lane]
        b_sid = np.concatenate(opps)[order]
        b_sid = np.where(b_sid < 0, a_sid, b_sid)
        weight = np.concatenate(weights)[order]

        games = np.bincount(game_lane, minlength=k)
        # np.log1p, as the per-event draw takes it; -inf at noise 1.
        log_keep = float(np.log1p(-noise)) if noise < 1.0 else -math.inf
        flips, sizes = _draw_flips(rngs, games * (2 * rounds), noise, log_keep)
        codes = _scatter_flips(rounds, flips, sizes, games)
        # Every game's strategies are its lane's: the pool rows the wave
        # touches, renumbered in pool order.
        touched = np.zeros(tables.shape[0], dtype=bool)
        touched[lane_sids] = True
        row_of = np.cumsum(touched) - 1
        pay, _ = play_pairs_uniforms(
            tables[touched],
            row_of[a_sid],
            row_of[b_sid],
            rounds,
            payoff,
            noise,
            codes,
            b_totals=False,
        )
        pay *= weight
        fit = np.bincount(key, weights=pay, minlength=2 * k)
        return fit[0::2], fit[1::2]

    def pc_pair_fitness(
        self,
        population,
        structure,
        sset_a: int,
        sset_b: int,
        include_self_play: bool = False,
    ) -> tuple[float, float]:
        """Both PC fitness values in one batched kernel call.

        The duck-typed hook :meth:`repro.structure.InteractionModel.
        pair_fitness` dispatches to — the serial drivers reach the batched
        path through it without knowing this engine exists.
        """
        plan = self.pc_plan(
            population, structure, sset_a, sset_b, include_self_play
        )
        return SampledFitnessEngine.eval_plans([(self, plan)])[0]

    def stats(self) -> dict[str, int]:
        """Counters for reports/benchmarks."""
        return {
            "games_played": self.games_played,
            "batches": self.batches,
            "det_cache": len(self),
            "hits": self.hits,
            "misses": self.misses,
        }
