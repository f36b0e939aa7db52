"""Shared interned-strategy engine for lane-batched ensembles.

One :class:`EnsembleEngine` serves *every* lane (replicate) of a
deterministic-regime ensemble: a single strategy pool and a single dense
payoff matrix are shared across lanes, because deterministic cycle-exact
payoffs are a pure function of the two strategy tables plus ``(rounds,
payoff)`` — they carry no seed and no population state.  A strategy that
appears in many lanes (ALLD, the dominant cooperative strategies, every
memory-1 table) is interned and evaluated **once** for the whole ensemble.

Differences from the per-run :class:`~repro.core.engine.FitnessEngine`:

* **Global reference counts, demand-driven fills.**  The per-run engine
  eagerly fills a new sid's row/column against its own (single)
  population.  Here an eager fill against all lanes' live strategies would
  evaluate ~R times too many pairs, so the matrix is filled *on query*:
  :meth:`ensure_rows` checks the exact ``(focal row) x (lane sids)`` block
  a fitness gather is about to read and batch-evaluates only the missing
  pairs — across all of a generation's event lanes in one
  :func:`~repro.core.vectorgame.cycle_payoffs_pairs` call.

* **Two-way validity, row-only invalidation.**  A pair ``(a, b)`` is valid
  iff ``evaluated[a, b] and evaluated[b, a]`` (fills always set both).
  Recycling a slot therefore only needs to clear its *row* — a contiguous
  memset — because the stale *column* entries fail the reversed check.

* **Packed keys, no strategy objects.**  The pool interns move tables
  by a packed key (one bit per move: an integer up to memory 3, bytes
  beyond) and keeps only tables, keys and reference counts; a window's
  mutants are interned in one :meth:`EnsembleEngine.intern_lane` call, and
  a :class:`~repro.core.strategy.Strategy` is built only when
  :meth:`EnsembleEngine.strategy` is asked for one (the final write-back).

* **Gather fitness.**  Well-mixed fitness is ``paymat[sid, lane_sids].sum()``
  — a sum over SSets instead of the per-run engine's ``counts @ paymat[sid]``
  sum over distinct strategies.  Both are sums of the same integer-valued
  float64 terms, hence bit-equal (the engine refuses non-integer payoff
  matrices, exactly like the per-run deterministic engine), which is what
  keeps every lane on the same-seed serial trajectory.  Graph fitness runs
  the same way at ensemble scale: one flat CSR gather plus a segment
  reduction across *all* of a generation's event lanes
  (:meth:`EnsembleEngine.fitness_pc_graph`), with
  ``paymat[sid, lane_sids[neighbors]].sum()`` as the per-lane scalar view.

The expected-fitness regime cannot share a matrix across lanes: its Markov
kernel is not bitwise perspective-symmetric, so an entry's last-ulp value
depends on which side evaluated the pair first — a per-lane property.  The
ensemble driver runs those lanes with per-lane
:class:`~repro.core.engine.FitnessEngine` instances instead (see
:mod:`repro.ensemble.driver`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.config import EvolutionConfig
from ..core.engine import is_integer_payoff
from ..core.paymat import DensePairStore
from ..core.payoff import PAPER_PAYOFF, PayoffMatrix
from ..core.states import num_states
from ..core.strategy import Strategy
from ..core.vectorgame import cycle_payoffs_pairs
from ..errors import ConfigurationError, SimulationError, StrategyError

__all__ = ["EnsembleEngine", "supports_shared_engine"]

#: Pairs per cycle_payoffs_pairs call — bounds the kernel's scratch
#: arrays during the big early-coverage fills: (min(rounds, 4**n), L)
#: where the call walks its rounds, (L, 4**n) where it squares the map.
_MAX_FILL_CHUNK = 1 << 15
_NO_SIDS = np.zeros(0, dtype=np.int64)


def supports_shared_engine(config: EvolutionConfig) -> bool:
    """Whether ``config`` runs on the shared deterministic ensemble engine.

    Mirrors :meth:`repro.core.engine.FitnessEngine.from_config`: the dense
    shared matrix serves exactly the configurations whose per-run engine
    would be the eager deterministic one (pure strategies, no noise,
    integer payoffs, ``engine`` enabled).  Everything else the ensemble
    driver runs through per-lane evaluators.
    """
    if not config.engine or config.is_stochastic:
        return False
    if config.expected_fitness and (
        config.noise > 0.0 or config.mixed_strategies
    ):
        return False
    return is_integer_payoff(config.payoff)


def pair_dtype(rounds: int, payoff: PayoffMatrix) -> np.dtype:
    """The shared pair matrix's cell type.

    Game totals are integers bounded by ``rounds * max|payoff|``; when they
    fit float32's exact-integer range the matrix is stored at half the
    footprint (big ensembles intern thousands of strategies) and summed in
    float64, which is bit-identical either way.
    """
    max_total = rounds * max(abs(float(v)) for v in payoff.vector)
    return np.dtype(np.float32 if max_total < 2.0**24 else np.float64)


class _NoPairStore:
    """The pair store of a pool-only engine: there is no pair matrix.

    Sampled lanes play every game afresh, so they share the engine's
    strategy pool and nothing else; growing, recycling and compacting the
    pool have no pairs to move, and no pair is ever valid.
    """

    def grow(self, new_capacity: int) -> None:
        pass

    def invalidate_rows(self, sids: np.ndarray) -> None:
        pass

    def rebuild(self, idx: np.ndarray, new_capacity: int) -> "_NoPairStore":
        return self

    def pair_valid(self, a, b) -> np.ndarray:
        return np.zeros(np.broadcast(a, b).shape, dtype=bool)

    def stats(self) -> dict[str, int]:
        return {
            "paymat_bytes": 0,
            "peak_paymat_bytes": 0,
        }


class EnsembleEngine:
    """Dense payoff-matrix fitness shared across the lanes of an ensemble.

    With ``pairs=False`` the engine is its strategy pool alone (sid
    interning, references, recycling and compaction), with no pair matrix
    allocated or filled; the sampled lanes of :mod:`repro.ensemble.driver`
    use it so, and any payoff matrix is accepted then.
    """

    def __init__(
        self,
        memory_steps: int,
        rounds: int,
        payoff: PayoffMatrix = PAPER_PAYOFF,
        n_lanes: int = 1,
        capacity: int = 64,
        pairs: bool = True,
    ):
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        if memory_steps < 1:
            raise ConfigurationError(
                f"memory_steps must be >= 1, got {memory_steps}"
            )
        if n_lanes < 1:
            raise ConfigurationError(f"n_lanes must be >= 1, got {n_lanes}")
        if pairs and not is_integer_payoff(payoff):
            raise ConfigurationError(
                "the shared ensemble engine is float-exact (hence lane-"
                "trajectory-identical to the serial engine) only for integer "
                f"payoff matrices, got {list(payoff.vector)}"
            )
        self.memory_steps = memory_steps
        self.n_states = num_states(memory_steps)
        self.rounds = rounds
        self.payoff = payoff
        self.n_lanes = n_lanes
        capacity = max(1, capacity)
        self._tables = np.zeros((capacity, self.n_states), dtype=np.uint8)
        #: Bytes per interning key: a table packs one bit per move, into a
        #: Python int for memory <= 3 (at most 64 moves), into bytes beyond.
        self._key_width = (self.n_states + 7) // 8
        #: Each live slot's key (``None`` when free), for recycle/compact.
        self._keys: list[int | bytes | None] = [None] * capacity
        self._ids: dict[int | bytes, int] = {}
        #: Total references across all lanes; a slot is recycled at zero.
        #: Drivers move references a wave at a time (:meth:`move_refs`).
        self._refs = np.zeros(capacity, dtype=np.int64)
        self._free = list(range(capacity - 1, -1, -1))
        self._dtype = pair_dtype(rounds, payoff)
        self._store: DensePairStore | _NoPairStore = (
            DensePairStore(capacity, self._dtype) if pairs else _NoPairStore()
        )
        #: Pair evaluations performed, attributed to the demanding lane.
        self.lane_fills = np.zeros(n_lanes, dtype=np.int64)
        self.fills = 0
        self.fill_calls = 0

    # -- views ----------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._tables.shape[0]

    @property
    def tables(self) -> np.ndarray:
        """The stacked strategy tables (live rows valid)."""
        return self._tables

    @property
    def paymat(self) -> np.ndarray:
        """The shared payoff matrix (gather only after ensure_rows)."""
        return self._store.paymat

    def __len__(self) -> int:
        """Number of distinct live strategies across all lanes."""
        return len(self._ids)

    def strategy(self, sid: int) -> Strategy:
        """The live strategy in slot ``sid``, built from its table (the
        pool stores tables and keys only)."""
        if self._keys[sid] is None:
            raise SimulationError(f"slot {sid} is free (no live strategy)")
        return Strategy._trusted(self._tables[sid].copy(), self.memory_steps)

    def stats(self) -> dict[str, int]:
        """Shared-engine counters + memory accounting for reports/benchmarks."""
        stats = {
            "lanes": self.n_lanes,
            "distinct": len(self._ids),
            "capacity": self.capacity,
            "fills": int(self.fills),
            "fill_calls": int(self.fill_calls),
        }
        stats.update(self._store.stats())
        return stats

    # -- interning ------------------------------------------------------------

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        tables = np.zeros((new, self.n_states), dtype=np.uint8)
        tables[:old] = self._tables
        self._tables = tables
        self._store.grow(new)
        self._keys.extend([None] * (new - old))
        refs = np.zeros(new, dtype=np.int64)
        refs[:old] = self._refs
        self._refs = refs
        self._free.extend(range(new - 1, old - 1, -1))

    def pack_keys(self, tables: np.ndarray) -> np.ndarray:
        """Interning keys of ``(k, n_states)`` pure move tables, one bit
        per move: a ``uint64`` array for memory <= 3, an array of
        fixed-width byte strings beyond (``tolist`` gives the dict keys)."""
        if tables.dtype != np.uint8 or tables.ndim != 2 or (
            tables.shape[1] != self.n_states
        ):
            raise StrategyError(
                f"engine interns pure memory-{self.memory_steps} tables of "
                f"shape (k, {self.n_states}) uint8, got {tables.shape} "
                f"{tables.dtype}"
            )
        bits = np.packbits(tables, axis=1, bitorder="little")
        width = self._key_width
        if width > 8:
            return bits.view(np.dtype((np.void, width))).ravel()
        if width < 8:
            wide = np.zeros((bits.shape[0], 8), dtype=np.uint8)
            wide[:, :width] = bits
            bits = wide
        return bits.view("<u8").ravel()

    def _stack_tables(self, strategies: Sequence[Strategy]) -> np.ndarray:
        for strategy in strategies:
            if strategy.memory_steps != self.memory_steps:
                raise StrategyError(
                    f"engine interns memory-{self.memory_steps} strategies, "
                    f"got memory-{strategy.memory_steps}"
                )
            if not strategy.is_pure:
                raise StrategyError(
                    "the shared ensemble engine serves pure strategies only"
                )
        return np.array(
            [s.table for s in strategies], dtype=np.uint8
        ).reshape(len(strategies), self.n_states)

    def acquire(self, strategy: Strategy) -> int:
        """Intern one reference to ``strategy`` (any lane's, or a window
        prefetch pin — references are global; only recycling depends on
        them)."""
        return int(self.intern_lane([strategy])[0])

    def release(self, sids: int | np.ndarray) -> None:
        """Drop one reference per entry of ``sids`` (one sid or an array;
        a repeated sid drops one reference per occurrence) and recycle
        the slots left at zero references."""
        self.move_refs(_NO_SIDS, np.atleast_1d(np.asarray(sids, np.int64)))

    def move_refs(self, gained: np.ndarray, lost: np.ndarray) -> None:
        """Add one reference per entry of ``gained`` and drop one per
        entry of ``lost``, then recycle every slot left at zero references
        in one :meth:`recycle` call — the per-wave reference step of the
        ensemble driver (the learners' and mutation targets' old sids
        lose a reference, the adopted and mutant sids gain one)."""
        refs = self._refs
        np.add.at(refs, gained, 1)
        np.subtract.at(refs, lost, 1)
        left = refs[lost]
        dead = lost[left <= 0]
        if dead.shape[0]:
            if (left < 0).any():
                raise SimulationError(
                    f"release of sids {lost[left < 0].tolist()} with no "
                    "references"
                )
            if dead.shape[0] > 1:
                # Two lanes can drop the last references to one slot in
                # the same wave; a set beats np.unique at this size.
                dead = np.array(sorted(set(dead.tolist())), dtype=np.int64)
            self.recycle(dead)

    def recycle(self, sids: np.ndarray) -> None:
        """Free the distinct zero-reference slots ``sids``.

        Their rows are invalidated in one store call; the stale column
        entries fail the store's two-way validity check.  Freed slots are
        reused last-freed first.
        """
        ids = self._ids
        keys = self._keys
        freed = sids.tolist()
        for sid in freed:
            key = keys[sid]
            assert key is not None
            del ids[key]
            keys[sid] = None
        self._store.invalidate_rows(sids)
        self._free.extend(freed)

    def intern_lane(
        self,
        tables: np.ndarray | Sequence[Strategy],
        keys: np.ndarray | None = None,
    ) -> np.ndarray:
        """Intern one reference per row of ``tables`` — a lane's
        population or a prefetch window's mutants, as ``(k, n_states)``
        pure move tables or as strategies — and return the rows' sids.
        ``keys`` are the rows' :meth:`pack_keys`, when the caller has
        packed them already.

        Rows take free slots in row order, exactly as interning them one
        at a time would; new slots' tables are written in one assignment.
        """
        if not isinstance(tables, np.ndarray):
            tables = self._stack_tables(tables)
        if keys is None:
            keys = self.pack_keys(tables)
        ids = self._ids
        free = self._free  # _grow extends these lists in place
        slot_keys = self._keys
        sids: list[int] = []
        new_sids: list[int] = []
        new_rows: list[int] = []
        for row, key in enumerate(keys.tolist()):
            sid = ids.get(key)
            if sid is None:
                if not free:
                    self._grow()
                sid = free.pop()
                ids[key] = sid
                slot_keys[sid] = key
                new_sids.append(sid)
                new_rows.append(row)
            sids.append(sid)
        if new_sids:
            self._tables[new_sids] = tables[new_rows]
        out = np.array(sids, dtype=np.int64)
        np.add.at(self._refs, out, 1)
        return out

    def sids_of(self, tables: np.ndarray) -> np.ndarray:
        """The sids of tables that are interned already (no new
        references)."""
        ids = self._ids
        return np.array(
            [ids[key] for key in self.pack_keys(tables).tolist()],
            dtype=np.int64,
        )

    def compact(self, min_capacity: int = 256) -> np.ndarray | None:
        """Re-pack live slots into a smaller matrix when mostly free.

        The initial populations of a big ensemble intern thousands of
        mostly-distinct random strategies; once selection concentrates the
        lanes, the live set is a small fraction of the grown capacity and
        every fitness gather scatters across a huge, cold matrix.
        Compacting renumbers the live sids densely (science-neutral: sids
        carry no meaning, and the surviving matrix entries move verbatim).

        Returns the ``old sid -> new sid`` mapping for the caller to apply
        to its sid arrays, or ``None`` when compaction isn't worthwhile.
        Callers must hold no pinned/prefetched sids across this call.
        """
        capacity = self.capacity
        n_live = len(self._ids)
        # Hysteresis: compact only below 1/8 occupancy, down to 4x headroom,
        # so the matrix never thrashes between compact() and _grow() as the
        # mutation churn breathes around the steady-state strategy count.
        if capacity <= min_capacity or n_live * 8 > capacity:
            return None
        new_cap = max(min_capacity, 1 << (4 * n_live - 1).bit_length())
        if new_cap >= capacity:
            return None
        idx = np.flatnonzero(self._refs > 0)
        tables = np.zeros((new_cap, self.n_states), dtype=np.uint8)
        tables[:n_live] = self._tables[idx]
        store = self._store.rebuild(idx, new_cap)
        keys: list[int | bytes | None] = [self._keys[s] for s in idx.tolist()]
        keys.extend([None] * (new_cap - n_live))
        refs = np.zeros(new_cap, dtype=np.int64)
        refs[:n_live] = self._refs[idx]
        mapping = np.full(capacity, -1, dtype=np.int64)
        mapping[idx] = np.arange(n_live)
        self._tables = tables
        self._store = store
        self._keys = keys
        self._refs = refs
        self._ids = {key: sid for sid, key in enumerate(keys[:n_live])}
        self._free = list(range(new_cap - 1, n_live - 1, -1))
        return mapping

    # -- fills ----------------------------------------------------------------

    def _fill_pairs(self, a: np.ndarray, b: np.ndarray) -> None:
        """Evaluate ordered pairs (both directions stored), chunked."""
        compact = self._dtype == np.float32  # same 2**24 exactness bound
        for lo in range(0, len(a), _MAX_FILL_CHUNK):
            a_c = a[lo : lo + _MAX_FILL_CHUNK]
            b_c = b[lo : lo + _MAX_FILL_CHUNK]
            pay_a, pay_b = cycle_payoffs_pairs(
                self._tables, a_c, b_c, self.rounds, self.payoff,
                compact_sums=compact,
            )
            self._store.write_pairs(a_c, b_c, pay_a, pay_b)
            self.fill_calls += 1
        self.fills += len(a)

    def _fill_unique(
        self, a: np.ndarray, b: np.ndarray, lanes: np.ndarray
    ) -> None:
        """Dedupe known-missing (a[i], b[i]) pairs and evaluate them, with
        per-lane evaluation attribution."""
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        _, first = np.unique(lo * self.capacity + hi, return_index=True)
        self._fill_pairs(lo[first], hi[first])
        np.add.at(self.lane_fills, lanes[first], 1)

    def ensure_rows(
        self, focal: np.ndarray, blocks: np.ndarray, lanes: np.ndarray
    ) -> None:
        """Make the ``(focal[i], blocks[i, :])`` matrix entries valid.

        ``focal`` is (M,) sids about to be gathered as rows, ``blocks`` the
        (M, N) sid blocks they are gathered against, ``lanes`` the (M,)
        demanding lanes (evaluation-count attribution only).  Missing pairs
        across all M queries are deduplicated and evaluated in one batched
        kernel call.
        """
        ok = self._store.pair_valid(focal[:, None], blocks)
        if ok.all():
            return
        miss_r, miss_c = np.nonzero(~ok)
        self._fill_unique(
            focal[miss_r], blocks[miss_r, miss_c], lanes[miss_r]
        )

    def fill_missing(
        self, a: np.ndarray, b: np.ndarray, lanes: np.ndarray
    ) -> None:
        """Evaluate whichever of the (a[i], b[i]) pairs are not yet valid —
        the window-prefetch entry point (mutant rows filled ahead of their
        first fitness query)."""
        missing = ~self._store.pair_valid(a, b)
        if not missing.any():
            return
        self._fill_unique(a[missing], b[missing], lanes[missing])

    # -- fitness --------------------------------------------------------------

    def fitness_pc_well_mixed(
        self,
        lane_sids: np.ndarray,
        teacher_sids: np.ndarray,
        learner_sids: np.ndarray,
        include_self_play: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Teacher/learner fitness for many lanes' PC events at once.

        ``lane_sids`` is the ``(k, n_ssets)`` sid block of the k event
        lanes; fitness is one payoff-matrix gather per side, summed over
        SSets — bit-equal to the per-run engine's ``counts @ paymat[sid]``
        because integer payoffs sum exactly in float64 in any order.
        """
        store = self._store
        # One stacked (2, k, n) gather covers both sides.
        focal = np.concatenate((teacher_sids, learner_sids)).reshape(2, -1)
        # dtype=float64 keeps the accumulation exact (and bit-identical)
        # when the matrix itself is stored as float32.
        fit = store.take(focal[:, :, None], lane_sids[None, :, :]).sum(
            axis=2, dtype=np.float64
        )
        if not include_self_play:
            fit = fit - store.take(focal, focal)
        return fit[0], fit[1]

    def fitness_neighbors(
        self,
        sid: int,
        neighbor_sids: np.ndarray,
        include_self_play: bool = False,
    ) -> np.floating:
        """One lane's graph fitness: a per-lane neighbor gather."""
        total = self._store.take(sid, neighbor_sids).sum(dtype=np.float64)
        if include_self_play:
            total = total + np.float64(self._store.take(sid, sid))
        return total

    def fitness_pc_graph(
        self,
        sids: np.ndarray,
        lanes: np.ndarray,
        teachers: np.ndarray,
        learners: np.ndarray,
        structure,
        include_self_play: bool = False,
        ensure: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Teacher/learner graph fitness for many lanes' PC events at once.

        ``sids`` is the full ``(R, n_ssets)`` sid array, ``lanes`` the (k,)
        event lanes of this generation, ``teachers``/``learners`` their
        selected nodes, ``structure`` the shared
        :class:`~repro.structure.graphs.GraphStructure`.  All 2k focal
        neighborhoods are resolved through one CSR segment plan
        (:meth:`~repro.structure.graphs.GraphStructure.neighbor_segments`)
        into a single payoff-matrix gather plus one
        :func:`numpy.add.reduceat` reduction — the graph analogue of
        :meth:`fitness_pc_well_mixed`, and bit-equal to per-lane
        :meth:`fitness_neighbors` gathers because integer payoffs sum
        exactly in float64 in any order.

        With ``ensure`` (the deep-memory on-demand regime) every pair a
        gather will read — focal x neighbor, plus the self-play diagonal —
        is validated/filled first through :meth:`fill_missing`.
        """
        nodes = np.concatenate((teachers, learners))
        lanes2 = np.concatenate((lanes, lanes))
        flat, seg = structure.neighbor_segments(nodes)
        deg = np.diff(seg)
        focal_sids = sids[lanes2, nodes]
        focal_rep = np.repeat(focal_sids, deg)
        lane_rep = np.repeat(lanes2, deg)
        nbr_sids = sids[lane_rep, flat]
        if ensure:
            if include_self_play:
                self.fill_missing(
                    np.concatenate((focal_rep, focal_sids)),
                    np.concatenate((nbr_sids, focal_sids)),
                    np.concatenate((lane_rep, lanes2)),
                )
            else:
                self.fill_missing(focal_rep, nbr_sids, lane_rep)
        vals = self._store.take(focal_rep, nbr_sids)
        fit = np.add.reduceat(vals.astype(np.float64, copy=False), seg[:-1])
        if include_self_play:
            fit = fit + self._store.take(focal_sids, focal_sids).astype(
                np.float64, copy=False
            )
        k = teachers.shape[0]
        return fit[:k], fit[k:]

    # -- invariants ------------------------------------------------------------

    def check_consistent(self, sids: np.ndarray, strategies: list[Strategy]) -> None:
        """Verify one lane's sid row maps back to ``strategies`` — test helper."""
        for i, s in enumerate(strategies):
            pooled = self.strategy(int(sids[i]))
            if pooled.key() != s.key():
                raise SimulationError(
                    f"sid row desynced at SSet {i}: slot {int(sids[i])} "
                    "holds a different strategy"
                )
