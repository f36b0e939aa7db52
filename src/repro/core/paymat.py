"""Payoff-pair stores: dense and blocked backing for the fitness engines.

The engines' contract is a logical ``capacity x capacity`` matrix of pair
payoffs (``pay[a, b]`` = total game payoff strategy ``a`` earns against
``b``) plus, for the demand-driven ensemble engine, a parallel evaluated
mask.  This module supplies two interchangeable backings behind one small
interface (``take`` / ``pair_valid`` / ``write_pairs`` / ``invalidate_rows``
/ ``grow`` / ``rebuild``):

* :class:`DensePairStore` — the historical single allocation.  Every
  operation is the exact expression the engines used inline before the
  stores existed, so the dense default is bit-for-bit the old behavior
  (the golden + lane-parity suites pin it unmodified).

* :class:`BlockedPairStore` — the logical matrix in ``B x B`` physical
  blocks allocated on first write (``EvolutionConfig.paymat_block``).
  Very large ``R x n_ssets`` sweeps stop paying O(K²) up front: a sid is
  ``block = sid >> log2(B)`` away from its block coordinates, reads are
  one extra gather through a block table (slot 0 is a permanently-zero
  "absent" block, so unmapped reads need no special-casing), and only
  blocks that a fill actually touched occupy memory.  Because
  :meth:`~repro.ensemble.engine.EnsembleEngine.intern_lane` hands out sids
  near-contiguously per lane, the touched blocks cluster around the
  diagonal — resident blocks grow ~K/B-ish, not (K/B)².

  With ``block_cap`` the resident set is LRU-bounded: allocating past the
  cap evicts the least-recently-touched *mirror pair* of blocks — (bi, bj)
  and (bj, bi) retire together, and a pair's recency is the newer of the
  two, because the epoch-sum validity stamps answer queries from a single
  direction (``pair_valid`` touches the queried direction under the
  current clock tick before ``write_pairs`` may evict, and the pair rule
  extends that pin to the mirror a still-valid stamp vouches for).
  Eviction drops
  evaluated flags, which is trajectory-safe **only in the deterministic
  regime**: cycle-exact payoffs are pure functions of the strategy pair,
  so a refill reproduces the identical bits.  The expected-fitness regime
  therefore never runs blocked (its re-evaluations drift by ulps).

For the per-run :class:`~repro.core.engine.FitnessEngine`
(``track_evaluated=False``) the blocked store also speaks the plain
``paymat[...]`` indexing dialect (``__getitem__`` / ``__setitem__`` for
rows and ``(rows, cols)`` gathers), so the eager deterministic
fill/fitness code and
:meth:`~repro.structure.graphs.GraphStructure.gather_fitness` consume it
unchanged.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

__all__ = ["DensePairStore", "BlockedPairStore", "validate_paymat_block"]


def validate_paymat_block(block: int) -> None:
    """Reject invalid ``paymat_block`` values (0 = dense is valid)."""
    if block < 0 or (block and (block < 4 or block & (block - 1))):
        raise ConfigurationError(
            f"paymat_block must be 0 (dense) or a power of two >= 4, "
            f"got {block}"
        )


class DensePairStore:
    """One dense ``capacity x capacity`` payoff + evaluated allocation."""

    evictable = False

    def __init__(self, capacity: int, dtype: np.dtype):
        self.dtype = np.dtype(dtype)
        self._pay = np.zeros((capacity, capacity), dtype=self.dtype)
        self._eval = np.zeros((capacity, capacity), dtype=bool)
        self._peak_bytes = self._bytes()

    def _bytes(self) -> int:
        return int(self._pay.nbytes) + int(self._eval.nbytes)

    @property
    def capacity(self) -> int:
        return int(self._pay.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.capacity, self.capacity)

    @property
    def paymat(self):
        """The raw dense matrix (the engines' historical public view)."""
        return self._pay

    # -- access ----------------------------------------------------------------

    def take(self, rows, cols):
        return self._pay[rows, cols]

    def pair_valid(self, a, b):
        return self._eval[a, b] & self._eval[b, a]

    def write_pairs(self, a, b, pay_ab, pay_ba) -> None:
        """Store both directions of known pair evaluations."""
        self._pay[a, b] = pay_ab
        self._pay[b, a] = pay_ba
        self._eval[a, b] = True
        self._eval[b, a] = True

    def invalidate_rows(self, sids: np.ndarray) -> None:
        self._eval[sids, :] = False

    def tick(self) -> None:
        """LRU clock hook — dense stores never evict."""

    # -- lifecycle -------------------------------------------------------------

    def grow(self, new_capacity: int) -> None:
        old = self.capacity
        pay = np.zeros((new_capacity, new_capacity), dtype=self.dtype)
        pay[:old, :old] = self._pay
        self._pay = pay
        evaluated = np.zeros((new_capacity, new_capacity), dtype=bool)
        evaluated[:old, :old] = self._eval
        self._eval = evaluated
        self._peak_bytes = max(self._peak_bytes, self._bytes())

    def rebuild(self, idx: np.ndarray, new_capacity: int) -> "DensePairStore":
        """Compaction: gather the live grid verbatim (one-way evaluated
        flags included — exactly the historical dense compact)."""
        n_live = idx.shape[0]
        fresh = DensePairStore(new_capacity, self.dtype)
        idx = np.asarray(idx, dtype=np.intp)
        grid = (idx[:, None], idx[None, :])
        fresh._pay[:n_live, :n_live] = self._pay[grid]
        fresh._eval[:n_live, :n_live] = self._eval[grid]
        fresh._peak_bytes = max(fresh._peak_bytes, self._peak_bytes)
        return fresh

    def stats(self) -> dict[str, int]:
        return {
            "paymat_bytes": self._bytes(),
            "peak_paymat_bytes": int(self._peak_bytes),
            "paymat_block": 0,
            "blocks_resident": 0,
            "blocks_evicted": 0,
            "block_fills": 0,
        }


class BlockedPairStore:
    """The logical pair matrix in on-demand ``block x block`` shards.

    Parameters
    ----------
    capacity:
        Logical matrix edge (grows with the strategy pool).
    block:
        Shard edge ``B`` (power of two >= 4; index math is shift/mask).
    dtype:
        Payoff cell dtype (float32 in the compact-exact regime, float64
        otherwise — decided by the owning engine).
    track_evaluated:
        Keep the per-cell evaluated mask (the ensemble engine's demand
        model).  ``False`` for the per-run eager engine, which fills
        whole rows/columns at intern time and never queries validity.
    block_cap:
        LRU bound on resident blocks (0 = unbounded).  Deterministic
        regime only — see the module docstring.
    """

    def __init__(
        self,
        capacity: int,
        block: int,
        dtype: np.dtype,
        track_evaluated: bool = True,
        block_cap: int = 0,
    ):
        validate_paymat_block(block)
        if block == 0:
            raise ConfigurationError(
                "BlockedPairStore needs a block size (use DensePairStore "
                "for the dense layout)"
            )
        if block_cap < 0:
            raise ConfigurationError(
                f"block_cap must be >= 0 (0 = unbounded), got {block_cap}"
            )
        self.dtype = np.dtype(dtype)
        self.block = block
        self.block_cap = block_cap
        self._shift = block.bit_length() - 1
        self._bmask = block - 1
        self._capacity = capacity
        self._nb = -(-capacity // block)
        #: Block -> slot map; slot 0 is the permanent all-zero "absent"
        #: block, so unmapped reads gather zeros/False.
        self._table = np.zeros((self._nb, self._nb), dtype=np.int64)
        self._sync_table()
        slots = 8
        self._pay = np.zeros((slots, block, block), dtype=self.dtype)
        #: Validity is epoch-stamped, not bit-flagged: cell (a, b) is valid
        #: iff ``eval[a, b] == epoch[a] + epoch[b]``.  Epochs only grow,
        #: so one direction's stamp matching the current sum proves
        #: neither row was recycled since the write — validity queries
        #: ride a single gather chain.  Recycling a sid is then an O(1)
        #: counter bump; stale stamps from earlier epochs never match
        #: again (sums are strictly increasing until wraparound, which
        #: eagerly clears both directions of the wrapped row).  Epochs
        #: start at 1, so the minimum live stamp is 2 and zeroed shards —
        #: and the permanent absent block — read as invalid.
        self._eval = (
            np.zeros((slots, block, block), dtype=np.uint16)
            if track_evaluated
            else None
        )
        self._sync_pools()
        self._epoch = np.ones(capacity, dtype=np.uint16)
        self._free_slots = list(range(slots - 1, 0, -1))
        self._owner_bi = np.full(slots, -1, dtype=np.int64)
        self._owner_bj = np.full(slots, -1, dtype=np.int64)
        #: LRU bookkeeping: blocks touched at the current clock tick are
        #: never evicted, so an operation's own working set is pinned.
        self._touch = np.zeros(slots, dtype=np.int64)
        self._clock = 1
        self.blocks_resident = 0
        self.blocks_evicted = 0
        self.block_fills = 0
        self._peak_bytes = self._bytes()

    # -- views -----------------------------------------------------------------

    @property
    def evictable(self) -> bool:
        return self.block_cap > 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def shape(self) -> tuple[int, int]:
        return (self._capacity, self._capacity)

    @property
    def paymat(self) -> "BlockedPairStore":
        """The store itself — it speaks the ``paymat[...]`` gather dialect."""
        return self

    def _bytes(self) -> int:
        total = int(self._pay.nbytes) + self._table.nbytes
        if self._eval is not None:
            total += int(self._eval.nbytes) + int(self._epoch.nbytes)
        return total

    def _sync_table(self) -> None:
        """Rebuild the flat gather table from the block -> slot map.

        The gather table holds *pre-scaled* slot bases (``slot * B*B``) so
        the per-gather index chain is ``base[key] + rowoff + coloff`` —
        two full-size passes fewer than scaling the slot id on every
        access.  Bookkeeping (``self._table``) keeps raw slot ids.  The
        rebuild is O(nb²), so it runs only at construction and on grid
        reshapes (``grow``); allocation and eviction, which arrive every
        few generations under strategy churn, patch single entries.
        """
        self._base_flat = self._table.reshape(-1) * (self.block * self.block)

    def _sync_pools(self) -> None:
        """Refresh the cached flat gather views after a pool reallocation."""
        self._pay_flat = self._pay.reshape(-1)
        self._eval_flat = (
            self._eval.reshape(-1) if self._eval is not None else None
        )

    # -- access ----------------------------------------------------------------

    def take(self, rows, cols):
        """Gather ``pay[rows, cols]`` (broadcasting index arrays).

        Flat single-array gathers: one fused integer index per table/pool
        lookup beats NumPy's multi-array fancy-indexing machinery by ~25%
        on the fitness-sized shapes that dominate the hot path.
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        base = self._base_flat[
            (rows >> self._shift) * self._nb + (cols >> self._shift)
        ]
        flat = base + ((rows & self._bmask) * self.block + (cols & self._bmask))
        return self._pay_flat[flat]

    def pair_valid(self, a, b):
        """Validity of (a, b): one gather against the epoch-sum stamps.

        Cells are stamped with ``epoch[a] + epoch[b]`` at write time and
        epochs only grow, so a single direction's stamp matching the
        current sum proves neither row was recycled since the write.
        Eviction retires mirror blocks jointly and wraparound clears both
        directions of the wrapped row, so one-way queries stay sound.
        """
        assert self._eval is not None
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        base = self._base_flat[
            (a >> self._shift) * self._nb + (b >> self._shift)
        ]
        if self.block_cap:
            used = np.unique(base)
            self._touch[used // (self.block * self.block)] = self._clock
        return (
            self._eval_flat[
                base + ((a & self._bmask) * self.block + (b & self._bmask))
            ]
            == self._epoch[a] + self._epoch[b]
        )

    def write_pairs(self, a, b, pay_ab, pay_ba) -> None:
        """Store both directions of pair evaluations, allocating (and
        under ``block_cap`` possibly evicting) blocks as needed."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.size == 0:
            return
        # Both directions as one fused scatter (see ``pair_valid``).
        rows = np.concatenate((a, b))
        cols = np.concatenate((b, a))
        bi = rows >> self._shift
        bj = cols >> self._shift
        self._ensure_blocks(bi, bj)
        base = self._base_flat[bi * self._nb + bj]
        flat = base + ((rows & self._bmask) * self.block + (cols & self._bmask))
        self._pay_flat[flat] = np.concatenate(
            (
                np.asarray(pay_ab, dtype=self.dtype),
                np.asarray(pay_ba, dtype=self.dtype),
            )
        )
        if self._eval_flat is not None:
            # Stamp both cells with the pair's epoch sum (see ``pair_valid``).
            self._eval_flat[flat] = self._epoch[rows] + self._epoch[cols]

    def set(self, rows, cols, values) -> None:
        """One-direction scatter write (the eager per-run fill dialect)."""
        r, c = np.broadcast_arrays(
            np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        )
        r = r.ravel()
        c = c.ravel()
        if r.size == 0:
            return
        v = np.broadcast_to(np.asarray(values), r.shape).ravel()
        bi = r >> self._shift
        bj = c >> self._shift
        self._ensure_blocks(bi, bj)
        base = self._base_flat[bi * self._nb + bj]
        flat = base + ((r & self._bmask) * self.block + (c & self._bmask))
        self._pay_flat[flat] = v

    def __getitem__(self, key):
        """``pm[rows, cols]`` gathers / ``pm[row]`` materialises one logical
        row, so plain-NumPy consumers (the per-run engine's fitness math,
        :meth:`GraphStructure.gather_fitness`) work unchanged."""
        if isinstance(key, tuple):
            rows, cols = key
            return self.take(rows, cols)
        return self.take(key, np.arange(self._capacity, dtype=np.int64))

    def __setitem__(self, key, values) -> None:
        if not isinstance(key, tuple):
            raise TypeError(
                "blocked paymat rows are written as pm[rows, cols] = values"
            )
        rows, cols = key
        self.set(rows, cols, values)

    def invalidate_rows(self, sids: np.ndarray) -> None:
        """Retire all evaluations of the distinct ``sids``: bump their row
        epochs.

        O(1) per row — stale cell stamps simply never match again, because
        epoch sums are strictly increasing until wraparound.  Epochs cap
        at 32766 so a two-epoch sum always fits the uint16 stamps; on
        (rare) wraparound both directions of the row's resident cells are
        cleared eagerly before the epoch resets, restoring monotonicity.
        Collateral invalidation of still-live cells is trajectory-neutral
        — deterministic refills are bit-exact.
        """
        if self._eval is None:
            return
        sids = np.asarray(sids, dtype=np.int64)
        wrap = self._epoch[sids] >= 32766
        for sid in sids[wrap].tolist():
            bi = sid >> self._shift
            off = sid & self._bmask
            row = self._table[bi]
            live = row[row > 0]
            if live.size:
                self._eval[live, off, :] = 0
            col = self._table[:, bi]
            live = col[col > 0]
            if live.size:
                self._eval[live, :, off] = 0
            self._epoch[sid] = 0  # the bump below restarts it at 1
        self._epoch[sids] += 1

    def tick(self) -> None:
        """Advance the LRU clock: blocks touched from here on are pinned
        against eviction until the next tick."""
        self._clock += 1

    # -- allocation / eviction --------------------------------------------------

    def _grow_slots(self, min_free: int = 1) -> None:
        """Grow the slot pools so at least ``min_free`` slots are free.

        Doubling below 4096 slots keeps small stores cheap to grow; above
        that the pools are big enough that 2x slack dominates resident
        bytes, so growth drops to 1.25x (``min_free`` still wins when a
        single batch needs more — e.g. a pre-sized rebuild).
        """
        old = self._owner_bi.shape[0]
        new = old * 2 if old < 4096 else int(old * 1.25) + 1
        new = max(new, old + min_free)
        pay = np.zeros((new, self.block, self.block), dtype=self.dtype)
        pay[:old] = self._pay
        self._pay = pay
        if self._eval is not None:
            evaluated = np.zeros((new, self.block, self.block), dtype=np.uint16)
            evaluated[:old] = self._eval
            self._eval = evaluated
        self._sync_pools()
        for name in ("_owner_bi", "_owner_bj", "_touch"):
            arr = getattr(self, name)
            grown = np.full(new, -1 if name.startswith("_owner") else 0,
                            dtype=np.int64)
            grown[:old] = arr
            setattr(self, name, grown)
        self._free_slots.extend(range(new - 1, old - 1, -1))
        self._peak_bytes = max(self._peak_bytes, self._bytes())

    def _alloc_block(self, bi: int, bj: int) -> None:
        self._alloc_batch(
            np.array([bi], dtype=np.int64), np.array([bj], dtype=np.int64)
        )

    def _alloc_batch(self, nbi: np.ndarray, nbj: np.ndarray) -> None:
        """Map a batch of distinct absent blocks to slots, vectorised."""
        k = nbi.shape[0]
        if len(self._free_slots) < k:
            self._grow_slots(k - len(self._free_slots))
        if k <= 4:
            # Scalar fast path: churned runs allocate a mirror pair (or a
            # lone diagonal block) at a time, and basic indexing (views)
            # beats fancy-index scatter dispatch at that size.
            for bi, bj in zip(nbi.tolist(), nbj.tolist()):
                slot = self._free_slots.pop()
                self._pay[slot] = 0
                if self._eval is not None:
                    self._eval[slot] = 0
                self._table[bi, bj] = slot
                self._base_flat[bi * self._nb + bj] = slot * (
                    self.block * self.block
                )
                self._owner_bi[slot] = bi
                self._owner_bj[slot] = bj
                self._touch[slot] = self._clock
            self.blocks_resident += k
            self.block_fills += k
            return
        slots = np.asarray(self._free_slots[-k:], dtype=np.int64)
        del self._free_slots[-k:]
        # Zero the shards (reused eviction slots hold stale cells).
        self._pay[slots] = 0
        if self._eval is not None:
            self._eval[slots] = 0
        self._table[nbi, nbj] = slots
        self._base_flat[nbi * self._nb + nbj] = slots * (
            self.block * self.block
        )
        self._owner_bi[slots] = nbi
        self._owner_bj[slots] = nbj
        self._touch[slots] = self._clock
        self.blocks_resident += k
        self.block_fills += k

    def _ensure_blocks(self, bis: np.ndarray, bjs: np.ndarray) -> None:
        slots = self._table[bis, bjs]
        need = slots == 0
        if need.any():
            nbi = bis[need]
            nbj = bjs[need]
            if nbi.size > 1:
                # Drop duplicate (bi, bj) entries.  Batches are a handful
                # of blocks, where a Python set beats np.unique's sort.
                seen: set[int] = set()
                keep: list[int] = []
                for i, key in enumerate((nbi * self._nb + nbj).tolist()):
                    if key not in seen:
                        seen.add(key)
                        keep.append(i)
                if len(keep) != nbi.size:
                    nbi = nbi[keep]
                    nbj = nbj[keep]
            self._alloc_batch(nbi, nbj)
        if self.block_cap:
            self._touch[np.unique(self._table[bis, bjs])] = self._clock
            self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        if self.blocks_resident <= self.block_cap:
            return
        resident = np.nonzero(self._owner_bi >= 0)[0]
        # Mirror blocks retire together (one-way validity stamps assume a
        # valid cell's opposite-direction payoff block is still resident),
        # so a block's effective recency is the newer of the pair — and
        # current-tick pairs are the in-flight operation's working set,
        # never evicted (the cap is soft for one operation).
        mirror = self._table[
            self._owner_bj[resident], self._owner_bi[resident]
        ]
        eff = np.maximum(self._touch[resident], self._touch[mirror])
        stale = resident[eff < self._clock]
        if stale.size == 0:
            return
        order = stale[np.argsort(eff[eff < self._clock], kind="stable")]
        freed: list[int] = []
        for slot in order.tolist():
            if self.blocks_resident <= self.block_cap:
                break
            bi = int(self._owner_bi[slot])
            if bi < 0:
                continue  # already retired as its partner's mirror
            bj = int(self._owner_bj[slot])
            pair = [slot]
            ms = int(self._table[bj, bi])
            if ms > 0 and ms != slot:
                pair.append(ms)
            for s in pair:
                self._table[self._owner_bi[s], self._owner_bj[s]] = 0
                freed.append(
                    int(self._owner_bi[s]) * self._nb
                    + int(self._owner_bj[s])
                )
                self._owner_bi[s] = -1
                self._owner_bj[s] = -1
                self._free_slots.append(s)
                self.blocks_resident -= 1
                self.blocks_evicted += 1
        if freed:
            self._base_flat[freed] = 0

    # -- lifecycle -------------------------------------------------------------

    def grow(self, new_capacity: int) -> None:
        nb = -(-new_capacity // self.block)
        if nb != self._nb:
            table = np.zeros((nb, nb), dtype=np.int64)
            table[: self._nb, : self._nb] = self._table
            self._table = table
            self._nb = nb
            self._sync_table()
        if new_capacity > self._epoch.shape[0]:
            epoch = np.ones(new_capacity, dtype=np.uint16)
            epoch[: self._epoch.shape[0]] = self._epoch
            self._epoch = epoch
        self._capacity = new_capacity
        self._peak_bytes = max(self._peak_bytes, self._bytes())

    def rebuild(self, idx: np.ndarray, new_capacity: int) -> "BlockedPairStore":
        """Compaction: re-intern the live grid's valid pairs.

        Validity is symmetric under epoch-sum stamps (both cells carry
        the same sum, and rows invalidate both directions at once), so
        carrying only `pair_valid` survivors is trajectory-neutral —
        deterministic refills are bit-exact, a dropped pair only means a
        possible redundant re-evaluation later.
        """
        fresh = BlockedPairStore(
            new_capacity,
            self.block,
            self.dtype,
            track_evaluated=self._eval is not None,
            block_cap=self.block_cap,
        )
        # Pre-size the slot pools to the live working set so the copy-in
        # below doesn't walk the doubling ladder one grow at a time.
        short = self.blocks_resident - len(fresh._free_slots)
        if short > 0:
            fresh._grow_slots(short)
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size:
            pay = self.take(idx[:, None], idx[None, :])
            if self._eval is not None:
                ok = self.pair_valid(idx[:, None], idx[None, :])
                iu, ju = np.nonzero(np.triu(ok))
                fresh.write_pairs(iu, ju, pay[iu, ju], pay[ju, iu])
            else:
                rows, cols = np.nonzero(pay)
                fresh.set(rows, cols, pay[rows, cols])
        fresh._peak_bytes = max(fresh._peak_bytes, self._peak_bytes)
        return fresh

    def stats(self) -> dict[str, int]:
        return {
            "paymat_bytes": self._bytes(),
            "peak_paymat_bytes": int(self._peak_bytes),
            "paymat_block": self.block,
            "blocks_resident": int(self.blocks_resident),
            "blocks_evicted": int(self.blocks_evicted),
            "block_fills": int(self.block_fills),
        }
