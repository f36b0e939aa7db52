"""The dense payoff-pair store of the shared ensemble engine.

The engine's contract is a ``capacity x capacity`` matrix of pair payoffs
(``pay[a, b]`` = total game payoff strategy ``a`` earns against ``b``)
plus a parallel evaluated mask, behind one small interface (``take`` /
``pair_valid`` / ``write_pairs`` / ``invalidate_rows`` / ``grow`` /
``rebuild`` / ``stats``).  :class:`DensePairStore` is one allocation of
each; every operation is the exact expression the engine used inline
before the store existed, so the golden and lane-parity suites pin it
bit for bit.  A pool-only engine, which has no pair matrix, uses
:class:`~repro.ensemble.engine._NoPairStore` behind the same interface.

A shared group's store is sized for its worst case up front, so its
bytes follow from the group's shape alone; the ensemble driver bounds
them by running a wide group as consecutive sub-groups (see "Wide
groups" in :mod:`repro.ensemble.driver`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["DensePairStore"]


class DensePairStore:
    """One dense ``capacity x capacity`` payoff + evaluated allocation."""

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
        }
