"""Real multiprocessing execution of the fitness kernel.

This is the runnable counterpart of the paper's thread level: the per-
generation fitness evaluation — every strategy against every strategy — is
embarrassingly parallel across row blocks, so we fan the vectorised kernel
(:func:`repro.core.vectorgame.play_pairs`) out over a process pool.

Two transports for results:

* default — workers return their row blocks (pickled);
* ``use_shared_memory=True`` — workers write into one shared buffer
  (:mod:`repro.runtime.sharedmem`), avoiding the result copy.

Determinism: the computation is pure (pure strategies, no noise), so the
result is bit-identical to the serial kernel for any worker count — pinned
by the tests.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.payoff import PAPER_PAYOFF, PayoffMatrix
from ..core.strategy import Strategy
from ..core.vectorgame import play_pairs
from ..errors import ConfigurationError
from .partition import block_ranges
from .sharedmem import SharedArray, SharedArraySpec

__all__ = ["ParallelKernel", "parallel_payoff_matrix", "parallel_all_fitness"]


def _row_block(
    strategies: list[Strategy],
    lo: int,
    hi: int,
    rounds: int,
    payoff: PayoffMatrix,
    spec: SharedArraySpec | None,
) -> tuple[int, np.ndarray | None]:
    """Worker: payoffs of strategies[lo:hi] (as focal players) vs everyone."""
    k = len(strategies)
    rows = hi - lo
    a_idx = np.repeat(np.arange(lo, hi), k)
    b_idx = np.tile(np.arange(k), rows)
    pay_a, _ = play_pairs(strategies, a_idx, b_idx, rounds, payoff)
    block = pay_a.reshape(rows, k)
    if spec is None:
        return lo, block
    target, shm = SharedArray.attach(spec)
    try:
        target[lo:hi, :] = block
    finally:
        shm.close()
    return lo, None


@dataclass
class ParallelKernel:
    """Process-pool fitness kernel with a persistent pool."""

    n_workers: int = 2
    rounds: int = 200
    payoff: PayoffMatrix = PAPER_PAYOFF
    use_shared_memory: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> "ParallelKernel":
        if self.n_workers > 1:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def payoff_matrix(self, strategies: list[Strategy]) -> np.ndarray:
        """All-ordered-pairs payoff matrix, computed across processes."""
        k = len(strategies)
        if k == 0:
            raise ConfigurationError("need at least one strategy")
        if self._pool is None:
            lo, block = _row_block(strategies, 0, k, self.rounds, self.payoff, None)
            assert block is not None
            return block

        ranges = [r for r in block_ranges(k, self.n_workers) if r[1] > r[0]]
        if self.use_shared_memory:
            with SharedArray((k, k)) as shared:
                futures = [
                    self._pool.submit(
                        _row_block,
                        strategies,
                        lo,
                        hi,
                        self.rounds,
                        self.payoff,
                        shared.spec,
                    )
                    for lo, hi in ranges
                ]
                for f in futures:
                    f.result()
                return shared.array.copy()

        out = np.empty((k, k), dtype=np.float64)
        futures = [
            self._pool.submit(
                _row_block, strategies, lo, hi, self.rounds, self.payoff, None
            )
            for lo, hi in ranges
        ]
        for (lo, hi), future in zip(ranges, futures):
            _, block = future.result()
            out[lo:hi, :] = block
        return out

    def all_fitness(
        self, strategies: list[Strategy], include_self_play: bool = False
    ) -> np.ndarray:
        """Population fitness vector (row sums of the payoff matrix)."""
        matrix = self.payoff_matrix(strategies)
        fitness = matrix.sum(axis=1)
        if not include_self_play:
            fitness -= np.diag(matrix)
        return fitness


def parallel_payoff_matrix(
    strategies: list[Strategy],
    rounds: int = 200,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    n_workers: int = 2,
    use_shared_memory: bool = False,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`ParallelKernel`."""
    with ParallelKernel(
        n_workers=n_workers,
        rounds=rounds,
        payoff=payoff,
        use_shared_memory=use_shared_memory,
    ) as kernel:
        return kernel.payoff_matrix(strategies)


def parallel_all_fitness(
    strategies: list[Strategy],
    rounds: int = 200,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    n_workers: int = 2,
    include_self_play: bool = False,
) -> np.ndarray:
    """One-shot population fitness vector across processes."""
    with ParallelKernel(n_workers=n_workers, rounds=rounds, payoff=payoff) as kernel:
        return kernel.all_fitness(strategies, include_self_play)
