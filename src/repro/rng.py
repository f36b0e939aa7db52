"""Deterministic random-number-stream management.

The paper's Nature Agent is the single source of randomness for population
dynamics, which is what makes its parallel runs reproducible: every rank sees
the same broadcast decisions.  We mirror that design: a single
:class:`SeedSequenceTree` derives named, independent Philox streams for each
subsystem (nature, game noise, per-rank programs, ...), so that

* the same master seed always produces the same trajectory, and
* changing the decomposition (rank count, thread count) does not change the
  science, because science-relevant draws all come from the ``nature`` stream.

Philox is counter-based, making spawned streams statistically independent.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import numpy as np

__all__ = ["SeedSequenceTree", "make_rng", "spawn_rngs"]


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a Philox-backed :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        Master seed.  ``None`` draws entropy from the OS (non-reproducible).
    """
    return np.random.Generator(np.random.Philox(seed))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators from one master seed."""
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of streams: {n}")
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


@lru_cache(maxsize=1024, typed=True)
def _name_key(*parts: object) -> tuple[int, ...]:
    """Stable mapping of a name path onto SeedSequence spawn_key integers.

    Cached per path (``typed``, so ``1`` and ``1.0``, equal as cache
    keys but hashed differently below, stay apart): every run derives the
    same handful of streams, and the pure-Python hash cost ~2 µs each.
    """
    key: list[int] = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            key.append(int(part) & 0xFFFFFFFF)
        else:
            # FNV-1a over the utf-8 bytes: stable across runs/processes
            # (unlike hash(), which is salted).
            h = 0x811C9DC5
            for b in str(part).encode("utf-8"):
                h = ((h ^ b) * 0x01000193) & 0xFFFFFFFF
            key.append(h)
    return tuple(key)


class SeedSequenceTree:
    """Named, hierarchical seed derivation.

    Every distinct ``name`` (an iterable of string/int path components) maps
    to a deterministic child seed of the master seed.  Repeated requests for
    the same name return *fresh generators with the same state*, which is what
    tests need to replay a stream.

    Examples
    --------
    >>> tree = SeedSequenceTree(1234)
    >>> nature = tree.generator("nature")
    >>> rank3 = tree.generator("rank", 3)
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The master seed this tree derives from."""
        return self._seed

    def _child_key(self, parts: Iterable[object]) -> tuple[int, ...]:
        return _name_key(*parts)

    def seed_sequence(self, *name: object) -> np.random.SeedSequence:
        """Return the derived :class:`~numpy.random.SeedSequence` for ``name``."""
        return np.random.SeedSequence(self._seed, spawn_key=self._child_key(name))

    def generator(self, *name: object) -> np.random.Generator:
        """Return a fresh Philox generator for the named stream."""
        return np.random.Generator(np.random.Philox(self.seed_sequence(*name)))
