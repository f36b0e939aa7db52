"""Memoised pairwise payoffs and histogram-based population fitness.

The population model's per-generation work is dominated by IPD games between
*strategies*, not agents: every game between the same two strategy tables
(pure, noiseless) has the same outcome.  Mutations are rare (mu = 0.05), so
the set of distinct strategies present changes slowly and a cache keyed on
strategy bytes turns the per-generation O(S^2 * rounds) game cost into a
handful of cycle-exact evaluations per *new* strategy.

The same observation gives histogram fitness: an SSet's fitness against the
population depends only on how many SSets hold each distinct strategy,

    fitness(a) = sum_b count[b] * pay(a, b)   [- pay(a, a) when self-play
                                               is excluded]

which is what makes the paper's 10^7-generation validation run feasible in
Python (see :func:`repro.core.evolution.run_event_driven`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycle import exact_payoffs
from .game import play_game
from .markov import expected_payoffs, expected_payoffs_many
from .payoff import PAPER_PAYOFF, PayoffMatrix
from .strategy import Strategy

__all__ = ["PayoffCache", "StrategyHistogram"]


class PayoffCache:
    """Cache of per-game payoffs keyed by ordered strategy pairs.

    Three evaluation regimes:

    * pure strategies, no noise — exact cycle detection, cached;
    * ``expected=True`` — exact *expected* payoffs from the Markov engine
      (:mod:`repro.core.markov`), cached; valid for noisy and/or mixed
      strategies.  This is the many-agents-per-SSet limit: an SSet's
      fitness sums many independent games, so it concentrates on the
      expectation — and it is what makes long noisy validation runs
      (paper Fig. 2) tractable;
    * otherwise — one sampled game via the scalar engine with the supplied
      rng (*not* cached: every game is an independent sample).
    """

    def __init__(
        self,
        rounds: int,
        payoff: PayoffMatrix = PAPER_PAYOFF,
        noise: float = 0.0,
        rng: np.random.Generator | None = None,
        expected: bool = False,
    ):
        self.rounds = rounds
        self.payoff = payoff
        self.noise = noise
        self.rng = rng
        self.expected = expected
        self._cache: dict[tuple[bytes, bytes], tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0
        #: Ordered log of cache-filling evaluations, armed by
        #: :meth:`enable_eval_log` when mid-run checkpointing is active.
        #: Each entry is ``("pair", a, b)`` (a scalar :meth:`pair_payoffs`
        #: miss) or ``("many", a, targets)`` (one batched
        #: :meth:`payoffs_to_many` miss set).  Replaying the log on a fresh
        #: cache reproduces its contents bit-for-bit — same kernels, same
        #: batch membership — so :mod:`repro.core.runstate` rebuilds the
        #: cache deterministically instead of serialising float payoffs.
        #: ``None`` (the default) costs nothing on the hot path.
        self._eval_log: list[tuple] | None = None

    def enable_eval_log(self) -> None:
        """Start recording cache-filling evaluations (idempotent)."""
        if self._eval_log is None:
            self._eval_log = []

    def _deterministic(self, a: Strategy, b: Strategy) -> bool:
        return self.noise == 0.0 and a.is_pure and b.is_pure

    def pair_payoffs(self, a: Strategy, b: Strategy) -> tuple[float, float]:
        """Total game payoffs ``(to_a, to_b)`` for one game of ``rounds``."""
        cacheable = self._deterministic(a, b) or self.expected
        if not cacheable:
            res = play_game(
                a, b, self.rounds, self.payoff, noise=self.noise, rng=self.rng
            )
            return res.payoff_a, res.payoff_b
        key = (a.key(), b.key())
        found = self._cache.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        if self._eval_log is not None:
            self._eval_log.append(("pair", a, b))
        if self._deterministic(a, b):
            pay_a, pay_b, _ = exact_payoffs(a, b, self.rounds, self.payoff)
        else:
            pay_a, pay_b, _ = expected_payoffs(
                a, b, self.rounds, self.payoff, noise=self.noise
            )
        self._cache[key] = (pay_a, pay_b)
        self._cache[(key[1], key[0])] = (pay_b, pay_a)
        return pay_a, pay_b

    def payoff_to(self, a: Strategy, b: Strategy) -> float:
        """Payoff earned by ``a`` in one game against ``b``."""
        return self.pair_payoffs(a, b)[0]

    def payoffs_to_many(self, a: Strategy, others: list[Strategy]) -> np.ndarray:
        """Payoffs ``a`` earns against each of ``others`` (batched).

        In expected mode the uncached opponents are evaluated in one
        vectorised Markov pass (the mixed-strategy fitness kernel); other
        regimes fall back to per-pair evaluation.
        """
        out = np.empty(len(others), dtype=np.float64)
        if not self.expected:
            for i, b in enumerate(others):
                out[i] = self.payoff_to(a, b)
            return out
        key_a = a.key()
        missing: list[int] = []
        for i, b in enumerate(others):
            found = self._cache.get((key_a, b.key()))
            if found is None:
                missing.append(i)
            else:
                self.hits += 1
                out[i] = found[0]
        if missing:
            self.misses += len(missing)
            targets = [others[i] for i in missing]
            if self._eval_log is not None:
                self._eval_log.append(("many", a, list(targets)))
            forward, backward = expected_payoffs_many(
                a, targets, self.rounds, self.payoff, self.noise
            )
            for i, pay_a, pay_b in zip(missing, forward, backward):
                b = others[i]
                self._cache[(key_a, b.key())] = (float(pay_a), float(pay_b))
                self._cache[(b.key(), key_a)] = (float(pay_b), float(pay_a))
                out[i] = pay_a
        return out

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        self._cache.clear()


@dataclass
class StrategyHistogram:
    """Multiset of strategies currently held by the population's SSets."""

    counts: dict[bytes, int] = field(default_factory=dict)
    exemplars: dict[bytes, Strategy] = field(default_factory=dict)

    @classmethod
    def from_strategies(cls, strategies: list[Strategy]) -> "StrategyHistogram":
        hist = cls()
        for s in strategies:
            hist.add(s)
        return hist

    def add(self, strategy: Strategy) -> None:
        key = strategy.key()
        self.counts[key] = self.counts.get(key, 0) + 1
        self.exemplars.setdefault(key, strategy)

    def remove(self, strategy: Strategy) -> None:
        key = strategy.key()
        count = self.counts.get(key, 0)
        if count <= 0:
            raise KeyError("strategy not present in histogram")
        if count == 1:
            del self.counts[key]
            del self.exemplars[key]
        else:
            self.counts[key] = count - 1

    def replace(self, old: Strategy, new: Strategy) -> None:
        """Atomically swap one SSet's strategy (learning or mutation)."""
        if old.key() == new.key():
            return
        self.add(new)
        self.remove(old)

    @property
    def total(self) -> int:
        """Number of SSets represented."""
        return sum(self.counts.values())

    @property
    def distinct(self) -> int:
        """Number of distinct strategies present."""
        return len(self.counts)

    def most_common(self, k: int | None = None) -> list[tuple[Strategy, int]]:
        """Strategies sorted by descending SSet count."""
        items = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if k is not None:
            items = items[:k]
        return [(self.exemplars[key], count) for key, count in items]

    def fitness_of(
        self,
        strategy: Strategy,
        cache: PayoffCache,
        include_self_play: bool = False,
    ) -> float:
        """Population fitness of an SSet holding ``strategy``.

        One game against every SSet's strategy; by default the game against
        the SSet's *own* slot is excluded (the paper's "all the other
        strategies in the population").
        """
        keys = list(self.counts.keys())
        opponents = [self.exemplars[k] for k in keys]
        payoffs = cache.payoffs_to_many(strategy, opponents)
        total = 0.0
        for key, pay in zip(keys, payoffs):
            total += self.counts[key] * pay
        if not include_self_play:
            total -= cache.payoff_to(strategy, strategy)
        return total
