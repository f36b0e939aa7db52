"""Prisoner's Dilemma payoff matrices (paper Table I).

The paper uses fitness values ``f[R, S, T, P] = [3, 0, 4, 1]``: mutual
cooperation pays the Reward ``R`` to both, mutual defection the Punishment
``P``, and a unilateral defector receives the Temptation ``T`` while the
cooperator is left with the Sucker payoff ``S``.  The dilemma requires
``T > R > P > S`` (Section III.A).

Moves are encoded throughout the package as ``0 = cooperate`` and
``1 = defect``, following the paper ("If in the previous round both the agent
and opponent cooperated (played a 0) ...").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

__all__ = ["PayoffMatrix", "PAPER_PAYOFF", "COOPERATE", "DEFECT"]

#: Move encoding used across the whole package.
COOPERATE: int = 0
DEFECT: int = 1


@dataclass(frozen=True)
class PayoffMatrix:
    """Two-player symmetric Prisoner's Dilemma payoffs.

    Parameters
    ----------
    reward:
        ``R`` — payoff to each player after mutual cooperation.
    sucker:
        ``S`` — payoff to a cooperator whose opponent defected.
    temptation:
        ``T`` — payoff to a defector whose opponent cooperated.
    punishment:
        ``P`` — payoff to each player after mutual defection.
    require_dilemma:
        When true (default), enforce the PD ordering ``T > R > P > S``.
        Disable to model arbitrary symmetric 2x2 games with the same engine.

    Every entry must be finite, dilemma or not.
    """

    reward: float = 3.0
    sucker: float = 0.0
    temptation: float = 4.0
    punishment: float = 1.0
    require_dilemma: bool = True
    #: Payoff to the focal player indexed by ``2 * my_move + opp_move``
    #: (so index 0 = CC -> R, 1 = CD -> S, 2 = DC -> T, 3 = DD -> P).
    vector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("reward", "sucker", "temptation", "punishment"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"payoff {name} must be finite, got {value}"
                )
        if self.require_dilemma and not (
            self.temptation > self.reward > self.punishment > self.sucker
        ):
            raise ConfigurationError(
                "not a Prisoner's Dilemma: need T > R > P > S, got "
                f"T={self.temptation}, R={self.reward}, "
                f"P={self.punishment}, S={self.sucker}"
            )
        vec = np.array(
            [self.reward, self.sucker, self.temptation, self.punishment],
            dtype=np.float64,
        )
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def payoff(self, my_move: int, opp_move: int) -> float:
        """Payoff to the focal player for one round."""
        return float(self.vector[2 * my_move + opp_move])

    def both(self, move_a: int, move_b: int) -> tuple[float, float]:
        """Payoffs ``(to_a, to_b)`` for one round of play."""
        return self.payoff(move_a, move_b), self.payoff(move_b, move_a)

    @property
    def max_per_round(self) -> float:
        """Largest payoff obtainable in a single round (``T`` for a PD)."""
        return float(self.vector.max())

    @property
    def min_per_round(self) -> float:
        """Smallest payoff obtainable in a single round (``S`` for a PD)."""
        return float(self.vector.min())

    def key(self) -> tuple[float, float, float, float]:
        """Hashable identity used by payoff caches."""
        return (self.reward, self.sucker, self.temptation, self.punishment)

    def as_table(self) -> list[list[tuple[float, float]]]:
        """Table I layout: ``[[CC, CD], [DC, DD]]`` with (agent, opponent) pairs."""
        return [
            [(self.reward, self.reward), (self.sucker, self.temptation)],
            [(self.temptation, self.sucker), (self.punishment, self.punishment)],
        ]


#: The payoff matrix used for every experiment in the paper (Section V.C).
PAPER_PAYOFF = PayoffMatrix()
