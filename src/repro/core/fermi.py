"""The Fermi pairwise-comparison rule (paper Eq. 1).

    p = 1 / (1 + exp(-beta * (pi_T - pi_L)))

``pi_T`` / ``pi_L`` are the teacher's and learner's fitness and ``beta`` the
intensity of selection: beta -> 0 gives a coin flip, beta -> infinity always
adopts the fitter strategy (paper Section IV.B, following Traulsen et al.,
ref. [13]).
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

__all__ = ["fermi_probability", "PAPER_BETA"]

#: Default selection intensity.  The paper does not print its beta; 0.1 is
#: the conventional intermediate-selection value in the cited literature
#: (Traulsen, Pacheco & Nowak 2007) and is the package default.
PAPER_BETA: float = 0.1


def fermi_probability(
    teacher_fitness: float, learner_fitness: float, beta: float
) -> float:
    """Adoption probability of the teacher's strategy by the learner.

    Overflow-safe for any finite ``beta`` and fitness gap; a negative or
    non-finite ``beta`` is rejected.
    """
    if not 0.0 <= beta < math.inf:
        raise ConfigurationError(f"beta must be finite and >= 0, got {beta}")
    x = beta * (teacher_fitness - learner_fitness)
    # 1/(1+exp(-x)) without overflow for very negative x.
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)
