"""The Fermi pairwise-comparison rule (paper Eq. 1).

    p = 1 / (1 + exp(-beta * (pi_T - pi_L)))

``pi_T`` / ``pi_L`` are the teacher's and learner's fitness and ``beta`` the
intensity of selection: beta -> 0 gives a coin flip, beta -> infinity always
adopts the fitter strategy (paper Section IV.B, following Traulsen et al.,
ref. [13]).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError

__all__ = ["fermi_probability", "fermi_adoptions", "PAPER_BETA"]

#: Default selection intensity.  The paper does not print its beta; 0.1 is
#: the conventional intermediate-selection value in the cited literature
#: (Traulsen, Pacheco & Nowak 2007) and is the package default.
PAPER_BETA: float = 0.1

#: Half-width of the band around a vectorised probability inside which
#: :func:`fermi_adoptions` re-decides with the scalar rule.  ``np.exp`` and
#: ``math.exp`` may differ by an ulp or so; through the two quotients that
#: moves ``p`` by a few ulps of a value <= 1, far inside this band.
_GUARD = 1e-12


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


def fermi_adoptions(
    teacher_fitness: np.ndarray,
    learner_fitness: np.ndarray,
    uniforms: np.ndarray,
    beta: float,
    allow_downhill: bool = True,
) -> np.ndarray:
    """Many learners' adoption decisions at once, each exactly
    ``uniform < fermi_probability(teacher, learner, beta)``.

    ``p`` is computed with ``np.exp(-|x|)`` and the same two quotients as
    :func:`fermi_probability`; a uniform within :data:`_GUARD` of its
    ``p`` — where ``np.exp``'s last ulp could flip the comparison — is
    decided by the scalar rule instead, so the decisions are bit-exact.
    Without ``allow_downhill`` a learner adopts only from a strictly
    fitter teacher, as in the serial drivers.
    """
    if not 0.0 <= beta < math.inf:
        raise ConfigurationError(f"beta must be finite and >= 0, got {beta}")
    x = beta * (teacher_fitness - learner_fitness)
    e = np.exp(-np.abs(x))
    p = np.where(x >= 0, 1.0, e) / (1.0 + e)
    adopt = uniforms < p
    close = np.abs(uniforms - p) <= _GUARD
    if close.any():
        for i in np.flatnonzero(close).tolist():
            adopt[i] = uniforms[i] < fermi_probability(
                teacher_fitness[i], learner_fitness[i], beta
            )
    if not allow_downhill:
        adopt &= teacher_fitness > learner_fitness
    return adopt
