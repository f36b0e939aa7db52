"""Exact expected payoffs for mixed / noisy games via the state Markov chain.

For memory-*n* strategies the per-round behaviour depends only on the focal
player's view ``v`` (the opponent's view is the bit-swapped mirror of ``v``),
so a game with mixed strategies and/or trembling-hand noise is a Markov
chain over ``4**n`` states with exactly four successors per state (one per
executed move pair).  The expected total payoff over N rounds is then a sum
of state-distribution-weighted expected round payoffs — no sampling error,
which is what the paper's error discussion (Section III.F, WSLS vs TFT)
needs to be demonstrated crisply.

This generalises the memory-one analysis of Nowak & Sigmund (paper ref. [9])
to arbitrary memory and is used by the tests as the ground truth for the
sampling engines, and by the examples to reproduce the "TFT collapses under
errors, WSLS does not" result.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, StrategyError
from .payoff import PAPER_PAYOFF, PayoffMatrix
from .states import num_states, swap_perspective_array
from .strategy import Strategy

__all__ = [
    "transition_model",
    "expected_payoffs",
    "expected_payoffs_many",
    "stationary_cooperation_rate",
]


def _effective_defect_probs(strategy: Strategy, noise: float) -> np.ndarray:
    """Per-state probability that the *executed* move is D under noise."""
    p = strategy.defect_probabilities()
    # Intended D plays D w.p. (1 - noise); intended C plays D w.p. noise.
    return p * (1.0 - noise) + (1.0 - p) * noise


def _markov_step(dist: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """One round of the joint chain: the state distribution after it.

    ``dist`` is ``(..., S)`` over views, ``probs`` ``(..., S, 4)`` the
    move-pair probabilities per view.  View ``v = hi * S/4 + lo`` (``hi``
    its two oldest bits) moves under code ``c`` to ``(lo << 2) | c``, so
    the successor distribution is the ``(..., 4, S/4, 4)`` reshape of the
    flow ``dist * probs`` summed over ``hi``.  That sum adds the four
    views sharing ``lo`` in ascending ``hi`` — the order a per-code
    ``np.add.at`` scatter over the views adds them — so it is bit-equal to
    that scatter (pinned by the test suite against it).
    """
    n_states = probs.shape[-2]
    flow = dist[..., :, None] * probs
    flow = flow.reshape(*flow.shape[:-2], 4, n_states // 4, 4)
    return flow.sum(axis=-3).reshape(dist.shape)


def transition_model(
    strategy_a: Strategy,
    strategy_b: Strategy,
    noise: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Successor states and probabilities of the joint chain.

    Returns ``(successors, probs)``, both shaped (4**n, 4): from view ``v``
    (player A's perspective), the move pair ``(a, b)`` with code
    ``2a + b`` leads to ``successors[v, code]`` with ``probs[v, code]``.
    """
    if strategy_a.memory_steps != strategy_b.memory_steps:
        raise StrategyError(
            "strategies must share memory_steps, got "
            f"{strategy_a.memory_steps} vs {strategy_b.memory_steps}"
        )
    if not 0.0 <= noise <= 1.0:
        raise ConfigurationError(f"noise must lie in [0, 1], got {noise}")
    n = strategy_a.memory_steps
    n_states = num_states(n)
    views = np.arange(n_states)
    mirror = swap_perspective_array(views, n)

    pa = _effective_defect_probs(strategy_a, noise)[views]
    pb = _effective_defect_probs(strategy_b, noise)[mirror]

    probs = np.empty((n_states, 4), dtype=np.float64)
    probs[:, 0] = (1 - pa) * (1 - pb)  # CC
    probs[:, 1] = (1 - pa) * pb        # CD
    probs[:, 2] = pa * (1 - pb)        # DC
    probs[:, 3] = pa * pb              # DD

    mask = n_states - 1
    successors = np.empty((n_states, 4), dtype=np.int64)
    for code in range(4):
        successors[:, code] = ((views << 2) | code) & mask
    return successors, probs


def expected_payoffs(
    strategy_a: Strategy,
    strategy_b: Strategy,
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    noise: float = 0.0,
) -> tuple[float, float, float]:
    """Exact expected ``(payoff_a, payoff_b, cooperation_rate)`` over N rounds.

    For pure noiseless strategies this equals the deterministic result of
    :func:`repro.core.cycle.exact_payoffs`; for stochastic games it is the
    exact mean of the sampling engines' distribution.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    _, probs = transition_model(strategy_a, strategy_b, noise)
    n_states = probs.shape[0]
    vec = payoff.vector
    # Expected per-round payoff to A given the current view, and to B
    # (B receives the mirrored move-pair payoff).
    vec_b = vec[[0, 2, 1, 3]]  # code 2a+b from A's view -> B's payoff
    round_pay_a = probs @ vec
    round_pay_b = probs @ vec_b
    # Each round contributes 2 moves; coop count = (1-pa) + (1-pb) in expectation.
    coop_per_round = (
        probs[:, 0] * 2 + probs[:, 1] * 1 + probs[:, 2] * 1 + probs[:, 3] * 0
    )

    dist = np.zeros(n_states, dtype=np.float64)
    dist[0] = 1.0  # all-cooperate initial history
    total_a = 0.0
    total_b = 0.0
    total_coop = 0.0
    for _ in range(rounds):
        total_a += float(dist @ round_pay_a)
        total_b += float(dist @ round_pay_b)
        total_coop += float(dist @ coop_per_round)
        dist = _markov_step(dist, probs)
    return total_a, total_b, total_coop / (2 * rounds)


def expected_payoffs_many(
    strategy_a: Strategy,
    opponents: list[Strategy],
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    noise: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`expected_payoffs`: one focal strategy vs K opponents.

    Returns ``(to_a, to_b)`` — two (K,) arrays with the focal player's and
    each opponent's expected total payoffs.  All K chains are advanced
    together, so per-opponent Python overhead disappears — this is the
    kernel behind mixed-strategy population fitness (histogram fitness with
    hundreds of distinct mixed strategies).
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    if not opponents:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.float64)
    n = strategy_a.memory_steps
    for b in opponents:
        if b.memory_steps != n:
            raise StrategyError("all strategies must share memory_steps")
    if not 0.0 <= noise <= 1.0:
        raise ConfigurationError(f"noise must lie in [0, 1], got {noise}")

    n_states = num_states(n)
    k = len(opponents)
    views = np.arange(n_states)
    mirror = swap_perspective_array(views, n)

    pa = _effective_defect_probs(strategy_a, noise)[views]  # (S,)
    pb = np.stack(
        [_effective_defect_probs(b, noise) for b in opponents]
    )[:, mirror]  # (K, S)

    # Move-pair probabilities per opponent and state: (K, S, 4).
    probs = np.empty((k, n_states, 4), dtype=np.float64)
    probs[:, :, 0] = (1 - pa)[None, :] * (1 - pb)
    probs[:, :, 1] = (1 - pa)[None, :] * pb
    probs[:, :, 2] = pa[None, :] * (1 - pb)
    probs[:, :, 3] = pa[None, :] * pb

    round_pay_a = probs @ payoff.vector  # (K, S)
    round_pay_b = probs @ payoff.vector[[0, 2, 1, 3]]  # code 2a+b -> B's payoff
    dist = np.zeros((k, n_states), dtype=np.float64)
    dist[:, 0] = 1.0
    totals_a = np.zeros(k, dtype=np.float64)
    totals_b = np.zeros(k, dtype=np.float64)
    for _ in range(rounds):
        totals_a += (dist * round_pay_a).sum(axis=1)
        totals_b += (dist * round_pay_b).sum(axis=1)
        dist = _markov_step(dist, probs)
    return totals_a, totals_b


def stationary_cooperation_rate(
    strategy_a: Strategy,
    strategy_b: Strategy,
    noise: float = 0.0,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> float:
    """Long-run cooperation rate of the pair.

    Uses the Cesàro (running-average) iterate, which converges even for
    periodic deterministic chains such as TFT-vs-TFT locked in a CD/DC
    alternation.  Useful for the error-robustness analysis: TFT vs TFT under
    errors drifts to ~50% cooperation, while WSLS vs WSLS recovers to ~1.
    """
    _, probs = transition_model(strategy_a, strategy_b, noise)
    n_states = probs.shape[0]
    coop_per_round = probs[:, 0] + 0.5 * (probs[:, 1] + probs[:, 2])
    dist = np.zeros(n_states, dtype=np.float64)
    dist[0] = 1.0  # the game actually starts from the all-cooperate history
    avg = dist.copy()
    for it in range(1, max_iter + 1):
        dist = _markov_step(dist, probs)
        new_avg = avg + (dist - avg) / (it + 1)
        if it > 8 and np.abs(new_avg - avg).sum() < tol:
            avg = new_avg
            break
        avg = new_avg
    return float(avg @ coop_per_round)
