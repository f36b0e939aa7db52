"""Vectorised iterated-game kernels (the "thread-level" inner loop).

The paper parallelises the per-SSet game loop across OpenMP threads; in
NumPy the analogous optimisation is to advance *all* pairings one round at a
time with fancy indexing, so the per-round work is a handful of vector ops
instead of a Python-level loop per game.

Entry points:

* :func:`play_pairs` — arbitrary (a, b) pairings given as index arrays;
* :func:`payoff_matrix` — all ordered pairs among K strategies at once,
  which is exactly the per-generation fitness kernel of the population model
  (every SSet plays every strategy).

Both are bit-for-bit equal to :func:`repro.core.game.play_game` for pure
strategies without noise, and distributionally equal otherwise (they are
validated against the scalar engine in the test suite).

The engines run two more:

* :func:`play_pairs_uniforms` — :func:`play_pairs` over pre-drawn uniforms,
  the sampled regime's fused kernel;
* :func:`cycle_payoffs_pairs` — exact payoffs of pure noiseless pairings,
  the deterministic engines' fill kernel.  It walks each pairing's joint
  view to its cycle, ``min(rounds, 4**n)`` steps a pair, or, for calls too
  small to repay the walk's fixed cost per round, squares the pairing's
  round map, ``4**n * log2(rounds)`` a pair (:func:`walk_pairs_from`).
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError, StrategyError
from .payoff import PAPER_PAYOFF, PayoffMatrix
from .states import swap_perspective_array
from .strategy import Strategy

__all__ = [
    "stack_tables",
    "play_pairs",
    "play_pairs_uniforms",
    "noise_flip_codes",
    "sampled_draws_per_round",
    "payoff_matrix",
    "cycle_payoffs_pairs",
]

#: a's joint move code ``2 * move_a + move_b`` -> b's ``2 * move_b + move_a``.
_SWAP_CODE = np.array([0, 2, 1, 3], dtype=np.intp)


def stack_tables(strategies: list[Strategy]) -> tuple[np.ndarray, int, bool]:
    """Stack strategy tables into one (K, 4**n) array.

    Returns ``(tables, memory_steps, any_mixed)``.  Pure tables are stacked
    as uint8; if any strategy is mixed, everything is cast to defection
    probabilities (float64).
    """
    if not strategies:
        raise StrategyError("need at least one strategy")
    n = strategies[0].memory_steps
    if any(s.memory_steps != n for s in strategies):
        raise StrategyError("all strategies must share memory_steps")
    any_mixed = any(not s.is_pure for s in strategies)
    if any_mixed:
        tables = np.stack([s.defect_probabilities() for s in strategies])
    else:
        tables = np.stack([s.table for s in strategies])
    return tables, n, any_mixed


@lru_cache(maxsize=8)
def _mirror_row(n_states: int) -> np.ndarray:
    """Cached perspective-swap permutation (read-only) for one state count.

    Recomputing it per call was a measurable fixed cost of the engines'
    small fill batches.
    """
    memory_steps = (n_states.bit_length() - 1) // 2
    mirror = swap_perspective_array(np.arange(n_states), memory_steps)
    mirror.flags.writeable = False
    return mirror


def _moves_from_tables(
    tables: np.ndarray,
    idx: np.ndarray,
    views: np.ndarray,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Moves for each game given the (possibly mixed) stacked tables."""
    entry = tables[idx, views]
    if tables.dtype == np.uint8:
        return entry
    if rng is None:
        raise ConfigurationError("mixed strategies require an rng")
    return (rng.random(entry.shape) < entry).astype(np.uint8)


def _apply_noise(
    moves: np.ndarray, noise: float, rng: np.random.Generator | None
) -> np.ndarray:
    if noise <= 0.0:
        return moves
    if rng is None:
        raise ConfigurationError("noise > 0 requires an rng")
    flips = (rng.random(moves.shape) < noise).astype(np.uint8)
    return moves ^ flips


def play_pairs(
    strategies: list[Strategy],
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Play ``len(a_idx)`` independent games simultaneously.

    Returns ``(payoffs_a, payoffs_b)`` — total payoffs per game to the
    a-side and b-side players.
    """
    a_idx = np.asarray(a_idx, dtype=np.intp)
    b_idx = np.asarray(b_idx, dtype=np.intp)
    if a_idx.shape != b_idx.shape or a_idx.ndim != 1:
        raise ConfigurationError("a_idx and b_idx must be equal-length 1-D arrays")
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    tables, n, _ = stack_tables(strategies)
    mask = (4**n) - 1
    n_games = a_idx.shape[0]

    views_a = np.zeros(n_games, dtype=np.int64)
    views_b = np.zeros(n_games, dtype=np.int64)
    pay_a = np.zeros(n_games, dtype=np.float64)
    pay_b = np.zeros(n_games, dtype=np.float64)
    vec = payoff.vector

    for _ in range(rounds):
        moves_a = _apply_noise(
            _moves_from_tables(tables, a_idx, views_a, rng), noise, rng
        )
        moves_b = _apply_noise(
            _moves_from_tables(tables, b_idx, views_b, rng), noise, rng
        )
        code_a = 2 * moves_a.astype(np.int64) + moves_b
        code_b = 2 * moves_b.astype(np.int64) + moves_a
        pay_a += vec[code_a]
        pay_b += vec[code_b]
        views_a = ((views_a << 2) | code_a) & mask
        views_b = ((views_b << 2) | code_b) & mask
    return pay_a, pay_b


def sampled_draws_per_round(mixed: bool, noise: float) -> int:
    """Uniform draws one round of :func:`play_pairs` consumes per game.

    The per-round draw slots, in stream order, are ``[a_mix?, a_noise?,
    b_mix?, b_noise?]`` — a mixed-table move draw and a noise-flip draw per
    side, each present only when the regime uses it.  ``mixed`` must be the
    *configuration's* mixed flag (a mixed run stacks float tables even when
    every live strategy happens to be pure, and float tables always consume
    the move draw), not a property of the current strategies.
    """
    return (2 if mixed else 0) + (2 if noise > 0.0 else 0)


def noise_flip_codes(uniforms: np.ndarray, noise: float) -> np.ndarray:
    """Reduce pure games' noise draws to 2-bit flip codes.

    ``uniforms`` is a ``(rounds, 2, n_games)`` block of
    :func:`play_pairs_uniforms` draws for pure tables (slots ``[a_noise,
    b_noise]``).  Returns the ``(rounds, n_games)`` uint8 codes ``2 *
    flip_a + flip_b`` — all a pure game reads of its draws, in one byte
    per round instead of sixteen.
    """
    flipped = np.less(uniforms, noise)
    codes = np.left_shift(flipped[:, 0], 1, dtype=np.uint8)
    codes |= flipped[:, 1]
    return codes


def play_pairs_uniforms(
    tables: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    payoff: PayoffMatrix,
    noise: float,
    uniforms: np.ndarray,
    b_totals: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`play_pairs` over pre-drawn uniforms.

    ``uniforms`` has shape ``(rounds, D, n_games)`` with ``D =``
    :func:`sampled_draws_per_round`; slot ``uniforms[r, s]`` replaces the
    ``s``-th ``rng.random(...)`` call round ``r`` of :func:`play_pairs`
    would make.  Because the Philox generator fills a ``(rounds, D, G)``
    request in C order — exactly ``rounds * D`` sequential length-``G``
    draws — ``play_pairs_uniforms(..., uniforms=rng.random((rounds, D,
    G)))`` is **bit-identical** to ``play_pairs(..., rng=rng)`` on the same
    pairings.  Every per-round operation is elementwise per game, so
    concatenating several callers' games (and their uniform blocks) along
    the games axis preserves each caller's bits — the property the batched
    sampled engine uses to fuse many lanes' games into a single kernel
    call.

    Pure tables read nothing of their draws but the noise flips, so for
    them ``uniforms`` may instead be the ``(rounds, n_games)`` uint8 codes
    :func:`noise_flip_codes` makes of the float block — same bits.  The
    kernel then *consumes* that array: it writes each round's joint move
    code over the round's flip code.  A game costs ``rounds`` bytes of
    input this way, against ``rounds * D * 8`` bytes of float draws.

    ``tables`` is a pre-stacked ``(K, 4**n)`` array in the
    :func:`stack_tables` layout: uint8 rows play deterministically per
    view, float rows are defection probabilities resolved against the mix
    draw.  Results are float64 arrays; with ``b_totals=False`` the b-side
    totals are not computed and ``None`` stands in for them.

    The games are short (10**2–10**3 elements per array), so the cost is
    NumPy call dispatch, not arithmetic; the implementation minimises
    calls per round while keeping the bits of the round loop above:

    * **One joint view per game.**  Both players record the same
      realised moves, so b's view is always the perspective swap
      (:func:`_mirror_row`) of a's.  The walk tracks only a's view, as a
      flat index into a table of successor views, and reads b's move
      through the mirror.
    * **Flips up front.**  Noise flips do not depend on the play, so one
      comparison before the loop (:func:`noise_flip_codes`) yields every
      (round, game)'s 2-bit flip code; each round xors its moves into its
      codes.
    * **A successor table per game while it pays.**  From
      :data:`_JOINT_WALK_FROM_ROUNDS` rounds on, each game gets its own
      joint successor table (:func:`_walk_joint`): entry ``g * 4**n + v``
      is the flat index of game ``g``'s next view from view ``v`` with
      both moves in its low two bits, so a pure round is one gather and
      one in-place xor of the round's flip codes (two calls).  The tables
      hold ``n_games * 4**n`` entries, so in shorter games their set-up
      costs more than the walk saves, and the walk prepares each stacked
      row once instead (:func:`_walk_rows`: a's row pre-shifted into
      next-view form, b's read through the mirror; six calls per round,
      ``K * 4**n`` set-up).  On real calls of ~900 games and 200 rounds
      the joint walk is ~2.5× faster at memory 2, ~1.4× at memory 4,
      about even at memory 5 and ~1.9× slower at memory 6.  The joint
      walk gathers with a plain ``take``: ``np.take(..., out=)`` buffers
      in raise mode and ran ~1.7× slower per round.  It widens the flip
      codes to intp 32 rounds at a time, because xor-ing uint8 into intp
      cost ~1.8× an intp-by-intp xor.
    * **Payoffs after the loop.**  The joint code of every round is kept
      in a ``(rounds, n_games)`` array, and each side's payoffs are
      gathered from it.  Integer payoffs with ``rounds * max|payoff| <
      2**53`` are summed in int64 (:func:`_integer_totals`): every partial
      sum is then an integer float64 holds exactly, so every order of
      addition, the round loop's included, gives the same bits.  Other
      payoffs are summed with ``np.add.accumulate`` along the rounds,
      which adds strictly in round order like the loop does.
      ``sum(axis=0)`` would not: on a single game it switches to pairwise
      summation, so a game's bits would depend on its batch.
    """
    a_idx = np.asarray(a_idx, dtype=np.intp)
    b_idx = np.asarray(b_idx, dtype=np.intp)
    if a_idx.shape != b_idx.shape or a_idx.ndim != 1:
        raise ConfigurationError("a_idx and b_idx must be equal-length 1-D arrays")
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    n_games = a_idx.shape[0]
    mixed = tables.dtype != np.uint8
    draws = sampled_draws_per_round(mixed, noise)
    if draws == 0:
        raise ConfigurationError(
            "play_pairs_uniforms serves sampled games only (noise > 0 or "
            "mixed tables); pure noiseless pairings are deterministic — "
            "use cycle_payoffs_pairs"
        )
    flip_codes = not mixed and uniforms.dtype == np.uint8
    expected_shape = (
        (rounds, n_games) if flip_codes else (rounds, draws, n_games)
    )
    if tuple(uniforms.shape) != expected_shape:
        layout = (
            "(rounds, n_games) flip codes"
            if flip_codes
            else "(rounds, draws_per_round, n_games)"
        )
        raise ConfigurationError(
            f"uniforms must have shape {layout} = {expected_shape}, got "
            f"{tuple(uniforms.shape)}"
        )
    n_states = tables.shape[1]
    if mixed:
        codes = _walk_mixed(tables, a_idx, b_idx, uniforms, noise, draws)
    else:
        codes = uniforms if flip_codes else noise_flip_codes(uniforms, noise)
        memory = (n_states.bit_length() - 1) // 2
        if rounds >= _JOINT_WALK_FROM_ROUNDS.get(memory, sys.maxsize):
            _walk_joint(tables, a_idx, b_idx, codes)
        else:
            _walk_rows(tables, a_idx, b_idx, codes)

    vec = payoff.vector
    # Integer payoffs whose every partial sum stays below 2**53 add exactly
    # in any order, so the int64 sums carry the round loop's bits.
    totals = (
        _integer_totals
        if _exact_integer_sums(vec, rounds, 2.0**53)
        else _round_ordered_totals
    )
    return (
        totals(vec, codes),
        totals(vec[_SWAP_CODE], codes) if b_totals else None,
    )


#: Rounds from which the pure walk gives each game its own successor
#: table (:func:`play_pairs_uniforms`), by memory; memory 6 never does.
#: On captured 64-lane calls (550-820 games; 16 stacked rows at memory 1,
#: ~800 above) the two walks ran about even at 8 rounds at memory 1-2
#: (0.12 ms; the rows 1.8x faster at 2 rounds at memory 1) and at 16 at
#: memory 3, and the joint walk faster from 16, 12 and 32 rounds.  It ran
#: faster from 128 rounds at memory 4 (1.5 against 2.0 ms), from 1,024 at
#: memory 5 (10.5 against 12.5 ms; 8.2 against 6.9 at 512), and at memory
#: 6 slower at every count of 128-4,096 rounds (70.7 against 53.4 ms at
#: 4,096).
_JOINT_WALK_FROM_ROUNDS = {1: 8, 2: 8, 3: 32, 4: 128, 5: 1024}

#: Rounds per chunk: the joint walk widens its flip codes, and the payoff
#: sums gather, this many rounds at a time, which bounds their 8-byte
#: temporaries at a few ``_ROUND_CHUNK`` entries per game however long the
#: games are.
_ROUND_CHUNK = 32


@lru_cache(maxsize=8)
def _successor_shift(n_states: int) -> np.ndarray:
    """Entry ``v``: ``v``'s successor view before the round's moves are
    or-ed into its low two bits (cached, read-only)."""
    shift = (np.arange(n_states, dtype=np.intp) << 2) & (n_states - 1)
    shift.flags.writeable = False
    return shift


def _walk_joint(
    tables: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray, codes: np.ndarray
) -> None:
    """Pure walk on one joint successor table per game.

    Overwrites each round of the ``(rounds, n_games)`` uint8 flip ``codes``
    with the round's joint move code ``2 * move_a + move_b``.  Entry ``g *
    4**n + v`` of the table is the flat index of game ``g``'s next view
    from view ``v``, both moves in its low two bits, so a round is one
    gather and one xor of its flip codes.
    """
    n_states = tables.shape[1]
    # Built in uint8 and widened once; b's row is read through the mirror.
    moves = tables[a_idx] << 1
    moves |= tables.take(_mirror_row(n_states), axis=1)[b_idx]
    joint = moves.astype(np.intp)
    joint += _successor_shift(n_states)
    at = np.arange(a_idx.shape[0], dtype=np.intp) * n_states  # all-C starts
    joint += at[:, None]
    joint = joint.ravel()
    for lo in range(0, codes.shape[0], _ROUND_CHUNK):
        chunk = codes[lo : lo + _ROUND_CHUNK].astype(np.intp)
        for flips in chunk:
            flips ^= joint.take(at)
            at = flips
        np.bitwise_and(
            chunk, 3, out=codes[lo : lo + _ROUND_CHUNK], casting="unsafe"
        )


def _walk_rows(
    tables: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray, codes: np.ndarray
) -> None:
    """Pure walk over the stacked rows, prepared once per call.

    Same contract as :func:`_walk_joint`.  a's row is pre-shifted: its
    entry at a view is the flat index of the next view with a's move in
    bit 1, so one gather, or-ing in b's move (read from b's row permuted
    by the mirror) and xor-ing in the flips advance the walk, and one
    masked store keeps the round's joint code.
    """
    n_states = tables.shape[1]
    row_base = np.arange(tables.shape[0], dtype=np.intp) * n_states
    at = row_base[a_idx]
    b_offset = row_base[b_idx] - at
    b_at_a_view = tables.take(_mirror_row(n_states), axis=1).ravel()
    step_a = np.add(_successor_shift(n_states), row_base[:, None])
    step_a |= tables << 1
    step_a = step_a.ravel()
    for out in codes:
        step = step_a.take(at)
        step |= b_at_a_view.take(at + b_offset)
        step ^= out
        # The low two bits of the flat index are the joint code.
        np.bitwise_and(step, 3, out=out, casting="unsafe")
        at = step


def _walk_mixed(
    tables: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    uniforms: np.ndarray,
    noise: float,
    draws: int,
) -> np.ndarray:
    """Walk over mixed (float) tables; returns the ``(rounds, n_games)``
    intp joint move codes.

    Each side owns ``draws // 2`` consecutive slots per round, in the
    order [a_mix, a_noise?, b_mix, b_noise?].  ``codes[r]`` starts as
    round r's flip code ``2 * flip_a + flip_b``; the round xors into it
    the flat index of every game's next view.
    """
    n_states = tables.shape[1]
    row_base = np.arange(tables.shape[0], dtype=np.intp) * n_states
    # Flat index of each game's a-row at view 0 (all-C), and the offset
    # from there to b's row; the gathers raise IndexError on a bad row.
    at = row_base[a_idx]
    b_offset = row_base[b_idx] - at
    b_at_a_view = tables.take(_mirror_row(n_states), axis=1).ravel()
    side = draws // 2
    if noise > 0.0:
        codes = noise_flip_codes(uniforms[:, side - 1::side], noise)
        codes = codes.astype(np.intp)
    else:
        codes = np.zeros((uniforms.shape[0], a_idx.shape[0]), dtype=np.intp)
    p_a = tables.ravel()
    next_base = (_successor_shift(n_states) + row_base[:, None]).ravel()
    for out, u_a, u_b in zip(codes, uniforms[:, 0], uniforms[:, side]):
        code = (u_a < p_a.take(at)) << 1
        code |= u_b < b_at_a_view.take(at + b_offset)
        out ^= code
        out |= next_base.take(at)
        at = out
    codes &= 3  # 2 * move_a + move_b
    return codes


def _exact_integer_sums(vec: np.ndarray, rounds: int, bound: float) -> bool:
    """Whether ``rounds`` of the payoff values ``vec`` sum exactly below
    ``bound``: every value is an integer and ``rounds * max|value| <
    bound``, which bounds every partial sum as well."""
    # Four Python floats: cheaper than array reductions at fill sizes of
    # a few pairs.
    values = vec.tolist()
    return (
        all(v.is_integer() for v in values)
        and rounds * max(map(abs, values)) < bound
    )


@lru_cache(maxsize=32)
def _packed_payoffs(payoff: PayoffMatrix, rounds: int) -> np.ndarray | None:
    """Both sides' round payoffs per joint code packed into one int64,
    ``(pay_a << 32) + pay_b`` (cached, read-only), or ``None`` when
    ``rounds`` of ``payoff`` do not sum exactly below 2**24 — the
    precondition of :func:`cycle_payoffs_pairs`' ``compact_sums`` path."""
    vec = payoff.vector
    if not _exact_integer_sums(vec, rounds, 2.0**24):
        return None
    ivec = vec.astype(np.int64)
    packed = (ivec << 32) + ivec[_SWAP_CODE]
    packed.flags.writeable = False
    return packed


def _integer_totals(vec: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-game sums of integer-valued ``vec[codes]`` down a ``(rounds,
    n_games)`` array, exact in int64 (callers check
    :func:`_exact_integer_sums` against 2**53 first)."""
    ivec = vec.astype(np.int64)
    total = np.zeros(codes.shape[1], dtype=np.int64)
    for lo in range(0, codes.shape[0], _ROUND_CHUNK):
        total += ivec.take(codes[lo : lo + _ROUND_CHUNK]).sum(axis=0)
    return total.astype(np.float64)


def _round_ordered_totals(vec: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-game sums of ``vec[codes]`` down a ``(rounds, n_games)`` array.

    ``np.add.accumulate`` adds strictly in round order, like a round loop
    does, whatever the number of games; each chunk of rounds starts from
    the previous chunk's totals.
    """
    total = None
    for lo in range(0, codes.shape[0], _ROUND_CHUNK):
        per_round = vec.take(codes[lo : lo + _ROUND_CHUNK])
        if total is not None:
            per_round[0] += total
        np.add.accumulate(per_round, axis=0, out=per_round)
        total = per_round[-1]
    # ``+ 0.0`` copies the totals out and turns a -0.0 total into the 0.0
    # a round loop's zero start gives.
    return total + 0.0


def cycle_payoffs_pairs(
    tables: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    compact_sums: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact payoffs for many pure, noiseless pairings at once.

    The batched counterpart of :func:`repro.core.cycle.exact_payoffs`: each
    pairing's joint history is a deterministic walk over the ``4**n`` view
    states (the opponent's view is the bit-swapped mirror), so one round is
    a fixed *round map* ``view -> next view`` with a fixed per-state payoff,
    and every game enters a cycle within ``4**n`` rounds.  Two paths
    evaluate it:

    * **Squaring the round map** — the map is raised to the ``rounds``-th
      power by exponentiation by squaring: each doubling composes the map
      with itself and adds the payoff-sum tables.  A pair costs ``4**n *
      log2(rounds)``, whatever its cycle: cheap at small memories and few
      pairs, where the walk's fixed cost per round dominates.
    * **Walking to the cycle** (``compact_sums`` only,
      :func:`_walk_packed`) — every pair steps its view for ``min(rounds,
      4**n)`` rounds, gathering both moves straight from ``tables``, and
      past ``4**n`` rounds closes its cycle: the prefix, whole cycles and
      a remainder.  A pair costs ``min(rounds, 4**n)`` steps: at memory 6
      and 200 rounds that is 200 steps, where squaring composes 4,096
      views about 8 times.

    :func:`walk_pairs_from` picks the packed path from the pair count,
    ``4**n`` and ``rounds`` (a cost rule measured on both paths); the
    float64 path always squares.

    ``tables`` is a stacked ``(K, 4**n)`` uint8 array (one row per pure
    strategy); ``a_idx``/``b_idx`` index rows.  Returns ``(pay_a, pay_b)``
    — total payoffs per pairing to each side.

    For **integer-valued** payoff matrices the result is float-exact, hence
    bit-identical to :func:`~repro.core.cycle.exact_payoffs` regardless of
    summation order; non-integer payoffs can differ from the scalar engine
    in the last ulp (different association of the same sums).  This is the
    fill kernel of the deterministic-regime
    :class:`repro.core.engine.FitnessEngine`, which is why that engine
    requires integer payoffs.

    ``compact_sums`` packs both sides' sums into one int64,
    ``(pay_a << 32) + pay_b``, so each doubling and each walked round adds
    one gathered value instead of two — the kernel is gather-bound, and
    this is the engines' fill path.  The packing is exact while both
    sides' sums stay within ±2**31: adding packed values adds the high
    and low halves separately, the low half's sign borrows from the high
    half, and decoding ``b = ((t + 2**31) & 0xFFFFFFFF) - 2**31``, ``a =
    (t - b) >> 32`` recovers both.  The path therefore requires an
    integer-valued payoff matrix with ``rounds * max|payoff| < 2**24`` —
    every partial sum is bounded by the total — and raises
    :class:`~repro.errors.ConfigurationError` otherwise instead of
    truncating.  Both packed paths sum exact integers, so their float64
    totals are bit-identical to each other and to the float64 path.
    """
    if tables.dtype != np.uint8:
        raise StrategyError(
            "cycle_payoffs_pairs needs stacked pure (uint8) tables, got "
            f"dtype {tables.dtype}"
        )
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    a_idx = np.asarray(a_idx, dtype=np.intp)
    b_idx = np.asarray(b_idx, dtype=np.intp)
    if a_idx.shape != b_idx.shape or a_idx.ndim != 1:
        raise ConfigurationError("a_idx and b_idx must be equal-length 1-D arrays")
    n_pairs = a_idx.shape[0]
    if n_pairs == 0:
        return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.float64)
    n_states = tables.shape[1]
    vec = payoff.vector
    if compact_sums:
        packed_vec = _packed_payoffs(payoff, rounds)
        if packed_vec is None:
            raise ConfigurationError(
                "compact_sums needs integer payoffs with rounds * "
                f"max|payoff| < 2**24, got rounds={rounds} and payoff "
                f"{vec.tolist()}"
            )
        if n_pairs >= walk_pairs_from(n_states, rounds):
            return _walk_packed(tables, a_idx, b_idx, rounds, packed_vec)
        return _double_packed(tables, a_idx, b_idx, rounds, packed_vec)

    code, view, step = _round_map(tables, a_idx, b_idx)
    sum_a = vec.take(code)  # payoff sums over the current 2**k-round block
    sum_b = vec[_SWAP_CODE].take(code)
    total_a = np.zeros(n_pairs, dtype=np.float64)
    total_b = np.zeros(n_pairs, dtype=np.float64)

    remaining = rounds
    while True:
        if remaining & 1:
            total_a += sum_a.take(view)
            total_b += sum_b.take(view)
            view = step.take(view)
        remaining >>= 1
        if not remaining:
            break
        # Square the block: 2**(k+1) rounds = 2**k rounds, then 2**k more
        # from wherever the walk landed.
        sum_a += sum_a.take(step)
        sum_b += sum_b.take(step)
        step = step.take(step)
    return total_a, total_b


def _round_map(
    tables: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The doubling's one-round tables, per pairing and view state, flat.

    Returns ``(code, view, step)``: the joint move code played from each
    view, every pairing's all-C start, and the successor view.  The
    successor is a flat index into these ``(L * S)`` arrays (row offset
    baked in), so every composition is one ``take``.  At small fills (~11
    pairs per engine intern) the cost is NumPy call overhead, not
    arithmetic: the set-up gathers with ``take`` (a 2-D fancy index costs
    twice as much), builds the code in uint8 and adds in place.
    """
    n_states = tables.shape[1]
    code = tables.take(a_idx, axis=0)  # (L, S): 2 * move_a + move_b
    code <<= 1
    code |= tables.take(b_idx, axis=0).take(_mirror_row(n_states), axis=1)
    code = code.ravel()
    view = np.arange(0, a_idx.shape[0] * n_states, n_states)  # all-C starts
    # (v << 2) & mask leaves the low two bits free, so or-ing the code in
    # is adding it.
    step = np.add(view[:, None], _successor_shift(n_states)).ravel()
    step += code
    return code, view, step


def _unpack_totals(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' float64 totals from packed int64 ones (consumes
    ``total``): b is the low half sign-extended, a = (t - b) >> 32."""
    low = total << 32
    low >>= 32
    total -= low
    total >>= 32
    return total.astype(np.float64), low.astype(np.float64)


def _double_packed(
    tables: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    packed_vec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The packed path by squaring each pairing's round map.

    Both sides' payoff sums over the current ``2**k``-round block ride in
    one int64 per view (see :func:`cycle_payoffs_pairs`); temporaries are
    a few ``(L, 4**n)`` arrays.
    """
    code, view, step = _round_map(tables, a_idx, b_idx)
    packed = packed_vec.take(code)
    total = None
    remaining = rounds
    while True:
        if remaining & 1:
            if total is None:
                total = packed.take(view)
            else:
                total += packed.take(view)
            view = step.take(view)
        remaining >>= 1
        if not remaining:
            break
        packed += packed.take(step)
        step = step.take(step)
    return _unpack_totals(total)


@lru_cache(maxsize=32)
def _packed_view_payoffs(packed_vec: bytes, n_states: int) -> np.ndarray:
    """Entry ``v``: the packed payoff of the round that ended in view
    ``v`` (its low two bits are the round's joint code); cached,
    read-only, keyed on the packed vector's bytes."""
    per_code = np.frombuffer(packed_vec, dtype=np.int64)
    per_view = np.tile(per_code, n_states // 4)
    per_view.flags.writeable = False
    return per_view


def _walk_packed(
    tables: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    rounds: int,
    packed_vec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The packed path by walking each pairing's joint view to its cycle.

    Every pairing steps a's view from all-C for ``min(rounds, 4**n)``
    rounds, reading a's move from its stacked row and b's from its row at
    the mirrored view, straight from ``tables`` (nothing of the pool is
    copied).  Temporaries are the ``(min(rounds, 4**n) + 1, L)`` views
    walked, which then turn in place into the rounds' packed payoffs.

    Past ``4**n`` rounds the last view lies on the pairing's cycle: the
    walk has visited ``4**n + 1`` views of ``4**n`` states, so it entered
    its cycle by step ``4**n - c`` for a cycle of ``c`` views.  The last
    earlier step ``j`` at that view closes the cycle, ``c = 4**n - j``,
    and the game is the prefix, ``q`` whole cycles and the first ``r``
    rounds of one more, ``q, r = divmod(rounds - 4**n, c)``.  Every term
    is an exact int64 sum, so the totals are the doubling's bits.
    """
    n_states = tables.shape[1]
    n_pairs = a_idx.shape[0]
    flat = tables.ravel()
    a_at = a_idx * n_states
    b_at = b_idx * n_states
    mirror = _mirror_row(n_states)
    shift = _successor_shift(n_states)
    steps = min(rounds, n_states)
    views = np.empty((steps + 1, n_pairs), dtype=np.intp)
    views[0] = 0  # all-C
    for k in range(steps):
        view = views[k]
        code = flat.take(a_at + view)
        code <<= 1
        at_b = mirror.take(view)
        at_b += b_at
        code |= flat.take(at_b)
        # "wrap" skips the copy "raise" mode makes of an ``out=`` array;
        # every view is in range.
        after = shift.take(view, out=views[k + 1], mode="wrap")
        after |= code
    # From here the views turn in place into the packed payoff of the
    # round that ended in each (``take`` reads each index before writing
    # its slot).  A second array of their size alive beside them cost
    # ~200 µs of fresh pages per call on 2,500-pair memory-2 calls.
    per_view = _packed_view_payoffs(packed_vec.tobytes(), n_states)
    if rounds <= n_states:
        played = views[1:]
        per_view.take(played, out=played, mode="wrap")
        return _unpack_totals(played.sum(axis=0))

    # The last earlier step at the final view: the largest matching step
    # index, in the smallest integer type that holds one (a max down a
    # narrow array is several times cheaper than an argmax).
    step_no = np.arange(steps, dtype=np.min_scalar_type(steps))[:, None]
    last = np.multiply(views[:steps] == views[steps], step_no).max(axis=0)
    last = last.astype(np.intp)
    # sums[k]: the packed sum of rounds 0 .. k - 1, a running sum row by
    # row (``np.cumsum`` down axis 0 ran ~5x slower).
    sums = per_view.take(views, out=views, mode="wrap")
    sums[0] = 0
    for k in range(2, steps + 1):
        sums[k] += sums[k - 1]
    cycles, rest = np.divmod(rounds - steps, steps - last)
    flat_sums = sums.ravel()
    column = np.arange(n_pairs)
    before = flat_sums.take(last * n_pairs + column)
    total = sums[steps] - before  # one whole cycle
    total *= cycles
    total += sums[steps]
    total += flat_sums.take((last + rest) * n_pairs + column)
    total -= before
    return _unpack_totals(total)


#: The packed path's cost rule (:func:`walk_pairs_from`), fit to both
#: paths' times over memory 1-6, 4-8,192 pairs and 1-1,000 rounds and
#: checked on captured engine calls.  Per pair, a walked round costs one
#: unit and a doubling ``_DOUBLING_VIEW_SHARE`` units per view; a walked
#: round also costs a fixed ``_WALK_ROUND_PAIRS`` units (its nine NumPy
#: calls).
_WALK_ROUND_PAIRS = 800
_DOUBLING_VIEW_SHARE = 0.35


@lru_cache(maxsize=64)
def walk_pairs_from(n_states: int, rounds: int) -> int:
    """Fewest pairs for which :func:`cycle_payoffs_pairs`' packed path
    walks the rounds (:func:`_walk_packed`) rather than squaring the round
    map (:func:`_double_packed`).

    The walk costs ``min(rounds, 4**n) * (_WALK_ROUND_PAIRS + n_pairs)``
    and the doubling ``_DOUBLING_VIEW_SHARE * n_pairs * 4**n *
    rounds.bit_length()``; the walk runs from the pair count where it is
    the cheaper, or never when it costs more per pair.  At 200 rounds
    that is 445 pairs at memory 1-3, 310 at memory 4, 60 at memory 5 and
    15 at memory 6.
    """
    steps = min(rounds, n_states)
    saved = _DOUBLING_VIEW_SHARE * n_states * rounds.bit_length() - steps
    if saved <= 0:
        return sys.maxsize
    return int(_WALK_ROUND_PAIRS * steps // saved) + 1


def payoff_matrix(
    strategies: list[Strategy],
    rounds: int,
    payoff: PayoffMatrix = PAPER_PAYOFF,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """All-ordered-pairs payoff matrix among K strategies.

    ``out[i, j]`` is the total payoff strategy ``i`` earns as the focal
    player of a game against strategy ``j``.  For pure noiseless strategies
    this equals the scalar engine's result exactly and the (i, j)/(j, i)
    entries describe the same deterministic play; for stochastic games every
    ordered pair is an independent game instance (the paper's semantics —
    SSet i's agents and SSet j's agents run separate games).

    Cost is O(K^2 * rounds) vector work; prefer
    :class:`repro.core.payoff_cache.PayoffCache` when strategies repeat
    across generations.
    """
    tables, n, _ = stack_tables(strategies)
    k = tables.shape[0]
    mask = (4**n) - 1
    row = np.arange(k, dtype=np.intp)[:, None]
    col = np.arange(k, dtype=np.intp)[None, :]
    row_b = np.broadcast_to(row, (k, k))
    col_b = np.broadcast_to(col, (k, k))

    views = np.zeros((k, k), dtype=np.int64)  # row player's view vs column
    views_opp = np.zeros((k, k), dtype=np.int64)  # column player's view vs row
    pay = np.zeros((k, k), dtype=np.float64)
    vec = payoff.vector

    deterministic = tables.dtype == np.uint8 and noise <= 0.0
    for _ in range(rounds):
        moves = _apply_noise(
            _moves_from_tables(tables, row_b, views, rng), noise, rng
        )
        if deterministic:
            # Same game seen from the other side: the transpose.
            opp_moves = moves.T
        else:
            opp_moves = _apply_noise(
                _moves_from_tables(tables, col_b, views_opp, rng), noise, rng
            )
        code = 2 * moves.astype(np.int64) + opp_moves
        pay += vec[code]
        views = ((views << 2) | code) & mask
        if not deterministic:
            # Track the opponent's view of each independent game instance.
            code_opp = 2 * opp_moves.astype(np.int64) + moves
            views_opp = ((views_opp << 2) | code_opp) & mask
    return pay
