"""The packed int64 fill path of ``cycle_payoffs_pairs``.

``compact_sums=True`` carries both sides' sums in one int64,
``(pay_a << 32) + pay_b``.  Under its precondition (integer payoffs,
``rounds * max|payoff| < 2**24``) it must return exactly the bits of the
float64 path and of the scalar cycle-exact engine
(:func:`repro.core.cycle.exact_payoffs`); outside it, it must refuse
rather than truncate.  Its two paths, the round walk and the squared
round map, are each held to the scalar engine and to each other directly,
whichever the dispatch rule would pick.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cycle import exact_payoffs
from repro.core.payoff import PayoffMatrix
from repro.core.strategy import Strategy
from repro.core.vectorgame import (
    _double_packed,
    _packed_payoffs,
    _walk_packed,
    cycle_payoffs_pairs,
    walk_pairs_from,
)
from repro.errors import ConfigurationError

ORACLE = settings(max_examples=120, deadline=None, derandomize=True)

#: Integer payoff entries, negative ones included.
ENTRY = st.integers(-9, 9)


@st.composite
def fill_cases(draw):
    memory = draw(st.integers(1, 4))
    n_states = 4**memory
    n_tables = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    tables = rng.integers(0, 2, size=(n_tables, n_states), dtype=np.uint8)
    n_pairs = draw(st.integers(1, 300))
    a = rng.integers(0, n_tables, size=n_pairs)
    b = rng.integers(0, n_tables, size=n_pairs)
    values = [draw(ENTRY) for _ in range(4)]
    payoff = PayoffMatrix(*map(float, values), require_dilemma=False)
    # Rounds in the everyday range, or just under the 2**24 bound.
    top = (2**24 - 1) // max(1, max(map(abs, values)))
    rounds = draw(
        st.one_of(st.integers(1, 1000), st.integers(max(1, top - 3), top))
    )
    return tables, a, b, rounds, payoff


def edge_rounds(memory):
    """Rounds one short of, at and one past the ``4**memory`` views (a
    walk's cycle closes past them), and at powers of two and one either
    side (the doubling's single block, or every bit set)."""
    n_states = 4**memory
    edges = {n_states - 1, n_states, n_states + 1}
    edges |= {r for k in range(14) for r in (2**k - 1, 2**k, 2**k + 1)}
    return sorted(r for r in edges if r >= 1)


@st.composite
def oracle_cases(draw, memory=None, max_pairs=300):
    if memory is None:
        memory = draw(st.integers(1, 4))
    n_tables = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.integers(0, 2, size=(n_tables, 4**memory), dtype=np.uint8)
    if draw(st.booleans()):
        tables[0] = 0  # ALLC: every game against it stays on one view
    n_pairs = draw(st.integers(0, max_pairs))
    a = rng.integers(0, n_tables, size=n_pairs)
    b = rng.integers(0, n_tables, size=n_pairs)
    if n_pairs and draw(st.booleans()):
        b[: draw(st.integers(1, n_pairs))] = a[0]  # self pairs
        a[: n_pairs // 2] = a[0]
    if n_pairs > 1 and draw(st.booleans()):
        a[1::2], b[1::2] = a[0], b[0]  # one pair, repeated
    rounds = draw(
        st.one_of(st.integers(1, 1000), st.sampled_from(edge_rounds(memory)))
    )
    # Entries in the everyday range, or as large as the 2**24 bound allows
    # at these rounds (the extremes themselves included).
    top = (2**24 - 1) // rounds
    entry = st.one_of(
        ENTRY, st.integers(-top, top), st.sampled_from([-top, top])
    )
    values = [draw(entry) for _ in range(4)]
    payoff = PayoffMatrix(*map(float, values), require_dilemma=False)
    return tables, a, b, rounds, payoff


def assert_same_bits(got, want):
    """Bit equality of float64 totals, signed zeros included."""
    for x, y in zip(got, want):
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))


def scalar_totals(tables, a, b, rounds, payoff):
    """Both sides' totals per pair from the scalar cycle engine."""
    memory = (tables.shape[1].bit_length() - 1) // 2
    strategies = [Strategy(row, memory) for row in tables]
    pairs = list(zip(a.tolist(), b.tolist()))
    known = {
        (i, j): exact_payoffs(strategies[i], strategies[j], rounds, payoff)
        for i, j in set(pairs)
    }
    return (
        np.array([known[pair][0] for pair in pairs]),
        np.array([known[pair][1] for pair in pairs]),
    )


#: The squared path's temporaries grow with pairs x 4**memory; past this
#: many view states a case checks the walk alone.
SQUARED_VIEWS = 1 << 20


class TestWalkAndSquaredMap:
    @pytest.mark.parametrize("memory", range(1, 7))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_both_paths_equal_exact_payoffs(self, memory, data):
        tables, a, b, rounds, payoff = data.draw(
            oracle_cases(memory, max_pairs=4000)
        )
        packed = _packed_payoffs(payoff, rounds)
        walked = _walk_packed(tables, a, b, rounds, packed)
        assert_same_bits(walked, scalar_totals(tables, a, b, rounds, payoff))
        if a.shape[0] * tables.shape[1] <= SQUARED_VIEWS:
            squared = _double_packed(tables, a, b, rounds, packed)
            assert_same_bits(squared, walked)

    @pytest.mark.parametrize("memory", range(1, 7))
    def test_cycle_edges_on_one_pair(self, memory):
        # Every edge round count on one random pair and its self pair.
        rng = np.random.default_rng(memory)
        tables = rng.integers(0, 2, size=(2, 4**memory), dtype=np.uint8)
        a, b = np.array([0, 0, 1]), np.array([1, 0, 0])
        payoff = PayoffMatrix(3.0, -5.0, 4.0, 1.0, require_dilemma=False)
        for rounds in edge_rounds(memory):
            packed = _packed_payoffs(payoff, rounds)
            walked = _walk_packed(tables, a, b, rounds, packed)
            squared = _double_packed(tables, a, b, rounds, packed)
            assert_same_bits(walked, squared)
            assert_same_bits(
                walked, scalar_totals(tables, a, b, rounds, payoff)
            )

    def test_dispatch_rule(self):
        # At 200 rounds and memory 2, the event driver's fills (11-392
        # pairs) square and the ensemble's (~2,600) walk; deep memories
        # walk all but the smallest calls.
        assert 392 < walk_pairs_from(16, 200) <= 1024
        assert walk_pairs_from(4**6, 200) <= 16
        # A walk costs more per pair than the doubling: never walk.
        assert walk_pairs_from(4, 3) > 2**40
        thresholds = [walk_pairs_from(4**m, 200) for m in range(1, 7)]
        assert thresholds == sorted(thresholds, reverse=True)


class TestAgainstScalarEngine:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=oracle_cases())
    def test_compact_fill_equals_exact_payoffs(self, case):
        tables, a, b, rounds, payoff = case
        got = cycle_payoffs_pairs(
            tables, a, b, rounds, payoff, compact_sums=True
        )
        assert_same_bits(got, scalar_totals(tables, a, b, rounds, payoff))

    def test_repeated_calls_reuse_nothing_stale(self):
        # The packed payoff vector is cached per (payoff, rounds): a call
        # with other rounds or payoffs in between must not leak into it.
        rng = np.random.default_rng(1)
        tables = rng.integers(0, 2, size=(4, 16), dtype=np.uint8)
        a, b = np.array([0, 1, 2]), np.array([3, 3, 1])
        first = PayoffMatrix(3.0, 0.0, 4.0, 1.0)
        second = PayoffMatrix(5.0, -2.0, 7.0, 1.0, require_dilemma=False)
        want = cycle_payoffs_pairs(tables, a, b, 9, first, compact_sums=True)
        cycle_payoffs_pairs(tables, a, b, 10, first, compact_sums=True)
        cycle_payoffs_pairs(tables, a, b, 9, second, compact_sums=True)
        got = cycle_payoffs_pairs(tables, a, b, 9, first, compact_sums=True)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


class TestPackedSums:
    @ORACLE
    @given(case=fill_cases())
    def test_bit_equal_to_float64_path(self, case):
        tables, a, b, rounds, payoff = case
        packed = cycle_payoffs_pairs(
            tables, a, b, rounds, payoff, compact_sums=True
        )
        wide = cycle_payoffs_pairs(
            tables, a, b, rounds, payoff, compact_sums=False
        )
        assert_same_bits(packed, wide)

    def test_negative_low_half_borrows_from_high_half(self):
        # ALLD (row 1) against ALLC (row 0) under sucker -5: the b-side
        # total is negative, so the packed low half borrows.
        tables = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
        payoff = PayoffMatrix(3.0, -5.0, 4.0, -1.0, require_dilemma=False)
        pay_a, pay_b = cycle_payoffs_pairs(
            tables, [1, 0], [0, 1], 7, payoff, compact_sums=True
        )
        assert pay_a.tolist() == [28.0, -35.0]
        assert pay_b.tolist() == [-35.0, 28.0]

    def test_rejects_non_integer_payoff(self):
        tables = np.zeros((2, 4), dtype=np.uint8)
        payoff = PayoffMatrix(3.5, 0.0, 4.0, 1.0)
        with pytest.raises(ConfigurationError, match="compact_sums"):
            cycle_payoffs_pairs(
                tables, [0], [1], 10, payoff, compact_sums=True
            )

    def test_rejects_sums_past_the_bound(self):
        tables = np.zeros((2, 4), dtype=np.uint8)
        payoff = PayoffMatrix(3.0, 0.0, 4.0, 1.0)
        with pytest.raises(ConfigurationError, match="2\\*\\*24"):
            cycle_payoffs_pairs(
                tables, [0], [1], 2**22, payoff, compact_sums=True
            )
        # One round less is inside the bound.
        pay_a, _ = cycle_payoffs_pairs(
            tables, [0], [1], 2**22 - 1, payoff, compact_sums=True
        )
        assert pay_a[0] == 3.0 * (2**22 - 1)
