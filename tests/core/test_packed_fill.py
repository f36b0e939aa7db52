"""The packed int64 fill path of ``cycle_payoffs_pairs``.

``compact_sums=True`` carries both sides' block sums in one int64 per
view, ``(pay_a << 32) + pay_b``.  Under its precondition (integer payoffs,
``rounds * max|payoff| < 2**24``) it must return exactly the bits of the
float64 path and of the scalar cycle-exact engine
(:func:`repro.core.cycle.exact_payoffs`); outside it, it must refuse
rather than truncate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cycle import exact_payoffs
from repro.core.payoff import PayoffMatrix
from repro.core.strategy import Strategy
from repro.core.vectorgame import cycle_payoffs_pairs
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


#: Rounds at powers of two and one either side: the doubling's edge cases
#: (a single block, or every bit set).
EDGE_ROUNDS = sorted(
    {r for k in range(11) for r in (2**k - 1, 2**k, 2**k + 1) if 1 <= r <= 1000}
)


@st.composite
def oracle_cases(draw):
    memory = draw(st.integers(1, 4))
    n_tables = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.integers(0, 2, size=(n_tables, 4**memory), dtype=np.uint8)
    n_pairs = draw(st.integers(0, 300))
    a = rng.integers(0, n_tables, size=n_pairs)
    b = rng.integers(0, n_tables, size=n_pairs)
    if n_pairs and draw(st.booleans()):
        b[: draw(st.integers(1, n_pairs))] = a[0]  # self pairs
        a[: n_pairs // 2] = a[0]
    if n_pairs > 1 and draw(st.booleans()):
        a[1::2], b[1::2] = a[0], b[0]  # one pair, repeated
    rounds = draw(st.one_of(st.integers(1, 1000), st.sampled_from(EDGE_ROUNDS)))
    # Entries in the everyday range, or as large as the 2**24 bound allows
    # at these rounds (the extremes themselves included).
    top = (2**24 - 1) // rounds
    entry = st.one_of(
        ENTRY, st.integers(-top, top), st.sampled_from([-top, top])
    )
    values = [draw(entry) for _ in range(4)]
    payoff = PayoffMatrix(*map(float, values), require_dilemma=False)
    return tables, a, b, rounds, payoff


class TestAgainstScalarEngine:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=oracle_cases())
    def test_compact_fill_equals_exact_payoffs(self, case):
        tables, a, b, rounds, payoff = case
        pay_a, pay_b = cycle_payoffs_pairs(
            tables, a, b, rounds, payoff, compact_sums=True
        )
        assert pay_a.shape == pay_b.shape == a.shape
        memory = (tables.shape[1].bit_length() - 1) // 2
        strategies = [Strategy(row, memory) for row in tables]
        expected = {}
        for i, j in set(zip(a.tolist(), b.tolist())):
            expected[i, j] = exact_payoffs(
                strategies[i], strategies[j], rounds, payoff
            )[:2]
        for k, (i, j) in enumerate(zip(a.tolist(), b.tolist())):
            want_a, want_b = expected[i, j]
            assert (pay_a[k], pay_b[k]) == (want_a, want_b)
            assert np.signbit(pay_a[k]) == np.signbit(want_a)
            assert np.signbit(pay_b[k]) == np.signbit(want_b)

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
        for got, want in zip(packed, wide):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)
            # Bit equality, signed zeros included.
            assert np.array_equal(np.signbit(got), np.signbit(want))

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
