"""The packed int64 fill path of ``cycle_payoffs_pairs``.

``compact_sums=True`` carries both sides' block sums in one int64 per
view, ``(pay_a << 32) + pay_b``.  Under its precondition (integer payoffs,
``rounds * max|payoff| < 2**24``) it must return exactly the bits of the
float64 path; outside it, it must refuse rather than truncate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.payoff import PayoffMatrix
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
