"""Tests for the Fermi pairwise-comparison rule (paper Eq. 1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import fermi_probability
from repro.errors import ConfigurationError


class TestFermi:
    def test_equal_fitness_is_coin_flip(self):
        assert fermi_probability(10.0, 10.0, 1.0) == pytest.approx(0.5)

    def test_zero_beta_is_random(self):
        # "A small beta leads to almost random strategy selection."
        assert fermi_probability(1e6, 0.0, 0.0) == pytest.approx(0.5)

    def test_large_beta_is_deterministic(self):
        # "As beta approaches infinity, the better strategy will always be
        # adopted."
        assert fermi_probability(11.0, 10.0, 1e6) == pytest.approx(1.0)
        assert fermi_probability(10.0, 11.0, 1e6) == pytest.approx(0.0)

    def test_matches_formula(self):
        beta, t, l = 0.25, 7.0, 3.0
        expected = 1.0 / (1.0 + math.exp(-beta * (t - l)))
        assert fermi_probability(t, l, beta) == pytest.approx(expected)

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            fermi_probability(1.0, 0.0, -1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            fermi_probability(1.0, 0.0, beta)

    @given(
        t=st.floats(-1e8, 1e8),
        l=st.floats(-1e8, 1e8),
        beta=st.floats(0, 100),
    )
    def test_always_a_probability(self, t, l, beta):
        p = fermi_probability(t, l, beta)
        assert 0.0 <= p <= 1.0

    @given(t=st.floats(-1e6, 1e6), l=st.floats(-1e6, 1e6))
    def test_symmetry(self, t, l):
        # p(T beats L) + p(L beats T) == 1 for the plain Fermi function.
        beta = 0.01
        assert fermi_probability(t, l, beta) + fermi_probability(
            l, t, beta
        ) == pytest.approx(1.0)

    def test_no_overflow_for_huge_gaps(self):
        assert fermi_probability(0.0, 1e308, 10.0) == 0.0
        assert fermi_probability(1e308, 0.0, 10.0) == 1.0
