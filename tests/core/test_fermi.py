"""Tests for the Fermi pairwise-comparison rule (paper Eq. 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fermi_probability
from repro.core.fermi import fermi_adoptions
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


#: Fitness values: integer game totals (the engines' regime) and general
#: floats, including gaps wide enough that exp(-|x|) underflows at beta 1.
FITNESS = st.one_of(
    st.integers(-(2**24), 2**24).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
)
#: Teacher-minus-learner gaps where p is neither 0 nor 1, so an ulp of
#: exp can move it.
GAP = st.one_of(st.integers(-40, 40).map(float), st.floats(-40.0, 40.0))
BETA = st.one_of(
    st.just(0.0), st.just(0.1), st.just(1.0),
    st.floats(0.0, 10.0, allow_nan=False),
)


@st.composite
def adoption_cases(draw):
    """Learners whose uniforms sit on, just below and just above their
    scalar probability, among random ones."""
    beta = draw(BETA)
    n = draw(st.integers(1, 12))
    teachers, learners, uniforms = [], [], []
    for _ in range(n):
        t = draw(FITNESS)
        # ties (ft == fl), small gaps and arbitrary pairs
        l = draw(
            st.one_of(st.just(t), GAP.map(lambda g: t - g), FITNESS)
        )
        p = fermi_probability(t, l, beta)
        u = draw(
            st.sampled_from(
                [p, np.nextafter(p, 0.0), np.nextafter(p, 1.0),
                 draw(st.floats(0.0, 1.0, exclude_max=True))]
            )
        )
        teachers.append(t)
        learners.append(l)
        uniforms.append(u)
    return (np.array(teachers), np.array(learners), np.array(uniforms), beta)


class TestVectorisedAdoptions:
    """``fermi_adoptions`` decides exactly as the scalar rule does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=adoption_cases(), downhill=st.booleans())
    def test_matches_scalar_rule(self, case, downhill):
        ft, fl, u, beta = case
        got = fermi_adoptions(ft, fl, u, beta, allow_downhill=downhill)
        want = [
            (downhill or t > l) and bool(ui < fermi_probability(t, l, beta))
            for t, l, ui in zip(ft.tolist(), fl.tolist(), u.tolist())
        ]
        assert got.tolist() == want

    def test_decides_where_np_exp_and_math_exp_differ(self):
        # np.exp and math.exp differ in the last ulp for some arguments on
        # common platforms; with the uniform exactly at the scalar p, such
        # a learner is decided wrongly unless the guard band catches it.
        gaps = np.linspace(-30.0, 30.0, 6001)
        ft, fl = gaps, np.zeros_like(gaps)
        p = np.array([fermi_probability(t, 0.0, 1.0) for t in gaps.tolist()])
        for u in (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)):
            want = [bool(a < b) for a, b in zip(u.tolist(), p.tolist())]
            assert fermi_adoptions(ft, fl, u, 1.0).tolist() == want

    def test_underflow_and_ties(self):
        ft = np.array([1e4, 0.0, 5.0, 5.0])
        fl = np.array([0.0, 1e4, 5.0, 5.0])
        u = np.array([0.999999, 0.0, 0.5, np.nextafter(0.5, 0.0)])
        # exp(-1e3) underflows to 0: p is exactly 1 and exactly 0.
        assert fermi_adoptions(ft, fl, u, 0.1).tolist() == [
            True, False, False, True
        ]
        # Downhill learning off: ties never adopt.
        assert fermi_adoptions(ft, fl, u, 0.1, allow_downhill=False).tolist() == [
            True, False, False, False
        ]

    def test_zero_beta_is_a_coin_flip(self):
        u = np.array([0.25, 0.5, 0.75])
        got = fermi_adoptions(np.full(3, 9.0), np.zeros(3), u, 0.0)
        assert got.tolist() == [True, False, False]

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigurationError, match="beta"):
            fermi_adoptions(np.ones(1), np.zeros(1), np.zeros(1), -1.0)
