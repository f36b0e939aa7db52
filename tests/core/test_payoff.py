"""Tests for the payoff matrix (paper Table I)."""

import numpy as np
import pytest

from repro.core import PAPER_PAYOFF, PayoffMatrix
from repro.errors import ConfigurationError


class TestPaperValues:
    def test_paper_values(self):
        assert PAPER_PAYOFF.reward == 3
        assert PAPER_PAYOFF.sucker == 0
        assert PAPER_PAYOFF.temptation == 4
        assert PAPER_PAYOFF.punishment == 1

    def test_vector_order_is_2my_plus_opp(self):
        # index 0=CC, 1=CD, 2=DC, 3=DD from the focal player's perspective
        assert list(PAPER_PAYOFF.vector) == [3, 0, 4, 1]

    def test_payoff_lookup(self):
        assert PAPER_PAYOFF.payoff(0, 0) == 3
        assert PAPER_PAYOFF.payoff(0, 1) == 0
        assert PAPER_PAYOFF.payoff(1, 0) == 4
        assert PAPER_PAYOFF.payoff(1, 1) == 1

    def test_both_returns_each_side(self):
        assert PAPER_PAYOFF.both(0, 1) == (0, 4)
        assert PAPER_PAYOFF.both(1, 1) == (1, 1)

    def test_table_layout_matches_table1(self):
        table = PAPER_PAYOFF.as_table()
        assert table[0][0] == (3, 3)  # CC -> (R, R)
        assert table[0][1] == (0, 4)  # CD -> (S, T)
        assert table[1][0] == (4, 0)  # DC -> (T, S)
        assert table[1][1] == (1, 1)  # DD -> (P, P)


class TestDilemmaValidation:
    def test_rejects_non_dilemma(self):
        with pytest.raises(ConfigurationError):
            PayoffMatrix(reward=5, sucker=0, temptation=4, punishment=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(reward=3, sucker=3, temptation=4, punishment=1),  # S == R chain broken
            dict(reward=1, sucker=0, temptation=4, punishment=1),  # R == P
            dict(reward=3, sucker=0, temptation=3, punishment=1),  # T == R
        ],
    )
    def test_rejects_degenerate_orderings(self, kwargs):
        with pytest.raises(ConfigurationError):
            PayoffMatrix(**kwargs)

    def test_non_dilemma_allowed_when_opted_out(self):
        snowdrift = PayoffMatrix(
            reward=3, sucker=1, temptation=4, punishment=0, require_dilemma=False
        )
        assert snowdrift.payoff(1, 1) == 0

    def test_infinite_temptation_rejected_naming_entry(self):
        # T = inf satisfies T > R > P > S; it must still be refused.
        with pytest.raises(ConfigurationError, match="temptation"):
            PayoffMatrix(reward=3, sucker=0, temptation=float("inf"), punishment=1)

    @pytest.mark.parametrize("entry", ["reward", "sucker", "temptation", "punishment"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected_when_opted_out(self, entry, value):
        kwargs = dict(reward=3, sucker=1, temptation=4, punishment=0)
        kwargs[entry] = value
        with pytest.raises(ConfigurationError, match=entry):
            PayoffMatrix(**kwargs, require_dilemma=False)

    def test_extremes(self):
        assert PAPER_PAYOFF.max_per_round == 4
        assert PAPER_PAYOFF.min_per_round == 0


class TestImmutability:
    def test_vector_read_only(self):
        with pytest.raises(ValueError):
            PAPER_PAYOFF.vector[0] = 99

    def test_key_is_hashable_identity(self):
        a = PayoffMatrix()
        b = PayoffMatrix()
        assert a.key() == b.key()
        assert {a.key(): 1}[b.key()] == 1

    def test_vector_dtype(self):
        assert PAPER_PAYOFF.vector.dtype == np.float64
