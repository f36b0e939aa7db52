"""Cross-validation of the four game engines.

The scalar engine (`play_game`) is the reference; the vectorised kernel,
cycle-exact evaluator, and Markov expected-payoff evaluator must agree with
it (exactly for deterministic games, in expectation for stochastic ones).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    PayoffMatrix,
    exact_payoffs,
    expected_payoffs,
    find_cycle,
    gtft,
    payoff_matrix,
    play_game,
    play_pairs,
    random_mixed,
    random_pure,
    stack_tables,
    tft,
    wsls,
)
from repro.core import vectorgame
from repro.core.vectorgame import (
    noise_flip_codes,
    play_pairs_uniforms,
    sampled_draws_per_round,
)
from repro.errors import ConfigurationError
from repro.rng import make_rng


def _random_pair(seed: int, memory: int):
    rng = make_rng(seed)
    return random_pure(rng, memory), random_pure(rng, memory)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Bitwise float equality (tells -0.0 from 0.0, unlike ``==``)."""
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


#: Integer (paper) and non-integer payoffs for the uniform-kernel oracle;
#: the last is a non-integer matrix on which a pairwise sum of the rounds
#: gives different bits than the round-by-round sum.
_KERNEL_PAYOFFS = (
    PayoffMatrix(),
    PayoffMatrix(reward=3.1, sucker=0.27, temptation=5.3, punishment=1.13),
)
_finite_payoff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class TestCycleEngine:
    @given(seed=st.integers(0, 10_000), memory=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_cycle_matches_scalar(self, seed, memory):
        a, b = _random_pair(seed, memory)
        rounds = 73
        ref = play_game(a, b, rounds)
        pay_a, pay_b, coop = exact_payoffs(a, b, rounds)
        assert pay_a == ref.payoff_a
        assert pay_b == ref.payoff_b
        assert coop == pytest.approx(ref.cooperation_rate)

    def test_cycle_structure_bounds(self):
        a, b = _random_pair(7, 2)
        cyc = find_cycle(a, b)
        assert 1 <= cyc.cycle_length <= 16
        assert 0 <= cyc.transient_length <= 16

    def test_cycle_cost_independent_of_rounds(self):
        a, b = _random_pair(11, 2)
        short = exact_payoffs(a, b, 10)
        long = exact_payoffs(a, b, 10_000_000)
        # Per-round averages converge to the cycle mean; both must be finite
        # and the long evaluation must be exact (integer-valued payoffs).
        assert long[0] == int(long[0])
        assert short[0] <= long[0]

    def test_long_game_equals_scalar_spot_check(self):
        a, b = _random_pair(13, 1)
        ref = play_game(a, b, 977)
        assert exact_payoffs(a, b, 977)[0] == ref.payoff_a


class TestMarkovEngine:
    @given(seed=st.integers(0, 10_000), memory=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_markov_matches_scalar_deterministic(self, seed, memory):
        a, b = _random_pair(seed, memory)
        ref = play_game(a, b, 37)
        pay_a, pay_b, coop = expected_payoffs(a, b, 37)
        assert pay_a == pytest.approx(ref.payoff_a)
        assert pay_b == pytest.approx(ref.payoff_b)
        assert coop == pytest.approx(ref.cooperation_rate)

    def test_markov_matches_sampling_mean_with_noise(self):
        a, b = tft(1), tft(1)
        noise = 0.05
        rounds = 100
        exp_a, exp_b, exp_coop = expected_payoffs(a, b, rounds, noise=noise)
        rng = make_rng(2024)
        samples = [
            play_game(a, b, rounds, noise=noise, rng=rng).payoff_a
            for _ in range(800)
        ]
        assert np.mean(samples) == pytest.approx(exp_a, rel=0.03)

    def test_markov_mixed_strategy_mean(self):
        g = gtft(1 / 3, 1)
        rounds = 50
        exp_a, _, _ = expected_payoffs(g, tft(1).to_mixed(), rounds)
        rng = make_rng(7)
        samples = [
            play_game(g, tft(1), rounds, rng=rng).payoff_a for _ in range(800)
        ]
        assert np.mean(samples) == pytest.approx(exp_a, rel=0.05)


class TestVectorEngine:
    @given(seed=st.integers(0, 5_000), memory=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_pairs_match_scalar(self, seed, memory):
        rng = make_rng(seed)
        strategies = [random_pure(rng, memory) for _ in range(5)]
        a_idx = np.array([0, 1, 2, 3, 4, 0])
        b_idx = np.array([1, 2, 3, 4, 0, 0])
        pay_a, pay_b = play_pairs(strategies, a_idx, b_idx, rounds=41)
        for k in range(len(a_idx)):
            ref = play_game(strategies[a_idx[k]], strategies[b_idx[k]], 41)
            assert pay_a[k] == ref.payoff_a
            assert pay_b[k] == ref.payoff_b

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_matrix_matches_scalar(self, seed):
        rng = make_rng(seed)
        strategies = [random_pure(rng, 2) for _ in range(6)]
        m = payoff_matrix(strategies, rounds=29)
        for i in range(6):
            for j in range(6):
                ref = play_game(strategies[i], strategies[j], 29)
                assert m[i, j] == ref.payoff_a

    def test_matrix_with_noise_is_unbiased(self):
        strategies = [tft(1), wsls(1)]
        rounds = 60
        noise = 0.03
        rng = make_rng(5)
        total = np.zeros((2, 2))
        n_rep = 400
        for _ in range(n_rep):
            total += payoff_matrix(strategies, rounds, noise=noise, rng=rng)
        mean = total / n_rep
        for i, a in enumerate(strategies):
            for j, b in enumerate(strategies):
                exp, _, _ = expected_payoffs(a, b, rounds, noise=noise)
                assert mean[i, j] == pytest.approx(exp, rel=0.05)

    def test_mixed_strategy_pairs_sample(self):
        strategies = [gtft(0.5, 1), tft(1).to_mixed()]
        rng = make_rng(3)
        pay_a, pay_b = play_pairs(
            strategies, np.array([0]), np.array([1]), rounds=30, rng=rng
        )
        assert 0 <= pay_a[0] <= 120
        assert 0 <= pay_b[0] <= 120

    @given(
        seed=st.integers(0, 10_000),
        memory=st.integers(1, 3),
        mixed=st.booleans(),
        noise=st.sampled_from([0.0, 0.02, 0.3]),
        n_games=st.integers(1, 50),
        rounds=st.integers(1, 60),
        payoff=st.one_of(
            st.sampled_from(_KERNEL_PAYOFFS),
            st.builds(
                PayoffMatrix,
                reward=_finite_payoff,
                sucker=_finite_payoff,
                temptation=_finite_payoff,
                punishment=_finite_payoff,
                require_dilemma=st.just(False),
            ),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_uniforms_kernel_matches_rng_loop(
        self, seed, memory, mixed, noise, n_games, rounds, payoff
    ):
        # The documented contract: the kernel over rng.random((R, D, G))
        # is bit-identical to play_pairs drawing from the same generator.
        assume(mixed or noise > 0.0)
        rng = make_rng(seed)
        strategies = [random_pure(rng, memory) for _ in range(4)]
        if mixed:
            strategies += [random_mixed(rng, memory) for _ in range(2)]
        tables, _, any_mixed = stack_tables(strategies)
        assert any_mixed == mixed
        a_idx = rng.integers(0, len(strategies), size=n_games)
        b_idx = rng.integers(0, len(strategies), size=n_games)
        draws = sampled_draws_per_round(mixed, noise)
        ref_a, ref_b = play_pairs(
            strategies, a_idx, b_idx, rounds, payoff, noise,
            rng=make_rng(seed + 1),
        )
        uniforms = make_rng(seed + 1).random((rounds, draws, n_games))
        pay_a, pay_b = play_pairs_uniforms(
            tables, a_idx, b_idx, rounds, payoff, noise, uniforms
        )
        assert _same_bits(pay_a, ref_a)
        assert _same_bits(pay_b, ref_b)

    @given(
        seed=st.integers(0, 10_000),
        memory=st.integers(1, 4),
        noise=st.one_of(
            st.sampled_from([0.01, 0.5, 1.0]), st.floats(0.01, 1.0)
        ),
        rounds=st.integers(1, 250),
        blocks=st.lists(st.integers(0, 120), min_size=1, max_size=5).filter(
            lambda sizes: 1 <= sum(sizes) <= 300
        ),
        payoff=st.sampled_from(_KERNEL_PAYOFFS),
    )
    @settings(max_examples=60, deadline=None)
    def test_flip_codes_match_float_uniforms(
        self, seed, memory, noise, rounds, blocks, payoff
    ):
        # Lanes' blocks of uneven sizes, each drawn from its own stream and
        # reduced into its slot of one fused flip-code array, give every
        # lane the bits of its float-uniform call and of play_pairs.
        rng = make_rng(seed)
        strategies = [random_pure(rng, memory) for _ in range(5)]
        tables, _, _ = stack_tables(strategies)
        n_games = sum(blocks)
        a_idx = rng.integers(0, len(strategies), size=n_games)
        b_idx = rng.integers(0, len(strategies), size=n_games)
        codes = np.empty((rounds, n_games), dtype=np.uint8)
        want_a, want_b = [], []
        lo = 0
        for lane, size in enumerate(blocks):
            games = slice(lo, lo + size)
            block = make_rng(seed + 1 + lane).random((rounds, 2, size))
            codes[:, games] = noise_flip_codes(block, noise)
            ref_a, ref_b = play_pairs(
                strategies, a_idx[games], b_idx[games], rounds, payoff,
                noise, rng=make_rng(seed + 1 + lane),
            )
            pay_a, pay_b = play_pairs_uniforms(
                tables, a_idx[games], b_idx[games], rounds, payoff, noise,
                block,
            )
            assert _same_bits(pay_a, ref_a) and _same_bits(pay_b, ref_b)
            want_a.append(ref_a)
            want_b.append(ref_b)
            lo += size
        pay_a, pay_b = play_pairs_uniforms(
            tables, a_idx, b_idx, rounds, payoff, noise, codes.copy()
        )
        assert _same_bits(pay_a, np.concatenate(want_a))
        assert _same_bits(pay_b, np.concatenate(want_b))
        only_a, no_b = play_pairs_uniforms(
            tables, a_idx, b_idx, rounds, payoff, noise, codes,
            b_totals=False,
        )
        assert no_b is None and _same_bits(only_a, pay_a)

    def test_flip_codes_need_pure_tables(self):
        rng = make_rng(4)
        tables, _, _ = stack_tables([random_mixed(rng, 1) for _ in range(2)])
        codes = np.zeros((6, 2), dtype=np.uint8)
        with pytest.raises(ConfigurationError, match="draws_per_round"):
            play_pairs_uniforms(
                tables, [0, 1], [1, 0], 6, PayoffMatrix(), 0.1, codes
            )

    @pytest.mark.parametrize("mixed", [False, True])
    def test_uniforms_kernel_game_bits_independent_of_batch(self, mixed):
        # Fused batches (many lanes' games in one call) must give each game
        # the bits it gets alone, also under a non-integer payoff.
        rng = make_rng(41)
        strategies = [random_pure(rng, 2) for _ in range(5)]
        if mixed:
            strategies.append(random_mixed(rng, 2))
        tables, _, _ = stack_tables(strategies)
        n_games, rounds, noise = 37, 200, 0.05
        a_idx = rng.integers(0, len(strategies), size=n_games)
        b_idx = rng.integers(0, len(strategies), size=n_games)
        draws = sampled_draws_per_round(mixed, noise)
        uniforms = rng.random((rounds, draws, n_games))
        payoff = _KERNEL_PAYOFFS[1]
        pay_a, pay_b = play_pairs_uniforms(
            tables, a_idx, b_idx, rounds, payoff, noise, uniforms
        )
        for g in range(n_games):
            one = slice(g, g + 1)
            alone_a, alone_b = play_pairs_uniforms(
                tables, a_idx[one], b_idx[one], rounds, payoff, noise,
                uniforms[:, :, one],
            )
            assert _same_bits(alone_a, pay_a[one])
            assert _same_bits(alone_b, pay_b[one])

    def test_uniforms_kernel_zero_total_is_positive_zero(self):
        # The round loop starts from 0.0, so all -0.0 rounds total 0.0.
        rng = make_rng(8)
        tables, _, _ = stack_tables([random_pure(rng, 1) for _ in range(2)])
        payoff = PayoffMatrix(-0.0, -0.0, -0.0, -0.0, require_dilemma=False)
        uniforms = rng.random((5, 2, 3))
        pay_a, pay_b = play_pairs_uniforms(
            tables, [0, 1, 1], [1, 0, 1], 5, payoff, 0.2, uniforms
        )
        zeros = np.zeros(3)
        assert _same_bits(pay_a, zeros) and _same_bits(pay_b, zeros)

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_uniforms_kernel_rejects_out_of_range_row(self, side):
        rng = make_rng(2)
        tables, _, _ = stack_tables([random_pure(rng, 2) for _ in range(3)])
        good = np.array([0, 1])
        bad = np.array([0, 3])
        a_idx, b_idx = (bad, good) if side == "a" else (good, bad)
        uniforms = rng.random((10, 2, 2))
        with pytest.raises(IndexError):
            play_pairs_uniforms(
                tables, a_idx, b_idx, 10, PayoffMatrix(), 0.1, uniforms
            )


#: Fewest rounds at which the pure walk gives each game its own successor
#: table, by memory: where the two walks crossed on captured calls
#: (``4**n <= 2 * rounds`` at memory 2-4, ``4**n <= rounds`` at memory 5),
#: and never at memory 6, where the tables ran slower than the prepared
#: rows at every game length measured.
JOINT_FROM_ROUNDS = {1: 8, 2: 8, 3: 32, 4: 128, 5: 1024, 6: None}


def _joint_edge(memory: int) -> int | None:
    """Fewest rounds at which the pure walk gives each game its own
    successor table (``None``: never)."""
    return JOINT_FROM_ROUNDS[memory]


def _whole(lo: int, hi: int):
    return st.integers(lo, hi).map(float)


def _oracle_payoff(kind: str, rounds: int):
    """Payoffs of one kind for the kernel oracle.  ``"2**46"`` entries
    put ``rounds * max|payoff|`` past 2**53 from 128 rounds on, where the
    round-ordered float sums round the odd totals (an int64 sum there
    would change their bits); ``"near 2**53"`` puts it within a few
    ``rounds`` of 2**53, on either side."""
    if kind == "paper":
        return st.just(PayoffMatrix())
    if kind == "non-integer":
        return st.just(_KERNEL_PAYOFFS[1])
    if kind == "-0.0":
        return st.just(
            PayoffMatrix(-0.0, -0.0, -0.0, -0.0, require_dilemma=False)
        )
    if kind == "2**46":
        return st.just(
            PayoffMatrix(
                reward=2.0**46 + 1,
                sucker=-(2.0**46) + 3,
                temptation=2.0**46 + 5,
                punishment=7.0,
                require_dilemma=False,
            )
        )
    if kind == "near 2**53":
        top = 2**53 // rounds
        entry = _whole(-top, top)
        return st.builds(
            PayoffMatrix,
            reward=_whole(top - 2, top + 2),
            sucker=entry,
            temptation=entry,
            punishment=entry,
            require_dilemma=st.just(False),
        )
    entry = _whole(-10, 10) if kind == "small integers" else _finite_payoff
    return st.builds(
        PayoffMatrix,
        reward=entry,
        sucker=entry,
        temptation=entry,
        punishment=entry,
        require_dilemma=st.just(False),
    )


_ORACLE_PAYOFF_KINDS = (
    "paper", "non-integer", "-0.0", "2**46", "near 2**53",
    "small integers", "floats",
)


def _spy(monkeypatch, names: tuple[str, ...]) -> list[str]:
    """Record, in order, which of the named ``vectorgame`` helpers run."""
    ran: list[str] = []
    for name in names:
        real = getattr(vectorgame, name)

        def spy(*args, _name=name, _real=real):
            ran.append(_name)
            return _real(*args)

        monkeypatch.setattr(vectorgame, name, spy)
    return ran


class TestSampledKernelWalks:
    """The uniform kernel's two pure walks and two payoff sums, each
    against the rng-driven round loop and against each other."""

    @pytest.mark.parametrize("memory", range(1, 7))
    @given(
        seed=st.integers(0, 10_000),
        layout=st.sampled_from(["codes", "floats", "mixed"]),
        n_games=st.integers(1, 40),
        kind=st.sampled_from(_ORACLE_PAYOFF_KINDS),
        b_totals=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_round_loop(
        self, memory, seed, layout, n_games, kind, b_totals, data
    ):
        # Rounds on both sides of the walk rule and at the chunk edges
        # (memory 6 has no edge; 2,048 rounds stands in for one).
        edge = _joint_edge(memory) or 2048
        rounds = data.draw(
            st.one_of(
                st.integers(1, 250),
                st.sampled_from([31, 32, 33, 64, max(1, edge - 1), edge]),
            ),
            label="rounds",
        )
        payoff = data.draw(_oracle_payoff(kind, rounds), label="payoff")
        mixed = layout == "mixed"
        noise = data.draw(
            st.sampled_from([0.0, 0.3] if mixed else [0.01, 0.3]),
            label="noise",
        )
        rng = make_rng(seed)
        strategies = [random_pure(rng, memory) for _ in range(4)]
        if mixed:
            strategies += [random_mixed(rng, memory) for _ in range(2)]
        tables, _, _ = stack_tables(strategies)
        a_idx = rng.integers(0, len(strategies), size=n_games)
        b_idx = rng.integers(0, len(strategies), size=n_games)
        ref_a, ref_b = play_pairs(
            strategies, a_idx, b_idx, rounds, payoff, noise,
            rng=make_rng(seed + 1),
        )
        draws = sampled_draws_per_round(mixed, noise)
        uniforms = make_rng(seed + 1).random((rounds, draws, n_games))
        if layout == "codes":
            uniforms = noise_flip_codes(uniforms, noise)
        pay_a, pay_b = play_pairs_uniforms(
            tables, a_idx, b_idx, rounds, payoff, noise, uniforms,
            b_totals=b_totals,
        )
        assert _same_bits(pay_a, ref_a)
        if b_totals:
            assert _same_bits(pay_b, ref_b)
        else:
            assert pay_b is None

    @given(
        seed=st.integers(0, 10_000),
        memory=st.integers(1, 6),
        rounds=st.integers(1, 80),
        n_games=st.integers(1, 60),
        noise=st.sampled_from([0.01, 0.3, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_joint_and_row_walks_agree(
        self, seed, memory, rounds, n_games, noise
    ):
        # Whatever the rule picks, both walks give the same joint codes.
        rng = make_rng(seed)
        tables, _, _ = stack_tables(
            [random_pure(rng, memory) for _ in range(5)]
        )
        a_idx = rng.integers(0, 5, size=n_games)
        b_idx = rng.integers(0, 5, size=n_games)
        flips = noise_flip_codes(rng.random((rounds, 2, n_games)), noise)
        joint, rows = flips.copy(), flips.copy()
        vectorgame._walk_joint(tables, a_idx, b_idx, joint)
        vectorgame._walk_rows(tables, a_idx, b_idx, rows)
        assert joint.dtype == rows.dtype == np.uint8
        assert joint.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("memory", range(1, 7))
    def test_walk_rule_edge(self, memory, monkeypatch):
        # Per-game tables from the pinned round count on, the prepared
        # rows below it (and always at memory 6); both give the round
        # loop's bits.
        ran = _spy(monkeypatch, ("_walk_joint", "_walk_rows"))
        rng = make_rng(memory)
        strategies = [random_pure(rng, memory) for _ in range(3)]
        tables, _, _ = stack_tables(strategies)
        a_idx = rng.integers(0, 3, size=12)
        b_idx = rng.integers(0, 3, size=12)
        edge = _joint_edge(memory)
        cases = (
            ((edge, "_walk_joint"), (edge - 1, "_walk_rows"))
            if edge
            else ((2048, "_walk_rows"), (4096, "_walk_rows"))
        )
        for rounds, walk in cases:
            if rounds < 1:
                continue
            ran.clear()
            ref_a, ref_b = play_pairs(
                strategies, a_idx, b_idx, rounds, PayoffMatrix(), 0.1,
                rng=make_rng(rounds),
            )
            uniforms = make_rng(rounds).random((rounds, 2, 12))
            pay_a, pay_b = play_pairs_uniforms(
                tables, a_idx, b_idx, rounds, PayoffMatrix(), 0.1,
                noise_flip_codes(uniforms, 0.1),
            )
            assert ran == [walk]
            assert _same_bits(pay_a, ref_a) and _same_bits(pay_b, ref_b)

    @pytest.mark.parametrize("memory", range(1, 7))
    def test_walk_taken_by_memory_and_rounds(self, memory, monkeypatch):
        # Which pure walk each (memory, rounds) pair takes.
        ran = _spy(monkeypatch, ("_walk_joint", "_walk_rows"))
        rng = make_rng(memory)
        tables, _, _ = stack_tables(
            [random_pure(rng, memory) for _ in range(3)]
        )
        a_idx, b_idx = np.array([0, 1, 2]), np.array([1, 2, 2])
        edge = _joint_edge(memory)
        for rounds in (1, 2, 7, 8, 31, 32, 127, 128, 1023, 1024, 2048, 4096):
            ran.clear()
            flips = noise_flip_codes(rng.random((rounds, 2, 3)), 0.1)
            play_pairs_uniforms(
                tables, a_idx, b_idx, rounds, PayoffMatrix(), 0.1, flips
            )
            joint = edge is not None and rounds >= edge
            assert ran == ["_walk_joint" if joint else "_walk_rows"], rounds

    @pytest.mark.parametrize(
        "top, rounds, totals",
        [
            # 256 * 2**45 == 2**53: from there on the sums keep round order.
            (2.0**45, 255, "_integer_totals"),
            (2.0**45, 256, "_round_ordered_totals"),
            (2.0**46 + 5, 200, "_round_ordered_totals"),
        ],
    )
    @pytest.mark.parametrize("mixed", [False, True])
    def test_integer_sum_bound(self, top, rounds, totals, mixed, monkeypatch):
        ran = _spy(monkeypatch, ("_integer_totals", "_round_ordered_totals"))
        payoff = PayoffMatrix(
            reward=top, sucker=-3.0, temptation=top - 1, punishment=1.0,
            require_dilemma=False,
        )
        rng = make_rng(9)
        strategies = [random_pure(rng, 2) for _ in range(3)]
        if mixed:
            strategies.append(random_mixed(rng, 2))
        tables, _, _ = stack_tables(strategies)
        a_idx = rng.integers(0, len(strategies), size=20)
        b_idx = rng.integers(0, len(strategies), size=20)
        noise = 0.05
        ref_a, ref_b = play_pairs(
            strategies, a_idx, b_idx, rounds, payoff, noise, rng=make_rng(3)
        )
        draws = sampled_draws_per_round(mixed, noise)
        pay_a, pay_b = play_pairs_uniforms(
            tables, a_idx, b_idx, rounds, payoff, noise,
            make_rng(3).random((rounds, draws, 20)),
        )
        assert ran == [totals, totals]
        assert _same_bits(pay_a, ref_a) and _same_bits(pay_b, ref_b)
