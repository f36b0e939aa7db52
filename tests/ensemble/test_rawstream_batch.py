"""Raw-stream decoders at batch scale.

A shared-engine batch pre-draws up to a few thousand PC events per lane in
one ``draw`` call, so the decoders are held to their scalar fallbacks at
that scale: long draws, random split points, rejection-heavy bounds,
degree-1 graph leaves, and checkpoints that hop between the raw and the
scalar decoder families mid-stream.  A work-bound guard keeps one draw
linear in its length.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble import rawstream
from repro.rng import make_rng
from repro.structure import build_structure

REJECTION_HEAVY = rawstream._REJECTION_HEAVY_N

#: Population sizes: power of two (no rejections), collision-heavy tiny
#: bounds, non-powers of two, and a bound where one draw in three rejects.
BOUNDS = (2, 3, 16, 100, REJECTION_HEAVY)

#: Graphs for the learner-then-neighbor decoder.  ``scalefree:m=1`` is a
#: tree whose leaves (degree 1) consume no offset draw.
GRAPHS = (
    ("scalefree:m=1,seed=7", 64),
    ("scalefree:m=1,seed=4", 20),
    ("ring:k=2", 9),
    ("smallworld:k=4,p=0.3,seed=1", 33),
)

BATCH = settings(max_examples=20, deadline=None, derandomize=True)


def split_points(draw, total: int) -> list[int]:
    cuts = sorted(
        draw(st.lists(st.integers(0, total), min_size=0, max_size=4))
    )
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def draw_in_pieces(decoder, pieces: list[int]) -> tuple:
    got: tuple = ([], [], [])
    for m in pieces:
        got = tuple(a + b for a, b in zip(got, decoder.draw(m)))
    return got


@st.composite
def pc_cases(draw):
    n = draw(st.sampled_from(BOUNDS))
    total = draw(st.integers(0, 3000))
    return n, draw(st.integers(0, 2**32 - 1)), split_points(draw, total)


@st.composite
def graph_cases(draw):
    spec = draw(st.sampled_from(GRAPHS))
    total = draw(st.integers(0, 3000))
    return spec, draw(st.integers(0, 2**32 - 1)), split_points(draw, total)


class TestBatchScaleDifferential:
    @BATCH
    @given(case=pc_cases())
    def test_pc_decoder_matches_scalar(self, case):
        n, seed, pieces = case
        raw = rawstream._RawPCDecoder(make_rng(seed), n)
        ref = rawstream._ScalarPCDecoder(make_rng(seed), n)
        assert draw_in_pieces(raw, pieces) == ref.draw(sum(pieces))
        assert raw.draw(5) == ref.draw(5)  # same stream position and carry

    @BATCH
    @given(case=graph_cases())
    def test_graph_decoder_matches_scalar(self, case):
        (spec, n), seed, pieces = case
        structure = build_structure(spec, n)
        raw = rawstream._RawGraphPCDecoder(make_rng(seed), structure)
        ref = rawstream._ScalarGraphPCDecoder(make_rng(seed), structure)
        assert draw_in_pieces(raw, pieces) == ref.draw(sum(pieces))
        assert raw.draw(5) == ref.draw(5)  # same stream position and carry


def pc_families(n: int):
    return (
        lambda rng: rawstream._RawPCDecoder(rng, n),
        lambda rng: rawstream._ScalarPCDecoder(rng, n),
    )


def graph_families(structure):
    return (
        lambda rng: rawstream._RawGraphPCDecoder(rng, structure),
        lambda rng: rawstream._ScalarGraphPCDecoder(rng, structure),
    )


class TestCrossFamilyResume:
    """A checkpoint written by one decoder family resumes in the other."""

    @staticmethod
    def check(families, seed: int, first: int, rest: int) -> None:
        raw_family, scalar_family = families
        expect = scalar_family(make_rng(seed)).draw(first + rest)
        for writer, reader in (
            (raw_family, scalar_family),
            (scalar_family, raw_family),
        ):
            before = writer(make_rng(seed))
            head = before.draw(first)
            after = reader(make_rng(0))  # stream position comes from state
            after.set_state(before.state_dict())
            tail = after.draw(rest)
            assert tuple(a + b for a, b in zip(head, tail)) == expect

    @BATCH
    @given(
        n=st.sampled_from(BOUNDS),
        seed=st.integers(0, 2**32 - 1),
        first=st.integers(0, 1500),
        rest=st.integers(0, 1500),
    )
    def test_pc(self, n, seed, first, rest):
        self.check(pc_families(n), seed, first, rest)

    @BATCH
    @given(
        graph=st.sampled_from(GRAPHS),
        seed=st.integers(0, 2**32 - 1),
        first=st.integers(0, 1500),
        rest=st.integers(0, 1500),
    )
    def test_graph(self, graph, seed, first, rest):
        spec, n = graph
        self.check(
            graph_families(build_structure(spec, n)), seed, first, rest
        )


class TestWorkBound:
    """One draw requests O(m) raw words: the walk never re-decodes the
    rest of the batch after a collision, a rejection or a leaf."""

    @staticmethod
    def words_requested(monkeypatch, decoder, m: int) -> int:
        requested = []
        take = rawstream._RawPeek.take

        def counting_take(self, k):
            requested.append(k)
            return take(self, k)

        monkeypatch.setattr(rawstream._RawPeek, "take", counting_take)
        decoder.draw(m)
        return sum(requested)

    @pytest.mark.parametrize("n", [16, 2])
    def test_pc_draw_is_linear(self, monkeypatch, n):
        m = 5000
        decoder = rawstream._RawPCDecoder(make_rng(11), n)
        assert self.words_requested(monkeypatch, decoder, m) < 3 * m

    def test_graph_draw_with_leaves_is_linear(self, monkeypatch):
        structure = build_structure("scalefree:m=1,seed=7", 64)
        assert np.mean(structure.degrees == 1) > 0.5
        m = 5000
        decoder = rawstream._RawGraphPCDecoder(make_rng(12), structure)
        assert self.words_requested(monkeypatch, decoder, m) < 3 * m
