"""Exact vectorised pre-draw of Nature-Agent decision streams.

The pairwise-comparison and mutation streams are *state-independent*: which
SSets an event touches and which mutant table it installs depend only on
the drawn values, never on the population.  A whole batch of decisions can
therefore be drawn ahead of time — the only requirement is that the RNG
stream is consumed **exactly** as the serial drivers consume it, call for
call.  Two drivers do so: the ensemble, per lane and batch, and the event
driver (:func:`repro.core.evolution.run_event_driven`), per batch on the
Nature Agent's own ``pc`` and ``mutation`` generators.

NumPy's ``Generator`` draws these values through a handful of stable
primitives on the Philox raw uint64 stream:

* ``random()`` — one raw word: ``(raw >> 11) * 2**-53``;
* ``integers(n)`` with ``2 <= n < 2**32`` — Lemire's multiply-shift on
  32-bit halves, low half first, with a *persistent* half-word carry
  between calls: ``value = (u32 * n) >> 32``, **rejected and redrawn**
  while the product's low half falls under ``threshold = 2**32 % n``.
  For power-of-two ``n`` the threshold is zero, so every draw consumes
  exactly one half; for other bounds a rejection is a ~``n / 2**32``
  rarity that this module repairs with a scalar fixup, exactly like the
  teacher==learner collision path (the ROADMAP's "Lemire-32 rejection is
  rare and fixup-able" item);
* ``integers(1)`` — answered from the bound alone, **no stream
  consumption** (NumPy's ``rng == 0`` special case; graph lanes meet it
  at degree-1 nodes);
* ``integers(0, 2, size=S, dtype=uint8)`` — one byte per element
  (little-endian within each 32-bit half): ``value = byte >> 7``.

This module re-implements those primitives vectorised over a *clone* of
the bit generator (peek; one clone per decoder, reused by every draw),
then advances the real generator by exactly the number of raw words
consumed (commit).

A raw decoder keeps the spare half-word carry in Python rather than in
the bit generator's ``has_uint32``/``uinteger`` buffer.  The ensemble
owns its generators for the whole run and checkpoints the decoders'
folded state (:func:`_capture_stream`).  The event driver instead draws
between checkpoints that capture the Generator's raw state, so it lends
the carry to the decoder for each draw (``claim_carry``) and takes it back
(``fold_carry``), leaving the stream exactly where the scalar Generator
calls would have (:func:`repro.core.runstate.encode_bitgen` ignores the
``uinteger`` NumPy leaves behind after spending a carry, which it never
reads again).

The two PC decoders share one **segment walk** (:func:`_walk_segments`).
A clean event is two half-words plus one full word, so consecutive clean
events keep one of two carry alignments (the first half-word either
opens a fresh word or is the high half carried over from two words
back).  A draw takes its words once, in bulk, and decodes an alignment
at every word position vectorised (the second alignment only once a bad
event switches to it), together with a mask of the positions whose
event is bad: a teacher==learner collision, a Lemire rejection, or a
graph learner of degree 1.  The walk then alternates between copying the
clean run up to the next bad event of its current alignment (one
bisection and three strided slices) and replaying that bad event through
the scalar fixup off the same words, whose consumption picks the next
alignment.  Each word is decoded a constant number of times and each bad
event costs a constant number of calls, so a draw of ``m`` events is
O(m) — never a re-decode of the rest of the batch — and requests about
``m`` times the expected words per event from the peek.

Decoding is enabled only after a
start-up self-check against the real ``Generator`` API passes — so a
future NumPy that changes its bounded-integer algorithm degrades this
module to the scalar path instead of silently changing trajectories (the
lane-parity tests pin the trajectories regardless).  The self-check
includes power-of-two and non-power-of-two bounds, a bound chosen to make
Lemire rejections frequent, and graph (learner-then-neighbor) draws over
an irregular CSR adjacency; each case draws in two lent batches, starting
with or without a carry, and must leave the Generator's encoded state
(:func:`repro.core.runstate.encode_bitgen`) equal to the scalar calls'.

Three decoders are exposed:

* :func:`pc_decoder` — the well-mixed PC selection stream
  (teacher, learner-with-rejection, adoption uniform);
* :func:`graph_pc_decoder` — the graph-structure PC selection stream
  (learner uniform over the population, teacher uniform over the
  learner's CSR neighbor row, adoption uniform) — what lifts graph lanes
  onto the ensemble fast path;
* :func:`mutation_decoder` — mutation targets + pure mutant tables.

The scalar fallbacks produce identical arrays through the ordinary
``Generator`` calls, so callers see one interface either way.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..core.runstate import decode_bitgen, encode_bitgen

__all__ = [
    "pc_decoder",
    "graph_pc_decoder",
    "mutation_decoder",
    "raw_decoding_supported",
]


def _capture_stream(bit_generator, half: int | None) -> dict:
    """Canonical decoder stream position for a run-state checkpoint.

    One format covers both decoder families: the full bit-generator state
    with the spare half-word carry *folded out* into ``half``.  Raw
    decoders keep the carry in Python (``_half``, bit generator untouched);
    scalar decoders leave it inside the bit generator's
    ``has_uint32``/``uinteger`` buffer (NumPy's ``next_uint32`` carry, low
    half consumed first — the same half-word the raw path tracks).
    Folding makes a snapshot written by either decoder resumable by the
    other, so a trajectory survives the raw self-check flipping between
    processes.
    """
    state = encode_bitgen(bit_generator.state)
    if state["has_uint32"]:
        assert half is None  # carry lives in exactly one place
        half = state["uinteger"]
        state["has_uint32"] = 0
        state["uinteger"] = 0
    return {"state": state, "half": None if half is None else int(half)}


def _restore_raw_stream(bit_generator, data: dict) -> int | None:
    """Rewind a raw decoder's bit generator; returns the carry half."""
    bit_generator.state = decode_bitgen(data["state"])
    half = data["half"]
    return None if half is None else int(half)


def _restore_scalar_stream(rng: np.random.Generator, data: dict) -> None:
    """Rewind a scalar decoder's Generator, re-folding the carry into the
    bit generator's uint32 buffer where the Generator API expects it."""
    state = decode_bitgen(data["state"])
    half = data["half"]
    if half is not None:
        state["has_uint32"] = 1
        state["uinteger"] = int(half)
    rng.bit_generator.state = state

_U32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_DOUBLE_SCALE = 1.0 / (1 << 53)


def _lemire_threshold(n: int) -> int:
    """NumPy's bounded-integer rejection threshold for ``integers(n)``:
    products whose low 32 bits fall below it are redrawn (zero for
    power-of-two bounds — ``(2**32 - n) % n == 2**32 % n``)."""
    return (1 << 32) % n


class _RawPeek:
    """Read ahead on a cloned Philox; commit consumption at the end.

    ``clone`` is any Philox the caller owns; its state is overwritten with
    the real generator's.  Decoders keep one for all their draws: building
    a Philox (seeded from OS entropy when unseeded) cost about seven times
    the state copy.
    """

    def __init__(self, bit_generator, clone):
        clone.state = bit_generator.state
        self._clone = clone
        self._real = bit_generator
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self.consumed = 0

    def take(self, k: int) -> np.ndarray:
        end = self._pos + k
        if end > self._buf.shape[0]:
            keep = self._buf[self._pos :]
            grab = max(k - keep.shape[0], 128)
            self._buf = np.concatenate([keep, self._clone.random_raw(grab)])
            self._pos = 0
            end = k
        out = self._buf[self._pos : end]
        self._pos = end
        self.consumed += k
        return out

    def rollback(self, k: int) -> None:
        self._pos -= k
        self.consumed -= k

    def commit(self) -> None:
        """Advance the real bit generator past everything taken."""
        if self.consumed:
            self._real.random_raw(self.consumed)


class _RawDecoder:
    """State the raw decoders share: the real bit generator, the spare
    half-word carry held in Python (``_half``) and one reusable peek clone.

    :meth:`claim_carry` and :meth:`fold_carry` let a caller that draws
    through the Generator between batches (the event driver, whose
    checkpoints carry the Generator's state) lend the carry to the decoder
    for a batch and get back the state the Generator calls would have left.
    """

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        self._half: int | None = None
        self._clone = None

    def state_dict(self) -> dict:
        return _capture_stream(self._bitgen, self._half)

    def set_state(self, data: dict) -> None:
        self._half = _restore_raw_stream(self._bitgen, data)

    def claim_carry(self) -> None:
        """Move the bit generator's buffered half-word into ``_half``."""
        state = self._bitgen.state
        if state["has_uint32"]:
            self._half = state["uinteger"]
            state["has_uint32"] = 0
            self._bitgen.state = state

    def fold_carry(self) -> None:
        """Move ``_half`` back into the bit generator's buffer."""
        if self._half is not None:
            state = self._bitgen.state
            state["has_uint32"] = 1
            state["uinteger"] = self._half
            self._bitgen.state = state
            self._half = None

    def _peek(self) -> _RawPeek:
        if self._clone is None:
            self._clone = np.random.Philox(0)  # state overwritten per peek
        return _RawPeek(self._bitgen, self._clone)


class _ScalarDecoder:
    """State the Generator-API fallbacks share; their carry never leaves
    the bit generator, so lending it is a no-op."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def state_dict(self) -> dict:
        return _capture_stream(self._rng.bit_generator, None)

    def set_state(self, data: dict) -> None:
        _restore_scalar_stream(self._rng, data)

    def claim_carry(self) -> None:
        pass

    def fold_carry(self) -> None:
        pass


def _scalar_bounded(decoder, source, n: int, threshold: int) -> int:
    """One ``integers(n)`` value off the half-word stream, Lemire rejection
    included, updating the decoder's persistent half-word carry.  Mirrors
    NumPy's ``buffered_bounded_lemire_uint32`` exactly (``n >= 2``).
    ``source`` is a :class:`_RawPeek` or a :class:`_WordBuffer`."""
    while True:
        if decoder._half is not None:
            u32 = decoder._half
            decoder._half = None
        else:
            raw = int(source.take(1)[0])
            u32 = raw & 0xFFFFFFFF
            decoder._half = raw >> 32
        product = u32 * n
        if (product & 0xFFFFFFFF) >= threshold:
            return product >> 32


class _WordBuffer:
    """The raw words one PC draw walks, taken from the peek in bulk.

    The segment walk decodes these words vectorised and replays its bad
    events off the *same* words (``take`` is the :class:`_RawPeek` call
    :func:`_scalar_bounded` makes), so no word is requested twice.
    """

    def __init__(self, peek: _RawPeek, size: int):
        self._peek = peek
        self.words = peek.take(size)
        self.pos = 0

    def take(self, k: int) -> np.ndarray:
        end = self.pos + k
        if end > self.words.shape[0]:
            self.grow(end - self.words.shape[0])
        out = self.words[self.pos : end]
        self.pos = end
        return out

    def grow(self, k: int) -> None:
        """Append at least ``k`` words, and at least a quarter of the
        buffer: every growth re-decodes the whole buffer, so geometric
        growth keeps the total decode work linear."""
        k = max(k, self.words.shape[0] // 4)
        self.words = np.concatenate((self.words, self._peek.take(k)))

    def commit(self) -> None:
        """Consume exactly the words before ``pos``; hand back the rest."""
        self._peek.rollback(self.words.shape[0] - self.pos)
        self._peek.commit()


def _walk_segments(decoder, m: int) -> tuple[list[int], list[int], list[float]]:
    """Decode ``m`` PC events off the raw stream in linear time.

    An event starting at word ``k`` reads two half-words for its bounded
    draws and word ``k + 1`` for its uniform, in one of two alignments:
    without a carry the draws are the low and high halves of word ``k``;
    with one, the first draw is the carried high half of word ``k - 2``
    (the previous event's second word, or the carry this draw started
    with) and the second is the low half of word ``k``.  Clean events keep
    their alignment and advance two words, so an alignment is decoded at
    every word position at once, when the walk first enters it:
    ``decoder._decode`` maps the two half-words to teachers, learners and
    a bad mask.  The walk copies the clean run before the next bad event
    of its alignment by strided slicing, finds that event by bisection,
    and replays it through ``decoder._replay``, whose consumption fixes
    the next alignment (a replay leaves a carry exactly when the half it
    leaves is the high half of the word before its uniform).
    """
    if m == 0:
        return [], [], []
    half0 = decoder._half
    buf = _WordBuffer(decoder._peek(), _words_needed(decoder, m))
    teachers = np.empty(m, dtype=np.int64)
    learners = np.empty(m, dtype=np.int64)
    uniforms = np.empty(m, dtype=np.float64)
    carry = int(half0 is not None)
    i = pos = size = 0
    while True:
        if size != buf.words.shape[0]:
            words = buf.words
            size = words.shape[0]
            u = (words >> _SHIFT11) * _DOUBLE_SCALE
            decoded: list = [None, None]
        if decoded[carry] is None:
            low = words & _U32
            high = words >> _SHIFT32
            if carry:
                first = np.empty_like(high)
                first[2:] = high[:-2]
                first[:2] = 0 if half0 is None else half0  # only pos 0 starts
                found_t, found_l, bad = decoder._decode(first, low)
            else:
                found_t, found_l, bad = decoder._decode(low, high)
            # Bad events per parity of their start word, as indices into
            # that parity's stride-2 positions.
            decoded[carry] = (
                found_t,
                found_l,
                (np.flatnonzero(bad[0::2]).tolist(),
                 np.flatnonzero(bad[1::2]).tolist()),
            )
        found_t, found_l, bad_at = decoded[carry]
        bads = bad_at[pos & 1]
        slot = pos >> 1
        nxt = bisect_left(bads, slot)
        clean = bads[nxt] - slot if nxt < len(bads) else size
        run = min(m - i, (size - pos) // 2, clean)
        if run:
            end = pos + 2 * run
            teachers[i : i + run] = found_t[pos:end:2]
            learners[i : i + run] = found_l[pos:end:2]
            uniforms[i : i + run] = u[pos + 1 : end : 2]
            i += run
            pos = end
        if i == m:
            break
        if run == clean:
            buf.pos = pos
            if carry:
                decoder._half = int(words[pos - 2]) >> 32 if pos >= 2 else half0
            else:
                decoder._half = None
            teachers[i], learners[i], uniforms[i] = decoder._replay(buf)
            i += 1
            pos = buf.pos
            carry = int(decoder._half is not None)
        else:
            buf.grow(_words_needed(decoder, m - i) - (size - pos))
    buf.pos = pos
    buf.commit()
    decoder._half = int(buf.words[pos - 2]) >> 32 if carry else None
    return teachers.tolist(), learners.tolist(), uniforms.tolist()


def _words_needed(decoder, events: int) -> int:
    """Raw words to take for ``events`` events: the expected consumption
    plus 5% and a small floor, so a draw rarely has to grow its buffer."""
    return int(events * decoder._words_per_event * 1.05) + 64


class _RawPCDecoder(_RawDecoder):
    """Well-mixed PC selections decoded from the raw stream.

    Per event the serial sequence is ``integers(n)`` (teacher),
    ``integers(n)`` (learner, redrawn while equal), ``random()``
    (adoption uniform): two half-words plus one full word — two raw words
    per clean event, in one of two stable carry alignments.  Events that
    collide (teacher == learner) or hit a Lemire rejection consume extra
    draws; both are replayed through the scalar fixup by the segment walk
    (:func:`_walk_segments`).
    """

    def __init__(self, rng: np.random.Generator, n_ssets: int):
        super().__init__(rng)
        self._n = n_ssets
        self._un = np.uint64(n_ssets)
        threshold = _lemire_threshold(n_ssets)
        self._thr = np.uint64(threshold)
        self._threshold = threshold
        # A learner redraw costs 1/(n-1) halves per event on average, and
        # every half is redrawn at the rejection rate.
        halves = (2 + 1 / (n_ssets - 1)) / (1 - threshold / 2**32)
        self._words_per_event = 1 + halves / 2

    def draw(self, m: int) -> tuple[list[int], list[int], list[float]]:
        return _walk_segments(self, m)

    def _decode(self, first: np.ndarray, second: np.ndarray):
        """Teachers, learners and the bad mask of the events whose two
        half-words are ``first[k]`` and ``second[k]``."""
        prod_t = first * self._un
        prod_l = second * self._un
        teachers = prod_t >> _SHIFT32
        learners = prod_l >> _SHIFT32
        bad = (prod_t & _U32) < self._thr
        bad |= (prod_l & _U32) < self._thr
        bad |= teachers == learners
        return teachers, learners, bad

    def _replay(self, buf: _WordBuffer) -> tuple[int, int, float]:
        """One event through the scalar fixup (collision or rejection)."""
        n, threshold = self._n, self._threshold
        teacher = _scalar_bounded(self, buf, n, threshold)
        learner = _scalar_bounded(self, buf, n, threshold)
        while learner == teacher:
            learner = _scalar_bounded(self, buf, n, threshold)
        raw = int(buf.take(1)[0])  # random() draws a full word
        return teacher, learner, (raw >> 11) * _DOUBLE_SCALE


class _ScalarPCDecoder(_ScalarDecoder):
    """Generator-API fallback with the identical output shape."""

    def __init__(self, rng: np.random.Generator, n_ssets: int):
        super().__init__(rng)
        self._n = n_ssets

    def draw(self, m: int) -> tuple[list[int], list[int], list[float]]:
        rng = self._rng
        n = self._n
        teachers = [0] * m
        learners = [0] * m
        uniforms = [0.0] * m
        for i in range(m):
            teacher = int(rng.integers(n))
            learner = int(rng.integers(n))
            while learner == teacher:
                learner = int(rng.integers(n))
            teachers[i] = teacher
            learners[i] = learner
            uniforms[i] = float(rng.random())
        return teachers, learners, uniforms


class _RawGraphPCDecoder(_RawDecoder):
    """Graph-structure PC selections decoded from the raw stream.

    Per event the serial sequence (:meth:`GraphStructure.select_pair`) is
    ``integers(n)`` (learner), ``integers(degree(learner))`` (teacher
    offset into the learner's CSR neighbor row), ``random()`` (adoption
    uniform) — the well-mixed two-halves-plus-a-word shape with the roles
    swapped and a *value-dependent* second bound.  Degree-1 learners are
    replayed through the scalar fixup by the same segment walk
    (:func:`_walk_segments`): NumPy answers ``integers(1)`` from the bound
    alone without consuming the stream.
    """

    def __init__(self, rng: np.random.Generator, structure):
        super().__init__(rng)
        n = structure.n_ssets
        self._n = n
        self._un = np.uint64(n)
        self._threshold = _lemire_threshold(n)
        self._thr_n = np.uint64(self._threshold)
        self._indptr = structure.indptr.astype(np.int64)
        self._indices = structure.indices
        self._deg = structure.degrees.astype(np.uint64)
        self._thr_deg = np.uint64(1 << 32) % self._deg
        # Learners are uniform over nodes; a leaf draws no offset half.
        halves = 1 / (1 - self._threshold / 2**32) + float(
            np.mean(structure.degrees > 1)
        )
        self._words_per_event = 1 + halves / 2

    def draw(self, m: int) -> tuple[list[int], list[int], list[float]]:
        return _walk_segments(self, m)

    def _decode(self, first: np.ndarray, second: np.ndarray):
        """Teachers, learners and the bad mask of the events whose two
        half-words (learner, then teacher offset) are ``first[k]`` and
        ``second[k]``."""
        prod_l = first * self._un
        learners = (prod_l >> _SHIFT32).astype(np.int64)
        bounds = self._deg[learners]
        prod_t = second * bounds
        offsets = (prod_t >> _SHIFT32).astype(np.int64)
        # Bad: learner rejected (making the decoded bound meaningless),
        # teacher offset rejected, or a degree-1 learner (whose offset
        # draw consumes nothing).
        bad = (prod_l & _U32) < self._thr_n
        bad |= (prod_t & _U32) < self._thr_deg[learners]
        bad |= bounds == 1
        teachers = self._indices[self._indptr[learners] + offsets]
        return teachers, learners, bad

    def _replay(self, buf: _WordBuffer) -> tuple[int, int, float]:
        """One event through the scalar fixup (rejection or leaf)."""
        learner = _scalar_bounded(self, buf, self._n, self._threshold)
        degree = int(self._deg[learner])
        if degree == 1:
            offset = 0  # integers(1): no stream consumption
        else:
            offset = _scalar_bounded(
                self, buf, degree, _lemire_threshold(degree)
            )
        raw = int(buf.take(1)[0])
        teacher = int(self._indices[self._indptr[learner] + offset])
        return teacher, learner, (raw >> 11) * _DOUBLE_SCALE


class _ScalarGraphPCDecoder(_ScalarDecoder):
    """Generator-API fallback: drives the structure's own ``select_pair``
    so the consumption contract lives in exactly one place."""

    def __init__(self, rng: np.random.Generator, structure):
        super().__init__(rng)
        self._structure = structure

    def draw(self, m: int) -> tuple[list[int], list[int], list[float]]:
        rng = self._rng
        select = self._structure.select_pair
        teachers = [0] * m
        learners = [0] * m
        uniforms = [0.0] * m
        for i in range(m):
            teacher, learner = select(rng)
            teachers[i] = teacher
            learners[i] = learner
            uniforms[i] = float(rng.random())
        return teachers, learners, uniforms


class _RawMutationDecoder(_RawDecoder):
    """Mutation targets + pure mutant tables decoded from the raw stream.

    Per event: one half-word (target, Lemire-32) then ``n_states`` bytes
    (table, one byte per move) — a flat half-word stream with no full-word
    draws in between, so a whole batch decodes in one pass; a rejected
    target half is repaired through the scalar fixup.
    """

    def __init__(self, rng: np.random.Generator, n_ssets: int, n_states: int):
        super().__init__(rng)
        self._n = n_ssets
        self._un = np.uint64(n_ssets)
        self._thr = np.uint64(_lemire_threshold(n_ssets))
        self._n_states = n_states
        self._per_event = 1 + n_states // 4

    def _take_halves(self, peek: _RawPeek, need: int) -> tuple[np.ndarray, int]:
        """``need`` half-words as one array (carry first when present),
        plus the raw-word count taken — so the caller can roll back to any
        half boundary through :meth:`_finish_halves`."""
        offset = 0 if self._half is None else 1
        n_raws = (need - offset + 1) // 2 if need > offset else 0
        raws = peek.take(n_raws)
        halves = np.empty(offset + 2 * n_raws, dtype=np.uint64)
        if offset:
            halves[0] = self._half
        halves[offset : offset + 2 * n_raws : 2] = raws & _U32
        halves[offset + 1 : offset + 1 + 2 * n_raws : 2] = raws >> _SHIFT32
        return halves, n_raws

    def _finish_halves(
        self, peek: _RawPeek, halves: np.ndarray, used: int, raws_taken: int
    ) -> None:
        """Record that only ``used`` of the taken halves were consumed:
        roll the peek back to the matching raw-word boundary and update
        the carry (the high half of a split word survives to the next
        draw)."""
        offset = 0 if self._half is None else 1
        from_raws = max(0, used - offset)
        raws_needed = (from_raws + 1) // 2
        peek.rollback(raws_taken - raws_needed)
        if used == 0:
            return  # nothing consumed: any pre-existing carry survives
        self._half = int(halves[used]) if from_raws % 2 else None

    def draw(self, m: int) -> tuple[list[int], np.ndarray]:
        if m == 0:
            return [], np.empty((0, self._n_states), dtype=np.uint8)
        peek = self._peek()
        targets: list[int] = [0] * m
        tables = np.empty((m, self._n_states), dtype=np.uint8)
        per_event = self._per_event
        i = 0
        while i < m:
            todo = m - i
            halves, raws_taken = self._take_halves(peek, per_event * todo)
            stream = halves[: per_event * todo].reshape(todo, per_event)
            m64 = stream[:, 0] * self._un
            rejected = np.nonzero((m64 & _U32) < self._thr)[0]
            good = todo if rejected.size == 0 else int(rejected[0])
            if good:
                targets[i : i + good] = (m64[:good] >> _SHIFT32).tolist()
                words = np.ascontiguousarray(stream[:good, 1:]).astype("<u4")
                tables[i : i + good] = (words.view(np.uint8) >> 7).reshape(
                    good, self._n_states
                )
            if rejected.size == 0:
                self._finish_halves(peek, halves, per_event * todo, raws_taken)
                i += todo
                continue
            # Roll back to the rejected event and replay it scalar.
            self._finish_halves(peek, halves, per_event * good, raws_taken)
            i += good
            targets[i] = _scalar_bounded(self, peek, self._n, int(self._thr))
            word_halves, word_raws = self._take_halves(
                peek, self._n_states // 4
            )
            self._finish_halves(
                peek, word_halves, self._n_states // 4, word_raws
            )
            words = np.ascontiguousarray(
                word_halves[: self._n_states // 4]
            ).astype("<u4")
            tables[i] = words.view(np.uint8) >> 7
            i += 1
        peek.commit()
        return targets, tables


class _ScalarMutationDecoder(_ScalarDecoder):
    """Generator-API fallback with the identical output shape."""

    def __init__(self, rng: np.random.Generator, n_ssets: int, n_states: int):
        super().__init__(rng)
        self._n = n_ssets
        self._n_states = n_states

    def draw(self, m: int) -> tuple[list[int], np.ndarray]:
        rng = self._rng
        targets = [0] * m
        tables = np.empty((m, self._n_states), dtype=np.uint8)
        for i in range(m):
            targets[i] = int(rng.integers(self._n))
            # random_pure's table draw, verbatim.
            tables[i] = rng.integers(
                0, 2, size=self._n_states, dtype=np.uint8
            )
        return targets, tables


_RAW_OK: bool | None = None

#: High-rejection self-check bound: 2**32 % n is ~2**31.4, so one draw in
#: three Lemire-rejects and the fixup path is exercised for real (for
#: realistic population sizes a rejection is a ~n/2**32 rarity).
_REJECTION_HEAVY_N = 2863311531


class _CheckGraph:
    """Minimal CSR stand-in for the self-check: irregular degrees
    (1, 2, 3, 4, 5) including a degree-1 node, symmetric by construction."""

    def __init__(self):
        adjacency = {
            0: [1],
            1: [0, 2],
            2: [1, 3, 4, 5, 6],
            3: [2, 4, 6],
            4: [2, 3, 5, 6],
            5: [2, 4],
            6: [2, 3, 4],
        }
        self.n_ssets = len(adjacency)
        self.degrees = np.array(
            [len(adjacency[i]) for i in range(self.n_ssets)], dtype=np.int32
        )
        self.indptr = np.zeros(self.n_ssets + 1, dtype=np.int32)
        np.cumsum(self.degrees, out=self.indptr[1:])
        self.indices = np.concatenate(
            [np.array(adjacency[i], dtype=np.int32) for i in range(self.n_ssets)]
        )

    def select_pair(self, rng: np.random.Generator) -> tuple[int, int]:
        # GraphStructure.select_pair's exact consumption, for the scalar
        # reference side of the self-check.
        learner = int(rng.integers(self.n_ssets))
        start = self.indptr[learner]
        offset = int(rng.integers(int(self.degrees[learner])))
        return int(self.indices[start + offset]), learner


def _matches_scalar(make_raw, make_scalar, seed: int, m: int, carry: bool) -> bool:
    """Whether a raw decoder drawing ``m`` events in two batches, each with
    the Generator's carry lent to it (:meth:`_RawDecoder.claim_carry`),
    returns the scalar decoder's values and leaves its Generator where the
    scalar calls leave theirs (equal encoded states).  ``carry`` starts
    both streams on a buffered half-word."""
    ref = np.random.Generator(np.random.Philox(seed))
    rng = np.random.Generator(np.random.Philox(seed))
    if carry:
        ref.integers(3)
        rng.integers(3)
    expect = make_scalar(ref).draw(m)
    dec = make_raw(rng)
    parts = []
    for k in (m // 2, m - m // 2):
        dec.claim_carry()
        parts.append(dec.draw(k))
        dec.fold_carry()
    for field, want in enumerate(expect):
        got = np.concatenate([np.asarray(part[field]) for part in parts])
        if not np.array_equal(got, np.asarray(want)):
            return False
    return encode_bitgen(rng.bit_generator.state) == encode_bitgen(
        ref.bit_generator.state
    )


def _self_check() -> bool:
    """Compare raw decoding against the real Generator API once per process."""
    try:
        pc_cases = (
            (12345, 4, 96),  # power of two (rejection-free)
            (777, 64, 40),
            (424, 48, 64),  # non-power-of-two (rare rejections)
            (99, 100, 64),
            (5, _REJECTION_HEAVY_N, 64),  # ~1/3 of draws reject
        )
        for i, (seed, n, m) in enumerate(pc_cases):
            if not _matches_scalar(
                lambda rng: _RawPCDecoder(rng, n),
                lambda rng: _ScalarPCDecoder(rng, n),
                seed, m, carry=bool(i % 2),
            ):
                return False
        mutation_cases = (
            (9, 8, 16, 33),
            (10, 32, 4, 21),
            (11, 48, 16, 33),  # non-power-of-two target bound
            (12, _REJECTION_HEAVY_N, 4, 48),  # rejection-heavy targets
        )
        for i, (seed, n, states, m) in enumerate(mutation_cases):
            if not _matches_scalar(
                lambda rng: _RawMutationDecoder(rng, n, states),
                lambda rng: _ScalarMutationDecoder(rng, n, states),
                seed, m, carry=bool(i % 2),
            ):
                return False
        graph = _CheckGraph()
        for i, (seed, m) in enumerate(((21, 96), (22, 41))):
            if not _matches_scalar(
                lambda rng: _RawGraphPCDecoder(rng, graph),
                lambda rng: _ScalarGraphPCDecoder(rng, graph),
                seed, m, carry=bool(i % 2),
            ):
                return False
    except Exception:  # pragma: no cover - ultra-defensive
        return False
    return True


def raw_decoding_supported(n_ssets: int) -> bool:
    """Whether the raw fast path applies: any bound below 2**32 (Lemire
    rejections are decoded with a scalar fixup), gated on the start-up
    self-check of the NumPy primitives."""
    global _RAW_OK
    if not 2 <= n_ssets < 1 << 32:
        return False
    if _RAW_OK is None:
        _RAW_OK = _self_check()
    return _RAW_OK


def pc_decoder(rng: np.random.Generator, n_ssets: int):
    """Well-mixed PC pre-draw decoder for one lane (raw or scalar)."""
    if raw_decoding_supported(n_ssets):
        return _RawPCDecoder(rng, n_ssets)
    return _ScalarPCDecoder(rng, n_ssets)


def graph_pc_decoder(rng: np.random.Generator, structure):
    """Graph (learner-then-neighbor) PC pre-draw decoder for one lane.

    ``structure`` is a :class:`~repro.structure.graphs.GraphStructure`
    (anything exposing CSR ``indptr``/``indices``/``degrees`` plus
    ``select_pair`` works); the raw path decodes both bounded draws and
    the adoption uniform straight off the Philox counter stream.
    """
    if raw_decoding_supported(structure.n_ssets):
        return _RawGraphPCDecoder(rng, structure)
    return _ScalarGraphPCDecoder(rng, structure)


def mutation_decoder(rng: np.random.Generator, n_ssets: int, n_states: int):
    """Mutation pre-draw decoder for one lane (raw or scalar)."""
    if raw_decoding_supported(n_ssets) and n_states % 4 == 0:
        return _RawMutationDecoder(rng, n_ssets, n_states)
    return _ScalarMutationDecoder(rng, n_ssets, n_states)
