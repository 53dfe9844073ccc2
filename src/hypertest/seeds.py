"""Deterministic 64-bit seed derivation.

Every stochastic routine in this package takes an explicit integer seed.
Derived seeds (per trial, per restart, per pipeline stage) come from the
mixing function below, so parallel work never shares a random stream. The
mixer is pinned down by the test vectors in tests/test_seeds.py rather
than by reference to an external library.

Conventions used throughout the package:

* experiment trial ``i`` runs with seed ``base + i``;
* pipeline stage ``s`` inside a seeded routine runs with
  ``derive_seed(seed, s)``; nested stages append further indices.

Loops that make many scalar draws take them from :func:`scalar_draws`,
which replays the generator's PCG64 stream in Python: the same values as
``Generator.integers(n)`` and ``Generator.random()``, without numpy's
per-call overhead. Its ``pairs(n1, n2)`` serves ``(integers(n1),
integers(n2))`` from a generator: the second draw of a pair (and the
first, when nothing is buffered) comes from a fresh word, so each word
block is decoded once, in numpy, for all of its pairs.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import index
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = ["MASK64", "mix64", "derive_seed", "generator", "ScalarDraws", "scalar_draws"]

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(state: int) -> int:
    """One round of the 64-bit finalizer used for all seed derivation.

    Parameters
    ----------
    state : int
        Any integer; only the low 64 bits matter.

    Returns
    -------
    int
        A 64-bit unsigned value. ``mix64(0) == 0xE220A8397B1DCDAF``.
    """
    z = (state + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(base: int, *indices: int) -> int:
    """Mix a base seed with stage or trial counters.

    ``derive_seed(s)`` freshens ``s`` itself; ``derive_seed(s, i)`` is the
    canonical per-stage seed; more indices nest deterministically, so
    ``derive_seed(s, i, j)`` never collides with ``derive_seed(s, i)`` for
    the index ranges used here (distinctness is exercised by tests, not
    proven).
    """
    out = mix64(base & MASK64)
    for idx in indices:
        out = mix64(out ^ (idx & MASK64))
    return out


def generator(seed: int) -> np.random.Generator:
    """A numpy Generator seeded through :func:`mix64`.

    All randomness in the package flows through generators built here, so
    fixing the argument fixes every downstream draw bit for bit.
    """
    return np.random.Generator(np.random.PCG64(mix64(seed & MASK64)))


_MASK32 = 0xFFFFFFFF
_WORD_BLOCK = 512  # PCG64 words prefetched per refill


class ScalarDraws(NamedTuple):
    """The draws of :func:`scalar_draws`: ``integers(n)``, ``random()`` and ``pairs(n1, n2)``."""

    integers: Callable[[int], int]
    random: Callable[[], float]
    pairs: Callable[[int, int], Iterator[tuple[int, int]]]


def _decode_pairs(raw: np.ndarray, n1: int, n2: int) -> tuple[list[int], list[int], list[int]]:
    """Lemire's draws for ``(integers(n1), integers(n2))`` on each word of a block.

    With nothing buffered, the pair at word i is ``(first[i], second[i])``,
    the low and then the high half of that word. With a half buffered, the
    first draw takes that half and the second, ``late[i]``, the low half
    of word i. ``first`` and ``late`` hold -1 where a draw could reject
    (its low product word is below its bound) or a bound is 1
    (``integers(1)`` draws nothing), and in one extra entry past the
    block; there the caller draws one at a time.
    """
    low = raw & _MASK32
    p1, p2, p3 = low * n1, (raw >> 32) * n2, low * n2
    one = min(n1, n2) == 1
    unsure = ((p1 & _MASK32) < n1) | ((p2 & _MASK32) < n2) | one
    late_unsure = ((p3 & _MASK32) < n2) | one
    first = np.where(unsure, -1, (p1 >> 32).astype(np.int64)).tolist()
    late = np.where(late_unsure, -1, (p3 >> 32).astype(np.int64)).tolist()
    first.append(-1)
    late.append(-1)
    return first, (p2 >> 32).tolist(), late


@contextmanager
def scalar_draws(rng: np.random.Generator) -> Iterator[ScalarDraws]:
    """Serve ``rng.integers(n)`` (1 <= n < 2**32) and ``rng.random()`` in Python.

    The values equal the Generator's scalar calls made in the same order,
    and on exit (also on an exception) the generator's state is the one
    those calls would have left, so later draws are unchanged too. Inside
    the block, draw only through the yielded functions. A bound ``n`` is
    anything ``operator.index`` accepts; the draws are Python ints.

    The replay follows numpy's PCG64 scalar paths: ``integers(n)`` is
    Lemire's multiply-shift on a 32-bit half-word (the buffered high half
    if there is one, else the low half of a fresh word, buffering its
    high half) with rejection below ``2**32 % n``, and ``n == 1`` draws
    nothing; ``random()`` is ``(word >> 11) * 2**-53`` and leaves the
    buffered half alone.

    ``pairs(n1, n2)`` is an endless iterator of ``(integers(n1),
    integers(n2))``, sharing the stream position with the other draws, so
    calls to them may come between its items. With nothing buffered the
    pair is the low and then the high half of one fresh word, and numpy
    leaves that high half behind as the stale ``uinteger``; with a half
    buffered it is that half and then the low half of a fresh word, whose
    high half is buffered after. Each block of words is decoded for both
    alignments once (``_decode_pairs``); a buffered first draw is the one
    multiply-shift done per item. A possible rejection, a bound of 1 or
    the end of a block takes the two scalar draws instead.
    """
    start = rng.bit_generator.state
    bits = np.random.PCG64()
    bits.state = start
    raw = np.empty(0, dtype=np.uint64)
    words: list[int] = []
    pos = used = 0
    has_half, half = start["has_uint32"], start["uinteger"]

    def refill() -> int:
        nonlocal raw, words, pos, used
        used += len(words)
        raw = bits.random_raw(_WORD_BLOCK)
        words, pos = raw.tolist(), 0
        return words[0]

    def next32() -> int:
        nonlocal has_half, half, pos
        if has_half:
            has_half = 0
            return half
        try:
            w = words[pos]
        except IndexError:
            w = refill()
        pos += 1
        has_half, half = 1, w >> 32
        return w & _MASK32

    def _integers(n: int) -> int:  # n is an int already
        nonlocal has_half, half, pos
        if not 1 < n <= _MASK32:
            if n == 1:
                return 0
            raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")
        # next32() inlined: this is the hot path
        if has_half:
            has_half = 0
            m = half * n
        else:
            try:
                w = words[pos]
            except IndexError:
                w = refill()
            pos += 1
            has_half, half = 1, w >> 32
            m = (w & _MASK32) * n
        if m & _MASK32 < n:
            threshold = (_MASK32 + 1) % n
            while m & _MASK32 < threshold:
                m = next32() * n
        return m >> 32

    def random() -> float:
        nonlocal pos
        try:
            w = words[pos]
        except IndexError:
            w = refill()
        pos += 1
        return (w >> 11) * 2.0**-53

    def integers(n: int) -> int:
        return _integers(index(n))

    def pairs(n1: int, n2: int) -> Iterator[tuple[int, int]]:
        n1, n2 = index(n1), index(n2)
        for n in (n1, n2):
            if not 1 <= n <= _MASK32:
                raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")

        def serve() -> Iterator[tuple[int, int]]:
            nonlocal pos, half
            block = None
            while True:
                if block is not words:  # a refill since the last pair
                    block = words
                    first, second, late = _decode_pairs(raw, n1, n2)
                i = pos  # == len(block) past the last word, where first and late are -1
                if has_half:
                    # the buffered half, then the low half of word i; its
                    # high half is buffered after, so has_half stays set
                    b, m1 = late[i], half * n1
                    if b >= 0 and m1 & _MASK32 >= n1:
                        pos, half = i + 1, block[i] >> 32
                        yield m1 >> 32, b
                        continue
                else:
                    # both halves of word i; numpy leaves the high half
                    # behind as the stale uinteger
                    a = first[i]
                    if a >= 0:
                        pos, half = i + 1, block[i] >> 32
                        yield a, second[i]
                        continue
                yield _integers(n1), _integers(n2)

        return serve()

    try:
        yield ScalarDraws(integers, random, pairs)
    finally:
        end = np.random.PCG64()
        end.state = start
        end.advance(used + pos)
        state = end.state
        state["has_uint32"], state["uinteger"] = has_half, half
        rng.bit_generator.state = state
