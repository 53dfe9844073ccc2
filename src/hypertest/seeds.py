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
per-call overhead.
"""

from __future__ import annotations

from contextlib import contextmanager
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
    """The draws of :func:`scalar_draws`: ``integers(n)`` and ``random()``."""

    integers: Callable[[int], int]
    random: Callable[[], float]


@contextmanager
def scalar_draws(rng: np.random.Generator) -> Iterator[ScalarDraws]:
    """Serve ``rng.integers(n)`` (1 <= n < 2**32) and ``rng.random()`` in Python.

    The values equal the Generator's scalar calls made in the same order,
    and on exit (also on an exception) the generator's state is the one
    those calls would have left, so later draws are unchanged too. Inside
    the block, draw only through the yielded functions.

    The replay follows numpy's PCG64 scalar paths: ``integers(n)`` is
    Lemire's multiply-shift on a 32-bit half-word (the buffered high half
    if there is one, else the low half of a fresh word, buffering its
    high half) with rejection below ``2**32 % n``, and ``n == 1`` draws
    nothing; ``random()`` is ``(word >> 11) * 2**-53`` and leaves the
    buffered half alone.
    """
    start = rng.bit_generator.state
    bits = np.random.PCG64()
    bits.state = start
    words: list[int] = []
    pos = used = 0
    has_half, half = start["has_uint32"], start["uinteger"]

    def refill() -> int:
        nonlocal words, pos, used
        used += len(words)
        words, pos = bits.random_raw(_WORD_BLOCK).tolist(), 0
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

    def integers(n: int) -> int:
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

    try:
        yield ScalarDraws(integers, random)
    finally:
        end = np.random.PCG64()
        end.state = start
        end.advance(used + pos)
        state = end.state
        state["has_uint32"], state["uinteger"] = has_half, half
        rng.bit_generator.state = state
