import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.seeds import MASK64, _decode_pairs, derive_seed, generator, mix64, scalar_draws

# Frozen test vectors. These pin the mixing function; any change to the
# mixer must update them deliberately.
MIX64_VECTORS = {
    0: 0xE220A8397B1DCDAF,
    1: 0x910A2DEC89025CC1,
    (1 << 64) - 1: 0xE4D971771B652C20,
}

DERIVE_VECTORS = {
    (42,): 13679457532755275413,
    (42, 0): 6332618229526065668,
    (42, 1): 17532488217563185893,
    (42, 1, 5): 17463878641602073508,
}


def test_mix64_frozen_vectors() -> None:
    for state, expected in MIX64_VECTORS.items():
        assert mix64(state) == expected


def test_mix64_range_and_mask() -> None:
    for state in [0, 7, 123456789, 2**63, 2**64 + 5]:
        out = mix64(state)
        assert 0 <= out <= MASK64
    assert mix64(2**64 + 5) == mix64(5)


def test_derive_seed_frozen_vectors() -> None:
    for args, expected in DERIVE_VECTORS.items():
        assert derive_seed(*args) == expected


def test_derive_seed_stage_separation() -> None:
    base = 99
    seen = {derive_seed(base, i) for i in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(base, 3) != derive_seed(base, 3, 0)


def test_generator_reproducible() -> None:
    a = generator(7).random(16)
    b = generator(7).random(16)
    c = generator(8).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ----------------------------------------------------------------------
# scalar_draws against numpy's Generator, the oracle

RANDOM = "random"  # an op: rng.random(); (n1, n2) is a pair; any other op n is rng.integers(n)
RANGES = [1, 2, 3, 30, 2**31, 2**31 + 1, 2**32 - 1]
bounds = st.one_of(st.sampled_from(RANGES), st.integers(1, 2**32 - 1))
ops_lists = st.lists(
    st.one_of(bounds, st.just(RANDOM), st.tuples(bounds, bounds)),
    max_size=60,
)
# bounds near 2**32 reject often, so rejections land mid-pair
PAIRS = [(2**32 - 1, 2**31 + 1), (2**31 + 1, 2**32 - 1), (30, 2), (1, 3), (3, 1), (1000, 7)]


def _numpy_draw(rng, op):
    if op == RANDOM:
        return rng.random()
    if isinstance(op, tuple):
        return tuple(int(rng.integers(n)) for n in op)
    return int(rng.integers(op))


def _replayed(draws, op, props):
    """One draw; ``props`` keeps one ``pairs`` iterator per bound pair, suspended between items."""
    if op == RANDOM:
        return draws.random()
    if isinstance(op, tuple):
        if op not in props:
            props[op] = draws.pairs(*op)
        return next(props[op])
    return draws.integers(op)


def _edge_half(n: int, offset: int) -> int:
    """The half-word whose Lemire product with odd n leaves 2**32 % n + offset."""
    return (2**32 % n + offset) * pow(n, -1, 2**32) % 2**32


def _start(seed: int, kind: str, half: int) -> np.random.Generator:
    rng = generator(seed)
    if kind == "buffered":
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, half
        rng.bit_generator.state = state
    elif kind == "stale":  # two half-words used: nothing buffered, uinteger stale
        rng.integers(7)
        rng.integers(7)
    elif kind == "array":
        rng.integers(0, 3 + half % 5, size=half % 7)
    return rng


@st.composite
def replay_cases(draw):
    ops = draw(ops_lists)
    kind = draw(st.sampled_from(["fresh", "buffered", "stale", "array"]))
    halves = [st.integers(0, 2**32 - 1)]
    first = ops[0][0] if ops and isinstance(ops[0], tuple) else ops[0] if ops else RANDOM
    if first != RANDOM and first % 2 and first > 1:
        # the buffered half lands on the rejection threshold or just below it
        halves.append(st.sampled_from([_edge_half(first, 0), _edge_half(first, -1)]))
    half = draw(st.one_of(*halves))
    return draw(st.integers(0, MASK64)), kind, half, ops


@given(replay_cases(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_scalar_draws_replay_numpy(case, raises) -> None:
    seed, kind, half, ops = case
    oracle, rng = _start(seed, kind, half), _start(seed, kind, half)
    assert oracle.bit_generator.state == rng.bit_generator.state
    want = [_numpy_draw(oracle, op) for op in ops]
    got, props = [], {}
    try:
        with scalar_draws(rng) as draws:
            for op in ops:
                got.append(_replayed(draws, op, props))
            if raises:
                raise KeyError("inside the block")
    except KeyError:
        assert raises
    assert got == want
    # the full state dict, the stale uinteger of has_uint32 == 0 included
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert [_numpy_draw(rng, op) for op in (3, 3, RANDOM, 2**31 + 1)] == [
        _numpy_draw(oracle, op) for op in (3, 3, RANDOM, 2**31 + 1)
    ]
    assert np.array_equal(rng.integers(0, 5, size=3), oracle.integers(0, 5, size=3))


def test_scalar_draws_across_word_blocks() -> None:
    # long enough to refill the prefetched words several times, also while
    # a pairs iterator is suspended
    ops = random.Random(5).choices([1, 2, 3, 30, 1000, 2**31 + 1, RANDOM, *PAIRS], k=6000)
    for kind in ("fresh", "buffered", "stale", "array"):
        oracle, rng = _start(11, kind, 2**31 + 7), _start(11, kind, 2**31 + 7)
        props = {}
        with scalar_draws(rng) as draws:
            got = [_replayed(draws, op, props) for op in ops]
        assert got == [_numpy_draw(oracle, op) for op in ops]
        # the full state dict, the stale uinteger included
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.random() == oracle.random()


def test_pairs_only_across_word_blocks() -> None:
    # nothing but pairs: every fast-path item must leave the word's high half
    # behind as the stale uinteger, and a refill must come mid-iterator. A
    # buffered start keeps a half buffered before every pair, so each one
    # takes the buffered half and then a fresh word's low half.
    for pair in PAIRS:
        for kind in ("fresh", "buffered", "stale", "array"):
            oracle, rng = _start(12, kind, 2**31 + 7), _start(12, kind, 2**31 + 7)
            with scalar_draws(rng) as draws:
                props = draws.pairs(*pair)
                got = [next(props) for _ in range(1500)]
            assert got == [_numpy_draw(oracle, pair) for _ in range(1500)]
            assert rng.bit_generator.state == oracle.bit_generator.state


def _lemire(half: int, n: int) -> tuple[int, int]:
    """One Lemire step on a half-word: (draw, low product word)."""
    m = half * n
    return m >> 32, m & 0xFFFFFFFF


@pytest.mark.parametrize("n1, n2", [(3, 5), (2**31 + 1, 2**32 - 1), (1, 7), (7, 1), (2, 2)])
def test_decode_pairs_accepts_only_what_cannot_reject(n1, n2) -> None:
    # half-words whose low product word is 0, the threshold and either side
    # of it, n - 1 and n (the first one the fast path takes), and random ones
    def halves(n):
        picked = [0, 1, 2**32 - 1, *random.Random(n).choices(range(2**32), k=20)]
        if n % 2:
            inv = pow(n, -1, 2**32)
            for low in (0, 2**32 % n - 1, 2**32 % n, n - 1, n, n + 1):
                picked.append(low % 2**32 * inv % 2**32)
        return picked

    # low halves picked for both bounds: the late draw puts n2 on the low half
    words = [hi << 32 | lo for lo in halves(n1) + halves(n2) for hi in halves(n2)]
    first, second, late = _decode_pairs(np.array(words, dtype=np.uint64), n1, n2)
    assert len(first) == len(late) == len(words) + 1 and len(second) == len(words)
    assert first[-1] == late[-1] == -1
    usable = n1 > 1 and n2 > 1
    for i, w in enumerate(words):
        (a, low_a), (b, low_b) = _lemire(w & 0xFFFFFFFF, n1), _lemire(w >> 32, n2)
        c, low_c = _lemire(w & 0xFFFFFFFF, n2)
        sure = low_a >= n1 and low_b >= n2 and usable
        assert (first[i], second[i]) == ((a, b) if sure else (-1, b))
        assert late[i] == (c if low_c >= n2 and usable else -1)
    for draws in (first, late):
        assert all(d == -1 for d in draws) == (not usable)
        assert -1 in draws[:-1]


def test_scalar_draws_take_numpy_integer_bounds() -> None:
    bounds = [np.uint32(2**32 - 1), np.int64(3), np.uint64(2**31 + 1), np.int8(1), np.uint32(30)]
    oracle, rng = generator(4), generator(4)
    want = [int(oracle.integers(n)) for n in bounds]
    want_pairs = [(int(oracle.integers(np.int64(3))), int(oracle.integers(np.uint32(2**32 - 1))))
                  for _ in range(600)]
    with scalar_draws(rng) as draws:
        got = [draws.integers(n) for n in bounds]
        props = draws.pairs(np.int64(3), np.uint32(2**32 - 1))
        got_pairs = [next(props) for _ in range(600)]
    assert got == want and got_pairs == want_pairs
    assert {type(v) for v in got} == {int}
    assert {type(v) for pair in got_pairs for v in pair} == {int}
    assert rng.bit_generator.state == oracle.bit_generator.state
    with scalar_draws(generator(4)) as draws:
        with pytest.raises(TypeError):
            draws.integers(2.5)
        with pytest.raises(TypeError):
            draws.pairs(3, 2.5)


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_scalar_draws_reject_out_of_range(n) -> None:
    oracle, rng = generator(3), generator(3)
    with scalar_draws(rng) as draws:
        with pytest.raises(ValueError, match="1 <= n < 2"):
            draws.integers(n)
        # a pairs iterator refuses when it is made, before any item is drawn
        for pair in ((n, 3), (3, n)):
            with pytest.raises(ValueError, match="1 <= n < 2"):
                draws.pairs(*pair)
    assert rng.bit_generator.state == oracle.bit_generator.state
