import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.seeds import MASK64, derive_seed, generator, mix64, scalar_draws

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

RANDOM = "random"  # an op: rng.random(); any other op n is rng.integers(n)
RANGES = [1, 2, 3, 30, 2**31, 2**31 + 1, 2**32 - 1]
ops_lists = st.lists(
    st.one_of(st.sampled_from(RANGES), st.integers(1, 2**32 - 1), st.just(RANDOM)),
    max_size=60,
)


def _numpy_draw(rng, op):
    return rng.random() if op == RANDOM else int(rng.integers(op))


def _replayed(draws, op):
    return draws.random() if op == RANDOM else draws.integers(op)


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
    if ops and ops[0] != RANDOM and ops[0] % 2 and ops[0] > 1:
        # the buffered half lands on the rejection threshold or just below it
        halves.append(st.sampled_from([_edge_half(ops[0], 0), _edge_half(ops[0], -1)]))
    half = draw(st.one_of(*halves))
    return draw(st.integers(0, MASK64)), kind, half, ops


@given(replay_cases(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_scalar_draws_replay_numpy(case, raises) -> None:
    seed, kind, half, ops = case
    oracle, rng = _start(seed, kind, half), _start(seed, kind, half)
    assert oracle.bit_generator.state == rng.bit_generator.state
    want = [_numpy_draw(oracle, op) for op in ops]
    got = []
    try:
        with scalar_draws(rng) as draws:
            for op in ops:
                got.append(_replayed(draws, op))
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
    # long enough to refill the prefetched words several times
    ops = random.Random(5).choices([1, 2, 3, 30, 1000, 2**31 + 1, RANDOM], k=6000)
    oracle, rng = generator(11), generator(11)
    with scalar_draws(rng) as draws:
        got = [_replayed(draws, op) for op in ops]
    assert got == [_numpy_draw(oracle, op) for op in ops]
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert rng.random() == oracle.random()


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_scalar_draws_reject_out_of_range(n) -> None:
    oracle, rng = generator(3), generator(3)
    with scalar_draws(rng) as draws:
        with pytest.raises(ValueError, match="1 <= n < 2"):
            draws.integers(n)
    assert rng.bit_generator.state == oracle.bit_generator.state
