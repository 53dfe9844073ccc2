import numpy as np

from hypertest.seeds import MASK64, derive_seed, generator, mix64

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
