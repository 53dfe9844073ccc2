"""Deterministic 64-bit seed derivation.

Every stochastic routine in this package takes an explicit integer seed.
Derived seeds (per trial, per restart, per pipeline stage) come from the
mixing function below, so parallel work never shares a random stream. The
mixer is pinned down by the test vectors in tests/test_seeds.py rather
than by reference to an external library.

Conventions used throughout the package:

* experiment trial ``i`` runs with ``derive_seed(seed, i)``;
* pipeline stage ``s`` inside a seeded routine runs with
  ``derive_seed(seed, s)``; nested stages append further indices.

A loop that needs many draws takes them from its generator in bulk, as
arrays, before it starts (see ``energy._anneal_once``), not one scalar
call per draw. A loop over seeded trials keeps one generator per trial,
and only the draw itself runs per trial: ``hypercore.sample_subgraphs``
takes each trial's vertex set from its own generator, then sorts and
colors all the rows at once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MASK64", "mix64", "derive_seed", "generator"]

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
