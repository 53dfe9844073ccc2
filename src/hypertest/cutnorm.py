"""r-cut norms and cut-P-norms for symmetric arrays and step kernels.

Both problems reduce to one shape: a set of atoms (unordered (r-1)-subsets
of vertices for arrays, grid-cell orbits for kernels) and a coefficient
tensor T with the normalization folded in, so that choosing sets
S_1..S_r of atoms scores sum_{a} T[a_1..a_r] prod_l 1{a_l in S_l}. The
cut norm maximizes |score|; the cut-P-norm splits each set by partition
class and maximizes the sum of per-class-tuple absolute scores.

The exact optimizer enumerates the first r-1 sets and closes the last
one: with the others fixed, the last set's contribution is linear per
atom (plain norm) and independent across classes (cut-P-norm), so the
best completion is computed, not searched, and the 2^{t^r} sign-pattern
sweep is avoided. One search per norm serves every r: the plain one
scores all choices of the first r-1 sets in one contraction, the cut-P
one loops over the first r-2 sets, scores every choice of set r-1 in
one contraction and closes the last set for all those choices at once,
one product per class. The heuristic is sign-guided coordinate ascent;
it evaluates the true objective, so it is always a lower bound.

Per-class-tuple sums (``_class_sums``) are gathered, not contracted
against one-hot class masks: T is indexed on the chosen atoms, and each
axis is contracted with the class rows of those atoms only. The ascent,
the witness signs, ``evaluate_witness`` and the exact cut-P search's
sums over each prefix all use it. Kernel problems share one cached set
of cell orbits per (r, grid) pair.

Every entry point, ``cut_distance`` included, builds its problem and
hands it to the one dispatch ``_solve``: plain or cut-P by whether a
class vector is given, exact or heuristic by mode, any other mode
rejected. Witnesses keep the solver's arrays; ``CutWitness.to_json`` is
the only place they become lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, lcm
from typing import Any, Sequence

import numpy as np

from .budget import check_budget
from .graphon import (
    GridPartition,
    StepGraphon,
    VertexGraphon,
    _as_step,
    _check_symmetric,
    _symmetrize,
    channel_differences,
    class_tuple_weights,
    orbit_partition,
)
from .hypercore import ColoredHypergraph, colex_edges, colex_ranks
from .seeds import derive_seed, generator

__all__ = [
    "TuplePartition",
    "StepKernel",
    "CutWitness",
    "cutnorm_exact",
    "cutnorm_heuristic",
    "cutnorm_p",
    "kernel_cutnorm",
    "kernel_cutnorm_p",
    "cut_distance",
    "sup_cutnorm_over_partitions",
    "evaluate_witness",
    "difference_kernel",
    "graph_difference_arrays",
    "random_symmetric_array",
]

_ASCENT_SWEEPS = 200  # coordinate-ascent sweeps before giving up on a fixed point
_CLOSE_FLOATS = 1 << 16  # floats per product in the exact cut-P close: bounds its memory


@dataclass(frozen=True)
class TuplePartition:
    """Partition of the unordered (r-1)-subsets of [n] into q classes.

    ``classes[i]`` is the class of the i-th subset in colex order; classes
    are symmetric by construction since atoms are unordered subsets.
    """

    n: int
    r_minus_1: int
    classes: tuple[int, ...]
    q: int
    allow_empty: bool = False

    def __post_init__(self) -> None:
        expected = comb(self.n, self.r_minus_1)
        if len(self.classes) != expected:
            raise ValueError(f"need {expected} class labels, got {len(self.classes)}")
        if self.q < 1:
            raise ValueError("class count q must be >= 1")
        if any(c < 0 or c >= self.q for c in self.classes):
            raise ValueError("class labels must lie in range(q)")
        if not self.allow_empty and len(set(self.classes)) != self.q:
            raise ValueError("every class must be nonempty (or set allow_empty)")

    @classmethod
    def trivial(cls, n: int, r_minus_1: int) -> "TuplePartition":
        return cls(n, r_minus_1, (0,) * comb(n, r_minus_1), 1)

    @classmethod
    def random(cls, n: int, r_minus_1: int, q: int, seed: int) -> "TuplePartition":
        """Uniform labels in q nonempty classes. If 200 draws all miss a class,
        the 200th draw is relabelled to the classes it hits, so q shrinks to
        their count. (``graphon.random_grid_partition`` instead relabels a
        fresh 201st draw.)"""
        m = comb(n, r_minus_1)
        if q > m:
            raise ValueError(f"{q} nonempty classes need at least {q} atoms, got {m}")
        rng = generator(seed)
        for _ in range(200):
            labels = rng.integers(0, q, size=m)
            if len(np.unique(labels)) == q:
                break
        _, labels = np.unique(labels, return_inverse=True)
        return cls(n, r_minus_1, tuple(labels.tolist()), int(labels.max()) + 1)


@dataclass(frozen=True, eq=False)
class StepKernel:
    """A real symmetric (r, r-1)-step function, e.g. a channel difference."""

    partition: GridPartition
    array: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=float)
        r = self.r
        if arr.shape != (self.partition.t,) * r:
            raise ValueError(f"array shape {arr.shape} != {(self.partition.t,) * r}")
        _check_symmetric(arr[None], ["kernel array"])
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def r(self) -> int:
        return self.partition.r_minus_1 + 1


@dataclass(frozen=True, eq=False)
class CutWitness:
    """An argmax certificate: atom sets per position, optional class data.

    ``sets`` holds the chosen atom indices per position, as int tuples.
    The other fields are the solver's read-only arrays: ``atoms``, shape
    (m, d), describes each atom (an (r-1)-subset for arrays, a
    representative grid cell for kernels) so the witness is meaningful
    without the original problem object; a cut-P witness adds each
    atom's ``classes``, shape (m,), and the +-1 ``signs`` per class tuple,
    shape (tq,) * r. :meth:`to_json` is the one conversion to lists.
    """

    kind: str
    r: int
    value: float
    sets: tuple[tuple[int, ...], ...]
    atoms: np.ndarray
    classes: np.ndarray | None = None
    signs: np.ndarray | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "r": self.r,
            "value": self.value,
            "sets": [list(s) for s in self.sets],
            "atoms": self.atoms.tolist(),
            "classes": None if self.classes is None else self.classes.tolist(),
            "signs": None if self.signs is None else self.signs.ravel().astype(np.int64).tolist(),
        }


# ----------------------------------------------------------------------
# problem construction


_Problem = tuple[np.ndarray, np.ndarray, np.ndarray | None, int | None]


def _array_problem(a: np.ndarray, p: TuplePartition | None = None) -> _Problem:
    """Atoms, coefficient tensor, and optional class vector and count for arrays."""
    arr = np.asarray(a, dtype=float)
    if len(set(arr.shape)) != 1:
        raise ValueError(f"expected an r-array with equal axes, got shape {arr.shape}")
    _check_symmetric(arr[None], ["array"])
    n, r = arr.shape[0], arr.ndim
    classes = None
    if p is not None:
        if (p.n, p.r_minus_1) != (n, r - 1):
            raise ValueError("partition does not match the array's atoms")
        classes = np.array(p.classes)
        classes.flags.writeable = False
    atoms = colex_edges(n, r - 1)
    tuples = np.indices((n,) * r).reshape(r, -1).T  # itertools.product order
    if r >= 3:  # some deleted projection of a repeating tuple would hit the diagonal
        tuples = tuples[np.all(np.diff(np.sort(tuples, axis=1), axis=1) > 0, axis=1)]
    dropped = np.array([[i for i in range(r) if i != j] for j in range(r)],
                       dtype=np.intp).reshape(r, r - 1)
    idx = colex_ranks(np.sort(tuples[:, dropped], axis=-1), n)
    t = np.zeros((len(atoms),) * r)
    # a cell gets one tuple for r >= 2; for r = 1 add.at keeps the sequential sum
    np.add.at(t, tuple(idx.T), arr[tuple(tuples.T)] * (1.0 / n ** r))
    return atoms, t, classes, None if p is None else p.q


@lru_cache(maxsize=32)
def _orbit_atoms(r: int, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell orbits of the g-grid (r-1)-type cube, read-only.

    Returns each orbit's first cell as a flat index and as grid
    coordinates (the kernel atoms), and the orbit-tuple weights.
    """
    orbits = orbit_partition(r - 1, g)
    _, first = np.unique(orbits.labels.ravel(), return_index=True)
    shape = orbits.labels.shape if orbits.labels.ndim else (1,)
    atoms = np.stack(np.unravel_index(first, shape), axis=-1)
    weights = class_tuple_weights(orbits)
    for arr in (first, atoms, weights):
        arr.flags.writeable = False
    return first, atoms, weights


def _problem(
    target: np.ndarray | StepKernel, p: TuplePartition | GridPartition | None
) -> _Problem:
    """The array or kernel problem of ``target``; a partition of the other kind is ignored."""
    if isinstance(target, StepKernel):
        return _kernel_problem(target, p if isinstance(p, GridPartition) else None)
    return _array_problem(target, p if isinstance(p, TuplePartition) else None)


def _kernel_problem(kern: StepKernel, qpart: GridPartition | None) -> _Problem:
    """Atoms (cell orbits), coefficient tensor, and optional class vector and count.

    Restricting the continuum suprema to unions of cell orbits is lossless:
    the objective is multilinear in each orbit's fractional membership, so
    some vertex of the box is optimal, and symmetric sets are exactly the
    unions of orbits.
    """
    if qpart is not None and qpart.r_minus_1 != kern.partition.r_minus_1:
        raise ValueError("partition lives on a different type cube")
    r = kern.r
    g0 = kern.partition.resolution
    g = g0 if qpart is None else lcm(g0, qpart.resolution)
    first, atoms, weights = _orbit_atoms(r, g)
    kcls = kern.partition.refined(g // g0).labels.ravel()[first]
    t = kern.array[np.ix_(*([kcls] * r))] * weights
    if qpart is None:
        return atoms, t, None, None
    classes = qpart.refined(g // qpart.resolution).labels.ravel()[first]
    classes.flags.writeable = False
    return atoms, t, classes, qpart.t


# ----------------------------------------------------------------------
# exact optimization


@lru_cache(maxsize=None)
def _subset_matrix(m: int) -> np.ndarray:
    masks = np.arange(1 << m, dtype=np.uint32)
    return ((masks[:, None] >> np.arange(m)) & 1).astype(float)


def _mask_indices(mask: int, m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m) if mask >> i & 1)


def _exact_plain(t: np.ndarray) -> tuple[float, list[tuple[int, ...]]]:
    """Exact cut norm: contract the first r-1 axes with all subsets, close the last by sign.

    Rows run over choices in mask order, first set slowest; they take
    2^(m(r-1)) * m floats, at most half the budget checked here.
    """
    r, m = t.ndim, t.shape[0]
    check_budget("cut norm exact search", 1 << (r * m))
    s = _subset_matrix(m)
    c = t.reshape(1, -1)  # (choices so far, axes left)
    for k in range(r - 1, 0, -1):
        c = (s @ c.reshape(len(c), m, m**k)).reshape(len(c) << m, m**k)
    pos = np.clip(c, 0, None).sum(axis=1)
    neg = -np.clip(c, None, 0).sum(axis=1)
    vals = np.maximum(pos, neg)
    i = int(np.argmax(vals))
    last = c[i] > 0 if pos[i] >= neg[i] else c[i] < 0
    masks = np.unravel_index(i, (1 << m,) * (r - 1))
    return float(vals[i]), [_mask_indices(int(k), m) for k in masks] + [tuple(np.flatnonzero(last))]


def _exact_cutp(
    t: np.ndarray, classes: np.ndarray, tq: int
) -> tuple[float, list[tuple[int, ...]], np.ndarray]:
    """Exact cut-P optimum: enumerate first sets, close the last per class.

    For r >= 2 a loop runs over the first r-2 sets; per prefix, a class of
    k atoms closes the last set for all 2^m choices of set r-1 in one
    product of 2^m * 2^k * tq^(r-1) floats, taken in ``_CLOSE_FLOATS`` blocks.
    """
    r, m = t.ndim, t.shape[0]
    check_budget("cut-P-norm exact search", 1 << (r * m))
    onehot = (np.asarray(classes)[:, None] == np.arange(tq)).astype(float)
    if r == 1:
        # per class the larger of the positive and the negative mass
        pos = np.bincount(classes, weights=np.clip(t, 0, None), minlength=tq)
        neg = np.bincount(classes, weights=np.clip(t, None, 0), minlength=tq)
        take_pos = (pos >= -neg)[classes]
        best_val = float(np.maximum(pos, -neg).sum())
        best_sets = [tuple(np.flatnonzero(np.where(take_pos, t > 0, t < 0)))]
    else:
        s = _subset_matrix(m)
        by_class = onehot.T.reshape((tq, m) + (1,) * (r - 1))
        members = [idx for idx in map(np.flatnonzero, onehot.T) if len(idx)]
        best_val, best_sets = -1.0, None
        for masks in itertools.product(range(1 << m), repeat=r - 2):
            prefix = [_mask_indices(mask, m) for mask in masks]
            inner = _class_sums(t, onehot, prefix)  # (atom, atom, prefix-class tuples...)
            rows = np.tensordot(s, by_class * inner, axes=([1], [1]))  # (choice, class, atom, ...)
            rows = np.moveaxis(rows, (1, 2), (-2, -1)).reshape(1 << m, -1, m)
            # per class the best subset of its members for every choice of set r-1;
            # rows stay last and contiguous, so each score is numpy's pairwise row sum
            total, last = np.zeros(1 << m), np.zeros(1 << m, dtype=np.int64)  # last: atom masks
            for idx in members:
                sub, cols = _subset_matrix(len(idx)), rows[:, :, idx].transpose(0, 2, 1)
                atom_masks = (sub @ (1 << idx)).astype(np.int64)
                step = max(1, _CLOSE_FLOATS // (len(sub) * cols.shape[2]))
                for lo in range(0, 1 << m, step):
                    scores = sub @ cols[lo:lo + step]
                    scores = np.abs(scores, out=scores).sum(axis=-1)
                    total[lo:lo + step] += scores.max(axis=1)
                    last[lo:lo + step] += atom_masks[scores.argmax(axis=1)]
            i = int(np.argmax(total))
            if total[i] > best_val:
                best_val = float(total[i])
                best_sets = prefix + [_mask_indices(i, m), _mask_indices(int(last[i]), m)]
    signs = _cutp_signs(_class_sums(t, onehot, best_sets))
    return best_val, best_sets, signs


def _indicator(indices: Sequence[int], m: int) -> np.ndarray:
    out = np.zeros(m)
    out[list(indices)] = 1.0
    return out


def _class_sums(t: np.ndarray, onehot: np.ndarray, sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Inner sum per class tuple over the atom sets of the leading axes.

    Gathers ``t`` on the chosen atoms, then contracts each set's axis
    with the one-hot class rows of its atoms, leading axis first. With
    one set per axis the result is I[j1..jr]; with fewer, the axes left
    over come first, uncontracted: shape (m,) * (r - len(sets)) + (tq,) * len(sets).
    """
    idx = [np.asarray(s, dtype=np.intp) for s in sets]
    out = t[np.ix_(*idx)]
    for s in idx:
        out = np.tensordot(out, onehot[s], axes=([0], [0]))
    return out


def _cutp_signs(inner: np.ndarray) -> np.ndarray:
    """The sign of each class tuple's inner sum, +1 where it is 0."""
    signs = np.sign(inner)
    signs[signs == 0] = 1.0
    signs.flags.writeable = False
    return signs


# ----------------------------------------------------------------------
# heuristic optimization


def _contract_except(t: np.ndarray, vecs: Sequence[np.ndarray], skip: int) -> np.ndarray:
    out = np.moveaxis(t, skip, 0)
    for axis in reversed([i for i in range(t.ndim) if i != skip]):
        out = np.tensordot(out, vecs[axis], axes=([out.ndim - 1], [0]))
    return out


def _full_value(t: np.ndarray, vecs: Sequence[np.ndarray]) -> float:
    return float(np.tensordot(_contract_except(t, vecs, 0), vecs[0], axes=([0], [0])))


def _ascend(t_eff: np.ndarray, sets: list[np.ndarray]) -> list[np.ndarray]:
    """Sign ascent: set each axis to where its contraction with the other sets is positive.

    Each sweep computes exactly :func:`_contract_except`, but the first
    contraction's operand, ``tensordot``'s ``moveaxis(t_eff, l, 0)``
    reshaped to (m^(r-1), m), is built once per axis and reused by the
    same ``np.dot`` call. At r = 1 nothing is contracted.
    """
    r, m = t_eff.ndim, t_eff.shape[0]
    operands = [np.moveaxis(t_eff, l, 0).reshape(m ** (r - 1), m) for l in range(r)]
    for _ in range(_ASCENT_SWEEPS):
        changed = False
        for l in range(r):
            if r == 1:
                contrib = t_eff
            else:
                rest = [i for i in range(r) if i != l]
                contrib = np.dot(operands[l], sets[rest[-1]].reshape(m, 1)).reshape((m,) * (r - 1))
                for axis in reversed(rest[:-1]):
                    contrib = np.tensordot(contrib, sets[axis], axes=([contrib.ndim - 1], [0]))
            new = (contrib > 0).astype(float)
            if not np.array_equal(new, sets[l]):
                sets[l] = new
                changed = True
        if not changed:
            break
    return sets


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")


def _heuristic_plain(
    t: np.ndarray, restarts: int, seed: int
) -> tuple[float, list[tuple[int, ...]]]:
    _check_restarts(restarts)
    r, m = t.ndim, t.shape[0]
    best_val, best_sets = -1.0, [tuple()] * r
    for restart in range(max(2, restarts)):
        for sigma in (1.0, -1.0):
            if restart < 1:
                sets = [np.ones(m) for _ in range(r)]
            else:
                rng = generator(derive_seed(seed, restart, int(sigma > 0)))
                sets = [(rng.random(m) < 0.5).astype(float) for _ in range(r)]
            sets = _ascend(sigma * t, sets)
            val = sigma * _full_value(t, sets)
            if val > best_val:
                best_val = val
                best_sets = [tuple(np.flatnonzero(v)) for v in sets]
    return float(max(best_val, 0.0)), best_sets


def _heuristic_cutp(
    t: np.ndarray, classes: np.ndarray, tq: int, restarts: int, seed: int
) -> tuple[float, list[tuple[int, ...]], np.ndarray]:
    _check_restarts(restarts)
    r, m = t.ndim, t.shape[0]
    onehot = (np.asarray(classes)[:, None] == np.arange(tq)).astype(float)
    idx = np.asarray(classes)
    best_val, best_sets, best_inner = -1.0, None, None
    for restart in range(restarts):
        if restart == 0:
            sets = [np.ones(m) for _ in range(r)]
        else:
            rng = generator(derive_seed(seed, restart))
            sets = [(rng.random(m) < 0.5).astype(float) for _ in range(r)]
        value = -1.0
        for _ in range(60):
            inner = _class_sums(t, onehot, [np.flatnonzero(v) for v in sets])
            new_value = float(np.abs(inner).sum())
            if new_value <= value + 1e-15:
                value = max(value, new_value)
                break
            value = new_value
            t_eff = t * _cutp_signs(inner)[np.ix_(*([idx] * r))]
            sets = _ascend(t_eff, sets)
        else:
            inner = None  # the last sums predate the last ascent
        if value > best_val:
            best_val, best_inner = value, inner
            best_sets = [tuple(np.flatnonzero(v)) for v in sets]
    if best_inner is None:
        best_inner = _class_sums(t, onehot, best_sets)
    return float(best_val), best_sets, _cutp_signs(best_inner)


# ----------------------------------------------------------------------
# public entry points


def _solve(
    kind: str,
    atoms: np.ndarray,
    t: np.ndarray,
    classes: np.ndarray | None,
    tq: int | None,
    mode: str,
    restarts: int = 16,
    seed: int = 0,
) -> tuple[float, CutWitness]:
    """The one dispatch: cut-P when ``classes`` is given, else plain; exact or heuristic."""
    signs = None
    if mode == "exact":
        if classes is None:
            value, sets = _exact_plain(t)
        else:
            value, sets, signs = _exact_cutp(t, classes, tq)
    elif mode == "heuristic":
        if classes is None:
            value, sets = _heuristic_plain(t, restarts, seed)
        else:
            value, sets, signs = _heuristic_cutp(t, classes, tq, restarts, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    value = float(value) + 0.0  # normalize -0.0
    witness = CutWitness(
        kind=kind,
        r=t.ndim,
        value=value,
        sets=tuple(tuple(np.asarray(s, dtype=np.intp).tolist()) for s in sets),
        atoms=atoms,
        classes=classes,
        signs=signs,
    )
    return value, witness


def cutnorm_exact(a: np.ndarray) -> tuple[float, CutWitness]:
    """Exact array cut norm by exhaustive symmetric-set search."""
    return _solve("array", *_array_problem(a), "exact")


def cutnorm_heuristic(
    a: np.ndarray, restarts: int = 16, seed: int = 0
) -> tuple[float, CutWitness]:
    """Coordinate-ascent lower bound for the array cut norm."""
    return _solve("array", *_array_problem(a), "heuristic", restarts=restarts, seed=seed)


def cutnorm_p(
    a: np.ndarray,
    p: TuplePartition,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> tuple[float, CutWitness]:
    """Array cut-P-norm; exact or coordinate-ascent mode."""
    return _solve("array", *_array_problem(a, p), mode, restarts, seed)


def kernel_cutnorm(
    kern: StepKernel,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> tuple[float, CutWitness]:
    """Cut norm of a step kernel over symmetric measurable sets (exact on orbits)."""
    return _solve("kernel", *_kernel_problem(kern, None), mode, restarts, seed)


def kernel_cutnorm_p(
    kern: StepKernel,
    qpart: GridPartition,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> tuple[float, CutWitness]:
    """Cut-P-norm of a step kernel for a symmetric grid partition."""
    return _solve("kernel", *_kernel_problem(kern, qpart), mode, restarts, seed)


def difference_kernel(u: StepGraphon, w: StepGraphon, color: int) -> StepKernel:
    """The channel difference U^color - W^color on the common refinement."""
    part, diffs = channel_differences(u, w)
    return StepKernel(part, diffs[color])


def graph_difference_arrays(g: ColoredHypergraph, h: ColoredHypergraph) -> dict[int, np.ndarray]:
    """Per-color adjacency differences on the common vertex-cell grid."""
    if (g.r, g.k) != (h.r, h.k):
        raise ValueError("graphs must share uniformity and palette")
    n = lcm(g.n, h.n)
    # vertex cell i of the common grid lies in vertex i // factor of each graph
    gi, hi = (np.ix_(*[np.arange(n) // (n // x.n)] * x.r) for x in (g, h))
    return {alpha: g.adjacency_array(alpha)[gi] - h.adjacency_array(alpha)[hi]
            for alpha in range(1, g.k + 1)}


def cut_distance(
    u: ColoredHypergraph | StepGraphon | VertexGraphon,
    w: ColoredHypergraph | StepGraphon | VertexGraphon,
    p: TuplePartition | GridPartition | None = None,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> float:
    """Sum over colors of per-color cut norms of differences.

    Graph pairs reduce to the array problem on the common vertex-cell
    grid (the embedded kernels agree with it: repeated cells only ever
    multiply zero differences). Graphon pairs reduce to step kernels on
    the common grid refinement. Reserved-color channels enter the sum
    when present.
    """
    if isinstance(u, ColoredHypergraph) and isinstance(w, ColoredHypergraph):
        diffs = graph_difference_arrays(u, w)
        if p is not None and not isinstance(p, TuplePartition):
            raise ValueError("graph cut distance takes a TuplePartition")
        kind = "array"
        problems = ((alpha, _array_problem(diff, p)) for alpha, diff in diffs.items())
    else:
        if isinstance(u, ColoredHypergraph) or isinstance(w, ColoredHypergraph):
            raise ValueError("cut distance needs two graphs or two graphons")
        if u.r != w.r or u.k != w.k:
            raise ValueError("graphons must share uniformity and palette")
        if p is not None and not isinstance(p, GridPartition):
            raise ValueError("graphon cut distance takes a GridPartition")
        part, diffs = channel_differences(_as_step(u), _as_step(w))
        kind = "kernel"
        problems = ((alpha, _kernel_problem(StepKernel(part, diff), p))
                    for alpha, diff in diffs.items())
    total = 0.0
    for alpha, problem in problems:
        value, _ = _solve(kind, *problem, mode, restarts, derive_seed(seed, alpha))
        total += value
    return total


# ----------------------------------------------------------------------
# supremum over partitions


def _growth_strings(m: int, t: int):
    """Restricted growth strings: set partitions of m atoms into <= t classes."""
    labels = [0] * m

    def rec(i: int, top: int):
        if i == m:
            yield tuple(labels)
            return
        for c in range(min(top + 1, t - 1) + 1):
            labels[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(0, -1)


def _count_growth_strings(m: int, t: int) -> int:
    # Stirling triangle capped at t classes: row[j] counts partitions into j classes
    row = [1] + [0] * t
    for _ in range(m):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, t + 1)]
    return sum(row)


def sup_cutnorm_over_partitions(
    obj: np.ndarray | StepKernel,
    t: int,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> float:
    """sup over symmetric partitions with at most t classes of the cut-P-norm.

    Exact mode enumerates atom partitions (restricted growth strings) and
    solves each cut-P problem exactly. Heuristic mode runs the sign-array
    energy reduction with the annealing optimizer.
    """
    if mode == "heuristic":
        from . import energy

        return energy.sup_cutnorm_via_energy(obj, t, restarts=restarts, seed=seed)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    atoms, tensor, _, _ = _problem(obj, None)
    m = len(atoms)
    n_parts = _count_growth_strings(m, t)
    check_budget("supremum over partitions", n_parts * (1 << ((tensor.ndim - 1) * m)))
    best = 0.0
    for labels in _growth_strings(m, t):
        tq = max(labels) + 1
        value, _, _ = _exact_cutp(tensor, np.asarray(labels), tq)
        best = max(best, value)
    return best


# ----------------------------------------------------------------------
# witnesses and helpers


def evaluate_witness(
    target: np.ndarray | StepKernel,
    witness: CutWitness,
    p: TuplePartition | GridPartition | None = None,
) -> float:
    """Recompute a witness's objective value from scratch."""
    atoms, tensor, classes, _ = _problem(target, p)
    if len(atoms) != len(witness.atoms):
        raise ValueError("witness atoms do not match the target problem")
    if classes is None and witness.classes is not None:
        classes = np.asarray(witness.classes)
    if classes is None:
        vecs = [_indicator(s, len(atoms)) for s in witness.sets]
        return abs(_full_value(tensor, vecs))
    tq = int(np.max(classes)) + 1
    onehot = (classes[:, None] == np.arange(tq)).astype(float)
    inner = _class_sums(tensor, onehot, witness.sets)
    return float(np.abs(inner).sum())


def random_symmetric_array(n: int, r: int, seed: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
    """A random symmetric r-array with entries in [lo, hi]."""
    return _symmetrize(generator(seed).uniform(lo, hi, size=(n,) * r))
