"""Grid-based colored graphons.

A colored r-graphon assigns to each point of the type space
[0,1]^{nonempty proper subsets of [r]} a probability vector over colors.
We work with the step-function subclass: a symmetric partition of the
(r-1)-type cube [0,1]^{2^{r-1}-1} into classes built from uniform grid
cells, plus one value array per color over class tuples. Finite colored
hypergraphs embed as vertex graphons (values decided by the singleton
coordinates alone, reserved color 0 on the diagonal part).

Coordinate conventions, fixed once for the whole package:

* axes of any type cube are the nonempty subsets of the ground set,
  ordered by (cardinality, lexicographic);
* grid cells are half-open intervals [a, b); the point 1.0 belongs to
  the last cell;
* sampling draws one uniform per coordinate in axis order, then one
  uniform per r-subset in colex order, decoded through the cumulative
  color distribution with colors ascending (0 first when present).

This module owns the sampling layout and the sample embedding for the
whole package. ``_edge_layout(q, r)`` is the one coordinate/block
layout of q-vertex samples: for each colex edge and deleted position,
the indices of the sample coordinates forming that block; its first
edge is the block structure of one type point, which
``class_tuple_weights`` contracts over. ``_sample_uniforms`` is the one
draw order, ``_grid_cells`` the one bulk coordinate-to-cell rule, and
``_block_classes`` maps coordinate cells through the layout to partition
classes by fancy indexing. ``colors_at`` is the one sampler: it decodes
every edge color at once by inverse CDF. ``sample_graphon``, the Monte
Carlo and exact densities and the lift pipeline all draw through these.
``embed_sample`` is the one embedding of a sample as a step graphon, and
``VertexGraphon.to_step`` is that embedding on a finer grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, lcm
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .budget import check_budget
from .hypercore import (
    IOTA,
    ColoredHypergraph,
    SampledColoredGraph,
    _permutations,
    colex_edges,
    induced_patterns,
)
from .seeds import derive_seed, generator

__all__ = [
    "GridPartition",
    "StepGraphon",
    "VertexGraphon",
    "evaluate",
    "embed",
    "embed_sample",
    "colors_at",
    "sample_graphon",
    "step_average",
    "common_refinement",
    "channel_differences",
    "class_tuple_weights",
    "orbit_partition",
    "l1_distance",
    "l2_distance",
    "color_mass",
    "random_grid_partition",
    "random_step_graphon",
    "constant_graphon",
    "step_graphon_to_json",
    "step_graphon_from_json",
    "sample_coordinates",
]

# cells per slab of the r = 3 class-tuple weight chain (``_pairwise_r3``)
_SLAB_CELLS = 10**6


def subsets_card_lex(ground: Sequence[int], max_size: int) -> tuple[tuple[int, ...], ...]:
    """Nonempty subsets of ``ground`` of size <= max_size, (card, lex) order."""
    ground = tuple(sorted(ground))
    out: list[tuple[int, ...]] = []
    for size in range(1, max_size + 1):
        out.extend(itertools.combinations(ground, size))
    return tuple(out)


@lru_cache(maxsize=None)
def _axis_subsets(r_minus_1: int) -> tuple[tuple[int, ...], ...]:
    return subsets_card_lex(range(r_minus_1), r_minus_1)


@lru_cache(maxsize=None)
def _axis_perms(r_minus_1: int) -> tuple[tuple[int, ...], ...]:
    """Axis permutations induced by permuting the ground set."""
    axes = _axis_subsets(r_minus_1)
    index = {s: i for i, s in enumerate(axes)}
    out = []
    for perm in _permutations(r_minus_1):
        out.append(tuple(index[tuple(sorted(perm[v] for v in s))] for s in axes))
    return tuple(out)


def _check_symmetric(stack: np.ndarray, names: Sequence[str]) -> None:
    """Reject r-arrays that are not symmetric under index permutations.

    ``stack`` holds one array per entry of ``names`` along its first axis.
    Each permutation first tries exact equality, which implies closeness
    for every finite or infinite entry; only when that fails does it make
    one elementwise ``np.isclose`` over all of them (the test
    ``np.allclose`` makes, atol 1e-9). The error names the first array
    that fails under any permutation. The identity permutation stays in,
    and a NaN fails exact equality, so NaN entries are rejected for every r.
    """
    ok = np.ones(len(stack), dtype=bool)
    for perm in _permutations(stack.ndim - 1):
        moved = stack.transpose(0, *(l + 1 for l in perm))
        if np.array_equal(moved, stack):
            continue
        close = np.isclose(moved, stack, atol=1e-9)
        ok &= close.reshape(len(stack), -1).all(axis=1)
    if not ok.all():
        raise ValueError(f"{names[int(np.argmin(ok))]} is not symmetric under index permutations")


def _symmetrize(arr: np.ndarray) -> np.ndarray:
    """Average an r-array over its index permutations (summed in permutation order)."""
    arr = np.asarray(arr, dtype=float)
    return sum(arr.transpose(perm) for perm in _permutations(arr.ndim)) / factorial(arr.ndim)


def _cell(x: float, g: int) -> int:
    if x < 0.0 or x > 1.0:
        raise ValueError(f"coordinate {x} outside [0, 1]")
    return min(int(x * g), g - 1)


@dataclass(frozen=True, eq=False)
class GridPartition:
    """Symmetric partition of the (r-1)-type cube into unions of grid cells.

    ``labels`` maps each cell of the uniform grid with ``resolution`` cells
    per axis to a class in ``range(t)``; the array must be invariant under
    every axis permutation induced by relabeling the ground set.
    """

    r_minus_1: int
    resolution: int
    labels: np.ndarray
    t: int
    allow_empty: bool = False

    def __post_init__(self) -> None:
        if self.r_minus_1 < 0:
            raise ValueError("r_minus_1 must be >= 0")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if self.t < 1:
            raise ValueError("class count t must be >= 1")
        labels = np.array(self.labels, dtype=np.int64)
        shape = (self.resolution,) * self.dim
        if labels.shape != shape:
            raise ValueError(f"labels shape {labels.shape} != {shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.t):
            raise ValueError("labels must lie in range(t)")
        if not self.allow_empty:
            present = np.unique(labels)
            if len(present) != self.t:
                raise ValueError("every class must be nonempty (or set allow_empty)")
        for ax in _axis_perms(self.r_minus_1):
            if not np.array_equal(labels.transpose(ax), labels):
                raise ValueError("labels are not symmetric under axis permutations")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return 2 ** self.r_minus_1 - 1

    @property
    def cell_count(self) -> int:
        return self.resolution ** self.dim

    @classmethod
    def trivial(cls, r_minus_1: int) -> "GridPartition":
        return cls(r_minus_1, 1, np.zeros((1,) * (2 ** r_minus_1 - 1), dtype=np.int64), 1)

    def class_volumes(self) -> np.ndarray:
        counts = np.bincount(self.labels.ravel(), minlength=self.t)
        return counts / self.cell_count

    def class_of_cell(self, cell: Sequence[int]) -> int:
        return int(self.labels[tuple(cell)])

    def class_of_point(self, point: Sequence[float]) -> int:
        if len(point) != self.dim:
            raise ValueError(f"point needs {self.dim} coordinates, got {len(point)}")
        return int(self.labels[tuple(_cell(x, self.resolution) for x in point)])

    def refined(self, factor: int) -> "GridPartition":
        """The same partition expressed on a grid ``factor`` times finer."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        if factor == 1:
            return self
        labels = self.labels
        for axis in range(self.dim):
            labels = np.repeat(labels, factor, axis=axis)
        return GridPartition(self.r_minus_1, self.resolution * factor, labels,
                             self.t, self.allow_empty)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridPartition):
            return NotImplemented
        return (self.r_minus_1 == other.r_minus_1
                and self.resolution == other.resolution
                and self.t == other.t
                and np.array_equal(self.labels, other.labels))


@lru_cache(maxsize=32)
def orbit_partition(r_minus_1: int, resolution: int) -> GridPartition:
    """The finest symmetric partition: one class per cell orbit (cached; labels are read-only)."""
    dim = 2 ** r_minus_1 - 1
    idx = np.arange(resolution ** dim).reshape((resolution,) * dim)
    _, labels = np.unique(_symmetrize_labels(idx, r_minus_1), return_inverse=True)
    labels = labels.reshape(idx.shape)
    return GridPartition(r_minus_1, resolution, labels, int(labels.max()) + 1)


def common_refinement(a: GridPartition, b: GridPartition) -> tuple[GridPartition, np.ndarray]:
    """Coarsest partition refining both, plus its parent classes.

    The second value is a (t, 2) intp array: row i holds the classes of
    ``a`` and ``b`` that new class i lies in, so ``pairs.T`` unzips them.
    """
    if a.r_minus_1 != b.r_minus_1:
        raise ValueError("partitions live on different type cubes")
    g = lcm(a.resolution, b.resolution)
    la = a.refined(g // a.resolution).labels
    lb = b.refined(g // b.resolution).labels
    codes = la * b.t + lb
    uniq, labels = np.unique(codes, return_inverse=True)
    part = GridPartition(a.r_minus_1, g, labels.reshape(la.shape), len(uniq))
    return part, np.stack(np.divmod(uniq, b.t), axis=1).astype(np.intp)


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """A k-colored (r, r-1)-step function.

    ``arrays`` maps each color to a value array over class tuples of the
    partition; color 0 is the optional reserved-diagonal channel, present
    on embedded graphs brought to step form. Channel arrays must be
    entrywise in [0, 1], symmetric under index permutations, and sum to 1
    at every class tuple.
    """

    r: int
    k: int
    partition: GridPartition
    arrays: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("uniformity r must be >= 1")
        if self.k < 1:
            raise ValueError("palette size k must be >= 1")
        if self.partition.r_minus_1 != self.r - 1:
            raise ValueError("partition dimensionality does not match r")
        keys = set(self.arrays)
        if not keys.issuperset(range(1, self.k + 1)) or not keys.issubset({0, *range(1, self.k + 1)}):
            raise ValueError(f"channels must be 1..{self.k} plus optional 0, got {sorted(keys)}")
        shape = (self.partition.t,) * self.r
        frozen: dict[int, np.ndarray] = {}
        for c in sorted(keys):
            arr = np.array(self.arrays[c], dtype=float)
            if arr.shape != shape:
                raise ValueError(f"channel {c} has shape {arr.shape}, expected {shape}")
            if arr.min() < -1e-12 or arr.max() > 1 + 1e-12:
                raise ValueError(f"channel {c} has entries outside [0, 1]")
            arr.flags.writeable = False
            frozen[c] = arr
        _check_symmetric(np.stack(list(frozen.values())), [f"channel {c}" for c in frozen])
        total = sum(frozen.values())
        if np.max(np.abs(total - 1.0)) > 1e-12:
            raise ValueError("channel arrays must sum to 1 at every class tuple")
        object.__setattr__(self, "arrays", frozen)

    @property
    def has_iota(self) -> bool:
        return 0 in self.arrays

    @property
    def channel_order(self) -> tuple[int, ...]:
        return tuple(sorted(self.arrays))

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """Running channel sums in channel order, channels first: the sampler's decode table.

        ``cumsum`` adds the channels one at a time, exactly as a running
        sum does, so a gather from this table equals the cumulative sum
        of the gathered channels, bit for bit.
        """
        acc = np.cumsum(np.stack([self.arrays[c] for c in self.channel_order]), axis=0)
        acc.flags.writeable = False
        return acc

    def channel(self, color: int) -> np.ndarray:
        return self.arrays[color]

    def classes_at(self, point: Sequence[float]) -> tuple[int, ...]:
        """Partition class of each of the r projected blocks of ``point``."""
        n_coords = 2 ** self.r - 2
        if len(point) not in (n_coords, n_coords + 1):
            raise ValueError(f"point needs {n_coords} coordinates (full-set axis optional)")
        for x in point[:n_coords]:
            if not 0.0 <= x < 1.0:
                raise ValueError(f"coordinate {x} outside [0, 1)")
        return tuple(
            self.partition.class_of_point([point[i] for i in block])
            for block in _edge_layout(self.r, self.r)[0]
        )

    def evaluate(self, alpha: int, point: Sequence[float]) -> float:
        if alpha not in self.arrays:
            if alpha == 0:
                self.classes_at(point)
                return 0.0
            raise ValueError(f"color {alpha} outside palette")
        return float(self.arrays[alpha][self.classes_at(point)])


@dataclass(frozen=True, eq=False)
class VertexGraphon:
    """The embedding of a finite colored hypergraph into the type space.

    Values depend only on the singleton coordinates: each picks a vertex
    cell of width 1/n, and the color is the graph's color of the resulting
    r-set, or the reserved color 0 when two cells coincide.
    """

    graph: ColoredHypergraph

    @property
    def r(self) -> int:
        return self.graph.r

    @property
    def k(self) -> int:
        return self.graph.k

    @property
    def n(self) -> int:
        return self.graph.n

    def _cells(self, point: Sequence[float]) -> tuple[int, ...]:
        n_coords = 2 ** self.r - 2
        if len(point) not in (n_coords, n_coords + 1):
            raise ValueError(f"point needs {n_coords} coordinates (full-set axis optional)")
        for x in point[:n_coords]:
            if not 0.0 <= x < 1.0:
                raise ValueError(f"coordinate {x} outside [0, 1)")
        return tuple(_cell(x, self.n) for x in point[: self.r])

    def color_at(self, point: Sequence[float]) -> int:
        cells = self._cells(point)
        if len(set(cells)) < self.r:
            return IOTA
        return self.graph.color_of(tuple(sorted(cells)))

    def evaluate(self, alpha: int, point: Sequence[float]) -> float:
        if alpha != IOTA and not 1 <= alpha <= self.k:
            raise ValueError(f"color {alpha} outside palette")
        return 1.0 if self.color_at(point) == alpha else 0.0

    def to_step(self, resolution: int | None = None) -> StepGraphon:
        """Express the embedding as a step graphon (r = 2 or 3 only).

        This is :func:`embed_sample` of the graph, its vertex cells
        refined onto a grid of ``resolution`` (a multiple of n, default
        n) cells per axis.
        """
        g = resolution if resolution is not None else self.n
        if g % self.n != 0:
            raise ValueError(f"resolution {g} is not a multiple of n={self.n}")
        return _embedding(self.graph, g // self.n)


def evaluate(w: StepGraphon | VertexGraphon, alpha: int, point: Sequence[float]) -> float:
    return w.evaluate(alpha, point)


def embed(g: ColoredHypergraph) -> VertexGraphon:
    return VertexGraphon(g)


def sample_coordinates(q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The coordinate subsets drawn when sampling q vertices: H([q], r-1)."""
    return subsets_card_lex(range(q), r - 1)


@lru_cache(maxsize=32)
def _edge_layout(q: int, r: int) -> np.ndarray:
    """The block layout of q-vertex samples, read-only, shape (C(q, r), r, 2^(r-1) - 1).

    Entry [e, l, j] is the index into ``sample_coordinates(q, r)`` of the
    j-th axis of the block that deletes position l from the e-th colex
    edge; ``_edge_layout(r, r)[0]`` is the block structure of one type
    point.
    """
    index = {s: i for i, s in enumerate(sample_coordinates(q, r))}
    layout = np.array(
        [[[index[s] for s in subsets_card_lex(e[:l] + e[l + 1:], r - 1)] for l in range(r)]
         for e in map(tuple, colex_edges(q, r).tolist())],
        dtype=np.intp,
    ).reshape(comb(q, r), r, 2 ** (r - 1) - 1)
    layout.flags.writeable = False
    return layout


def _block_classes(p: GridPartition, cells: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Partition class of each block, one array per deleted position.

    ``cells`` holds the grid cells of sample coordinates, shape
    (N, ncoords); ``blocks`` is a selection of :func:`_edge_layout`, shape
    (..., r, dim). Returns r arrays of shape (N, ...), read-only for r = 1.
    """
    if p.dim == 0:  # r = 1: one class, no coordinates to gather
        return (np.broadcast_to(p.labels, cells.shape[:1] + blocks.shape[:-2]),)
    return tuple(
        p.labels[tuple(cells[:, blocks[..., l, j]] for j in range(p.dim))]
        for l in range(blocks.shape[-2])
    )


def _grid_cells(coords: np.ndarray, g: int) -> np.ndarray:
    """The one bulk coordinate-to-cell rule: :func:`_cell` without the range check."""
    return np.minimum((np.asarray(coords) * g).astype(np.intp), g - 1)


def _sample_uniforms(rng: np.random.Generator, q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The one draw order of a q-vertex sample: ``colors_at``'s coords, then its edge uniforms."""
    return rng.random(len(sample_coordinates(q, r))), rng.random(comb(q, r))


def _inverse_cdf(acc: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The one inverse-CDF decode, per column of a cumulative table.

    ``acc`` holds the choices on axis 0. Each column takes the first
    choice whose cumulative value exceeds its uniform, else the last.
    """
    hit = np.asarray(uniforms) < acc
    return np.where(hit.any(axis=0), hit.argmax(axis=0), len(acc) - 1)


def colors_at(
    w: StepGraphon | VertexGraphon, q: int, coords: np.ndarray, edge_uniforms: np.ndarray
) -> tuple[int, ...]:
    """Edge colors of the q-vertex sample at given coordinates and edge uniforms.

    ``coords`` holds one uniform per ``sample_coordinates(q, w.r)`` entry,
    ``edge_uniforms`` one per colex r-subset of [q]. An edge takes the
    first channel, in channel order, whose cumulative probability at the
    edge's type point exceeds its uniform, and the last channel when none
    does. An embedded graph ignores the edge uniforms: its vertices fall
    into the cells of their singleton coordinates.
    """
    if isinstance(w, VertexGraphon):
        cells = _grid_cells(coords[:q], w.n)[None, :]
        return tuple(induced_patterns(w.graph, cells, colex_edges(q, w.r))[0].tolist())
    cells = _grid_cells(coords, w.partition.resolution)[None, :]
    classes = _block_classes(w.partition, cells, _edge_layout(q, w.r))
    acc = w._cumulative[(slice(None),) + classes][:, 0]
    return tuple(np.asarray(w.channel_order)[_inverse_cdf(acc, edge_uniforms)].tolist())


def sample_graphon(
    w: StepGraphon | VertexGraphon,
    q: int,
    seed: int,
    condition_no_iota: bool = False,
) -> SampledColoredGraph:
    """Draw the random q-vertex colored graph of a graphon.

    The uniforms come in the order of :func:`_sample_uniforms`; the edge
    uniform picks the color through the cumulative distribution at the
    projected type point (:func:`colors_at`). With ``condition_no_iota``
    (embedded graphs only) the whole draw repeats until no reserved color
    appears; the attempts count against the enumeration budget.
    """
    r = w.r
    if q < r:
        raise ValueError(f"sample size q={q} below uniformity r={r}")
    if condition_no_iota and not isinstance(w, VertexGraphon):
        raise ValueError("condition_no_iota applies to embedded graphs only")
    rng = generator(seed)
    for attempts in itertools.count(1):
        xs, ues = _sample_uniforms(rng, q, r)
        cells = tuple(_grid_cells(xs[:q], w.n).tolist()) if isinstance(w, VertexGraphon) else None
        if condition_no_iota and len(set(cells)) < q:
            check_budget(
                f"sample_graphon rejection (reserved color still present "
                f"after {attempts} attempts)",
                attempts + 1,
            )
            continue
        return SampledColoredGraph(q, r, w.k, colors_at(w, q, xs, ues),
                                   vertices=cells, coords=tuple(xs.tolist()))


def _embedding(sample: SampledColoredGraph | ColoredHypergraph, factor: int) -> StepGraphon:
    """Step embedding of a sample, each vertex cell split into ``factor`` grid cells."""
    q, r, k = sample.n, sample.r, sample.k
    edges = colex_edges(q, r)
    colors = np.asarray(sample.colors, dtype=np.int64)
    if r == 2:
        part = GridPartition(1, q, np.arange(q), q)
        # color of every ordered vertex pair; the diagonal keeps color 0
        color_of = np.zeros((q, q), dtype=np.int64)
        color_of[edges[:, 0], edges[:, 1]] = colors
        color_of[edges[:, 1], edges[:, 0]] = colors
    elif r == 3:
        # one class per unordered vertex pair, diagonal included, in
        # row-major order of (i <= j); the third axis is free
        i, j = np.triu_indices(q)
        pair_index = np.zeros((q, q), dtype=np.int64)
        pair_index[i, j] = pair_index[j, i] = np.arange(len(i))
        part = GridPartition(2, q, np.repeat(pair_index[:, :, None], q, axis=2), len(i))
        # an ordered triple (a, b, d) of distinct vertices lies at the class
        # tuple of its pairs (bd, ad, ab); unrealized tuples keep color 0
        color_of = np.zeros((len(i),) * 3, dtype=np.int64)
        for a, b, d in itertools.permutations(edges.T):
            color_of[pair_index[b, d], pair_index[a, d], pair_index[a, b]] = colors
    else:
        raise ValueError(f"sample embedding supports r in (2, 3), got r={r}")
    arrays = {c: (color_of == c).astype(float) for c in range(k + 1)}
    return StepGraphon(r, k, part.refined(factor), arrays)


def embed_sample(sample: SampledColoredGraph | ColoredHypergraph) -> StepGraphon:
    """Step-graphon embedding of a sample, reserved colors included.

    Vertex p owns the p-th cell of a q-resolution grid; for r = 3 the
    classes are the unordered vertex pairs, diagonal included, and class
    tuples no sample can realize carry reserved-color mass, so the
    channels still sum to one. Unlike the plain graph embedding this
    accepts reserved-color edges (collided graphon samples), which land
    in channel 0 alongside the diagonal.
    """
    return _embedding(sample, 1)


def _as_step(w: StepGraphon | VertexGraphon) -> StepGraphon:
    return w.to_step() if isinstance(w, VertexGraphon) else w


def _to_step_compatible(w: VertexGraphon, resolution: int) -> StepGraphon:
    if resolution % w.n == 0:
        return w.to_step(resolution)
    if w.n % resolution == 0:
        return w.to_step(w.n)
    raise ValueError(
        f"incompatible resolutions: vertex grid {w.n} vs partition grid {resolution}"
    )


def _contract_axes(tensor: np.ndarray, m: np.ndarray, r: int, m_axis: int) -> np.ndarray:
    out = tensor
    for axis in range(r):
        out = np.moveaxis(np.tensordot(m, out, axes=([m_axis], [axis])), 0, axis)
    return out


def step_average(w: StepGraphon | VertexGraphon, p: GridPartition) -> StepGraphon:
    """Average each color channel over the class products of ``p``.

    This is the conditional expectation onto p-measurable step functions,
    computed exactly; one grid resolution must divide the other. For
    r >= 3 the projected blocks share coordinates, so the averaging runs
    over the joint class-tuple measure, not per-axis volume fractions;
    class tuples of measure zero get the uniform color vector.
    """
    if isinstance(w, VertexGraphon):
        w = _to_step_compatible(w, p.resolution)
    if p.r_minus_1 != w.r - 1:
        raise ValueError("partition dimensionality does not match the graphon")
    gw, gp = w.partition.resolution, p.resolution
    if gw % gp != 0 and gp % gw != 0:
        raise ValueError(f"incompatible resolutions: {gw} vs {gp}")
    r = w.r
    arrays: dict[int, np.ndarray] = {}
    if r == 2:
        g = max(gw, gp)
        lw = w.partition.refined(g // gw).labels.ravel()
        lp = p.refined(g // gp).labels.ravel()
        counts = np.zeros((p.t, w.partition.t))
        np.add.at(counts, (lp, lw), 1.0)
        rows = counts.sum(axis=1, keepdims=True)
        m = np.divide(counts, rows, out=np.full_like(counts, 1.0 / w.partition.t),
                      where=rows > 0)
        for c, arr in w.arrays.items():
            arrays[c] = _contract_axes(arr, m, r, 1)
    else:
        part, pairs = common_refinement(p, w.partition)
        weights = class_tuple_weights(part)
        into_p, from_w = pairs.T
        proj = (into_p[:, None] == np.arange(p.t)).astype(float)
        denom = _contract_axes(weights, proj, r, 0)
        mask = denom > 0
        safe = np.where(mask, denom, 1.0)
        uniform = 1.0 / len(w.arrays)
        for c, arr in w.arrays.items():
            num = _contract_axes(arr[np.ix_(*([from_w] * r))] * weights, proj, r, 0)
            arrays[c] = np.clip(np.where(mask, num / safe, uniform), 0.0, 1.0)
    total = sum(arrays.values())
    if np.max(np.abs(total - 1.0)) > 1e-9:
        raise ValueError("averaging lost the partition of unity; inputs inconsistent")
    arrays = {c: arr / total for c, arr in arrays.items()}
    return StepGraphon(w.r, w.k, p, arrays)


def class_tuple_weights(p: GridPartition) -> np.ndarray:
    """Measure of each class tuple: weights[i1..ir] = vol{x : block_l(x) in P_{i_l}}.

    The r projected blocks share coordinates, so for r >= 3 this is not a
    product of class volumes; it is the exact contraction of per-block
    class histograms over the shared axes. Each block's top coordinate
    (its full (r-1)-subset, the last grid axis) belongs to that block
    alone, so every block sees the same histogram ``m``: the class counts
    along the last axis of each column, over g. The other 2^r - 2 - r
    coordinates are shared, and each averages over its g cells. For r = 3
    the contraction is an explicit pairwise chain whose g^2 t^2-cell
    intermediate is built in slabs (see ``_pairwise_r3``).
    """
    r, t = p.r_minus_1 + 1, p.t
    g = p.resolution if p.dim else 1
    columns = p.labels.reshape(-1, g)
    codes = np.arange(len(columns))[:, None] * t + columns
    m = np.bincount(codes.ravel(), minlength=len(columns) * t).reshape(
        p.labels.shape[:-1] + (t,)) / g
    if r == 1:
        return m
    if r == 2:  # both blocks are private: a product of class volumes
        return np.multiply.outer(m, m)
    if r == 3:
        return _pairwise_r3(m, m, m) / float(g) ** 3
    n_coords = 2 ** r - 2
    operands: list[Any] = []
    for l, block in enumerate(_edge_layout(r, r)[0].tolist()):
        operands += [m, block[:-1] + [n_coords + l]]
    out = np.einsum(*operands, list(range(n_coords, n_coords + r)), optimize=True)
    return out / float(g) ** (n_coords - r)


def _pairwise_r3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The r = 3 contraction ``bcg,ach,abi->ghi`` as an explicit pairwise chain.

    Contracting c first gives a (b, g, a, h) intermediate of g^2 t^2
    cells; the chain runs over slabs of b so that each slab holds at most
    ``_SLAB_CELLS`` cells (one b-row when a row is larger), and refuses
    through the budget when a single b-row (g t^2 cells) exceeds it. The
    slabs do not follow the budget, so neither the summation order nor
    the memory does.
    """
    g, t = x.shape[0], x.shape[2]
    row = g * t * t
    check_budget("class-tuple weights (r=3 pairwise intermediate)", row)
    step = max(1, _SLAB_CELLS // row)
    out = np.zeros((t,) * 3)
    for lo in range(0, g, step):
        b = slice(lo, lo + step)
        pair = np.tensordot(x[b], y, axes=([1], [1]))  # (b, g, a, h)
        out += np.tensordot(pair, z[:, b], axes=([2, 0], [0, 1]))
    return out


def channel_differences(u: StepGraphon, w: StepGraphon) -> tuple[GridPartition, dict[int, np.ndarray]]:
    """Per-channel differences ``u^c - w^c`` on the common refinement.

    The refinement is built once. Every channel either side carries is
    covered, in channel order; a channel one side lacks counts as 0 there.
    """
    if u.r != w.r:
        raise ValueError("uniformities differ")
    part, pairs = common_refinement(u.partition, w.partition)
    zero = np.zeros((part.t,) * u.r)

    def on_part(arr: np.ndarray | None, idx: np.ndarray) -> np.ndarray:
        return zero if arr is None else arr[np.ix_(*([idx] * u.r))]

    iu, iw = pairs.T
    return part, {c: on_part(u.arrays.get(c), iu) - on_part(w.arrays.get(c), iw)
                  for c in sorted(set(u.arrays) | set(w.arrays))}


def l1_distance(u: StepGraphon, w: StepGraphon) -> float:
    """Sum over colors of the L1 distance between channels, exact."""
    part, diffs = channel_differences(u, w)
    weights = class_tuple_weights(part)
    return sum(float(np.sum(np.abs(d) * weights)) for d in diffs.values())


def l2_distance(u: StepGraphon, w: StepGraphon) -> float:
    """Sum over colors of the squared L2 channel distances, square-rooted."""
    part, diffs = channel_differences(u, w)
    weights = class_tuple_weights(part)
    return sum(float(np.sum(d ** 2 * weights)) for d in diffs.values()) ** 0.5


def color_mass(w: StepGraphon) -> dict[int, float]:
    """Total measure each color receives: mass[c] = integral of channel c."""
    weights = class_tuple_weights(w.partition)
    return {c: float(np.sum(arr * weights)) for c, arr in w.arrays.items()}


def _symmetrize_labels(labels: np.ndarray, r_minus_1: int) -> np.ndarray:
    out = labels
    for ax in _axis_perms(r_minus_1):
        out = np.minimum(out, labels.transpose(ax))
    return out


def random_grid_partition(r_minus_1: int, resolution: int, t: int, seed: int) -> GridPartition:
    """A random symmetric grid partition with t classes (fewer if t is unreachable)."""
    rng = generator(seed)
    dim = 2 ** r_minus_1 - 1
    shape = (resolution,) * dim
    labels = None
    for _ in range(200):
        raw = rng.integers(0, t, size=shape)
        sym = _symmetrize_labels(raw, r_minus_1)
        if len(np.unique(sym)) == t:
            labels = sym
            break
    if labels is None:
        sym = _symmetrize_labels(rng.integers(0, t, size=shape), r_minus_1)
        _, labels = np.unique(sym, return_inverse=True)
        labels = labels.reshape(shape)
        t = int(labels.max()) + 1
    return GridPartition(r_minus_1, resolution, labels, t)


def random_step_graphon(
    r: int, k: int, t: int, resolution: int, seed: int, with_iota: bool = False
) -> StepGraphon:
    """A random step graphon: random symmetric partition, Dirichlet-like channels."""
    part = random_grid_partition(r - 1, resolution, t, derive_seed(seed, 0))
    rng = generator(derive_seed(seed, 1))
    channels = ([0] if with_iota else []) + list(range(1, k + 1))
    arrays = {c: _symmetrize(rng.random((part.t,) * r)) for c in channels}
    total = sum(arrays.values())
    arrays = {c: arr / total for c, arr in arrays.items()}
    return StepGraphon(r, k, part, arrays)


def constant_graphon(r: int, k: int, probs: Sequence[float]) -> StepGraphon:
    """The one-class step graphon with a fixed color distribution."""
    if len(probs) != k:
        raise ValueError(f"need {k} probabilities")
    part = GridPartition.trivial(r - 1)
    arrays = {c + 1: np.full((1,) * r, p) for c, p in enumerate(probs)}
    return StepGraphon(r, k, part, arrays)


def step_graphon_to_json(w: StepGraphon) -> dict[str, Any]:
    return {
        "r": w.r,
        "k": w.k,
        "t": w.partition.t,
        "resolution": w.partition.resolution,
        "labels": [int(x) for x in w.partition.labels.ravel()],
        "arrays": {str(c): [float(x) for x in arr.ravel()] for c, arr in w.arrays.items()},
    }


def step_graphon_from_json(d: Mapping[str, Any]) -> StepGraphon:
    required = {"r", "k", "t", "resolution", "labels", "arrays"}
    missing = required - set(d)
    if missing:
        raise ValueError(f"step graphon JSON missing fields: {sorted(missing)}")
    r, k, t, g = int(d["r"]), int(d["k"]), int(d["t"]), int(d["resolution"])
    dim = 2 ** (r - 1) - 1
    labels = np.array(d["labels"], dtype=np.int64).reshape((g,) * dim)
    part = GridPartition(r - 1, g, labels, t)
    arrays = {
        int(c): np.array(vals, dtype=float).reshape((t,) * r)
        for c, vals in d["arrays"].items()
    }
    return StepGraphon(r, k, part, arrays)
