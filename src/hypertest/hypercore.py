"""Colored r-uniform hypergraphs.

A k-colored r-graph on [n] assigns one of k colors to every r-subset of
the vertex set, so a simple graph is the k=2 case (edge / non-edge). Edge
colors are stored in colexicographic order of the r-subsets, which makes
array exports and JSON files portable across machines.

The reserved color value 0 (exposed as :data:`IOTA`) marks the diagonal
in sampled objects; finite hypergraphs never store it.

:func:`colex_ranks` is the one bulk "sorted tuple -> storage slot" rule,
a binomial-table gather: induced colors, adjacency arrays, relabelings
and cut-norm tensors go through it; ``color_of`` keeps the scalar rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, islice, permutations, product
from math import comb, prod
from operator import add
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .budget import check_budget
from .seeds import generator

__all__ = [
    "IOTA",
    "colex_rank",
    "colex_subsets",
    "colex_edges",
    "colex_ranks",
    "induced_patterns",
    "induced_sweep",
    "pattern_counts",
    "ColoredHypergraph",
    "SampledColoredGraph",
    "make_hypergraph",
    "composite_color",
    "split_color",
    "discolor",
    "enumerate_colorings",
    "sample_subgraphs",
    "sample_subgraph",
    "hypergraph_to_json",
    "hypergraph_from_json",
]

IOTA = 0

# q-subsets per chunk of an induced-color sweep: bounds its working set
_SWEEP_ROWS = 2048


def colex_rank(subset: Sequence[int]) -> int:
    """Colex rank of one strictly increasing 0-based subset (scalar rule).

    The position of ``subset`` among all ``len(subset)``-subsets of any
    ground set containing it, counting from 0.
    """
    return sum(comb(v, i + 1) for i, v in enumerate(subset))


def colex_subsets(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All r-subsets of ``range(n)`` in colexicographic order."""
    if r == 0:
        yield ()
        return
    for top in range(r - 1, n):
        for rest in colex_subsets(top, r - 1):
            yield rest + (top,)


@lru_cache(maxsize=None)
def _permutations(r: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of ``range(r)`` in ``itertools.permutations`` order."""
    return tuple(permutations(range(r)))


@lru_cache(maxsize=32)
def colex_edges(n: int, r: int) -> np.ndarray:
    """The r-subsets of ``range(n)`` as a read-only (C(n, r), r) array, colex order."""
    edges = np.array(list(colex_subsets(n, r)), dtype=np.intp).reshape(comb(n, r), r)
    edges.flags.writeable = False
    return edges


@lru_cache(maxsize=32)
def _comb_table(n: int, r: int) -> np.ndarray:
    """table[i, v] = C(v, i + 1): colex ranks as sums of table lookups."""
    table = np.array([[comb(v, i + 1) for v in range(n + 1)] for i in range(r)],
                     dtype=np.int64).reshape(r, n + 1)
    table.flags.writeable = False
    return table


def colex_ranks(subsets: np.ndarray, n: int) -> np.ndarray:
    """Colex ranks of the strictly increasing tuples along the last axis.

    ``subsets`` has shape (..., r) with entries in ``range(n)``; returns
    the int64 ranks, shape (...). An empty tuple (r = 0) has rank 0.
    """
    ranks = np.zeros(subsets.shape[:-1], dtype=np.int64)
    for i, binomials in enumerate(_comb_table(n, subsets.shape[-1])):
        ranks += binomials.take(subsets[..., i])
    return ranks


def _check_vertices(g, verts: np.ndarray) -> None:
    bad = verts[(verts < 0) | (verts >= g.n)]
    if bad.size:
        raise ValueError(f"vertex {int(bad[0])} outside range(0, {g.n})")


def induced_patterns(g: ColoredHypergraph, verts: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Colors of ``g`` on batches of vertex tuples, reserved where one repeats.

    ``verts`` holds N rows of q vertices of ``g`` (repeats allowed);
    ``edges`` selects position tuples into a row, shape (..., r), for
    example one row or all of ``colex_edges(q, r)``. Returns the colors
    of the vertex sets ``verts[:, edges]``, shape (N, ...), with the
    reserved color wherever a set has fewer than r distinct vertices.
    A vertex outside ``range(g.n)`` raises ``ValueError``.
    """
    _check_vertices(g, verts)
    sub = np.sort(verts[:, edges], axis=-1)
    distinct = np.all(np.diff(sub, axis=-1) > 0, axis=-1)
    colors = g.color_array
    return np.where(distinct, colors[np.minimum(colex_ranks(sub, g.n), len(colors) - 1)], IOTA)


def induced_sweep(g, q: int) -> Iterator[np.ndarray]:
    """Colors induced on every q-subset of ``g``'s vertices, chunk by chunk.

    One row per subset, in ``itertools.combinations`` order, colors in
    colex edge order on [q]. Chunks of at most ``_SWEEP_ROWS`` rows keep
    the working set independent of C(n, q).
    """
    edges = colex_edges(q, g.r)
    subsets = combinations(range(g.n), q)
    while chunk := list(islice(subsets, _SWEEP_ROWS)):
        verts = np.array(chunk, dtype=np.intp).reshape(len(chunk), q)
        yield g.color_array[colex_ranks(verts[:, edges], g.n)]


def pattern_counts(chunks: Iterable[np.ndarray]) -> Counter:
    """How often each row occurs, keyed by its color-pattern tuple."""
    return Counter(tuple(row) for rows in chunks for row in rows.tolist())


def _validate_colors(n: int, r: int, k: int, colors: tuple[int, ...], allow_iota: bool) -> None:
    if r < 1:
        raise ValueError(f"uniformity r must be >= 1, got {r}")
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    if k < 1:
        raise ValueError(f"palette size k must be >= 1, got {k}")
    expected = comb(n, r)
    if len(colors) != expected:
        raise ValueError(f"expected {expected} edge colors for n={n}, r={r}, got {len(colors)}")
    lo = IOTA if allow_iota else 1
    if min(colors) < lo or max(colors) > k:
        bad = next(c for c in colors if not lo <= c <= k)
        raise ValueError(f"edge color {bad} outside palette [{lo}..{k}]")


@dataclass(frozen=True)
class ColoredHypergraph:
    """A k-coloring of all r-subsets of [n].

    Attributes
    ----------
    n : int
        Vertex count.
    r : int
        Uniformity (edges are r-subsets).
    k : int
        Palette size; colors are 1..k.
    colors : tuple of int
        One color per r-subset, in colexicographic subset order.
    """

    n: int
    r: int
    k: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(map(int, self.colors)))
        _validate_colors(self.n, self.r, self.k, self.colors, allow_iota=False)

    def edges(self) -> Iterator[tuple[int, ...]]:
        """Edge subsets in storage (colex) order."""
        return colex_subsets(self.n, self.r)

    @cached_property
    def color_array(self) -> np.ndarray:
        """``colors`` as a read-only int64 array, built once per graph."""
        arr = np.array(self.colors, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    def color_of(self, edge: Sequence[int]) -> int:
        """Color of one r-subset (given as sorted 0-based vertices)."""
        edge = tuple(edge)
        if len(edge) != self.r or len(set(edge)) != self.r:
            raise ValueError(f"{edge} is not an r-subset for r={self.r}")
        if any(not (0 <= v < self.n) for v in edge):
            raise ValueError(f"{edge} has vertices outside range(0, {self.n})")
        if tuple(sorted(edge)) != edge:
            edge = tuple(sorted(edge))
        return self.colors[colex_rank(edge)]

    def color_counts(self) -> dict[int, int]:
        """Number of edges per color, including zero counts."""
        return dict(enumerate(_color_histogram(self)[1:].tolist(), start=1))

    def adjacency_array(self, alpha: int) -> np.ndarray:
        """Symmetric 0/1 indicator array of color class ``alpha``.

        The returned array has shape ``(n,) * r`` and is invariant under
        every coordinate permutation; entries with repeated indices are 0.
        """
        if not (1 <= alpha <= self.k):
            raise ValueError(f"color {alpha} outside palette [1..{self.k}]")
        a = np.zeros((self.n,) * self.r, dtype=np.float64)
        hit = colex_edges(self.n, self.r)[self.color_array == alpha]
        a[tuple(hit[:, _permutations(self.r)].T)] = 1.0
        return a

    def induced_colors(self, vertices: Sequence[int]) -> tuple[int, ...]:
        """Colors of the subgraph induced on ``vertices``, in colex edge order.

        ``vertices`` must be strictly increasing (so local colex order of
        position subsets matches global colex order of the image subsets)
        and lie in ``range(n)``; otherwise ``ValueError``.
        """
        verts = np.asarray(vertices, dtype=np.intp)
        if np.any(verts[1:] <= verts[:-1]):
            raise ValueError("vertices must be strictly increasing")
        _check_vertices(self, verts)
        ranks = colex_ranks(verts[colex_edges(len(verts), self.r)], self.n)
        return tuple([self.colors[i] for i in ranks.tolist()])

    def relabeled(self, perm: Sequence[int]) -> "ColoredHypergraph":
        """The same hypergraph with vertex ``v`` renamed to ``perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of range(n)")
        images = np.sort(np.asarray(perm, dtype=np.intp)[colex_edges(self.n, self.r)], axis=1)
        new = np.empty(len(self.colors), dtype=np.int64)
        new[colex_ranks(images, self.n)] = self.colors
        return ColoredHypergraph(self.n, self.r, self.k, tuple(new.tolist()))


@dataclass(frozen=True)
class SampledColoredGraph:
    """A colored r-graph on [q] produced by sampling.

    Unlike :class:`ColoredHypergraph`, the reserved diagonal color
    :data:`IOTA` (value 0) may appear, but only when the producing
    operation permits it (graphon samples with colliding coordinates).

    The provenance fields record how the sample was drawn and are
    excluded from equality: ``vertices`` holds the sorted source
    positions for subgraph samples (the vertex cells for samples of
    embedded graphs), ``coords`` the uniform coordinates of graphon
    samples as a flat tuple, one per nonempty subset of [q] of size
    below r in (cardinality, lexicographic) axis order.
    """

    q: int
    r: int
    k: int
    colors: tuple[int, ...]
    vertices: tuple[int, ...] | None = field(default=None, compare=False)
    coords: tuple[float, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(map(int, self.colors)))
        _validate_colors(self.q, self.r, self.k, self.colors, allow_iota=True)

    @property
    def n(self) -> int:
        return self.q

    edges = ColoredHypergraph.edges
    color_array = ColoredHypergraph.color_array
    color_of = ColoredHypergraph.color_of
    induced_colors = ColoredHypergraph.induced_colors

    def has_iota(self) -> bool:
        return IOTA in self.colors

    def without_provenance(self) -> "SampledColoredGraph":
        return SampledColoredGraph(self.q, self.r, self.k, self.colors)


def make_hypergraph(n: int, r: int, k: int, color_list: Sequence[int]) -> ColoredHypergraph:
    """Build a hypergraph from a color list in colex edge order.

    Raises ``ValueError`` if ``n < r``, the list length is not C(n, r),
    or a color falls outside [1..k].
    """
    return ColoredHypergraph(n, r, k, tuple(color_list))


def composite_color(alpha: int, beta: int, k: int) -> int:
    """Pairing convention for [t] x [k] palettes: (alpha, beta) -> (alpha-1)*k + beta."""
    return (alpha - 1) * k + beta


def split_color(c: int, k: int) -> tuple[int, int]:
    """Inverse of :func:`composite_color`; color 0 (iota) maps to (0, 0)."""
    if c == IOTA:
        return (IOTA, IOTA)
    return ((c - 1) // k + 1, (c - 1) % k + 1)


def discolor(g, k: int):
    """Merge a [t] x [k] palette back to [t] by forgetting the second index.

    Works on :class:`ColoredHypergraph` and :class:`SampledColoredGraph`
    (where the reserved color 0 stays 0). Raises ``ValueError`` unless
    ``g.k`` is a positive multiple of ``k``.
    """
    if k < 1 or g.k % k != 0:
        raise ValueError(f"palette size {g.k} is not divisible by k={k}")
    t = g.k // k
    new_colors = tuple(split_color(c, k)[0] for c in g.colors)
    if isinstance(g, SampledColoredGraph):
        return SampledColoredGraph(g.q, g.r, t, new_colors, vertices=g.vertices, coords=g.coords)
    return ColoredHypergraph(g.n, g.r, t, new_colors)


def _refinement_layout(g, k: int) -> tuple[tuple[int, ...], tuple[Sequence[int], ...]]:
    """Per-edge base offsets and subcolor ranges of the k-refinements of ``g``.

    A refined color is the edge's offset plus its subcolor, which is
    :func:`composite_color`: offset (alpha-1)*k with subcolors 1..k, or
    offset 0 with the single subcolor 0 on a reserved edge.
    """
    base = tuple(IOTA if c == IOTA else (c - 1) * k for c in g.colors)
    ranges = tuple((IOTA,) if c == IOTA else range(1, k + 1) for c in g.colors)
    return base, ranges


def _refined_with(g, base: Sequence[int], betas: Sequence[int], k: int):
    """The one refinement constructor: colors ``base[i] + betas[i]`` on every edge.

    ``base`` comes from :func:`_refinement_layout`; ``betas`` holds one
    subcolor per edge, 0 on the reserved ones.
    """
    colors = tuple(map(add, base, betas))
    if isinstance(g, SampledColoredGraph):
        return SampledColoredGraph(g.q, g.r, g.k * k, colors,
                                   vertices=g.vertices, coords=g.coords)
    return ColoredHypergraph(g.n, g.r, g.k * k, colors)


def enumerate_colorings(g, k: int):
    """Every [t] x [k]-coloring refining ``g``, in a fixed deterministic order.

    Yields the ``k ** m`` refinements over the m non-reserved edges of
    ``g`` (reserved edges stay reserved), subcolor tuples in row-major
    order over those edges in colex order. Raises :class:`BudgetError`
    when ``k ** m`` exceeds the budget; callers then switch to local
    search (``max_over_refinements``).
    """
    m = sum(1 for c in g.colors if c != IOTA)
    check_budget("refinement enumeration", k**m)
    base, ranges = _refinement_layout(g, k)
    for betas in product(*ranges):
        yield _refined_with(g, base, betas, k)


def _color_histogram(g) -> np.ndarray:
    """Edges per color of ``g``, shape (g.k + 1,); entry 0 counts the reserved color."""
    return np.bincount(g.color_array, minlength=g.k + 1)


def _color_histograms(colors: np.ndarray, k: int) -> np.ndarray:
    """Edges per color of each row of ``colors``, shape (N, k + 1); column 0 the reserved color.

    The batch form of :func:`_color_histogram`, which stays for one graph:
    there its plain bincount takes less than half the time.
    """
    rows = len(colors)
    shifted = colors + (k + 1) * np.arange(rows)[:, None]
    return np.bincount(shifted.ravel(), minlength=rows * (k + 1)).reshape(rows, k + 1)


@lru_cache(maxsize=256)
def _compositions(n: int, k: int) -> np.ndarray:
    """Every split of n into k ordered nonnegative parts, one per row (stars and bars)."""
    bars = np.array(list(combinations(range(n + k - 1), k - 1)),
                    dtype=np.int64).reshape(comb(n + k - 1, k - 1), k - 1)
    fenced = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, n + k - 1)))
    parts = np.diff(fenced, axis=1) - 1
    parts.flags.writeable = False
    return parts


def _refinement_splits(g, k: int) -> np.ndarray:
    """The color histograms of the k-refinements of ``g``, one row per split.

    A split gives each base color alpha of ``g`` k subcolor counts that
    sum to alpha's edge count; every refinement with the same histogram
    has the same split. Rows have shape (g.k * k + 1,) in refined colors
    (:func:`composite_color`), column 0 the reserved count. There are
    prod C(n_alpha + k - 1, k - 1) rows, in no promised order, and the
    budget checks that number as "refinement enumeration".
    """
    sizes = _color_histogram(g).tolist()
    check_budget("refinement enumeration", prod(comb(n + k - 1, k - 1) for n in sizes[1:]))
    parts = [_compositions(n, k) for n in sizes[1:]]
    pick = np.indices([len(p) for p in parts]).reshape(len(parts), -1)
    hists = np.empty((pick.shape[1], g.k * k + 1), dtype=np.int64)
    hists[:, 0] = sizes[0]
    for alpha, (p, rows) in enumerate(zip(parts, pick)):
        hists[:, 1 + alpha * k:1 + (alpha + 1) * k] = p[rows]
    return hists


def _first_subcolors(g, k: int, hists: np.ndarray) -> np.ndarray:
    """Per histogram row, the subcolors of its first refinement in enumeration order.

    In :func:`enumerate_colorings` order the first refinement with a
    given split gives each base color's edges, in colex order, their
    subcolors ascending: the first c_1 edges subcolor 1, the next c_2
    subcolor 2, and so on. Returns one row of subcolors per histogram
    row, 0 on reserved edges, ready for :func:`_refined_with`.
    """
    colors = g.color_array
    betas = np.zeros((len(hists), len(colors)), dtype=np.min_scalar_type(k))
    for alpha in range(1, g.k + 1):
        edges = np.flatnonzero(colors == alpha)
        ranks = np.arange(len(edges))
        sub = np.ones((len(hists), len(edges)), dtype=betas.dtype)
        # an edge of rank j has subcolor 1 + #{beta < k : j >= c_1 + ... + c_beta}
        for bound in np.cumsum(hists[:, 1 + (alpha - 1) * k:alpha * k], axis=1).T:
            sub += ranks >= bound[:, None]
        betas[:, edges] = sub
    return betas


def sample_subgraphs(g: ColoredHypergraph, q: int,
                     seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Induced subgraphs on uniform random q-subsets of the vertices, one per seed.

    Row i draws its vertices with ``generator(seeds[i]).choice(g.n, q,
    replace=False)``; the rows are then sorted and their colors gathered
    in one go. Returns the sorted vertex rows, shape (N, q), and the
    induced colors in colex edge order on [q], shape (N, C(q, r)). Same
    seeds, same rows, bit for bit. Raises ``ValueError`` if ``q > n`` or
    ``q < r``.
    """
    if q > g.n:
        raise ValueError(f"cannot sample q={q} vertices from n={g.n}")
    if q < g.r:
        raise ValueError(f"sample size q={q} below uniformity r={g.r}")
    verts = np.empty((len(seeds), q), dtype=np.intp)
    for row, seed in zip(verts, seeds):
        row[:] = generator(seed).choice(g.n, size=q, replace=False)
    verts.sort(axis=1)
    return verts, g.color_array[colex_ranks(verts[:, colex_edges(q, g.r)], g.n)]


def sample_subgraph(g: ColoredHypergraph, q: int, seed: int) -> SampledColoredGraph:
    """Induced subgraph on a uniform random q-subset of the vertices.

    The one-row case of :func:`sample_subgraphs`: the chosen vertices
    are sorted and relabeled to [q], and the sample records them in its
    ``vertices`` provenance field.
    """
    verts, colors = sample_subgraphs(g, q, (seed,))
    return SampledColoredGraph(q, g.r, g.k, colors[0].tolist(), vertices=tuple(verts[0].tolist()))


def hypergraph_to_json(g) -> dict[str, Any]:
    """JSON-ready dict in the interchange format {"n","r","k","colors"}."""
    return {"n": g.n, "r": g.r, "k": g.k, "colors": list(g.colors)}


def _json_int(value: Any, name: str) -> int:
    """The one strict integer reader of the JSON formats: a bool, float or string raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"field {name!r} needs an integer, got {value!r}")
    return int(value)


def hypergraph_from_json(d: Mapping[str, Any]) -> ColoredHypergraph:
    """Parse the interchange format, validating palette and length.

    Every field must hold JSON integers: a float such as 3.9 (or 3.0) is
    refused, never truncated.
    """
    missing = {"n", "r", "k", "colors"} - set(d)
    if missing:
        raise ValueError(f"hypergraph JSON missing fields: {sorted(missing)}")
    n, r, k = (_json_int(d[key], key) for key in ("n", "r", "k"))
    return make_hypergraph(n, r, k, [_json_int(c, "colors") for c in d["colors"]])
