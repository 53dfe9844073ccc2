"""Induced-subgraph densities, sample distributions, and variation distance.

Densities follow the sampling convention used everywhere in this package:
a graph sample is a uniform q-subset of vertices relabeled in ascending
order, and a graphon sample draws one uniform coordinate per nonempty
subset of [q] of size < r. Graph densities are therefore probabilities
for the sorted-subset sampler, and graphon densities are exchangeable.

An exact q-sample law is one flat array in :func:`all_patterns` order;
two laws on one support (:func:`sample_laws`) compare over the aligned
arrays, and patterns are decoded only at the boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial
from typing import Any, Iterable

import numpy as np

from .budget import check_budget, check_power_budget
from .graphon import (
    StepGraphon,
    VertexGraphon,
    _block_classes,
    _edge_layout,
    _grid_cells,
    color_mass,
    sample_coordinates,
)
from .hypercore import (
    IOTA,
    ColoredHypergraph,
    SampledColoredGraph,
    colex_edges,
    induced_patterns,
    induced_sweep,
)
from .seeds import generator

__all__ = [
    "SampleDistribution",
    "density_graph",
    "density_graphon",
    "density_mc",
    "sample_distribution",
    "sample_laws",
    "tv_distance",
    "tv_forms",
    "greedy_coupling",
    "counting_bound_check",
    "counting_constant",
    "variation_constant",
    "all_patterns",
]

GraphLike = ColoredHypergraph | SampledColoredGraph
GraphonLike = StepGraphon | VertexGraphon


@dataclass(frozen=True, eq=False)
class SampleDistribution:
    """The law of a q-vertex sample: probability per labeled color pattern.

    ``law`` is one read-only array in :func:`all_patterns` order. Patterns
    are tuples of colors in colex edge order on [q], over the palette,
    with the reserved color 0 included only when the source can produce
    it (``has_iota``). The constructor checks the law once: its length is
    the support's size and its entries are finite, non-negative and sum
    to 1. ``probs``, ``prob`` and the JSON form decode it by pattern;
    compare two laws by ``law`` or ``probs``.
    """

    q: int
    r: int
    k: int
    has_iota: bool
    law: np.ndarray

    def __post_init__(self) -> None:
        law = np.array(self.law, dtype=float)
        size = (self.k + 1 if self.has_iota else self.k) ** comb(self.q, self.r)
        if law.shape != (size,):
            raise ValueError(f"law length {law.shape} does not fit the support of {size} patterns")
        if not np.isfinite(law).all():
            raise ValueError("law has a non-finite entry")
        total = law.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if law.min() < -1e-12:
            raise ValueError("negative probability")
        law.flags.writeable = False
        object.__setattr__(self, "law", law)

    @cached_property
    def probs(self) -> dict[tuple[int, ...], float]:
        patterns = all_patterns(self.q, self.r, self.k, with_iota=self.has_iota)
        return dict(zip(patterns, self.law.tolist()))

    def prob(self, pattern: tuple[int, ...]) -> float:
        return self.probs.get(tuple(pattern), 0.0)

    def to_json(self) -> dict[str, Any]:
        return {
            "q": self.q,
            "r": self.r,
            "k": self.k,
            "has_iota": self.has_iota,
            "probs": {",".join(map(str, key)): p for key, p in self.probs.items()},
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "SampleDistribution":
        q, r, k, has_iota = (payload[key] for key in ("q", "r", "k", "has_iota"))
        lo, n_edges = (IOTA if has_iota else 1), comb(q, r)
        check_power_budget("sample law support", k + 1 - lo, n_edges)
        size = (k + 1 - lo) ** n_edges
        law = np.zeros(size)
        for key, p in payload["probs"].items():
            pattern = [int(c) for c in key.split(",")] if key else []
            if len(pattern) != n_edges or not all(lo <= c <= k for c in pattern):
                raise ValueError(f"pattern key {key!r} is off the support (q={q}, r={r}, k={k})")
            law[_pattern_codes(np.array([pattern], dtype=np.int64), k, has_iota)] = float(p)
        return cls(q, r, k, has_iota, law)


def all_patterns(q: int, r: int, k: int, with_iota: bool = False) -> list[tuple[int, ...]]:
    """Every color pattern on the C(q,r) edges of [q], colex edge order."""
    colors = range(0 if with_iota else 1, k + 1)
    return [tuple(p) for p in itertools.product(colors, repeat=comb(q, r))]


# ----------------------------------------------------------------------
# vectorized induced-color machinery (one edge at a time, so the working
# set stays at one (N, ...) column however many edges a pattern has)


def _induced_columns(g: ColoredHypergraph, verts: np.ndarray) -> np.ndarray:
    """Color pattern per row of q vertex indices (may repeat -> reserved color).

    verts: (N, q) integer array. Returns (N, C(q,r)) colors, one column per
    colex edge of [q] evaluated at the row's vertices.
    """
    edges = colex_edges(verts.shape[1], g.r)
    out = np.empty((verts.shape[0], len(edges)), dtype=np.int64)
    for col, edge in enumerate(edges):
        out[:, col] = induced_patterns(g, verts, edge)
    return out


def _step_edge_probs(w: StepGraphon, cells: np.ndarray, q: int) -> list[np.ndarray]:
    """Per-edge color distributions (N, channels) given coordinate cells (N, ncoords)."""
    stack = np.stack([w.arrays[c] for c in w.channel_order])
    return [
        stack[(slice(None),) + _block_classes(w.partition, cells, blocks)].T
        for blocks in _edge_layout(q, w.r)
    ]


def _all_rows(w: GraphonLike, q: int, stage: str) -> np.ndarray:
    """Every vertex tuple (embedded graph) or sample-coordinate cell tuple (step graphon).

    The enumeration is budgeted under the name ``stage``.
    """
    if isinstance(w, VertexGraphon):
        side, width = w.n, q
    else:
        side, width = w.partition.resolution, len(sample_coordinates(q, w.r))
    check_power_budget(stage, side, width)
    return np.indices((side,) * width).reshape(width, side**width).T


def _match_probs(
    source: ColoredHypergraph | GraphonLike, rows: np.ndarray, q: int, pattern: tuple[int, ...]
) -> np.ndarray:
    """Probability, per row of vertices or cells, that the q-sample there shows ``pattern``.

    For graphs it is the match indicator, for step graphons the product of
    the edges' color probabilities, each gathered from its own channel only.
    """
    if not isinstance(source, StepGraphon):
        graph = source.graph if isinstance(source, VertexGraphon) else source
        return np.all(_induced_columns(graph, rows) == np.asarray(pattern), axis=1).astype(float)
    if any(c not in source.arrays for c in pattern):
        return np.zeros(len(rows))
    value = np.ones(len(rows))
    for blocks, color in zip(_edge_layout(q, source.r), pattern):
        value = value * source.arrays[color][_block_classes(source.partition, rows, blocks)]
    return value


_EINSUM_LABELS = 52  # numpy's einsum takes at most 52 distinct labels


def _mean_outer(per_edge: list[np.ndarray]) -> np.ndarray:
    """Mean over cells n of prod_e per_edge[e][n, x_e], flat in C order of (x_1..x_E).

    One einsum in integer-sublist form: edge e is label e, the cell axis
    the last label. Past numpy's label limit the edges so far are folded
    into one axis, keeping the cell axis until the last call.
    """
    cell = _EINSUM_LABELS - 1
    operands: list[Any] = []
    labels: list[int] = []
    for probs in per_edge:
        if len(labels) == cell:
            folded = np.einsum(*operands, [cell, *labels], optimize=True)
            operands, labels = [folded.reshape(len(folded), -1), [cell, 0]], [0]
        operands += [probs, [cell, len(labels)]]
        labels.append(len(labels))
    return (np.einsum(*operands, labels, optimize=True) / len(per_edge[0])).ravel()


def _pattern_codes(rows: np.ndarray, k: int, with_iota: bool) -> np.ndarray:
    """Each row's color pattern by its mixed-radix ``all_patterns`` index."""
    lo = IOTA if with_iota else 1
    return (rows - lo) @ ((k + 1 - lo) ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64))


def _code_counts(chunks: Iterable[np.ndarray], n_edges: int, k: int, with_iota: bool) -> np.ndarray:
    """How often each row's color pattern occurs, by its ``all_patterns`` index."""
    codes = np.concatenate([_pattern_codes(rows, k, with_iota) for rows in chunks])
    return np.bincount(codes, minlength=(k + 1 - (IOTA if with_iota else 1)) ** n_edges)


# ----------------------------------------------------------------------
# densities

# rows per block of a Monte-Carlo estimate: its temporaries stay in cache
# instead of being mapped fresh (and page-faulted) on every call
_MC_BLOCK = 8192


def density_graph(f: GraphLike, g: ColoredHypergraph) -> float:
    """Probability that a sorted q-vertex sample of g equals f exactly."""
    q = f.n
    if (f.r, f.k) != (g.r, g.k):
        raise ValueError("palettes must match")
    if q > g.n:
        raise ValueError(f"sample size {q} exceeds vertex count {g.n}")
    if IOTA in f.colors:
        return 0.0  # distinct vertices never induce the reserved color
    check_budget(
        "density_graph subset enumeration (use density_mc for an estimate)",
        comb(g.n, q),
    )
    pattern = np.asarray(f.colors)
    hits = sum(int(np.all(rows == pattern, axis=1).sum()) for rows in induced_sweep(g, q))
    return hits / comb(g.n, q)


def density_graphon(f: GraphLike, w: GraphonLike) -> float:
    """Probability that a q-vertex sample of w equals f.

    Exact: sums over all assignments of grid cells (or vertices) to the
    sample's coordinates, and raises :class:`BudgetError` when that sweep
    exceeds the budget. ``density_mc`` gives a Monte-Carlo estimate
    instead.
    """
    q = f.n
    if (f.r, f.k) != (w.r, w.k):
        raise ValueError("palettes must match")
    rows = _all_rows(w, q, "density_graphon grid summation")
    return float(_match_probs(w, rows, q, f.colors).mean())


def density_mc(
    f: GraphLike,
    source: ColoredHypergraph | GraphonLike,
    trials: int = 10**5,
    seed: int = 0,
) -> tuple[float, float | None]:
    """Monte-Carlo density estimate with its standard error.

    Coordinates (or vertex subsets) are sampled; the conditional match
    probability given the coordinates is averaged, which for graphs is the
    plain hit indicator. ``trials`` must be at least 1; the standard error
    of one trial is undefined and reads None.

    The draw is one call for all trials. The rows it gives (grid cells,
    vertex tuples, or a graph's sorted subsets) and their match
    probabilities are then made ``_MC_BLOCK`` rows at a time into one
    array, so the temporaries stay cache-sized; the mean and standard
    error run over that whole array, as they would unblocked.
    """
    q = f.n
    if (f.r, f.k) != (source.r, source.k):
        raise ValueError("palettes must match")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = generator(seed)

    if isinstance(source, ColoredHypergraph):
        if IOTA in f.colors:
            return 0.0, 0.0
        draws = rng.random((trials, source.n))
    elif isinstance(source, VertexGraphon):
        draws = rng.integers(0, source.n, size=(trials, q))
    else:
        if any(c not in source.arrays for c in f.colors):
            return 0.0, 0.0
        draws = rng.random((trials, len(sample_coordinates(q, source.r))))
    x = np.empty(trials)
    for start in range(0, trials, _MC_BLOCK):
        rows = draws[start:start + _MC_BLOCK]
        if isinstance(source, ColoredHypergraph):
            rows = np.sort(rows.argsort(axis=1)[:, :q], axis=1)
        elif isinstance(source, StepGraphon):
            rows = _grid_cells(rows, source.partition.resolution)
        x[start:start + len(rows)] = _match_probs(source, rows, q, f.colors)
    estimate = float(x.mean())
    stderr = float(x.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None
    return estimate, stderr


# ----------------------------------------------------------------------
# sample distributions


def sample_distribution(
    source: ColoredHypergraph | SampledColoredGraph | GraphonLike,
    q: int,
) -> SampleDistribution:
    """The exact law mu(q, source) over labeled color patterns.

    Every source gives one flat array of probabilities in
    :func:`all_patterns` order, which the law holds as it is. A step
    graphon's r-vertex sample has one edge, so its law at q = r is its
    color mass. Raises ``ValueError`` when q is negative
    or exceeds a graph's vertex count; at q = 0 every source has the one
    empty pattern, at probability 1.
    """
    if q < 0:
        raise ValueError(f"sample size q must be non-negative, got q={q}")
    r, k = source.r, source.k
    n_edges = comb(q, r)
    if isinstance(source, (ColoredHypergraph, SampledColoredGraph)):
        if q > source.n:
            raise ValueError(f"sample size {q} exceeds vertex count {source.n}")
        has_iota = isinstance(source, SampledColoredGraph) and source.has_iota()
    elif isinstance(source, (VertexGraphon, StepGraphon)):
        has_iota = isinstance(source, VertexGraphon) or source.has_iota
    else:
        raise TypeError(f"unsupported sample source {type(source).__name__}")
    check_power_budget("sample_distribution support", k + 1 if has_iota else k, n_edges)

    if isinstance(source, StepGraphon):
        # channel order is palette order: both forms are in all_patterns order
        if q == r:
            law = np.array(list(color_mass(source).values()))
        else:
            cells = _all_rows(source, q, "sample_distribution grid summation")
            law = _mean_outer(_step_edge_probs(source, cells, q)) if n_edges else np.ones(1)
    elif isinstance(source, VertexGraphon):
        verts = _all_rows(source, q, "sample_distribution cell sweep")
        counts = _code_counts([_induced_columns(source.graph, verts)], n_edges, k, True)
        law = counts / float(source.n**q)
    else:
        check_budget("sample_distribution subset sweep", comb(source.n, q))
        law = _code_counts(induced_sweep(source, q), n_edges, k, has_iota) / comb(source.n, q)
    return SampleDistribution(q, r, k, has_iota, law)


# ----------------------------------------------------------------------
# total variation


def sample_laws(
    a: ColoredHypergraph | SampledColoredGraph | GraphonLike,
    b: ColoredHypergraph | SampledColoredGraph | GraphonLike,
    q: int,
) -> tuple[SampleDistribution, SampleDistribution]:
    """Both exact q-sample laws, on one support.

    When only one source can produce the reserved color, the other law
    gains the reserved patterns at probability 0, so the two compare
    directly (:func:`tv_distance` itself rejects mismatched supports).
    """
    la = sample_distribution(a, q)
    lb = sample_distribution(b, q)
    if la.has_iota == lb.has_iota:
        return la, lb

    def padded(law: SampleDistribution) -> SampleDistribution:
        if law.has_iota:
            return law
        # the patterns free of color 0 are the block [1..k]^E of the padded [0..k]^E
        n_edges = comb(q, law.r)
        full = np.zeros((law.k + 1,) * n_edges)
        full[(slice(1, None),) * n_edges] = law.law.reshape((law.k,) * n_edges)
        return SampleDistribution(q, law.r, law.k, True, full.ravel())

    return padded(la), padded(lb)


def _check_comparable(a: SampleDistribution, b: SampleDistribution) -> None:
    if (a.q, a.r, a.k, a.has_iota) != (b.q, b.r, b.k, b.has_iota):
        raise ValueError(
            "mismatched support conventions: "
            f"{(a.q, a.r, a.k, a.has_iota)} vs {(b.q, b.r, b.k, b.has_iota)}"
        )


def tv_forms(a: SampleDistribution, b: SampleDistribution) -> tuple[float, float]:
    """(half-sum form, best-event form) of the variation distance."""
    _check_comparable(a, b)
    diffs = a.law - b.law
    return 0.5 * float(np.abs(diffs).sum()), float(diffs[diffs > 0].sum())


def tv_distance(a: SampleDistribution, b: SampleDistribution) -> float:
    half_sum, max_event = tv_forms(a, b)
    if abs(half_sum - max_event) > 1e-9:
        raise ValueError(
            f"variation distance forms disagree: half-sum {half_sum} vs best event "
            f"{max_event}; are both laws normalized?"
        )
    return half_sum


def greedy_coupling(
    a: SampleDistribution, b: SampleDistribution
) -> tuple[dict[tuple[tuple[int, ...], tuple[int, ...]], float], float]:
    """A maximal coupling: shared mass on the diagonal, residuals matched greedily.

    Returns the coupling table and its disagreement probability, which for
    this construction equals the variation distance.
    """
    _check_comparable(a, b)
    keys = list(a.probs)  # all_patterns order, which is sorted order
    shared, diffs = np.minimum(a.law, b.law), a.law - b.law
    coupling = {(keys[i], keys[i]): float(shared[i]) for i in np.flatnonzero(shared > 0)}
    surplus = [[keys[i], float(diffs[i])] for i in np.flatnonzero(diffs > 0)]
    deficit = [[keys[i], -float(diffs[i])] for i in np.flatnonzero(diffs < 0)]
    i = j = 0
    while i < len(surplus) and j < len(deficit):
        move = min(surplus[i][1], deficit[j][1])
        if move > 1e-15:
            coupling[(surplus[i][0], deficit[j][0])] = (
                coupling.get((surplus[i][0], deficit[j][0]), 0.0) + move
            )
        surplus[i][1] -= move
        deficit[j][1] -= move
        if surplus[i][1] <= 1e-15:
            i += 1
        if deficit[j][1] <= 1e-15:
            j += 1
    disagreement = sum(p for (x, y), p in coupling.items() if x != y)
    return coupling, disagreement


# ----------------------------------------------------------------------
# counting-lemma checks


def counting_constant(q: int, r: int) -> int:
    """Multiplier on the cut distance in the per-pattern density bound."""
    return comb(q, r)


def variation_constant(q: int, r: int, k: int) -> float:
    """Multiplier on the cut distance in the variation-distance bound."""
    return k ** (q**r) * q**r / (2 * factorial(r))


def counting_bound_check(u: StepGraphon, w: StepGraphon, q: int) -> dict[str, float]:
    """Verify density and variation bounds against the exact cut distance.

    Checks |t(F,u) - t(F,w)| <= C(q,r) * d for every pattern F and
    d_var <= k^{q^r} q^r / (2 r!) * d, reporting the worst slack.
    """
    from .cutnorm import cut_distance

    dist = cut_distance(u, w, mode="exact")
    mu_u, mu_w = sample_laws(u, w, q)
    per_pattern_bound = counting_constant(q, u.r) * dist
    gaps = np.abs(mu_u.law - mu_w.law)
    worst_gap = float(gaps.max())
    violations = int(np.count_nonzero(gaps > per_pattern_bound + 1e-9))
    tv = tv_distance(mu_u, mu_w)
    tv_bound = variation_constant(q, u.r, u.k) * dist
    if tv > tv_bound + 1e-9:
        violations += 1
    return {
        "cut_distance": dist,
        "worst_pattern_gap": worst_gap,
        "pattern_bound": per_pattern_bound,
        "worst_slack": per_pattern_bound - worst_gap,
        "tv": tv,
        "tv_bound": tv_bound,
        "violations": float(violations),
    }
