"""Induced-subgraph densities, sample distributions, and variation distance.

Densities follow the sampling convention used everywhere in this package:
a graph sample is a uniform q-subset of vertices relabeled in ascending
order, and a graphon sample draws one uniform coordinate per nonempty
subset of [q] of size < r. Graph densities are therefore probabilities
for the sorted-subset sampler, and graphon densities are exchangeable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Any, Iterable

import numpy as np

from .budget import BudgetError, check_budget
from .graphon import StepGraphon, VertexGraphon, subsets_card_lex
from .hypercore import ColoredHypergraph, IOTA, SampledColoredGraph, colex_subsets
from .seeds import generator

__all__ = [
    "SampleDistribution",
    "density_graph",
    "density_graphon",
    "density_mc",
    "sample_distribution",
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


@dataclass(frozen=True)
class SampleDistribution:
    """The law of a q-vertex sample: probability per labeled color pattern.

    Patterns are tuples of colors in colex edge order on [q]; the support
    enumerates every pattern over the palette (with the reserved color 0
    included only when the source can produce it).
    """

    q: int
    r: int
    k: int
    has_iota: bool
    probs: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < -1e-12 for p in self.probs.values()):
            raise ValueError("negative probability")

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
        probs = {}
        for key, p in payload["probs"].items():
            pattern = tuple(int(c) for c in key.split(",")) if key else ()
            probs[pattern] = float(p)
        return cls(payload["q"], payload["r"], payload["k"], payload["has_iota"], probs)


def all_patterns(q: int, r: int, k: int, with_iota: bool = False) -> list[tuple[int, ...]]:
    """Every color pattern on the C(q,r) edges of [q], colex edge order."""
    colors = range(0 if with_iota else 1, k + 1)
    return [tuple(p) for p in itertools.product(colors, repeat=comb(q, r))]


def _pattern_of(f: GraphLike) -> tuple[int, ...]:
    if isinstance(f, SampledColoredGraph):
        return tuple(f.colors)
    return tuple(f.color_of(e) for e in f.edges())


# ----------------------------------------------------------------------
# vectorized induced-color machinery


def _comb_table(n: int, r: int) -> np.ndarray:
    table = np.zeros((n + 1, r), dtype=np.int64)
    for v in range(n + 1):
        for i in range(r):
            table[v, i] = comb(v, i + 1)
    return table


def _induced_patterns(g: ColoredHypergraph, verts: np.ndarray) -> np.ndarray:
    """Color pattern per row of q vertex indices (may repeat -> reserved color).

    verts: (N, q) integer array. Returns (N, C(q,r)) colors, one column per
    colex edge of [q] evaluated at the row's vertices.
    """
    n, r, q = g.n, g.r, verts.shape[1]
    colors = np.asarray(
        [g.color_of(e) for e in colex_subsets(n, r)], dtype=np.int64
    )
    table = _comb_table(n, r)
    out = np.empty((verts.shape[0], comb(q, r)), dtype=np.int64)
    for col, edge in enumerate(colex_subsets(q, r)):
        sub = np.sort(verts[:, list(edge)], axis=1)
        distinct = np.all(np.diff(sub, axis=1) > 0, axis=1)
        ranks = sum(table[sub[:, i], i] for i in range(r))
        vals = np.where(distinct, colors[np.minimum(ranks, len(colors) - 1)], IOTA)
        out[:, col] = vals
    return out


def _edge_block_coords(q: int, r: int) -> tuple[list[tuple[int, ...]], list[list[tuple[int, ...]]]]:
    """Coordinate layout for q-vertex graphon samples.

    Returns the coordinate subsets (every nonempty T of [q] with |T| <= r-1,
    in (cardinality, lex) order) and, per colex edge, per deleted position,
    the coordinate indices forming that block of the type cube.
    """
    coords = list(subsets_card_lex(tuple(range(q)), r - 1))
    index = {T: i for i, T in enumerate(coords)}
    patterns = list(subsets_card_lex(tuple(range(r - 1)), r - 1))
    blocks_per_edge = []
    for edge in colex_subsets(q, r):
        blocks = []
        for v in edge:
            rest = tuple(u for u in edge if u != v)
            blocks.append(
                tuple(index[tuple(rest[i] for i in pat)] for pat in patterns)
            )
        blocks_per_edge.append(blocks)
    return coords, blocks_per_edge


def _step_edge_probs(
    w: StepGraphon, cells: np.ndarray, q: int, channel_order: list[int]
) -> list[np.ndarray]:
    """Per-edge color distributions given coordinate cells (N, ncoords)."""
    _, blocks_per_edge = _edge_block_coords(q, w.r)
    stack = np.stack([w.arrays[c] for c in channel_order])
    labels = w.partition.labels
    out = []
    for blocks in blocks_per_edge:
        classes = tuple(
            labels[tuple(cells[:, i] for i in blk)] for blk in blocks
        )
        out.append(stack[(slice(None),) + classes].T)
    return out


def _step_layout(w: StepGraphon, q: int) -> tuple[int, list[int]]:
    coords, _ = _edge_block_coords(q, w.r)
    return len(coords), sorted(w.arrays)


# ----------------------------------------------------------------------
# densities


def density_graph(f: GraphLike, g: ColoredHypergraph, budget: int | None = None) -> float:
    """Probability that a sorted q-vertex sample of g equals f exactly."""
    q = f.q if isinstance(f, SampledColoredGraph) else f.n
    if (f.r, f.k) != (g.r, g.k):
        raise ValueError("palettes must match")
    if q > g.n:
        raise ValueError(f"sample size {q} exceeds vertex count {g.n}")
    pattern = _pattern_of(f)
    if IOTA in pattern:
        return 0.0  # distinct vertices never induce the reserved color
    check_budget(
        "density_graph subset enumeration (use density_mc for an estimate)",
        comb(g.n, q),
        budget,
    )
    hits = sum(
        1
        for subset in itertools.combinations(range(g.n), q)
        if g.induced_colors(subset) == pattern
    )
    return hits / comb(g.n, q)


def density_graphon(
    f: GraphLike,
    w: GraphonLike,
    budget: int | None = None,
    mc_fallback: bool = False,
    trials: int = 10**5,
    seed: int = 0,
) -> float | tuple[float, float]:
    """Probability that a q-vertex sample of w equals f.

    Exact mode sums over all assignments of grid cells to the sample's
    coordinates. If that grid sweep exceeds the budget and ``mc_fallback``
    is set, returns a (estimate, standard_error) pair instead.
    """
    q = f.q if isinstance(f, SampledColoredGraph) else f.n
    if (f.r, f.k) != (w.r, w.k):
        raise ValueError("palettes must match")
    pattern = _pattern_of(f)
    if isinstance(w, VertexGraphon):
        needed = w.n**q
    else:
        ncoords, _ = _step_layout(w, q)
        needed = w.partition.resolution**ncoords
    try:
        check_budget("density_graphon grid summation", needed, budget)
    except BudgetError:
        if mc_fallback:
            return density_mc(f, w, trials=trials, seed=seed)
        raise

    if isinstance(w, VertexGraphon):
        verts = np.indices((w.n,) * q).reshape(q, -1).T
        induced = _induced_patterns(w.graph, verts)
        return float(np.mean(np.all(induced == np.asarray(pattern), axis=1)))

    if any(c not in w.arrays for c in pattern):
        return 0.0
    g = w.partition.resolution
    ncoords, channels = _step_layout(w, q)
    cells = np.indices((g,) * ncoords).reshape(ncoords, -1).T
    probs = _step_edge_probs(w, cells, q, channels)
    chan_idx = {c: i for i, c in enumerate(channels)}
    value = np.ones(len(cells))
    for col, color in enumerate(pattern):
        value = value * probs[col][:, chan_idx[color]]
    return float(value.mean())


def density_mc(
    f: GraphLike,
    source: ColoredHypergraph | GraphonLike,
    trials: int = 10**5,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo density estimate with its standard error.

    Coordinates (or vertex subsets) are sampled; the conditional match
    probability given the coordinates is averaged, which for graphs is the
    plain hit indicator.
    """
    q = f.q if isinstance(f, SampledColoredGraph) else f.n
    if (f.r, f.k) != (source.r, source.k):
        raise ValueError("palettes must match")
    pattern = np.asarray(_pattern_of(f))
    rng = generator(seed)

    if isinstance(source, ColoredHypergraph):
        if IOTA in pattern:
            return 0.0, 0.0
        keys = rng.random((trials, source.n)).argsort(axis=1)[:, :q]
        verts = np.sort(keys, axis=1)
        induced = _induced_patterns(source, verts)
        x = np.all(induced == pattern, axis=1).astype(float)
    elif isinstance(source, VertexGraphon):
        verts = rng.integers(0, source.n, size=(trials, q))
        induced = _induced_patterns(source.graph, verts)
        x = np.all(induced == pattern, axis=1).astype(float)
    else:
        if any(c not in source.arrays for c in _pattern_of(f)):
            return 0.0, 0.0
        g = source.partition.resolution
        ncoords, channels = _step_layout(source, q)
        cells = np.minimum((rng.random((trials, ncoords)) * g).astype(int), g - 1)
        probs = _step_edge_probs(source, cells, q, channels)
        chan_idx = {c: i for i, c in enumerate(channels)}
        x = np.ones(trials)
        for col, color in enumerate(_pattern_of(f)):
            x = x * probs[col][:, chan_idx[color]]
    estimate = float(x.mean())
    stderr = float(x.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
    return estimate, stderr


# ----------------------------------------------------------------------
# sample distributions


def sample_distribution(
    source: ColoredHypergraph | SampledColoredGraph | GraphonLike,
    q: int,
    budget: int | None = None,
) -> SampleDistribution:
    """The exact law mu(q, source) over labeled color patterns."""
    r, k = source.r, source.k
    n_edges = comb(q, r)

    if isinstance(source, (ColoredHypergraph, SampledColoredGraph)):
        has_iota = isinstance(source, SampledColoredGraph) and source.has_iota()
        support = (k + 1) ** n_edges if has_iota else k**n_edges
        check_budget("sample_distribution support", support, budget)
        check_budget("sample_distribution subset sweep", comb(source.n, q), budget)
        counts: dict[tuple[int, ...], int] = {}
        for subset in itertools.combinations(range(source.n), q):
            pattern = source.induced_colors(subset)
            counts[pattern] = counts.get(pattern, 0) + 1
        total = comb(source.n, q)
        probs = {p: 0.0 for p in all_patterns(q, r, k, with_iota=has_iota)}
        for pattern, c in counts.items():
            probs[pattern] = c / total
        return SampleDistribution(q, r, k, has_iota, probs)

    if isinstance(source, VertexGraphon):
        check_budget("sample_distribution support", (k + 1) ** n_edges, budget)
        check_budget("sample_distribution cell sweep", source.n**q, budget)
        verts = np.indices((source.n,) * q).reshape(q, -1).T
        induced = _induced_patterns(source.graph, verts)
        probs = {p: 0.0 for p in all_patterns(q, r, k, with_iota=True)}
        for row in induced:
            key = tuple(int(c) for c in row)
            probs[key] += 1.0
        total = float(source.n**q)
        return SampleDistribution(
            q, r, k, True, {p: v / total for p, v in probs.items()}
        )

    if not isinstance(source, StepGraphon):
        raise TypeError(f"unsupported sample source {type(source).__name__}")
    has_iota = source.has_iota
    palette = sorted(source.arrays)
    check_budget(
        "sample_distribution support", (k + 1 if has_iota else k) ** n_edges, budget
    )
    g = source.partition.resolution
    ncoords, channels = _step_layout(source, q)
    check_budget("sample_distribution grid summation", g**ncoords, budget)
    cells = np.indices((g,) * ncoords).reshape(ncoords, -1).T
    per_edge = _step_edge_probs(source, cells, q, channels)
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n_edges > len(letters):
        raise ValueError("too many edges to accumulate")
    expr = ",".join(f"n{letters[i]}" for i in range(n_edges)) + "->" + letters[:n_edges]
    tensor = (
        np.einsum(expr, *per_edge, optimize=True) / len(cells)
        if n_edges
        else np.array(1.0)
    )
    probs = {p: 0.0 for p in all_patterns(q, r, k, with_iota=has_iota)}
    for idx in itertools.product(range(len(channels)), repeat=n_edges):
        pattern = tuple(channels[i] for i in idx)
        probs[pattern] = float(tensor[idx])
    return SampleDistribution(q, r, k, has_iota, probs)


# ----------------------------------------------------------------------
# total variation


def _check_comparable(a: SampleDistribution, b: SampleDistribution) -> None:
    if (a.q, a.r, a.k, a.has_iota) != (b.q, b.r, b.k, b.has_iota):
        raise ValueError(
            "mismatched support conventions: "
            f"{(a.q, a.r, a.k, a.has_iota)} vs {(b.q, b.r, b.k, b.has_iota)}"
        )


def tv_forms(a: SampleDistribution, b: SampleDistribution) -> tuple[float, float]:
    """(half-sum form, best-event form) of the variation distance."""
    _check_comparable(a, b)
    keys = set(a.probs) | set(b.probs)
    diffs = [a.prob(key) - b.prob(key) for key in keys]
    half_sum = 0.5 * sum(abs(d) for d in diffs)
    max_event = sum(d for d in diffs if d > 0)
    return half_sum, max_event


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
    keys = sorted(set(a.probs) | set(b.probs))
    coupling = {}
    for key in keys:
        shared = min(a.prob(key), b.prob(key))
        if shared > 0:
            coupling[(key, key)] = shared
    surplus = [(key, a.prob(key) - b.prob(key)) for key in keys if a.prob(key) > b.prob(key)]
    deficit = [(key, b.prob(key) - a.prob(key)) for key in keys if b.prob(key) > a.prob(key)]
    i = j = 0
    surplus = [[key, amt] for key, amt in surplus]
    deficit = [[key, amt] for key, amt in deficit]
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


def counting_bound_check(
    u: StepGraphon, w: StepGraphon, q: int, budget: int | None = None
) -> dict[str, float]:
    """Verify density and variation bounds against the exact cut distance.

    Checks |t(F,u) - t(F,w)| <= C(q,r) * d for every pattern F and
    d_var <= k^{q^r} q^r / (2 r!) * d, reporting the worst slack.
    """
    from .cutnorm import cut_distance

    dist = cut_distance(u, w, mode="exact", budget=budget)
    mu_u = sample_distribution(u, q, budget=budget)
    mu_w = sample_distribution(w, q, budget=budget)
    per_pattern_bound = counting_constant(q, u.r) * dist
    worst_gap = 0.0
    violations = 0
    for key in set(mu_u.probs) | set(mu_w.probs):
        gap = abs(mu_u.prob(key) - mu_w.prob(key))
        worst_gap = max(worst_gap, gap)
        if gap > per_pattern_bound + 1e-9:
            violations += 1
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
