from itertools import combinations, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.budget import BudgetError, limit
from hypertest.hypercore import (
    IOTA,
    ColoredHypergraph,
    SampledColoredGraph,
    colex_rank,
    colex_subsets,
    composite_color,
    discolor,
    enumerate_colorings,
    hypergraph_from_json,
    hypergraph_to_json,
    induced_patterns,
    induced_sweep,
    make_hypergraph,
    pattern_counts,
    sample_subgraph,
    sample_subgraphs,
)
from hypertest.seeds import generator


def reference_colex(n: int, r: int) -> list[tuple[int, ...]]:
    # independent oracle: colex order sorts subsets by reversed tuples
    return sorted(combinations(range(n), r), key=lambda s: tuple(reversed(s)))


def test_colex_subsets_matches_reference_order() -> None:
    for n in range(1, 8):
        for r in range(1, min(n, 4) + 1):
            assert list(colex_subsets(n, r)) == reference_colex(n, r)


def test_colex_rank_matches_position() -> None:
    for n, r in [(6, 2), (6, 3), (7, 4), (5, 1)]:
        for pos, sub in enumerate(reference_colex(n, r)):
            assert colex_rank(sub) == pos


def test_make_hypergraph_examples() -> None:
    tri = make_hypergraph(3, 2, 2, [1, 1, 1])
    assert tri.color_counts() == {1: 3, 2: 0}

    g = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
    # colex order of triples on [4]: (0,1,2), (0,1,3), (0,2,3), (1,2,3)
    assert g.color_of((0, 1, 2)) == 1
    assert g.color_of((0, 1, 3)) == 2
    assert g.color_of((0, 2, 3)) == 2
    assert g.color_of((1, 2, 3)) == 1
    assert sum(1 for e in g.edges() if g.color_of(e) == 1) == 2


def test_make_hypergraph_errors() -> None:
    with pytest.raises(ValueError):
        make_hypergraph(2, 3, 2, [1])  # n < r
    with pytest.raises(ValueError):
        make_hypergraph(3, 2, 2, [1, 1])  # wrong length
    with pytest.raises(ValueError):
        make_hypergraph(3, 2, 2, [1, 3, 1])  # color out of range
    with pytest.raises(ValueError):
        make_hypergraph(3, 2, 2, [0, 1, 1])  # iota not allowed here


def test_adjacency_array_symmetric_and_offdiagonal() -> None:
    g = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
    a = g.adjacency_array(1)
    assert a.shape == (4, 4, 4)
    assert a[0, 1, 2] == 1.0 and a[2, 0, 1] == 1.0 and a[1, 2, 0] == 1.0
    assert a[0, 1, 3] == 0.0
    assert a[0, 0, 2] == 0.0
    assert a.sum() == 2 * 6  # two color-1 triples, 3! orderings each


def test_discolor_pairing_convention() -> None:
    # t=1, k=2: colors {1,2} -> 1
    g = make_hypergraph(3, 2, 2, [1, 2, 1])
    assert discolor(g, 2).colors == (1, 1, 1)
    # t=2, k=2: {1,2} -> 1, {3,4} -> 2
    h = make_hypergraph(3, 2, 4, [1, 3, 4])
    assert discolor(h, 2).colors == (1, 2, 2)
    with pytest.raises(ValueError):
        discolor(make_hypergraph(3, 2, 3, [1, 2, 3]), 2)


def test_enumerate_coloring_counts() -> None:
    k2 = make_hypergraph(2, 2, 1, [1])
    assert sum(1 for _ in enumerate_colorings(k2, 2)) == 2
    k3 = make_hypergraph(3, 2, 1, [1] * 3)
    assert sum(1 for _ in enumerate_colorings(k3, 2)) == 8
    g43 = make_hypergraph(4, 3, 1, [1] * 4)
    assert sum(1 for _ in enumerate_colorings(g43, 3)) == 81


def test_enumerate_colorings_skips_reserved_edges() -> None:
    s = SampledColoredGraph(3, 2, 2, (0, 1, 2), vertices=(2, 5, 7))
    refined = list(enumerate_colorings(s, 2))
    # k ** m refinements over the m = 2 non-reserved edges, row-major order
    assert [r.colors for r in refined] == [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4)]
    assert all(isinstance(r, SampledColoredGraph) and r.k == 4 for r in refined)
    assert all(r.vertices == (2, 5, 7) and discolor(r, 2) == s for r in refined)
    with limit(3), pytest.raises(BudgetError, match="refinement enumeration"):
        list(enumerate_colorings(s, 2))


def per_edge_refinements(g, k: int) -> list[tuple[int, ...]]:
    # oracle: one composite_color call per edge, subcolors row-major over
    # the non-reserved edges
    m = sum(1 for c in g.colors if c != IOTA)
    out = []
    for betas in product(range(1, k + 1), repeat=m):
        it = iter(betas)
        out.append(tuple(c if c == IOTA else composite_color(c, next(it), k)
                         for c in g.colors))
    return out


@st.composite
def refinable_graphs(draw):
    # at most six non-reserved edges, so k ** m stays small for k <= 3
    n, r = draw(st.sampled_from([(1, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]))
    t = draw(st.integers(1, 3))
    edges = comb(n, r)
    if draw(st.booleans()) and edges <= 6:
        colors = draw(st.lists(st.integers(1, t), min_size=edges, max_size=edges))
        return ColoredHypergraph(n, r, t, tuple(colors))
    free = draw(st.sets(st.integers(0, edges - 1), max_size=6))
    colors = [draw(st.integers(1, t)) if i in free else IOTA for i in range(edges)]
    coords = draw(st.none() | st.just(tuple(np.linspace(0.1, 0.9, n).tolist())))
    return SampledColoredGraph(n, r, t, tuple(colors), vertices=tuple(range(1, 2 * n, 2)),
                               coords=coords)


@settings(max_examples=80, deadline=None)
@given(g=refinable_graphs(), k=st.sampled_from([1, 2, 3]))
def test_enumerate_colorings_matches_per_edge_oracle(g, k: int) -> None:
    refined = list(enumerate_colorings(g, k))
    assert [h.colors for h in refined] == per_edge_refinements(g, k)
    assert all(type(h) is type(g) and (h.n, h.r, h.k) == (g.n, g.r, g.k * k) for h in refined)
    if isinstance(g, SampledColoredGraph):
        assert all((h.vertices, h.coords) == (g.vertices, g.coords) for h in refined)
    assert all(discolor(h, k) == g for h in refined)


def test_enumerate_colorings_budget_refusal() -> None:
    g = make_hypergraph(4, 2, 1, [1] * 6)
    with limit(63), pytest.raises(BudgetError):
        list(enumerate_colorings(g, 2))


def test_discolor_roundtrip_exhaustive() -> None:
    # every k-refinement of a fixed 4-vertex 2-graph discolors back to it
    base = make_hypergraph(4, 2, 2, [1, 2, 2, 1, 1, 2])
    seen = set()
    for refined in enumerate_colorings(base, 2):
        assert refined.k == 4
        assert discolor(refined, 2).colors == base.colors
        seen.add(refined.colors)
    assert len(seen) == 2**6


def test_sample_full_size_is_identity() -> None:
    g = make_hypergraph(5, 2, 3, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
    s = sample_subgraph(g, 5, seed=11)
    assert s.colors == g.colors
    assert s.vertices == (0, 1, 2, 3, 4)


def test_sample_forced_single_edge() -> None:
    g = make_hypergraph(6, 3, 2, [2] * comb(6, 3))
    s = sample_subgraph(g, 3, seed=0)
    assert s.colors == (2,)


def test_sample_reproducible_and_color_multiset() -> None:
    g = make_hypergraph(7, 2, 2, [1 + (i % 2) for i in range(comb(7, 2))])
    a = sample_subgraph(g, 4, seed=123)
    b = sample_subgraph(g, 4, seed=123)
    c = sample_subgraph(g, 4, seed=124)
    assert a == b and a.vertices == b.vertices
    assert a != c or a.vertices != c.vertices
    full = sample_subgraph(g, 7, seed=5)
    assert sorted(full.colors) == sorted(g.colors)
    with pytest.raises(ValueError):
        sample_subgraph(g, 8, seed=0)


def test_induced_colors_against_direct_lookup() -> None:
    _check_induced_against_direct_lookup(3)


@pytest.mark.parametrize("r", [1, 2])
def test_induced_colors_against_direct_lookup_low_arity(r: int) -> None:
    _check_induced_against_direct_lookup(r)


def _check_induced_against_direct_lookup(r: int) -> None:
    g = make_hypergraph(6, r, 3, [1 + (i % 3) for i in range(comb(6, r))])
    verts = (1, 3, 4, 5)
    ind = g.induced_colors(verts)
    local = list(colex_subsets(4, r))
    assert len(ind) == len(local)
    for pos, loc in enumerate(local):
        assert ind[pos] == g.color_of(tuple(verts[i] for i in loc))


def test_out_of_range_vertices_raise() -> None:
    g = make_hypergraph(4, 2, 2, [1, 2, 1, 2, 1, 1])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    for bad in (4, -1):
        with pytest.raises(ValueError, match=f"vertex {bad} outside"):
            induced_patterns(g, np.array([[0, 1, bad]]), edges)
    with pytest.raises(ValueError, match="vertex 9 outside"):
        g.induced_colors((0, 1, 9))
    with pytest.raises(ValueError, match="strictly increasing"):
        g.induced_colors((0, 2, 1))


# ----------------------------------------------------------------------
# the bulk colex-rank paths against the scalar rules they replaced


def _random_colors(n: int, r: int, k: int, seed: int, low: int = 1) -> list[int]:
    return [int(c) for c in generator(seed).integers(low, k + 1, size=comb(n, r))]


def _scalar_induced(g, verts) -> tuple[int, ...]:
    """One colex_rank per local colex edge."""
    return tuple(g.colors[colex_rank(tuple(verts[i] for i in local))]
                 for local in colex_subsets(len(verts), g.r))


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), extra=st.integers(0, 4), k=st.integers(1, 3),
       seed=st.integers(0, 2**32), sampled=st.booleans())
def test_sweeps_match_scalar_rank_rule(r, extra, k, seed, sampled) -> None:
    n = r + extra
    colors = _random_colors(n, r, k, seed, low=0 if sampled else 1)
    g = SampledColoredGraph(n, r, k, colors) if sampled else make_hypergraph(n, r, k, colors)
    for q in range(n + 1):
        expected = [_scalar_induced(g, verts) for verts in combinations(range(n), q)]
        assert [g.induced_colors(verts) for verts in combinations(range(n), q)] == expected
        rows = [tuple(row) for chunk in induced_sweep(g, q) for row in chunk.tolist()]
        assert rows == expected
        counts: dict = {}
        for pattern in expected:
            counts[pattern] = counts.get(pattern, 0) + 1
        assert pattern_counts(induced_sweep(g, q)) == counts


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), extra=st.integers(0, 6), k=st.integers(1, 3),
       seed=st.integers(0, 2**32), data=st.data())
def test_batched_samples_match_one_draw_per_seed(r, extra, k, seed, data) -> None:
    n = r + extra
    g = make_hypergraph(n, r, k, _random_colors(n, r, k, seed))
    q = data.draw(st.integers(r, n))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=6))
    verts, colors = sample_subgraphs(g, q, seeds)
    assert verts.shape == (len(seeds), q) and colors.shape == (len(seeds), comb(q, r))
    for s, row, cols in zip(seeds, verts.tolist(), colors.tolist()):
        drawn = sorted(generator(s).choice(n, size=q, replace=False).tolist())
        one = sample_subgraph(g, q, s)
        assert tuple(row) == one.vertices == tuple(drawn)
        assert tuple(cols) == one.colors == _scalar_induced(g, drawn)


def test_sampler_refusals_keep_their_messages() -> None:
    g = make_hypergraph(5, 3, 2, [1] * comb(5, 3))
    for sample in (lambda q: sample_subgraphs(g, q, []), lambda q: sample_subgraph(g, q, 0)):
        with pytest.raises(ValueError, match=r"^cannot sample q=6 vertices from n=5$"):
            sample(6)
        with pytest.raises(ValueError, match=r"^sample size q=2 below uniformity r=3$"):
            sample(2)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), extra=st.integers(0, 4), k=st.integers(1, 3),
       seed=st.integers(0, 2**32))
def test_arrays_and_relabelings_match_scalar_rules(r, extra, k, seed) -> None:
    n = r + extra
    g = make_hypergraph(n, r, k, _random_colors(n, r, k, seed))
    for alpha in range(1, k + 1):
        expected = np.zeros((n,) * r)
        for edge in colex_subsets(n, r):
            if g.color_of(edge) == alpha:
                for perm in permutations(range(r)):
                    expected[tuple(edge[p] for p in perm)] = 1.0
        assert np.array_equal(g.adjacency_array(alpha), expected)
    perm = [int(v) for v in generator(seed + 1).permutation(n)]
    relabeled = [0] * comb(n, r)
    for edge in colex_subsets(n, r):
        relabeled[colex_rank(tuple(sorted(perm[v] for v in edge)))] = g.color_of(edge)
    assert g.relabeled(perm).colors == tuple(relabeled)


def test_sampled_graph_allows_iota_and_strips_provenance() -> None:
    s = SampledColoredGraph(3, 2, 2, (0, 1, 2), vertices=(0, 1, 2))
    assert s.has_iota()
    bare = s.without_provenance()
    assert bare == s and bare.vertices is None


@pytest.mark.parametrize("edge,reason", [
    ((0, 0), "not an r-subset"),
    ((2, 2), "not an r-subset"),
    ((1, 5), "outside range"),
    ((0, 1, 2), "not an r-subset"),
])
def test_sampled_graph_color_of_validates_its_edge(edge, reason) -> None:
    s = SampledColoredGraph(4, 2, 2, (1, 2, 1, 2, 1, 2))
    with pytest.raises(ValueError, match=reason) as err:
        s.color_of(edge)
    assert str(edge) in str(err.value)
    # a valid edge in either order reads the same colex slot as the hypergraph rule
    assert s.color_of((3, 1)) == s.color_of((1, 3)) == s.colors[colex_rank((1, 3))]
    assert list(s.edges()) == list(colex_subsets(4, 2))


@pytest.mark.parametrize("payload,field", [
    ({"n": 3.9, "r": 2, "k": 2, "colors": [1, 2, 1]}, "n"),
    ({"n": 3, "r": 2.0, "k": 2, "colors": [1, 2, 1]}, "r"),
    ({"n": 3, "r": 2, "k": True, "colors": [1, 2, 1]}, "k"),
    ({"n": 3, "r": 2, "k": 2, "colors": [1.7, 2, 1]}, "colors"),
    ({"n": 3, "r": 2, "k": 2, "colors": [1, False, 1]}, "colors"),
])
def test_json_reader_refuses_non_integers(payload, field) -> None:
    with pytest.raises(ValueError, match=f"field '{field}' needs an integer"):
        hypergraph_from_json(payload)


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=1, max_value=min(n, 3)),
        )
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_and_relabel_counts(nr, rnd) -> None:
    n, r = nr
    m = comb(n, r)
    colors = [rnd.randint(1, 3) for _ in range(m)]
    g = make_hypergraph(n, r, 3, colors)
    assert hypergraph_from_json(hypergraph_to_json(g)) == g
    perm = list(range(n))
    rnd.shuffle(perm)
    h = g.relabeled(perm)
    assert sorted(h.colors) == sorted(g.colors)
    # relabeling twice by inverse comes back
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    assert h.relabeled(inv) == g


def _loop_validated_colors(n, r, k, colors, allow_iota) -> tuple[int, ...]:
    """The color conversion and validation as one Python loop per color, the oracle."""
    colors = tuple(int(c) for c in colors)
    if r < 1:
        raise ValueError(f"uniformity r must be >= 1, got {r}")
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    if k < 1:
        raise ValueError(f"palette size k must be >= 1, got {k}")
    expected = comb(n, r)
    if len(colors) != expected:
        raise ValueError(f"expected {expected} edge colors for n={n}, r={r}, got {len(colors)}")
    lo = 0 if allow_iota else 1
    for c in colors:
        if not (lo <= c <= k):
            raise ValueError(f"edge color {c} outside palette [{lo}..{k}]")
    return colors


@st.composite
def color_inputs(draw):
    n, r, k = draw(st.integers(0, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    size = comb(n, r) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    colors = draw(st.lists(st.integers(-2, k + 2), min_size=max(size, 0), max_size=max(size, 0)))
    kind = draw(st.sampled_from(["list", "tuple", "int64", "uint8", "float"]))
    if kind == "tuple":
        colors = tuple(colors)
    elif kind == "int64":
        colors = np.array(colors, dtype=np.int64)
    elif kind == "uint8":
        colors = np.array([c % 256 for c in colors], dtype=np.uint8)
    elif kind == "float":
        colors = [c + 0.5 for c in colors]
    return n, r, k, colors


@settings(max_examples=300, deadline=None)
@given(color_inputs(), st.booleans())
def test_color_validation_matches_loop_rule(case, sampled) -> None:
    n, r, k, colors = case
    cls = SampledColoredGraph if sampled else ColoredHypergraph
    try:
        want = _loop_validated_colors(n, r, k, colors, allow_iota=sampled)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            cls(n, r, k, colors)
        assert str(got.value) == str(err)
    else:
        assert cls(n, r, k, colors).colors == want
