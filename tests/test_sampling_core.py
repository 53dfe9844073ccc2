"""Pinned outputs and scalar oracles for the sampling and embedding core.

The golden digests were recorded from the scalar per-edge implementations
that the array core in ``graphon`` replaced; every seeded sample,
embedding, sample law and lift artifact below must stay bit-identical.
The graph-source digests (subgraph samples, laws and densities of finite
graphs, adjacency arrays, relabelings) were recorded from the scalar
per-subset ``colex_rank`` rules that ``hypercore.colex_ranks`` replaced.
The property tests replay the sampling convention one edge at a time
(``class_of_point`` and a running cumulative sum) and evaluate embeddings
point by point.
"""

from __future__ import annotations

import hashlib
import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.density import (
    density_graph,
    density_graphon,
    density_mc,
    sample_distribution,
)
from hypertest.graphon import (
    StepGraphon,
    VertexGraphon,
    colors_at,
    constant_graphon,
    random_step_graphon,
    sample_coordinates,
    sample_graphon,
    step_graphon_to_json,
    subsets_card_lex,
)
from hypertest.hypercore import (
    IOTA,
    SampledColoredGraph,
    colex_subsets,
    make_hypergraph,
    sample_subgraph,
)
from hypertest.seeds import derive_seed, generator
from hypertest.testers import PropertyFn, witness_sample_density
from hypertest.transfer import (
    discolor_step,
    embed_sample,
    lift_coloring,
    nd_estimate_pipeline,
)


def _plain(node):
    """JSON-ready form; arrays become (dtype, shape, sha256 of their bytes)."""
    if isinstance(node, np.ndarray):
        arr = np.ascontiguousarray(node, dtype="<f8" if node.dtype.kind == "f" else "<i8")
        return [arr.dtype.str, list(arr.shape), hashlib.sha256(arr.tobytes()).hexdigest()]
    if isinstance(node, dict):
        return {str(k): _plain(v) for k, v in node.items() if k != "seconds"}
    if isinstance(node, (list, tuple)):
        return [_plain(v) for v in node]
    if isinstance(node, np.generic):
        return node.item()
    return node


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(_plain(payload), sort_keys=True).encode()).hexdigest()


def _random_graph(n: int, r: int, k: int, seed: int):
    rng = generator(seed)
    return make_hypergraph(n, r, k, [int(c) for c in rng.integers(1, k + 1, size=comb(n, r))])


def _sample_payload(s: SampledColoredGraph) -> dict:
    return {"colors": s.colors, "coords": s.coords, "vertices": s.vertices}


def _step_payload(w: StepGraphon) -> dict:
    return {"labels": w.partition.labels, "t": w.partition.t,
            "arrays": {c: w.arrays[c] for c in sorted(w.arrays)}}


# name -> (graphon, q, seed, condition_no_iota)
SAMPLE_CASES = {
    "step-r2": (lambda: random_step_graphon(2, 3, t=3, resolution=4, seed=11), 15, 101, False),
    "step-r2-q60": (lambda: random_step_graphon(2, 3, t=3, resolution=4, seed=11), 60, 108, False),
    "step-r2-iota": (lambda: random_step_graphon(2, 3, t=3, resolution=4, seed=12,
                                                 with_iota=True), 15, 102, False),
    "step-r3": (lambda: random_step_graphon(3, 2, t=3, resolution=3, seed=13), 8, 103, False),
    "step-r3-iota": (lambda: random_step_graphon(3, 2, t=3, resolution=3, seed=14,
                                                 with_iota=True), 8, 104, False),
    "vertex-r2": (lambda: VertexGraphon(_random_graph(7, 2, 3, 15)), 9, 105, False),
    "vertex-r3": (lambda: VertexGraphon(_random_graph(6, 3, 2, 16)), 7, 106, False),
    "vertex-r2-conditioned": (lambda: VertexGraphon(_random_graph(30, 2, 2, 17)), 5, 107, True),
}


def _sample_case(name: str) -> SampledColoredGraph:
    make, q, seed, conditioned = SAMPLE_CASES[name]
    return sample_graphon(make(), q, seed, condition_no_iota=conditioned)


GOLDEN_SAMPLES = {
    "step-r2":
        "1ccfcc3be1b32cf1cc60eef4ce3d5e9aa8000718fde30f305a2cb93fcf4426c7",
    "step-r2-iota":
        "cc54b4ab2a381090e2def41900c240e78a2659b25069b22399788a1de31df441",
    "step-r2-q60":
        "f4dba14d280e03fe793640c3152781711dfb98edbc60cc3748583366cd8cd448",
    "step-r3":
        "17c44da4348231649d4974febbf3cd8f071de41c9f6bac08f697f947a24ac2f5",
    "step-r3-iota":
        "70eb0e184cf249ae176edb4ba732ee529afa06946e810475b1131129135ad6fa",
    "vertex-r2":
        "3ec9d156e0fbb6843b9649018be0a0acf34a380371bb167ee233fd67af040a8d",
    "vertex-r2-conditioned":
        "81ccdfa4ef65ca107987854239a723bc12ed03a81c46f88c88bff71b293fa92d",
    "vertex-r3":
        "0ee99b81ab4ac52b1ab08578a150897f7f55fd800cd4a12808a1a61d49d06a15",
}

GOLDEN_EMBEDDINGS = {
    "step-r2":
        "cd66b0e4b58625daa6cf8cb840e5c19612766732d60b95ea8dc672287c1b469e",
    "step-r2-iota":
        "9b2b6b5f55e3c3bb6b11161d1ff74c40c7f99242baeca89a5fb05352b88ec5b9",
    "step-r2-q60":
        "71b6715ce63a9415f9bdc147ff101263c02f74968a2ee460946c6b9595a64667",
    "step-r3":
        "8bf289ca9c1be67a9fdadac9341642c73b5cbc49ff6f3b941ac828759124a815",
    "step-r3-iota":
        "a59df4683d471b1be5c04c5e2b2a3a513d54da233d03b9694cf09d4ee60effa7",
    "vertex-r2":
        "4f8bc24779f4f39ade3424eb469ce564ade33766b5df98cc808621207219da47",
    "vertex-r2-conditioned":
        "2325d61878e8e7d3567cbffeb9de95243536b92ee1675d478ebcfd923e074575",
    "vertex-r3":
        "0828c9ff0e1861ae856e4e0a5fb1cd52528a0efe870cbf965f3f14cfcb8ed5f8",
}

GOLDEN_TO_STEP = {
    "r2-n5-x1":
        "316485f0085f467924cb6e26ca16fa871534c8676888ba8529c64c40860bd9c2",
    "r2-n5-x2":
        "5d025f3268639d6b95248ace78746bdc74760da92a3615cd7d1326c67faa2038",
    "r3-n5-x1":
        "14affb1e0447cd17ff7400c6b50d7ce4bd328102e2260fb7fdd57f501df4c553",
    "r3-n4-x2":
        "aa9951c9b2d825eb43a3480c0bc1bc2b30f7eb1681e76ee6ad571e8df6648f4a",
}

GOLDEN_LAWS = {
    "law-step-r2":
        "22723dc888965535fcea32a4042a4485d4e421096e12ae414a50a575ee80a669",
    "law-step-r3":
        "fe3f0da1580da86aabb5d45c5b8feda3b2c25a3e6a2f833439afff8b9b50d50e",
    "law-vertex-r2":
        "ffd26a054d12aeb79215ceea92640ca9f855317bbdeac9cd6dd0b68841fcf741",
    "density-step-r2":
        "72dfa4922abf9e9c4183c52083b2e61da6f7cbc5eb6fc2cb20755ea62365cf9b",
    "density-step-r3":
        "c9f94028bab2c2d6522ec0a69ae93033228ef4a8daddd21aac508016dd8f104a",
    "mc-step-r2":
        "33f4e54888cb8f1bc5fb56cdf289821705c4f6c5955cca2017a63dc35873c77a",
    "mc-step-r3":
        "b915fabe306f91a1ee7b2520356b21a2cfdc60d96954838c929a2feef14868eb",
    "mc-vertex-r2":
        "c995fa5535617583b360f9c12d2008dc9a5f81023399133e25528610c15660e0",
    "mc-graph-r2":
        "8439999ae4951a6c1e656ea6091060f2407af2906212cfb60d76d66afde07c72",
}

# The lift diagnostics below were re-recorded when the L1 bound came to
# certify the lift's stage distances and identity regularizations: every
# stage record gained the mode behind its value, and the inner r = 3 lift
# no longer measures a final_tv. GOLDEN_LIFTED_COLORING, recorded before
# that change, pins that u_hat and final_tv held.
GOLDEN_LIFT = "6709ee92b34f3e7bbf5b8dbcccd4fad8da60a0ef1b870494f3f095d49532ea89"

# the r = 3 recursion, which GOLDEN_LIFT does not reach; GOLDEN_ESTIMATES
# also covers the rounding back onto a finite graph
GOLDEN_LIFT_R3 = "d1ea3196af8e90c58dc49b9658a6951a39b98d8dc9ffc3e1311a7f7f6c1f6fec"

# the GOLDEN_LIFT and GOLDEN_LIFT_R3 cases, u_hat and final_tv only
GOLDEN_LIFTED_COLORING = {
    "r2": "50c5f21527a75a8d184b1ec877af06d1dbfe099b82331b163713755891bfd35a",
    "r3": "4cc85935c9f39121f88774eb1872210908b71e53ef8c2b75ce107000f6c8c56e",
}

GOLDEN_ESTIMATES = {
    "q-eq-n": "6ffebea87ff2a4719d4706aa5875469adc4b6da8434bb47b47445de4e08add54",
    "q-lt-n": "0c458ebf65cfad4a43d78697a86976949de8e0b86f0008d907e2dcf5cd7b52be",
    "r3": "26a2e1ca01c33459e61d58fc292c64369ed5c5dd4401afd3f711699da8a1a1f8",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
def test_golden_samples(name: str) -> None:
    assert _digest(_sample_payload(_sample_case(name))) == GOLDEN_SAMPLES[name]


@pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
def test_golden_sample_embeddings(name: str) -> None:
    assert _digest(_step_payload(embed_sample(_sample_case(name)))) == GOLDEN_EMBEDDINGS[name]


@pytest.mark.parametrize("r,n,factor", [(2, 5, 1), (2, 5, 2), (3, 5, 1), (3, 4, 2)])
def test_golden_vertex_to_step(r: int, n: int, factor: int) -> None:
    step = VertexGraphon(_random_graph(n, r, 3, 20 + r)).to_step(n * factor)
    assert _digest(_step_payload(step)) == GOLDEN_TO_STEP[f"r{r}-n{n}-x{factor}"]


def _laws() -> dict:
    w2 = random_step_graphon(2, 2, t=3, resolution=3, seed=31, with_iota=True)
    w3 = random_step_graphon(3, 2, t=2, resolution=2, seed=32)
    v2 = VertexGraphon(_random_graph(5, 2, 2, 33))
    pattern2 = make_hypergraph(3, 2, 2, [1, 2, 1])
    pattern3 = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
    return {
        "law-step-r2": sample_distribution(w2, 3).probs,
        "law-step-r3": sample_distribution(w3, 4).probs,
        "law-vertex-r2": sample_distribution(v2, 3).probs,
        "density-step-r2": density_graphon(pattern2, w2),
        "density-step-r3": density_graphon(pattern3, w3),
        "mc-step-r2": density_mc(pattern2, w2, trials=3000, seed=34),
        "mc-step-r3": density_mc(pattern3, w3, trials=3000, seed=35),
        "mc-vertex-r2": density_mc(pattern2, v2, trials=3000, seed=36),
        "mc-graph-r2": density_mc(pattern2, v2.graph, trials=3000, seed=37),
    }


def test_golden_laws_and_densities() -> None:
    got = {name: _digest({"value": [[list(k), v] for k, v in sorted(val.items())]
                          if isinstance(val, dict) else val})
           for name, val in _laws().items()}
    assert got == GOLDEN_LAWS


# name -> (r, source resolution, q, delta, q0, seed)
LIFT_CASES = {"r2": (2, 4, 20, 0.1, 2, 4242), "r3": (3, 2, 6, 0.4, 3, 77)}


def _lift_case(name: str):
    r, resolution, q, delta, q0, seed = LIFT_CASES[name]
    u0 = random_step_graphon(r, 4, t=2, resolution=resolution, seed=41 if r == 2 else 11)
    sample = sample_graphon(u0, q, derive_seed(seed, 0))
    return lift_coloring(discolor_step(u0, 2), q, embed_sample(sample), delta, q0, seed)


def test_golden_lift_artifact() -> None:
    u_hat, diag = _lift_case("r2")
    payload = {"u_hat": step_graphon_to_json(u_hat), "diagnostics": diag}
    assert _digest(payload) == GOLDEN_LIFT


def test_golden_lift_artifact_r3() -> None:
    u_hat, diag = _lift_case("r3")
    payload = {"u_hat": step_graphon_to_json(u_hat), "diagnostics": diag}
    assert _digest(payload) == GOLDEN_LIFT_R3


@pytest.mark.parametrize("name", sorted(LIFT_CASES))
def test_golden_lifted_coloring(name: str) -> None:
    # the lifted coloring and its exact q0-sample distance alone, without
    # the measured diagnostics: how a measurement is obtained may change,
    # what the lift returns may not
    u_hat, diag = _lift_case(name)
    payload = {"u_hat": step_graphon_to_json(u_hat), "final_tv": diag["final_tv"]}
    assert _digest(payload) == GOLDEN_LIFTED_COLORING[name]


def _signed_score(h) -> float:
    return (sum(1 for c in h.colors if c == 1) - sum(1 for c in h.colors if c == 4)) / len(h.colors)


@pytest.mark.parametrize("name,n,r,q,seed", [
    ("q-eq-n", 6, 2, 6, 4), ("q-lt-n", 8, 2, 5, 11), ("r3", 5, 3, 5, 3),
])
def test_golden_estimates(name: str, n: int, r: int, q: int, seed: int) -> None:
    g = _random_graph(n, r, 2, n)
    rep = nd_estimate_pipeline(g, _signed_score, q, 2, seed=seed, k=2)
    assert _digest(rep) == GOLDEN_ESTIMATES[name]


def test_decode_boundaries() -> None:
    # cumulative sums 0.0, 0.7, 0.8999999999999999, 0.9999999999999999:
    # a zero-probability channel is never drawn, even at u = 0, and a
    # uniform at or above a total that rounds below 1 takes the last channel
    w = constant_graphon(2, 4, [0.0, 0.7, 0.2, 0.1])
    ues = np.array([0.0, 0.7, np.nextafter(1.0, 0.0)])
    assert colors_at(w, 3, np.full(3, 0.5), ues) == (2, 3, 4)


# ----------------------------------------------------------------------
# scalar oracles


def _scalar_step_sample(w: StepGraphon, q: int, seed: int) -> tuple[int, ...]:
    """Edge-by-edge replay: class_of_point per block, running cumulative sum."""
    r = w.r
    coords = sample_coordinates(q, r)
    index = {s: i for i, s in enumerate(coords)}
    rng = generator(seed)
    xs = rng.random(len(coords))
    ues = rng.random(comb(q, r))
    order = sorted(w.arrays)
    colors = []
    for e, u in zip(colex_subsets(q, r), ues):
        classes = []
        for v in e:
            rest = tuple(x for x in e if x != v)
            point = [xs[index[s]] for s in subsets_card_lex(rest, r - 1)]
            classes.append(w.partition.class_of_point(point))
        acc, chosen = 0.0, order[-1]
        for c in order:
            acc += w.arrays[c][tuple(classes)]
            if u < acc:
                chosen = c
                break
        colors.append(chosen)
    return tuple(colors)


def _scalar_vertex_sample(w: VertexGraphon, q: int, seed: int) -> tuple[int, ...]:
    rng = generator(seed)
    xs = rng.random(len(sample_coordinates(q, w.r)))
    cells = [int(x * w.n) for x in xs[:q]]
    colors = []
    for e in colex_subsets(q, w.r):
        image = sorted({cells[v] for v in e})
        colors.append(w.graph.color_of(image) if len(image) == w.r else IOTA)
    return tuple(colors)


@settings(deadline=None, max_examples=60)
@given(
    r=st.sampled_from([2, 3]),
    k=st.integers(1, 3),
    t=st.integers(1, 3),
    resolution=st.integers(1, 4),
    with_iota=st.booleans(),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_sampler_matches_scalar_replay(r, k, t, resolution, with_iota, extra, seed) -> None:
    w = random_step_graphon(r, k, t=t, resolution=resolution, seed=seed, with_iota=with_iota)
    q = r + extra
    assert sample_graphon(w, q, seed + 1).colors == _scalar_step_sample(w, q, seed + 1)


@settings(deadline=None, max_examples=40)
@given(
    r=st.sampled_from([2, 3]),
    k=st.integers(1, 3),
    n=st.integers(3, 6),
    extra=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_vertex_sampler_matches_scalar_replay(r, k, n, extra, seed) -> None:
    w = VertexGraphon(_random_graph(n, r, k, seed))
    q = r + extra
    assert sample_graphon(w, q, seed + 1).colors == _scalar_vertex_sample(w, q, seed + 1)


def _scalar_sample_color(sample: SampledColoredGraph, point) -> int:
    cells = [int(x * sample.q) for x in point[: sample.r]]
    if len(set(cells)) < sample.r:
        return IOTA
    return sample.color_of(sorted(cells))


@settings(deadline=None, max_examples=40)
@given(
    r=st.sampled_from([2, 3]),
    k=st.integers(1, 3),
    n=st.integers(3, 5),
    factor=st.integers(1, 2),
    seed=st.integers(0, 2**32),
)
def test_embeddings_match_pointwise_evaluation(r, k, n, factor, seed) -> None:
    g = _random_graph(n, r, k, seed)
    vg = VertexGraphon(g)
    by_graph = vg.to_step(n * factor)
    by_sample = embed_sample(SampledColoredGraph(n, r, k, g.colors))
    rng = generator(derive_seed(seed, 1))
    for x in rng.random((20, 2 ** r - 2)):
        for alpha in range(k + 1):
            expected = vg.evaluate(alpha, x)
            assert by_graph.evaluate(alpha, x) == expected
            assert by_sample.evaluate(alpha, x) == expected


@settings(deadline=None, max_examples=30)
@given(
    r=st.sampled_from([2, 3]),
    k=st.integers(1, 3),
    q=st.integers(3, 5),
    seed=st.integers(0, 2**32),
)
def test_reserved_color_embedding_matches_pointwise_rule(r, k, q, seed) -> None:
    rng = generator(seed)
    colors = tuple(int(c) for c in rng.integers(0, k + 1, size=comb(q, r)))
    sample = SampledColoredGraph(q, r, k, colors)
    emb = embed_sample(sample)
    for x in rng.random((20, 2 ** r - 2)):
        color = _scalar_sample_color(sample, x)
        for alpha in range(k + 1):
            assert emb.evaluate(alpha, x) == float(alpha == color)


# ----------------------------------------------------------------------
# graph-source outputs: samples, laws, densities, arrays, relabelings


def _majority(h) -> bool:
    return 2 * sum(1 for c in h.colors if c == 1) >= len(h.colors)


def _no_monochrome_pair(h) -> bool:
    return len(set(h.colors[:2])) > 1


WITNESS = {r: PropertyFn(f"golden-majority-r{r}", r, 3, _majority,
                         sample_member=_no_monochrome_pair if r == 2 else None)
           for r in (1, 2, 3)}


def _graph_outputs() -> dict:
    out: dict = {}
    for r, n, qs in ((2, 40, (2, 5, 12, 30)), (3, 14, (3, 6, 10))):
        g = _random_graph(n, r, 3, 200 + r)
        for q in qs:
            for seed in (0, 1, 2):
                s = sample_subgraph(g, q, seed)
                out[f"subgraph-r{r}-q{q}-s{seed}"] = {"colors": s.colors, "vertices": s.vertices}
    iota2 = SampledColoredGraph(6, 2, 2, tuple(int(c) for c in
                                              generator(210).integers(0, 3, size=15)))
    iota3 = SampledColoredGraph(5, 3, 2, tuple(int(c) for c in
                                              generator(211).integers(0, 3, size=10)))
    laws = {
        "graph-r1": (_random_graph(5, 1, 3, 212), 2),
        "graph-r2": (_random_graph(7, 2, 2, 213), 3),
        "graph-r3": (_random_graph(6, 3, 2, 214), 4),
        "sampled-iota-r2": (iota2, 3),
        "sampled-iota-r3": (iota3, 4),
    }
    for name, (source, q) in laws.items():
        out[f"law-{name}"] = [[list(key), p] for key, p in
                              sample_distribution(source, q).probs.items()]
    for r, n, q in ((1, 6, 3), (2, 8, 4), (2, 9, 6), (3, 7, 4)):
        g = _random_graph(n, r, 3, 220 + n)
        patterns = [sample_subgraph(g, q, seed) for seed in range(4)]
        patterns.append(_random_graph(q, r, 3, 230 + n))
        patterns.append(SampledColoredGraph(q, r, 3, (0,) + patterns[0].colors[1:]))
        out[f"density-r{r}-n{n}-q{q}"] = [density_graph(f, g) for f in patterns]
        out[f"witness-r{r}-n{n}"] = [witness_sample_density(WITNESS[r], g, qq)
                                     for qq in range(r, n + 1)]
    for r, n in ((1, 5), (2, 6), (3, 6)):
        g = _random_graph(n, r, 3, 240 + r)
        perm = [int(v) for v in generator(250 + r).permutation(n)]
        out[f"adjacency-r{r}"] = [g.adjacency_array(alpha) for alpha in (1, 2, 3)]
        out[f"relabeled-r{r}"] = g.relabeled(perm).colors
    return out


GOLDEN_GRAPH_SOURCES = {
    "adjacency-r1":
        "ad5b95e834084c651da74984ca2a7c03ea3d93e45ca5702e2cb64b6286544453",
    "adjacency-r2":
        "19e44ce0193ab6f25e111bd9bd12aa2537bb834a8de6559d118a475fddbf5ce1",
    "adjacency-r3":
        "f3e77b10cb3d85c8660305684205c73789e8a664806dd51e5ef96d9cd027dd38",
    "density-r1-n6-q3":
        "af049b2d66a190f9b575b8f03debdfc5c1c911476a37cb1aa23b882ca417eddc",
    "density-r2-n8-q4":
        "edc46aca63bb624db2a4e231e60527237b7867d6173ac943b761b4828e34bfa4",
    "density-r2-n9-q6":
        "91a060670c0ccad82af94e86080af1fc76571f9554eb463eed5b267a3d88b960",
    "density-r3-n7-q4":
        "85263411181ce39f288d6550da22d2a6429faf15112bd183803ecd64384e7d00",
    "law-graph-r1":
        "e8cc21251309becdf1a39af949c1625e95feb8dd4f14b8a05575a4b0a8af98cc",
    "law-graph-r2":
        "41d778629bd5d2bf744c40ec40829a752793889dab80a6649094f69f62ca7c35",
    "law-graph-r3":
        "507bd6c23cb1ccc84e9724966f6541fcf2ce6c75ba37b83a23396110177f4349",
    "law-sampled-iota-r2":
        "8453672ebbc506e7ed73fd7294719d760a0f1cf93930e7184df9cc3dbc93ee4a",
    "law-sampled-iota-r3":
        "31cd62b446d53ef0969eb3428b1cb335374d9f30e4588eb2baa9325e1abf654d",
    "relabeled-r1":
        "0dfe1ffd61cf9d57007a302d295eef443be0a2251b8c6de3484d6dda312c8ae5",
    "relabeled-r2":
        "1f74898a1107a0caf5ad93ec82f88a374fe300b035260e4d4a925bfd0917a925",
    "relabeled-r3":
        "93b7ac6d21c6e4887b918f89ef1d26d5d499fd752449e83503d16ccc715a0387",
    "subgraph-r2-q12-s0":
        "003e130e47bfd6eafa6a2494cedf4a3f610a1da3465a3d7202517c1465ee80ce",
    "subgraph-r2-q12-s1":
        "9dd64de0109bfea4b7a70074438e909f5d8fce067647c88e624d8b5b1b1829a5",
    "subgraph-r2-q12-s2":
        "d996ddfecc4b211910d20a19ddc25c0651973434637219ec711c2dc802c9889e",
    "subgraph-r2-q2-s0":
        "9bb5c454307123d381d94ca2e0f6dc9ca7cb4f6e34a831a4a62591e25614f437",
    "subgraph-r2-q2-s1":
        "edc0ab7833040b2b444eecd3a0a82b4c55d5d45d8fe9cbc3d4e8702dd59e0602",
    "subgraph-r2-q2-s2":
        "d2b918dc9bdd8748ddeaac536346a05ca4cb4b79a3d9344688bd3064c7acabad",
    "subgraph-r2-q30-s0":
        "beedaa0c7ae8723333e22eed31f7c73516fd2c62583e77b5a492efaf2240b549",
    "subgraph-r2-q30-s1":
        "66a2178da7572059c7d404c9582f8b3d86751c9cfca141fb50ff1542a4ea3353",
    "subgraph-r2-q30-s2":
        "13a347d12586bb58b8b74db03ebcd48ff53952c0241f942284147ff925d90493",
    "subgraph-r2-q5-s0":
        "09012878133a9e91929766086792cd6810478a9ddcd2960e92016ce9aff0a183",
    "subgraph-r2-q5-s1":
        "7d243a7f2e2edc186912e0c745de61b530e41273d60da2d29fd20061929e5bd7",
    "subgraph-r2-q5-s2":
        "61c3f62ec2d7d2f838e7033893a12dc60d8ae4d1e2ca41574e71960aa991c952",
    "subgraph-r3-q10-s0":
        "7a555e9822b63d5b8e4b09fc2b955ea6c504dfc37bb3dfafe999f330312e4dcb",
    "subgraph-r3-q10-s1":
        "7e62217c7a2a8543a7df243b8c2f5d2fb12270e22363a009c50e2db3312cad08",
    "subgraph-r3-q10-s2":
        "3b29c2a3cdd45cda55479672bfc0c425f039fcd6567e1c731385df273325530a",
    "subgraph-r3-q3-s0":
        "9a2ac5665c130b554c42a169abb1431d74efbb857b51d25be130ba888ce1d8af",
    "subgraph-r3-q3-s1":
        "7dbc95426be35110f37e92f281b9bc92b410117f833a88361ed96b8efb501845",
    "subgraph-r3-q3-s2":
        "19273bd96f02307ec5dae8f2a12f4c375425e17ce4032c8cfae01fbb3e73d424",
    "subgraph-r3-q6-s0":
        "f28f94e0f8e4213fcf5403d249f689c6b231fe4722af3fd0ecbffaaa3fafaeb6",
    "subgraph-r3-q6-s1":
        "634a7dfed10f01a1cbf597f4e280967620adab7cd3652e71554a424747c2f6cd",
    "subgraph-r3-q6-s2":
        "1369b1f8dda8fcecbfe47a8f34c0529a53584475c615eb8a03eeae46c476d4f7",
    "witness-r1-n6":
        "1c80cfeafa86e2a729d37f88f6099d649fa3077f08ad69edce85d5098c39e4d0",
    "witness-r2-n8":
        "317e42c25d02fd18e7dc6c08dfc1e66b6395d1f2f57cc11f0e10dd99eb2de728",
    "witness-r2-n9":
        "7fc2f7067347575396ecac72a8e466ee13b40948ce69e34fd0ba689493bad489",
    "witness-r3-n7":
        "3f4ff560869e345d3ae342f69cc52dad7077a92cd235d6333e110736e922b613",
}


def test_golden_graph_sources() -> None:
    got = {name: _digest(value) for name, value in _graph_outputs().items()}
    assert got == GOLDEN_GRAPH_SOURCES
