"""Pinned outputs and scalar oracles for the sampling and embedding core.

The golden digests were recorded from the scalar per-edge implementations
that the array core in ``graphon`` replaced; every seeded sample,
embedding, sample law and lift artifact below must stay bit-identical.
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

from hypertest.density import density_graphon, density_mc, sample_distribution
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
from hypertest.hypercore import IOTA, SampledColoredGraph, colex_subsets, make_hypergraph
from hypertest.seeds import derive_seed, generator
from hypertest.transfer import discolor_step, embed_sample, lift_coloring


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

GOLDEN_LIFT = "1bd8c2def9b1ded1344b68848da59ab831d901ab3001972cfca47cb16bee5d64"


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


def test_golden_lift_artifact() -> None:
    seed = 4242
    u0 = random_step_graphon(2, 4, t=2, resolution=4, seed=41)
    u = discolor_step(u0, 2)
    sample = sample_graphon(u0, 20, derive_seed(seed, 0))
    u_hat, diag = lift_coloring(u, 20, embed_sample(sample), 0.1, 2, seed)
    payload = {"u_hat": step_graphon_to_json(u_hat), "diagnostics": diag}
    assert _digest(payload) == GOLDEN_LIFT


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
