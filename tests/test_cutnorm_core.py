"""Pinned outputs of the cut-norm solve path and the symmetry check.

The golden digests were recorded before the cut-norm entry points were
routed through one dispatch and their witnesses kept as arrays: every
witness's ``to_json()``, every regularity residual and every CLI artifact
below must stay byte-identical. The array-problem digests were recorded
from the rank-dict product loop that the bulk colex-rank gather replaced.
Property tests replay that loop, the former per-channel,
per-permutation ``np.allclose`` loop against the one stacked symmetry
check, the one-hot einsum against the gathered class sums, and the
per-combination loops of the exact cut-norm searches against the one
search per norm.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest import cli
from hypertest.budget import BudgetError, limit
from hypertest.cutnorm import (
    _array_problem,
    _class_sums,
    _exact_cutp,
    _exact_plain,
    _kernel_problem,
    _orbit_atoms,
    StepKernel,
    TuplePartition,
    cut_distance,
    cutnorm_exact,
    cutnorm_heuristic,
    cutnorm_p,
    kernel_cutnorm,
    kernel_cutnorm_p,
    random_symmetric_array,
)
from hypertest.graphon import (
    _check_symmetric,
    random_grid_partition,
    random_step_graphon,
    step_graphon_to_json,
)
from hypertest.hypercore import colex_subsets, hypergraph_to_json, make_hypergraph
from hypertest.regularity import sup_partition_distance, symmetrized_step
from hypertest.seeds import generator


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(payload) -> str:
    return _sha(json.dumps(payload).encode())


def _array_digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return _sha(repr(arr.shape).encode() + arr.tobytes())


def _random_graph(n: int, r: int, k: int, seed: int):
    rng = generator(seed)
    return make_hypergraph(n, r, k, [int(c) for c in rng.integers(1, k + 1, size=comb(n, r))])


# r -> (array side, kernel grid resolution, kernel classes, partition classes)
SIZES = {1: (3, 1, 1, 1), 2: (5, 4, 3, 2), 3: (4, 2, 2, 2)}


def _kernel(r: int, seed: int) -> StepKernel:
    _, g, t, _ = SIZES[r]
    part = random_grid_partition(r - 1, g, t, seed)
    return StepKernel(part, random_symmetric_array(part.t, r, seed + 1))


def _witness_cases():
    """name -> thunk returning (value, witness) from a public cut-norm function."""
    cases = {}
    for r in (1, 2, 3):
        n, g, _, q = SIZES[r]
        a = random_symmetric_array(n, r, 40 + r)
        p = TuplePartition.random(n, r - 1, q, 50 + r)
        kern = _kernel(r, 60 + r)
        qpart = random_grid_partition(r - 1, g, q, 70 + r)
        cases[f"exact-r{r}"] = lambda a=a: cutnorm_exact(a)
        cases[f"heuristic-r{r}"] = lambda a=a: cutnorm_heuristic(a, restarts=4, seed=5)
        for mode in ("exact", "heuristic"):
            cases[f"kernel-{mode}-r{r}"] = lambda kern=kern, mode=mode: kernel_cutnorm(
                kern, mode=mode, restarts=4, seed=7)
        # the exact cut-P goldens were recorded at r in (2, 3)
        for mode in ("exact", "heuristic") if r > 1 else ("heuristic",):
            cases[f"p-{mode}-r{r}"] = lambda a=a, p=p, mode=mode: cutnorm_p(
                a, p, mode=mode, restarts=4, seed=6)
            cases[f"kernel-p-{mode}-r{r}"] = (
                lambda kern=kern, qpart=qpart, mode=mode: kernel_cutnorm_p(
                    kern, qpart, mode=mode, restarts=4, seed=8))
    return cases


WITNESS_CASES = _witness_cases()

GOLDEN_WITNESSES = {
    "exact-r1": "96b509754c072c3e6bbc6e73c7b9d4d07d93b394747de5ac4ddf011efc551a73",
    "exact-r2": "d378fa3c30897bc0132d924356c969b0c33bfa549f22563b3f183dc56d0185f6",
    "exact-r3": "338ac8dd164bc5b14d7bf90ab9b28017be7f54fc9088279de72a8ba027bd0bc5",
    "heuristic-r1": "96b509754c072c3e6bbc6e73c7b9d4d07d93b394747de5ac4ddf011efc551a73",
    "heuristic-r2": "65adfd700002a74aae0ad739e9899776650875b0a68b20d736ed0b95fa73a43d",
    "heuristic-r3": "338ac8dd164bc5b14d7bf90ab9b28017be7f54fc9088279de72a8ba027bd0bc5",
    "kernel-exact-r1": "1288304924b92e2efc41a9d3ef842d6bf7d3a7c63c2d60a8e442637704281fab",
    "kernel-exact-r2": "f088981d36dcfcadafb8350a9e639770773884252f639b27b898e24042c5b868",
    "kernel-exact-r3": "6adfd51b66f7ab2d6ca2ee4c52ff8339a531ffec5cc474754fd924a164279e33",
    "kernel-heuristic-r1": "1288304924b92e2efc41a9d3ef842d6bf7d3a7c63c2d60a8e442637704281fab",
    "kernel-heuristic-r2": "f088981d36dcfcadafb8350a9e639770773884252f639b27b898e24042c5b868",
    "kernel-heuristic-r3": "6adfd51b66f7ab2d6ca2ee4c52ff8339a531ffec5cc474754fd924a164279e33",
    "kernel-p-exact-r2": "abcbb541734ca734b85a633722625ded9475fe9495661efd61389e9770a024e7",
    "kernel-p-exact-r3": "97554801c0ce598868f3fcf9c7e220b38ac24e427e8287128928500812d9e192",
    "kernel-p-heuristic-r1": "045cbca21dfeac958ac691733d02035608e46cc67a3714327944500884044e19",
    "kernel-p-heuristic-r2": "abcbb541734ca734b85a633722625ded9475fe9495661efd61389e9770a024e7",
    "kernel-p-heuristic-r3": "fc29c006ba7b6dfc8d8a4b358902015293f69e43a15fe640be874ccd08d38769",
    "p-exact-r2": "cac323c147bb8822870ec0ce060a579bb63b3341b798785aa1d0f2b60f90f05f",
    "p-exact-r3": "f00b5b2174b7c24e26a893c0ea04b225d4721ce62d9bda71a2e1456e804f19db",
    "p-heuristic-r1": "9686220b5f23bd257b05ac5f42d1336e0095fa99986edfe24767bcaf00f98743",
    "p-heuristic-r2": "7482270e7d89e200076f80d3ab582758c835303fa41b60fbc604fb943ca7142d",
    "p-heuristic-r3": "f00b5b2174b7c24e26a893c0ea04b225d4721ce62d9bda71a2e1456e804f19db",
}


@pytest.mark.parametrize("name", sorted(WITNESS_CASES))
def test_golden_witnesses(name: str) -> None:
    value, witness = WITNESS_CASES[name]()
    assert value == witness.value
    assert _json_digest(witness.to_json()) == GOLDEN_WITNESSES[name]


def _sup_payload(mode: str, limit: int) -> dict:
    u = random_step_graphon(2, 2, t=3, resolution=4, seed=81)
    w = random_step_graphon(2, 2, t=2, resolution=2, seed=82)
    value, part, wits = sup_partition_distance(u, w, limit, mode=mode, restarts=3, seed=9)
    return {"value": repr(value), "labels": part.labels.ravel().tolist(), "t": part.t,
            "witnesses": [wit.to_json() for wit in wits]}


GOLDEN_SUP = {
    "exact-100": "90535fea04b5eef43261ec7b796fb68f8c12e75092000771e292779410d302e8",
    "exact-2": "becc376fe005b973afed79e4d5001bcc8d4bc1a8273277a59eb7d65226886bbe",
    "heuristic-2": "90535fea04b5eef43261ec7b796fb68f8c12e75092000771e292779410d302e8",
}


@pytest.mark.parametrize("mode,limit", [("exact", 2), ("exact", 100), ("heuristic", 2)])
def test_golden_sup_partition_distance(mode: str, limit: int) -> None:
    assert _json_digest(_sup_payload(mode, limit)) == GOLDEN_SUP[f"{mode}-{limit}"]


GOLDEN_CUT_DISTANCES = {
    "graphons-exact": "76d88f27c243c35226f13a78c494cc08446454fe358f23fb16d29f06990ad3c4",
    "graphons-heuristic": "76d88f27c243c35226f13a78c494cc08446454fe358f23fb16d29f06990ad3c4",
    "graphons-p-exact": "e3f69c8f17525f1559fc3ca0948eee1277cc0f7abf4a0b17201bedff35c5869d",
    "graphons-p-heuristic": "e3f69c8f17525f1559fc3ca0948eee1277cc0f7abf4a0b17201bedff35c5869d",
    "graphs-exact": "89108401bb9895e0af642cee2d409a16a307171a9e4726ba145af708e5adc4f0",
    "graphs-heuristic": "89108401bb9895e0af642cee2d409a16a307171a9e4726ba145af708e5adc4f0",
    "graphs-p-exact": "8a6155f20af8755474fa3278c298017070e01cfd3cc6906f3ed7996289917932",
    "graphs-p-heuristic": "8a6155f20af8755474fa3278c298017070e01cfd3cc6906f3ed7996289917932",
}


def test_golden_cut_distances() -> None:
    g, h = _random_graph(5, 2, 2, 91), _random_graph(5, 2, 2, 92)
    u = random_step_graphon(2, 2, t=3, resolution=4, seed=93)
    w = random_step_graphon(2, 2, t=2, resolution=2, seed=94)
    p = TuplePartition.random(5, 1, 2, 95)
    qpart = random_grid_partition(1, 4, 2, 96)
    got = {}
    for mode in ("exact", "heuristic"):
        got[f"graphs-{mode}"] = repr(cut_distance(g, h, mode=mode, restarts=3, seed=4))
        got[f"graphs-p-{mode}"] = repr(cut_distance(g, h, p, mode=mode, restarts=3, seed=4))
        got[f"graphons-{mode}"] = repr(cut_distance(u, w, mode=mode, restarts=3, seed=4))
        got[f"graphons-p-{mode}"] = repr(cut_distance(u, w, qpart, mode=mode, restarts=3,
                                                      seed=4))
    assert {k: _json_digest(v) for k, v in got.items()} == GOLDEN_CUT_DISTANCES


def test_graph_cut_distance_rejects_unknown_mode() -> None:
    g, h = _random_graph(5, 2, 2, 91), _random_graph(5, 2, 2, 92)
    with pytest.raises(ValueError, match="unknown mode"):
        cut_distance(g, h, mode="bogus")
    with pytest.raises(ValueError, match="unknown mode"):
        cut_distance(g, h, TuplePartition.random(5, 1, 2, 95), mode="bogus")


CLI_ARGVS = {
    "cutnorm-exact": ["cutnorm", "--in", "{g}", "--mode", "exact"],
    "cutnorm-heuristic": ["cutnorm", "--in", "{g}", "--mode", "heuristic", "--seed", "3"],
    "cutnorm-p-exact": ["cutnorm-p", "--in", "{g}", "--partition", "{p}", "--mode", "exact"],
    "cutnorm-p-heuristic": ["cutnorm-p", "--in", "{g}", "--partition", "{p}",
                            "--mode", "heuristic", "--seed", "3"],
    "regularize-auto": ["regularize", "--in", "{w}", "--eps", "0.3", "--seed", "3"],
    "regularize-heuristic": ["regularize", "--in", "{w}", "--eps", "0.3", "--mode",
                             "heuristic", "--restarts", "4", "--seed", "3"],
}

GOLDEN_CLI = {
    "cutnorm-exact": "0d17296c2da04f4130e7bc1e480cc95864e90c7592b3a74feedcb8b9c8017b4f",
    "cutnorm-heuristic": "740bec700860fa31fd898f23228517f1b0a6002c518e2d87a39d1ba72fea12ee",
    "cutnorm-p-exact": "5a8d3f3d1eaaa5144167a743f08a82268e537bedf5c7f2977a291e5dda110e47",
    "cutnorm-p-heuristic": "8e18925460a30a91618a304e2f5d514af31821cad8bd5461a2b2c6cc33c88424",
    "regularize-auto": "314558129c457dc04bdeb06760f14bbac935d00eea3dc2045780a1fb43ff0114",
    "regularize-heuristic": "0e26e6eed892d84cf39bd59347573f3f0e7444bf9df38d2f8b505cb1011b7636",
}


@pytest.mark.parametrize("name", sorted(CLI_ARGVS))
def test_golden_cli_artifacts(name: str, tmp_path: Path) -> None:
    files = {
        "g": hypergraph_to_json(_random_graph(7, 2, 2, 101)),
        "p": {"n": 7, "r_minus_1": 1, "classes": [0, 1, 1, 0, 1, 0, 0], "q": 2},
        "w": step_graphon_to_json(random_step_graphon(2, 2, t=4, resolution=4, seed=102)),
    }
    paths = {}
    for key, payload in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    argv = [arg.format(**paths) for arg in CLI_ARGVS[name]] + ["--out", str(out)]
    assert cli.run(argv) == 0
    assert _sha(out.read_bytes()) == GOLDEN_CLI[name]


GOLDEN_SYMMETRIZED = {
    "array-r1": "efba32bc14b5692bc6ef1c7e44ac7d103cd34744b2d90a372a754596eca6a932",
    "array-r2": "90d8393f848514be71067f0d58dcc55ee44ce5d86ffc7247febf5696dc6d1fb0",
    "array-r3": "f71307b2a5777327d4a5c17c4b9a2c9aac9b9fed8cff0aff32b5e96ddd8d8075",
    "graphon-r1-c0": "7097e4666ebfacabbd5fec5768974137c4a8d15e9a510407894ebc1fbe5aff0f",
    "graphon-r1-c1": "36451a961b00651e798361f524aa94084fb07fa99401b74cbece64c3029bb417",
    "graphon-r1-c2": "d7f23991e18de3440b93309b8cb85157eeef254adb6a5e6ce1b74a24e5af7ddc",
    "graphon-r2-c0": "58e59a044a4fc4248a6a534bc3b19b50d7d44f6757a1ed0279130032084f0960",
    "graphon-r2-c1": "0f0cc461b19ccb4b3e39f36a31213435002ebef31cf526e69311a59519755fd7",
    "graphon-r2-c2": "9b8c134f534c1ef04114163fad28468d81f0d8ade4c12be8bf4737c505b99354",
    "graphon-r3-c0": "58a389297d08a5dc3803551bf76a985928b5bfc579c538d1105966c003fe66d4",
    "graphon-r3-c1": "d4a463d42855fe7e51fda73397bd07c1528495c45d127cc423b9a2115b3e6ae9",
    "graphon-r3-c2": "356bee89d53d578591bd66041fff783ee108e411ff59f00e5ea197652b405834",
    "step-r1-c0": "f16921b0c785e47d0bf7012532384de0bf61791d8d3daa3c80a56f71f410c02f",
    "step-r1-c1": "8d969186cf4552fe8930bbe3c10f10d637d70803bcf573589e0b8f6f2f7759c8",
    "step-r1-c2": "655e51a12edec05fa26554918e5d1bd904d53dd2e4ffa20382df830b86a2ba37",
    "step-r2-c0": "1caacc6ec2a863bd3e45ff2189bacaa9b027fe313ba1c4c4b0fc5146d32461da",
    "step-r2-c1": "e28d1388985892b4a8ea25393474bd6967c58b9d2bb332ee8d3352ddc9208b2e",
    "step-r2-c2": "d29643f7c814d485ad0a499472004b757453f79f32bac0cdc3e2093bb9b4359d",
    "step-r3-c0": "c06cf5a499570752749fd14d1820df797eedba4824c2b8e1a0a0824041c73d26",
    "step-r3-c1": "6273d5eb7985365ce9c82e74c525438261940000e9740b3e2a31c49265fbdd49",
    "step-r3-c2": "c56c90d5f01660c6e05071d3a60ca4966ae70922654b440917d693d8e8041026",
}


def test_golden_symmetrizers() -> None:
    got = {}
    for r in (1, 2, 3):
        got[f"array-r{r}"] = _array_digest(random_symmetric_array(4, r, 110 + r))
        w = random_step_graphon(r, 2, t=3, resolution=3, seed=120 + r, with_iota=True)
        for c in sorted(w.arrays):
            got[f"graphon-r{r}-c{c}"] = _array_digest(w.arrays[c])
        rng = generator(130 + r)
        raw = {c: rng.random((w.partition.t,) * r) for c in (0, 1, 2)}
        total = sum(raw.values())
        v = symmetrized_step(r, 2, w.partition, {c: a / total for c, a in raw.items()})
        for c in sorted(v.arrays):
            got[f"step-r{r}-c{c}"] = _array_digest(v.arrays[c])
    assert got == GOLDEN_SYMMETRIZED


# ----------------------------------------------------------------------
# the one symmetry check against the per-channel, per-permutation loop


def _replayed_check(arrays: list[np.ndarray], names: list[str]) -> None:
    for arr, name in zip(arrays, names):
        for perm in itertools.permutations(range(arr.ndim)):
            if not np.allclose(arr.transpose(perm), arr, atol=1e-9):
                raise ValueError(f"{name} is not symmetric under index permutations")


def _outcome(check, *args) -> str | None:
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


DELTAS = [0.0, 1e-10, 9e-10, 1e-9, 1.1e-9, 2e-9, 1e-6, 1.0, np.nan, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 3),
    side=st.integers(1, 4),
    channels=st.integers(1, 3),
    scale=st.sampled_from([0.0, 1e-6, 1.0, 1e3]),
    seed=st.integers(0, 2**16),
    edits=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 63), st.sampled_from(DELTAS)),
                   max_size=3),
)
def test_symmetry_check_matches_per_channel_loop(r, side, channels, scale, seed, edits) -> None:
    rng = generator(seed)
    arrays = []
    for _ in range(channels):
        raw = rng.random((side,) * r) * scale
        arrays.append(sum(raw.transpose(p) for p in itertools.permutations(range(r))))
    with np.errstate(invalid="ignore"):  # inf + -inf
        for c, flat, delta in edits:
            arr = arrays[c % channels]
            arr.flat[flat % arr.size] += delta
    names = [f"channel {c}" for c in range(channels)]
    expected = _outcome(_replayed_check, arrays, names)
    assert _outcome(_check_symmetric, np.stack(arrays), names) == expected


# ----------------------------------------------------------------------
# the array problem's coefficient tensors, r = 1..4


# r -> (array side, partition classes)
PROBLEM_SIZES = {1: (6, 1), 2: (7, 3), 3: (5, 3), 4: (4, 2)}


def _problem_payload(atoms, t, classes, count) -> list:
    return [_sha(repr(atoms.tolist()).encode()), _array_digest(t),
            None if classes is None else _sha(repr(classes.tolist()).encode()), count]


def _array_problems() -> dict:
    got = {}
    for r, (n, q) in PROBLEM_SIZES.items():
        part = TuplePartition.random(n, r - 1, q, 140 + r)
        arrays = {"random": random_symmetric_array(n, r, 150 + r),
                  "adjacency": _random_graph(n, r, 3, 160 + r).adjacency_array(2)}
        for kind, a in arrays.items():
            got[f"{kind}-r{r}"] = _problem_payload(*_array_problem(a))
            got[f"{kind}-r{r}-partition"] = _problem_payload(*_array_problem(a, part))
    return got


GOLDEN_ARRAY_PROBLEMS = {
    "adjacency-r1":
        "09e13eced9586c07274df388f13d6e86fcbf5f6487f0242364e7c32ab3e9d095",
    "adjacency-r1-partition":
        "cf4bb76c1b115c356e8533a77e1666cade37929917ec3090044d10d4e596b368",
    "adjacency-r2":
        "e7565408593fcc446a0bac78627ae231b92b4d563121482483fce201b97b9232",
    "adjacency-r2-partition":
        "88ec8606e8db2bbbd3f1bf01df3d118bd6255d5ea391f5f913e5c451e791779b",
    "adjacency-r3":
        "dd3227b2930267df7919c1de4563ac5908164b295379400007cf024d58803125",
    "adjacency-r3-partition":
        "1398c7d2408bc3f3f9ebd89b74c90d84524bd1799e8422750bbad0e87becb70c",
    "adjacency-r4":
        "293293e30db0a6b1bebb18e55a2b8a8e84a597d1ecd83ebf2cd8a3b59983974c",
    "adjacency-r4-partition":
        "f7e2f2b4c1fd848f2d8027a1dfe1647751e6d863c696cb9e9ca5396bfa68f942",
    "random-r1":
        "6c3ff714de82030bef46681aa96e1bb22b626a371435be0c09d1a0e2ed256930",
    "random-r1-partition":
        "e9c8a15606e9cc982d1b6a70a7473badc4e344751b70ac5809742f034b61ffcc",
    "random-r2":
        "c419753362c5ff69133d1c007966768b6d0c297affda7b36f19ce8307f0da8b4",
    "random-r2-partition":
        "ef81fc7a2dbe4986a230710ca141e0c87e04fce78951273f3b0d181cb3c411e3",
    "random-r3":
        "1db2716f9f48d731a72869c4f517f71837b36829024617b25078209e470730c4",
    "random-r3-partition":
        "9cc1f3666868e8f9fe3b95c5e1c0ebd585e3b3ab7cf61d2f615d4dce6ebd76b4",
    "random-r4":
        "be769e9fff475bccf1dc12b0e4daf439afc733ed62ac125241da895cd1112e63",
    "random-r4-partition":
        "4a71ef08b13a0950cc66b610e13057b3a71903e671ea60516a8b4717babb615b",
}


def test_golden_array_problems() -> None:
    assert {k: _json_digest(v) for k, v in _array_problems().items()} == GOLDEN_ARRAY_PROBLEMS


def _replayed_array_problem(a: np.ndarray) -> np.ndarray:
    """The rank-dict product loop: one scalar rank lookup per deleted projection."""
    n, r = a.shape[0], a.ndim
    rank = {s: i for i, s in enumerate(colex_subsets(n, r - 1))}
    t = np.zeros((len(rank),) * r)
    scale = 1.0 / n ** r
    for tup in itertools.product(range(n), repeat=r):
        if r >= 3 and len(set(tup)) != r:
            continue
        idx = tuple(rank[tuple(sorted(tup[:j] + tup[j + 1:]))] for j in range(r))
        t[idx] += a[tup] * scale
    return t


@settings(max_examples=80, deadline=None)
@given(r=st.integers(1, 3), n=st.integers(1, 6), seed=st.integers(0, 2**16),
       adjacency=st.booleans())
def test_array_problem_matches_rank_dict_loop(r, n, seed, adjacency) -> None:
    if adjacency and n >= r:
        a = _random_graph(n, r, 2, seed).adjacency_array(1)
    else:
        a = random_symmetric_array(n, r, seed)
    atoms, t, _, _ = _array_problem(a)
    assert atoms.tolist() == [list(s) for s in colex_subsets(n, r - 1)]
    expected = _replayed_array_problem(a)
    assert t.shape == expected.shape and t.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# gathered class sums, the cached kernel problem and r >= 4 exact cut-P


def _replayed_class_sums(t: np.ndarray, onehot: np.ndarray, sets) -> np.ndarray:
    """The one-hot einsum the gathered class sums replaced."""
    r, m = t.ndim, t.shape[0]
    operands = []
    for l in range(r):
        indicator = np.zeros(m)
        indicator[list(sets[l])] = 1.0
        operands.append(onehot * indicator[:, None])
    expr = ",".join("abcd"[l] + "ijkl"[l] for l in range(r)) + "," + "abcd"[:r] + "->" + "ijkl"[:r]
    return np.einsum(expr, *operands, t, optimize=True)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 3), m=st.integers(1, 8), tq=st.integers(1, 4),
       seed=st.integers(0, 2**16), data=st.data())
def test_class_sums_match_onehot_einsum(r, m, tq, seed, data) -> None:
    rng = generator(seed)
    t = rng.uniform(-1, 1, size=(m,) * r)
    classes = rng.integers(0, tq, size=m)  # classes may stay empty
    onehot = (classes[:, None] == np.arange(tq)).astype(float)
    sets = [sorted(data.draw(st.sets(st.integers(0, m - 1)))) for _ in range(r)]
    got = _class_sums(t, onehot, sets)
    want = _replayed_class_sums(t, onehot, sets)
    assert got.shape == want.shape == (tq,) * r
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # matrix-matrix contractions accumulate each cell in atom order, so the
    # skipped zero rows change nothing; matrix-vector ones (r = 1, one class,
    # a one-atom set) split sums across SIMD lanes and may differ in the last bits
    if r == 2 and tq >= 2 and min(map(len, sets)) >= 2:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("r,g,q", [(1, 1, 1), (2, 4, 2), (2, 6, 3), (3, 2, 2)])
def test_kernel_problem_same_on_cold_and_warm_cache(r, g, q) -> None:
    part = random_grid_partition(r - 1, g, 2, 90 + r)
    kern = StepKernel(part, random_symmetric_array(part.t, r, 91 + r))
    qpart = random_grid_partition(r - 1, g, q, 92 + r)
    _orbit_atoms.cache_clear()
    cold = _kernel_problem(kern, qpart)
    warm = _kernel_problem(kern, qpart)
    assert _orbit_atoms.cache_info().hits >= 1
    for a, b in zip(cold[:3], warm[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert cold[3] == warm[3] == qpart.t
    first, atoms, weights = _orbit_atoms(r, g)
    assert not (first.flags.writeable or atoms.flags.writeable or weights.flags.writeable)


def _brute_cutp(t: np.ndarray, classes: np.ndarray, tq: int) -> float:
    """Every tuple of atom sets, scored through the one-hot einsum."""
    r, m = t.ndim, t.shape[0]
    subsets = [tuple(np.flatnonzero((mask >> np.arange(m)) & 1)) for mask in range(1 << m)]
    onehot = (classes[:, None] == np.arange(tq)).astype(float)
    best = 0.0
    for sets in itertools.product(subsets, repeat=r):
        inner = _replayed_class_sums(t, onehot, sets)
        best = max(best, float(np.abs(inner).sum()))
    return best


_BRUTE_CASES = [(1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 2, 3), (3, 3, 4)]


# ids without an r prefix are the r = 4 cases, so existing test ids stay valid
@pytest.mark.parametrize("r,m,tq,seed", [
    pytest.param(r, m, tq, seed, id=f"{m}-{tq}-{seed}" if r == 4 else f"r{r}-{m}-{tq}-{seed}")
    for r in (4, 2, 3) for m, tq, seed in _BRUTE_CASES
])
def test_exact_cutp_r4_matches_brute_force(r, m, tq, seed) -> None:
    rng = generator(seed)
    t = rng.uniform(-1, 1, size=(m,) * r)
    classes = np.arange(m) % tq
    value, sets, signs = _exact_cutp(t, classes, tq)
    assert value == pytest.approx(_brute_cutp(t, classes, tq), abs=1e-12)
    onehot = (classes[:, None] == np.arange(tq)).astype(float)
    inner = _replayed_class_sums(t, onehot, sets)
    assert float(np.abs(inner).sum()) == pytest.approx(value, abs=1e-12)
    assert signs.shape == (tq,) * r and np.array_equal(signs, np.where(inner < 0, -1.0, 1.0))


# ----------------------------------------------------------------------
# the one exact search per norm against the per-combination loops it replaced


def _mask_set(mask: int, m: int) -> tuple[int, ...]:
    return tuple(i for i in range(m) if mask >> i & 1)


def _looped_plain(t: np.ndarray) -> tuple[float, list[tuple[int, ...]]]:
    """One set combination per iteration, as the r >= 4 plain search ran."""
    r, m = t.ndim, t.shape[0]
    s = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    best, best_sets = -1.0, [()] * r
    for masks in itertools.product(range(1 << m), repeat=r - 1):
        cur = t
        for mask in masks:
            cur = np.tensordot(s[mask], cur, axes=([0], [0]))
        pos, neg = cur[cur > 0].sum(), -cur[cur < 0].sum()
        val = max(pos, neg)
        if val > best:
            last = cur > 0 if pos >= neg else cur < 0
            best = float(val)
            best_sets = [_mask_set(mk, m) for mk in masks] + [tuple(np.flatnonzero(last))]
    return best, best_sets


def _looped_cutp(t: np.ndarray, classes: np.ndarray, tq: int) -> tuple[float, list[tuple[int, ...]]]:
    """One set combination per iteration, as the r >= 4 cut-P search ran."""
    r, m = t.ndim, t.shape[0]
    onehot = (classes[:, None] == np.arange(tq)).astype(float)
    members = [np.flatnonzero(classes == j) for j in range(tq)]

    def close_last(flat: np.ndarray) -> tuple[float, tuple[int, ...]]:
        total, chosen = 0.0, []
        for j in range(tq):
            if len(members[j]) == 0:
                continue
            size = len(members[j])
            sub = ((np.arange(1 << size)[:, None] >> np.arange(size)) & 1).astype(float)
            scores = np.abs(sub @ flat[:, members[j]].T).sum(axis=1)
            best = int(np.argmax(scores))
            total += float(scores[best])
            chosen.extend(members[j][i] for i in _mask_set(best, size))
        return total, tuple(sorted(chosen))

    best_val, best_sets = -1.0, None
    for masks in itertools.product(range(1 << m), repeat=r - 1):
        first = [_mask_set(mask, m) for mask in masks]
        w = _class_sums(t, onehot, first)
        val, last = close_last(w.reshape(m, -1).T)
        if val > best_val:
            best_val, best_sets = val, first + [last]
    return best_val, best_sets


@settings(max_examples=50, deadline=None)
@given(r=st.integers(1, 4), m=st.integers(1, 4), tq_kind=st.sampled_from(("one", "two", "each")),
       entries=st.sampled_from(("rounded", "binary")), seed=st.integers(0, 2**16))
def test_exact_searches_match_per_combination_loops(r, m, tq_kind, entries, seed) -> None:
    rng = generator(seed)
    if entries == "rounded":  # coarse values force ties between set choices
        t = np.round(rng.uniform(-1, 1, size=(m,) * r), 1)
    else:
        t = rng.integers(0, 2, size=(m,) * r).astype(float)
    value, sets = _exact_plain(t)
    want_value, want_sets = _looped_plain(t)
    assert value == want_value and sets == want_sets
    if r == 1:  # the cut-P search keeps its closed form there
        return
    tq = {"one": 1, "two": 2, "each": m}[tq_kind]
    classes = rng.permutation(np.arange(m) % tq)  # with tq = 2 and m = 1 a class stays empty
    value, sets, _ = _exact_cutp(t, classes, tq)
    want_value, want_sets = _looped_cutp(t, classes, tq)
    assert value == want_value and sets == want_sets


def test_exact_cutp_r4_public_entry_point() -> None:
    # with one class the cut-P-norm is the plain cut norm
    a = random_symmetric_array(4, 4, seed=1)
    value, witness = cutnorm_p(a, TuplePartition.trivial(4, 3), mode="exact")
    assert value == pytest.approx(cutnorm_exact(a)[0], abs=1e-12)
    assert len(witness.sets) == 4 and witness.signs.shape == (1,) * 4
    with limit(1000), pytest.raises(BudgetError, match="cut-P-norm exact search"):
        cutnorm_p(a, TuplePartition.trivial(4, 3), mode="exact")


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_symmetry_check_accepts_exactly_symmetric_infinities(value) -> None:
    arr = random_symmetric_array(3, 3, 5)
    arr[0, 1, 2] = arr[0, 2, 1] = arr[1, 0, 2] = value
    arr[1, 2, 0] = arr[2, 0, 1] = arr[2, 1, 0] = value
    _check_symmetric(np.stack([random_symmetric_array(3, 3, 6), arr]), ["channel 1", "channel 2"])


def test_symmetry_check_rejects_nan_naming_its_channel() -> None:
    arrays = [random_symmetric_array(3, 2, s) for s in range(3)]
    arrays[1][2, 2] = np.nan  # on the diagonal: every permutation maps it to itself
    names = ["channel 0", "channel 1", "channel 2"]
    with pytest.raises(ValueError, match="channel 1 is not symmetric"):
        _check_symmetric(np.stack(arrays), names)
    assert _outcome(_replayed_check, arrays, names) == _outcome(
        _check_symmetric, np.stack(arrays), names)
