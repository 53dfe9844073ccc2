import itertools
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertest import graphon
from hypertest.budget import BudgetError, limit
from hypertest.graphon import (
    GridPartition,
    StepGraphon,
    _check_symmetric,
    _inverse_cdf,
    channel_differences,
    class_tuple_weights,
    color_mass,
    common_refinement,
    constant_graphon,
    embed,
    evaluate,
    l1_distance,
    l2_distance,
    orbit_partition,
    random_grid_partition,
    random_step_graphon,
    sample_graphon,
    step_average,
    step_graphon_from_json,
    step_graphon_to_json,
    subsets_card_lex,
)
from hypertest.hypercore import IOTA, colex_subsets, make_hypergraph, sample_subgraph
from hypertest.seeds import generator


def two_class_halves() -> StepGraphon:
    # r=2, t=2, P1=[0,1/2): identity-block graphon on color 1
    part = GridPartition(1, 2, np.array([0, 1]), 2)
    a1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    return StepGraphon(2, 2, part, {1: a1, 2: 1.0 - a1})


def test_partition_rejects_asymmetric_labels() -> None:
    labels = np.zeros((2, 2, 2), dtype=int)
    labels[0, 1, 0] = 1
    with pytest.raises(ValueError, match="symmetric"):
        GridPartition(2, 2, labels, 2)


def test_partition_point_lookup_and_volumes() -> None:
    part = GridPartition(1, 4, np.array([0, 0, 1, 2]), 3)
    assert part.class_of_point([0.0]) == 0
    assert part.class_of_point([0.49]) == 0
    assert part.class_of_point([0.5]) == 1
    assert part.class_of_point([1.0]) == 2  # 1.0 falls in the last cell
    assert np.allclose(part.class_volumes(), [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        part.class_of_point([1.2])
    fine = part.refined(3)
    assert fine.resolution == 12
    assert np.allclose(fine.class_volumes(), part.class_volumes())


def test_orbit_partition_counts() -> None:
    # swapping the two singleton axes identifies (c1,c2,c12) with (c2,c1,c12)
    orb = orbit_partition(2, 2)
    assert orb.t == 6
    assert orbit_partition(1, 5).t == 5


def test_constant_graphon_evaluates_everywhere() -> None:
    w = constant_graphon(2, 2, [0.3, 0.7])
    for point in ([0.1, 0.9], [0.5, 0.5, 0.2]):
        assert evaluate(w, 1, point) == pytest.approx(0.3)
        assert evaluate(w, 2, point) == pytest.approx(0.7)


def test_evaluate_identity_block_example() -> None:
    w = two_class_halves()
    assert evaluate(w, 1, (0.1, 0.2, 0.7)) == 1.0
    assert evaluate(w, 1, (0.1, 0.7)) == 0.0
    assert evaluate(w, 2, (0.1, 0.7)) == 1.0
    with pytest.raises(ValueError, match="outside"):
        evaluate(w, 1, (1.0, 0.2))
    with pytest.raises(ValueError):
        evaluate(w, 3, (0.1, 0.2))


def test_evaluate_matches_summation_formula() -> None:
    # oracle: recompute W^a(x) from the defining sum over class tuples
    w = random_step_graphon(3, 2, 3, 4, seed=7)
    part = w.partition
    coords = subsets_card_lex(range(3), 2)
    rng = generator(99)
    for _ in range(1000):
        x = rng.random(len(coords))
        by_subset = dict(zip(coords, x))
        blocks = []
        for l in range(3):
            rest = tuple(v for v in range(3) if v != l)
            blocks.append([by_subset[s] for s in subsets_card_lex(rest, 2)])
        for alpha in (1, 2):
            total = 0.0
            for tup in itertools.product(range(part.t), repeat=3):
                ind = all(part.class_of_point(blocks[l]) == tup[l] for l in range(3))
                total += w.arrays[alpha][tup] * ind
            assert evaluate(w, alpha, x) == pytest.approx(total, abs=1e-12)


def test_embed_k2_off_diagonal() -> None:
    k2 = make_hypergraph(2, 2, 2, [1])
    w = embed(k2)
    assert w.evaluate(1, (0.1, 0.9)) == 1.0
    assert w.evaluate(1, (0.1, 0.4)) == 0.0
    assert w.color_at((0.1, 0.4)) == IOTA
    assert w.evaluate(0, (0.1, 0.4)) == 1.0


def test_embed_iota_measure_n3() -> None:
    g = make_hypergraph(3, 2, 2, [1, 1, 1])
    mass = color_mass(embed(g).to_step())
    assert mass[0] == pytest.approx(1.0 - 6.0 / 9.0)
    assert mass[1] == pytest.approx(6.0 / 9.0)


def test_to_step_r3_matches_direct_evaluation() -> None:
    g = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
    vg = embed(g)
    step = vg.to_step()
    rng = generator(5)
    for _ in range(200):
        x = rng.random(6)
        for alpha in (0, 1, 2):
            assert step.evaluate(alpha, x) == vg.evaluate(alpha, x)


def _block_axes(r: int) -> tuple[tuple, list[list[int]]]:
    """The type cube's axes and, per deleted vertex, the axes of its block."""
    coords = subsets_card_lex(range(r), r - 1)
    blocks = []
    for l in range(r):
        rest = tuple(v for v in range(r) if v != l)
        blocks.append([coords.index(s) for s in subsets_card_lex(rest, r - 1)])
    return coords, blocks


def _cellwise_weights(part: GridPartition) -> np.ndarray:
    """Class-tuple weights by visiting every cell of the (2^r - 2)-axis type cube."""
    r, g = part.r_minus_1 + 1, part.resolution
    coords, blocks = _block_axes(r)
    want = np.zeros((part.t,) * r)
    for cells in itertools.product(range(g), repeat=len(coords)):
        tup = tuple(part.class_of_cell([cells[i] for i in blocks[l]]) for l in range(r))
        want[tup] += 1.0
    return want / g ** len(coords)


def _cellwise_average(w: StepGraphon, p: GridPartition) -> dict[int, np.ndarray]:
    """``step_average`` by visiting every cell of the type cube on the finer grid.

    Class tuples of measure zero get the uniform color vector.
    """
    r = w.r
    g = max(w.partition.resolution, p.resolution)
    coords, blocks = _block_axes(r)

    def classes(part: GridPartition, cells: tuple[int, ...]) -> tuple[int, ...]:
        f = g // part.resolution
        return tuple(part.class_of_cell([cells[i] // f for i in blocks[l]]) for l in range(r))

    num = {c: np.zeros((p.t,) * r) for c in w.arrays}
    den = np.zeros((p.t,) * r)
    for cells in itertools.product(range(g), repeat=len(coords)):
        tp, tw = classes(p, cells), classes(w.partition, cells)
        den[tp] += 1.0
        for c, arr in w.arrays.items():
            num[c][tp] += arr[tw]
    safe = np.where(den > 0, den, 1.0)
    return {c: np.where(den > 0, a / safe, 1.0 / len(w.arrays)) for c, a in num.items()}


# (graphon grid, partition grid) pairs where one divides the other
_DIVIDING_GRIDS = {2: [(1, 2), (2, 1), (2, 2), (2, 4), (4, 2), (3, 6), (6, 3), (1, 4)],
                   3: [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 4), (4, 2)]}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_step_average_matches_cellwise_averaging(data) -> None:
    r = data.draw(st.sampled_from((2, 3)))
    gw, gp = data.draw(st.sampled_from(_DIVIDING_GRIDS[r]))
    seed = data.draw(st.integers(0, 10**6))
    w = random_step_graphon(r, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)),
                            gw, seed=seed, with_iota=data.draw(st.booleans()))
    p = random_grid_partition(r - 1, gp, data.draw(st.integers(1, 4)), seed=seed + 1)
    got = step_average(w, p)
    want = _cellwise_average(w, p)
    assert got.partition == p
    for c in w.arrays:
        assert np.allclose(got.arrays[c], want[c], rtol=0, atol=1e-12)


def test_class_tuple_weights_r3_oracle() -> None:
    part = random_grid_partition(2, 2, 3, seed=3)
    got = class_tuple_weights(part)
    assert np.allclose(got, _cellwise_weights(part), atol=1e-12)
    assert got.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("g,t,seed", [(1, 1, 0), (2, 1, 1), (2, 4, 2), (3, 2, 3),
                                      (3, 5, 4), (4, 3, 5), (4, 8, 6)])
def test_class_tuple_weights_r3_cellwise(g, t, seed) -> None:
    part = random_grid_partition(2, g, t, seed)
    got = class_tuple_weights(part)
    assert np.allclose(got, _cellwise_weights(part), rtol=0, atol=1e-14)
    assert got.sum() == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from((1, 2, 3, 4)), g=st.integers(1, 128), t=st.integers(1, 6),
       seed=st.integers(0, 10**6))
@example(r=4, g=2, t=3, seed=0)
@example(r=3, g=5, t=6, seed=0)
def test_class_tuple_weights_match_the_cellwise_histogram(r, g, t, seed) -> None:
    # every r up to 4 on type cubes of at most 2**14 cells (r = 4: g <= 2)
    g = min(g, 4 if r == 1 else int(2 ** (14 / (2 ** r - 2)) + 1e-9))
    part = random_grid_partition(r - 1, g, t, seed)
    got = class_tuple_weights(part)
    assert got.shape == (part.t,) * r
    assert np.allclose(got, _cellwise_weights(part), rtol=0, atol=1e-14)


def test_class_tuple_weights_r3_slabs_and_refusal(monkeypatch) -> None:
    part = orbit_partition(2, 3)
    row = 3 * part.t ** 2  # one b-row of the (b, g, a, h) intermediate
    whole = class_tuple_weights(part)
    monkeypatch.setattr(graphon, "_SLAB_CELLS", 2 * row)  # slabs of two rows
    assert np.allclose(class_tuple_weights(part), whole, rtol=0, atol=1e-15)
    with limit(row - 1), pytest.raises(BudgetError, match="r=3 pairwise intermediate") as err:
        class_tuple_weights(part)
    assert err.value.needed == row


def test_class_tuple_weights_r3_refuse_before_allocating() -> None:
    # the 30-grid's g^2 x t class histogram alone is tens of MB; the
    # budget must refuse the chain's b-row before that histogram is built
    part = orbit_partition(2, 30)
    tracemalloc.start()
    try:
        with limit(10**6), pytest.raises(BudgetError, match="r=3 pairwise intermediate"):
            class_tuple_weights(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_class_tuple_weights_do_not_follow_the_budget() -> None:
    # a 12-grid with 200 classes: rows of 12 * 200**2 cells, so a budget
    # sized slab would group the summation differently under each budget
    part = random_grid_partition(2, 12, 200, seed=3)
    with limit(10**6):
        low = class_tuple_weights(part)
    with limit(10**8):
        high = class_tuple_weights(part)
    assert np.array_equal(low, high)


def test_class_tuple_weights_r2_is_volume_product() -> None:
    part = GridPartition(1, 4, np.array([0, 1, 1, 2]), 3)
    vols = part.class_volumes()
    assert np.allclose(class_tuple_weights(part), np.outer(vols, vols))


def test_sample_constant_color_is_monochromatic() -> None:
    w = constant_graphon(2, 2, [1.0, 0.0])
    s = sample_graphon(w, 5, seed=1)
    assert s.colors == (1,) * 10


def test_sample_reproducible() -> None:
    w = random_step_graphon(2, 2, 2, 4, seed=11)
    a = sample_graphon(w, 6, seed=42)
    b = sample_graphon(w, 6, seed=42)
    assert a.colors == b.colors and a.coords == b.coords
    c = sample_graphon(w, 6, seed=43)
    assert a.colors != c.colors or a.coords != c.coords


def test_sample_embedded_conditional_matches_subgraph_distribution() -> None:
    # exact enumeration both sides at n=4, q=2: cell pairs vs vertex pairs
    g = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
    w = embed(g)
    cond = Counter()
    for i, j in itertools.product(range(4), repeat=2):
        if i == j:
            continue
        point = ((i + 0.5) / 4, (j + 0.5) / 4)
        cond[w.color_at(point)] += 1
    conditional = {c: v / sum(cond.values()) for c, v in cond.items()}
    direct = Counter(g.color_of(e) for e in g.edges())
    subgraph = {c: v / 6 for c, v in direct.items()}
    assert set(conditional) == set(subgraph)
    tv = 0.5 * sum(abs(conditional[c] - subgraph[c]) for c in subgraph)
    assert tv == pytest.approx(0.0, abs=1e-12)


def test_sample_conditional_no_iota_colors_match_cells() -> None:
    g = make_hypergraph(5, 2, 2, [1 + (i % 2) for i in range(10)])
    s = sample_graphon(embed(g), 3, seed=9, condition_no_iota=True)
    assert s.vertices is not None and len(set(s.vertices)) == 3
    for edge, color in zip(colex_subsets(3, 2), s.colors):
        cells = tuple(sorted(s.vertices[v] for v in edge))
        assert color == g.color_of(cells)
    assert IOTA not in s.colors


def test_sample_rejection_budget_reports_attempts() -> None:
    g = make_hypergraph(2, 2, 2, [1])
    w = embed(g)
    bad_seed = None
    for seed in range(50):
        if len(set(sample_graphon(w, 2, seed=seed).vertices)) < 2:
            bad_seed = seed
            break
    assert bad_seed is not None
    with limit(1), pytest.raises(BudgetError, match="attempts"):
        sample_graphon(w, 2, seed=bad_seed, condition_no_iota=True)


@pytest.mark.parametrize("condition_no_iota", [False, True])
def test_sample_refuses_an_embedded_r1_graph(condition_no_iota: bool) -> None:
    # an r = 1 type point has no coordinates, so nothing places the vertices;
    # the refusal comes before the first draw, never from the budget
    w = embed(make_hypergraph(4, 1, 2, [1, 2, 1, 2]))
    with limit(10), pytest.raises(ValueError, match="r = 1"):
        sample_graphon(w, 2, 0, condition_no_iota=condition_no_iota)
    with pytest.raises(ValueError, match="r = 1"):
        graphon.colors_at(w, 2, np.zeros(0), np.zeros(2))


def test_sample_empirical_frequency_constant_graphon() -> None:
    w = constant_graphon(2, 2, [0.3, 0.7])
    trials, q = 10**5, 5
    edges = comb(q, 2)
    ones = 0
    for i in range(trials):
        ones += sample_graphon(w, q, seed=1000 + i).colors.count(1)
    freq = ones / (trials * edges)
    sigma = (0.3 * 0.7 / (trials * edges)) ** 0.5
    assert abs(freq - 0.3) <= 3 * sigma


def test_step_average_idempotent() -> None:
    w = random_step_graphon(2, 2, 3, 4, seed=21)
    again = step_average(w, w.partition)
    for c in w.arrays:
        assert np.allclose(again.arrays[c], w.arrays[c], atol=1e-12)


def test_step_average_preserves_color_mass() -> None:
    w = random_step_graphon(3, 2, 3, 4, seed=8)
    coarse = step_average(w, GridPartition.trivial(2))
    before, after = color_mass(w), color_mass(coarse)
    for c in before:
        assert after[c] == pytest.approx(before[c], abs=1e-9)


GRID_CHAIN = (
    (np.array([0]), 1),
    (np.array([0, 1]), 2),
    (np.array([0, 1, 2, 3]), 4),
)


def test_step_average_improves_along_grid_refinement() -> None:
    # Averaging onto a finer partition is a nested L2 projection, so the L2
    # distance shrinks weakly; the L1 distance obeys the provable factor-2
    # bound and vanishes once the partition resolves w exactly.
    for seed in range(20):
        w = random_step_graphon(2, 2, 3, 4, seed=100 + seed)
        l1s, l2s = [], []
        for labels, t in GRID_CHAIN:
            p = GridPartition(1, len(labels), labels, t)
            avg = step_average(w, p)
            l1s.append(l1_distance(w, avg))
            l2s.append(l2_distance(w, avg))
        assert l2s[0] >= l2s[1] - 1e-12 >= l2s[2] - 2e-12
        assert l1s[1] <= 2 * l1s[0] + 1e-12
        assert l1s[2] <= 2 * l1s[1] + 1e-12
        assert l1_distance(w, step_average(w, w.partition)) < 1e-12


def test_l1_refinement_monotonicity_genuinely_fails() -> None:
    # Unlike L2, the L1 distance to the conditional expectation can grow
    # under refinement. This frozen instance shows the effect is real, so
    # no test here should ever assert L1 monotonicity.
    w = random_step_graphon(2, 2, 3, 4, seed=107)
    dists = []
    for labels, t in GRID_CHAIN[:2]:
        p = GridPartition(1, len(labels), labels, t)
        dists.append(l1_distance(w, step_average(w, p)))
    assert dists[1] > dists[0] + 1e-6


def test_step_average_incompatible_resolution() -> None:
    w = random_step_graphon(2, 2, 2, 4, seed=2)
    with pytest.raises(ValueError, match="incompatible"):
        step_average(w, GridPartition(1, 3, np.array([0, 1, 1]), 2))


@pytest.mark.parametrize("r,n,resolution", [(2, 3, 6), (2, 4, 2), (3, 3, 6), (3, 4, 2)])
def test_step_average_of_an_embedded_graph_is_that_of_its_step_form(r, n, resolution) -> None:
    rng = generator(r * 10 + n)
    g = make_hypergraph(n, r, 2, rng.integers(1, 3, size=comb(n, r)).tolist())
    p = random_grid_partition(r - 1, resolution, 2, seed=n)
    got = step_average(embed(g), p)
    # the vertex grid and, when p is finer, p's own grid give the same bits
    forms = [embed(g).to_step()]
    if resolution % n == 0:
        forms.append(embed(g).to_step(resolution))
    for form in forms:
        want = step_average(form, p)
        assert got.partition == want.partition == p
        assert got.arrays.keys() == want.arrays.keys()
        for c in want.arrays:
            assert np.array_equal(got.arrays[c], want.arrays[c])
    with pytest.raises(ValueError, match="incompatible resolutions"):
        step_average(embed(g), random_grid_partition(r - 1, n + 1, 2, seed=n))


def test_common_refinement_tracks_parents() -> None:
    a = GridPartition(1, 2, np.array([0, 1]), 2)
    b = GridPartition(1, 4, np.array([0, 1, 0, 1]), 2)
    part, pairs = common_refinement(a, b)
    assert part.resolution == 4
    assert part.t == len(pairs) == 4
    for cls in range(4):
        pa, pb = pairs[cls]
        cells = np.flatnonzero(part.labels == cls)
        assert all(a.refined(2).labels[c] == pa for c in cells)
        assert all(b.labels[c] == pb for c in cells)


def _general_refinement(a: GridPartition, b: GridPartition) -> tuple[GridPartition, np.ndarray]:
    """The refinement by relabeling the joint class codes, for any pair."""
    g = np.lcm(a.resolution, b.resolution)
    la, lb = a.refined(g // a.resolution).labels, b.refined(g // b.resolution).labels
    uniq, labels = np.unique(la * b.t + lb, return_inverse=True)
    part = GridPartition(a.r_minus_1, int(g), labels.reshape(la.shape), len(uniq))
    return part, np.stack(np.divmod(uniq, b.t), axis=1).astype(np.intp)


def _copy(p: GridPartition, allow_empty: bool | None = None) -> GridPartition:
    return GridPartition(p.r_minus_1, p.resolution, p.labels.copy(), p.t,
                         p.allow_empty if allow_empty is None else allow_empty)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), g=st.integers(1, 4), t=st.integers(1, 5),
       seed=st.integers(0, 10**6), empty=st.integers(0, 2))
def test_common_refinement_identity_matches_the_general_path(r, g, t, seed, empty) -> None:
    p = random_grid_partition(r - 1, g, t, seed)
    # `empty` extra classes no cell carries
    lone = GridPartition(p.r_minus_1, p.resolution, p.labels, p.t + empty, allow_empty=True)
    other = random_grid_partition(r - 1, g, t, seed + 1)
    cases = [(p, p), (p, _copy(p)), (_copy(p, True), p), (lone, lone), (lone, _copy(lone)),
             (p, other), (other, p), (lone, other)]
    for a, b in cases:
        part, pairs = common_refinement(a, b)
        want, want_pairs = _general_refinement(a, b)
        assert part == want and part.t == want.t
        assert pairs.dtype == want_pairs.dtype and np.array_equal(pairs, want_pairs)
        nonempty = bool(np.bincount(a.labels.ravel(), minlength=a.t).all())
        assert (part is a) == (a == b and nonempty)


def _relabeled(w: StepGraphon, seed: int) -> StepGraphon:
    """``w`` on its partition with the classes permuted: the same step function."""
    p = w.partition
    perm = generator(seed).permutation(p.t)
    part = GridPartition(p.r_minus_1, p.resolution, perm[p.labels], p.t)
    inv = np.argsort(perm)
    return StepGraphon(w.r, w.k, part, {c: a[np.ix_(*([inv] * w.r))]
                                        for c, a in w.arrays.items()})


def _on(w: StepGraphon, part: GridPartition) -> StepGraphon:
    return StepGraphon(w.r, w.k, part, dict(w.arrays))


def _random_on(part: GridPartition, r: int, channels: list[int], seed: int) -> StepGraphon:
    rng = generator(seed)
    raw = {c: graphon._symmetrize(rng.random((part.t,) * r)) for c in channels}
    total = sum(raw.values())
    return StepGraphon(r, max(channels), part, {c: a / total for c, a in raw.items()})


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 3), t=st.integers(1, 4), k=st.integers(1, 3),
       seed=st.integers(0, 10**6), iota=st.booleans())
def test_shared_partition_distances_and_transfer_are_bit_identical(r, t, k, seed, iota) -> None:
    from hypertest.transfer import transfer_coloring

    p = random_grid_partition(r - 1, {1: 1, 2: 4, 3: 2}[r], t, seed)
    palette = list(range(1, 2 * k + 1))
    u = _random_on(p, r, [0] * iota + palette, seed)
    w = _random_on(p, r, [0] * (not iota) + palette, seed + 1)
    v = _random_on(p, r, [0] * iota + list(range(1, k + 1)), seed + 2)
    # w on the same partition object, against w on an equal copy and on a
    # relabeled copy (which takes the general path)
    part, diffs = channel_differences(u, w)
    assert part is p
    for other in (_on(w, _copy(p)), _relabeled(w, seed)):
        assert l1_distance(u, other) == l1_distance(u, w)
        assert l2_distance(u, other) == l2_distance(u, w)
        other_part, other_diffs = channel_differences(u, other)
        assert other_part == part and list(other_diffs) == list(diffs)
        for c in diffs:
            assert np.array_equal(other_diffs[c], diffs[c])
    got = transfer_coloring(u, v)
    assert got.partition is p
    for other in (_on(v, _copy(p)), _relabeled(v, seed)):
        again = transfer_coloring(u, other)
        assert again.partition == p and list(again.arrays) == list(got.arrays)
        for c in got.arrays:
            assert np.array_equal(again.arrays[c], got.arrays[c])


def test_embedded_samples_of_one_size_share_one_partition() -> None:
    from hypertest.transfer import embed_sample

    u = random_step_graphon(2, 3, 2, 4, seed=5)
    first, second = (embed_sample(sample_graphon(u, 9, seed)) for seed in (1, 2))
    assert first.partition is second.partition is orbit_partition(1, 9)
    assert first.partition == GridPartition(1, 9, np.arange(9), 9)
    assert l1_distance(first, second) == l1_distance(first, _on(second, _copy(second.partition)))


def test_l1_distance_zero_and_symmetry() -> None:
    u = random_step_graphon(2, 2, 3, 4, seed=31)
    w = random_step_graphon(2, 2, 2, 2, seed=32)
    assert l1_distance(u, u) == pytest.approx(0.0, abs=1e-14)
    assert l1_distance(u, w) == pytest.approx(l1_distance(w, u))
    assert l1_distance(u, w) > 0


def _expand_replay(u: StepGraphon, w: StepGraphon) -> tuple[GridPartition, dict[int, np.ndarray]]:
    """Channel differences the long way: per channel, expand both sides onto
    the common refinement (a missing channel as zeros) and subtract."""
    part, pairs = common_refinement(u.partition, w.partition)
    iu, iw = pairs.T

    def expand(arr, idx):
        if arr is None:
            return np.zeros((part.t,) * u.r)
        return arr[np.ix_(*([idx] * u.r))]

    out = {}
    for c in sorted(set(u.arrays) | set(w.arrays)):
        out[c] = expand(u.arrays.get(c), iu) - expand(w.arrays.get(c), iw)
    return part, out


_GRIDS = {1: (1, 2, 3), 2: (1, 2, 3, 4, 6), 3: (1, 2, 3)}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_channel_differences_match_expand_replay(data) -> None:
    # unequal grids, palettes of different sizes and channel 0 on either side
    r = data.draw(st.sampled_from((1, 2, 3)))
    u, w = (
        random_step_graphon(
            r, data.draw(st.integers(1, 3)), 1 if r == 1 else data.draw(st.integers(1, 3)),
            data.draw(st.sampled_from(_GRIDS[r])), seed=data.draw(st.integers(0, 10**6)),
            with_iota=data.draw(st.booleans()))
        for _ in range(2)
    )
    part, diffs = channel_differences(u, w)
    want_part, want = _expand_replay(u, w)
    assert part == want_part
    assert list(diffs) == list(want)
    for c in want:
        assert np.array_equal(diffs[c], want[c])


def test_channel_differences_reject_mixed_uniformity() -> None:
    with pytest.raises(ValueError, match="uniformities differ"):
        channel_differences(random_step_graphon(2, 2, 2, 2, seed=1),
                            random_step_graphon(3, 2, 2, 2, seed=1))


def test_grid_cells_boundaries_match_the_scalar_rule() -> None:
    for g in (1, 2, 3, 7, 40):
        assert graphon._grid_cells(np.array([0.0, 1.0]), g).tolist() == [0, g - 1]
        edges = np.arange(g + 1) / g
        xs = np.concatenate([generator(g).random(500), edges, np.nextafter(edges[1:], 0.0)])
        assert graphon._grid_cells(xs, g).tolist() == [graphon._cell(x, g) for x in xs]


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from((1, 2, 3)), extra=st.integers(0, 4), vertex=st.booleans(),
       seed=st.integers(0, 2**32))
def test_sample_graphon_draws_in_the_one_draw_order(r, extra, vertex, seed) -> None:
    if vertex and r > 1:  # an r = 1 type point has no vertex coordinates
        g = make_hypergraph(4, r, 2, generator(seed).integers(1, 3, comb(4, r)).tolist())
        w = embed(g)
    else:
        w = random_step_graphon(r, 2, t=3, resolution=3, seed=seed, with_iota=seed % 2 == 0)
    q = r + extra
    coords, ues = graphon._sample_uniforms(generator(seed + 1), q, r)
    sample = sample_graphon(w, q, seed + 1)
    assert sample.colors == graphon.colors_at(w, q, coords, ues)
    assert sample.coords == tuple(coords.tolist())
    if vertex and r > 1:
        assert sample.vertices == tuple(graphon._grid_cells(coords[:q], 4).tolist())


def test_inverse_cdf_tie_takes_the_next_choice() -> None:
    acc = np.array([[0.25, 0.5], [0.75, 0.75], [1.0, 1.0]])  # choices on axis 0
    assert _inverse_cdf(acc, np.array([0.25, 0.75])).tolist() == [1, 2]
    # a uniform at or past the last cumulative value takes the last choice
    assert _inverse_cdf(acc, np.array([1.0, 0.1])).tolist() == [2, 0]


def test_random_step_graphon_invariants() -> None:
    for r, g in ((2, 4), (3, 2)):
        w = random_step_graphon(r, 3, 2, g, seed=77, with_iota=(r == 2))
        total = sum(w.arrays.values())
        assert np.max(np.abs(total - 1.0)) < 1e-12
        for arr in w.arrays.values():
            for perm in itertools.permutations(range(r)):
                assert np.allclose(arr.transpose(perm), arr)


def test_step_graphon_validation_errors() -> None:
    part = GridPartition(1, 2, np.array([0, 1]), 2)
    good = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="sum to 1"):
        StepGraphon(2, 2, part, {1: good, 2: good * 0.5})
    with pytest.raises(ValueError, match="symmetric"):
        StepGraphon(2, 2, part, {1: np.array([[0.5, 0.1], [0.9, 0.5]]),
                                 2: np.array([[0.5, 0.9], [0.1, 0.5]])})
    with pytest.raises(ValueError, match="channels"):
        StepGraphon(2, 2, part, {1: good})


# ----------------------------------------------------------------------
# the one stacked channel store against the per-channel check it replaced


def _replayed_channel_check(shape: tuple[int, ...], arrays: dict) -> None:
    """The channel checks one channel at a time: copy, shape, range; then
    symmetry over the stacked copies and the summed total."""
    frozen = {}
    for c in sorted(arrays):
        arr = np.array(arrays[c], dtype=float)
        if arr.shape != shape:
            raise ValueError(f"channel {c} has shape {arr.shape}, expected {shape}")
        if arr.min() < -1e-12 or arr.max() > 1 + 1e-12:
            raise ValueError(f"channel {c} has entries outside [0, 1]")
        frozen[c] = arr
    _check_symmetric(np.stack(list(frozen.values())), [f"channel {c}" for c in frozen])
    total = sum(frozen.values())
    if np.max(np.abs(total - 1.0)) > 1e-12:
        raise ValueError("channel arrays must sum to 1 at every class tuple")


def _outcome(build) -> str | None:
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


def _edit_orbit(arr: np.ndarray, flat: int, value: float, add: bool) -> None:
    """Set (or add to) one entry and every index permutation of it: the edit stays symmetric."""
    idx = np.unravel_index(flat % arr.size, arr.shape)
    for perm in set(itertools.permutations(idx)):
        arr[perm] = arr[perm] + value if add else value


# kind -> (value, whether it is added, whether the whole orbit moves)
_CHANNEL_EDITS = {
    "nan": (np.nan, False, True), "nan-entry": (np.nan, False, False),
    "inf": (np.inf, False, True), "-inf": (-np.inf, False, True),
    "above": (1.5, False, True), "below": (-0.25, False, True),
    "slack": (-1e-13, False, True), "asymmetric": (0.1, True, False),
    "sum-tiny": (5e-13, True, True), "sum-off": (2e-12, True, True),
    "sum-far": (0.3, True, True),
}


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 3),
    t=st.integers(1, 4),
    k=st.integers(1, 3),
    iota=st.booleans(),
    seed=st.integers(0, 2**16),
    edits=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63),
                             st.sampled_from(sorted(_CHANNEL_EDITS))), max_size=3),
    misshape=st.one_of(st.none(), st.tuples(st.integers(0, 3),
                                            st.sampled_from(["t", "r", "ragged"]))),
)
@example(r=2, t=2, k=2, iota=False, seed=0, edits=[(0, 0, "above")], misshape=(1, "t"))
@example(r=2, t=2, k=2, iota=False, seed=0, edits=[(1, 0, "above")], misshape=(0, "t"))
@example(r=3, t=2, k=1, iota=True, seed=0, edits=[(1, 1, "nan-entry")], misshape=None)
@example(r=2, t=2, k=2, iota=False, seed=0, edits=[(0, 0, "below")], misshape=(1, "ragged"))
def test_step_graphon_checks_match_the_per_channel_loop(r, t, k, iota, seed, edits,
                                                        misshape) -> None:
    rng = generator(seed)
    part = random_grid_partition(r - 1, {1: 1, 2: 4, 3: 2}[r], t, seed)
    shape = (part.t,) * r
    channels = ([0] if iota else []) + list(range(1, k + 1))
    raw = {c: graphon._symmetrize(rng.random(shape)) for c in channels}
    total = sum(raw.values())
    arrays = {c: arr / total for c, arr in raw.items()}
    for c, flat, kind in edits:
        value, add, orbit = _CHANNEL_EDITS[kind]
        arr = arrays[channels[c % len(channels)]]
        if orbit:
            _edit_orbit(arr, flat, value, add)
        else:
            arr.flat[flat % arr.size] = arr.flat[flat % arr.size] + value if add else value
    if misshape is not None:
        c, how = misshape
        if how == "ragged":  # no array at all: its conversion raises
            bad = [[0.5, 0.5], [0.5]]
        else:
            bad = np.full((part.t + 1,) * r if how == "t" else (part.t,) * (r + 1), 0.5)
        arrays[channels[c % len(channels)]] = bad
    want = _outcome(lambda: _replayed_channel_check(shape, arrays))
    assert _outcome(lambda: StepGraphon(r, k, part, arrays)) == want


def test_step_graphon_keeps_one_read_only_store() -> None:
    part = GridPartition(1, 3, np.array([0, 1, 1]), 2)
    a1 = np.array([[0.2, 0.5], [0.5, 1.0]])
    arrays = {2: 1.0 - a1, 1: a1}
    w = StepGraphon(2, 2, part, arrays)
    assert w.channel_order == (1, 2) and w._store.shape == (2, 2, 2)
    for i, c in enumerate(w.channel_order):
        assert w.arrays[c].base is w._store
        assert np.array_equal(w.arrays[c], w._store[i])
        assert not w.arrays[c].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        w.arrays[1][0, 0] = 0.0
    # the store is a copy: the caller's arrays stay theirs
    a1[0, 0] = 0.9
    arrays[2][:] = 0.0
    assert w.arrays[1][0, 0] == 0.2 and w.arrays[2][0, 0] == 0.8
    assert np.array_equal(w._cumulative[-1], w.arrays[1] + w.arrays[2])


def test_json_roundtrip() -> None:
    w = random_step_graphon(3, 2, 3, 2, seed=55)
    again = step_graphon_from_json(step_graphon_to_json(w))
    assert again.partition == w.partition
    for c in w.arrays:
        assert np.array_equal(again.arrays[c], w.arrays[c])
    with pytest.raises(ValueError, match="missing"):
        step_graphon_from_json({"r": 2})


def test_sample_subgraph_and_graphon_share_palette_conventions() -> None:
    g = make_hypergraph(6, 3, 2, [1 + (i % 2) for i in range(20)])
    s1 = sample_subgraph(g, 4, seed=3)
    s2 = sample_graphon(embed(g), 4, seed=3, condition_no_iota=True)
    assert s1.k == s2.k and s1.r == s2.r
    assert len(s2.colors) == comb(4, 3)
