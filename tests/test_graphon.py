import itertools
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
