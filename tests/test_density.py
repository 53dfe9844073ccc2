"""Density, sample-distribution, and variation-distance tests."""

import itertools
import json
import time
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.budget import DEFAULT_BUDGET, BudgetError, limit
from functools import reduce

from hypertest.density import (
    _MC_BLOCK,
    SampleDistribution,
    _match_probs,
    _mean_outer,
    _step_edge_probs,
    all_patterns,
    counting_bound_check,
    counting_constant,
    density_graph,
    density_graphon,
    density_mc,
    greedy_coupling,
    sample_distribution,
    sample_laws,
    tv_distance,
    tv_forms,
    variation_constant,
)
from hypertest.graphon import (
    StepGraphon,
    VertexGraphon,
    _grid_cells,
    constant_graphon,
    embed,
    evaluate,
    random_step_graphon,
    sample_coordinates,
    sample_graphon,
    subsets_card_lex,
)
from hypertest.hypercore import (
    ColoredHypergraph,
    SampledColoredGraph,
    colex_edges,
    make_hypergraph,
    sample_subgraph,
)
from hypertest.seeds import derive_seed, generator

# cycle 0-1-2-3-4-0 written in colex pair order
C5 = make_hypergraph(5, 2, 2, [1, 2, 1, 2, 2, 1, 1, 2, 2, 1])
EDGE = make_hypergraph(2, 2, 2, [1])


def graphs_on(q, r, k):
    for pattern in all_patterns(q, r, k):
        yield make_hypergraph(q, r, k, list(pattern))


class TestDensityGraph:
    def test_forced_monochromatic(self):
        mono = make_hypergraph(4, 2, 2, [1] * 6)
        assert density_graph(make_hypergraph(3, 2, 2, [1, 1, 1]), mono) == 1.0

    def test_edge_density_of_cycle(self):
        assert density_graph(EDGE, C5) == pytest.approx(0.5)

    def test_total_probability(self):
        total = sum(density_graph(f, C5) for f in graphs_on(3, 2, 2))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_sampler_frequencies(self):
        # the density is by definition the sorted-subset sampler's hit rate
        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        exact = density_graph(f, C5)
        hits = 0
        trials = 4000
        for i in range(trials):
            sample = sample_subgraph(C5, 3, seed=derive_seed(77, i))
            hits += tuple(sample.colors) == (1, 2, 1)
        rate = hits / trials
        assert abs(rate - exact) < 4 * np.sqrt(exact * (1 - exact) / trials) + 1e-9

    def test_orbit_mass_is_relabeling_invariant(self):
        # individual labeled densities depend on the sorted-sample order, but
        # the mass of a relabeling orbit is an isomorphism invariant
        g = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 2])
        h = g.relabeled((3, 2, 1, 0))
        base = make_hypergraph(3, 2, 2, [1, 2, 2])
        orbit = {base.relabeled(p).colors for p in itertools.permutations(range(3))}
        mass_g = sum(density_graph(make_hypergraph(3, 2, 2, list(c)), g) for c in orbit)
        mass_h = sum(density_graph(make_hypergraph(3, 2, 2, list(c)), h) for c in orbit)
        assert mass_g == pytest.approx(mass_h, abs=1e-12)

    def test_iota_pattern_impossible(self):
        from hypertest.hypercore import SampledColoredGraph

        f = SampledColoredGraph(q=2, r=2, k=2, colors=(0,))
        assert density_graph(f, C5) == 0.0

    def test_preconditions(self):
        with pytest.raises(ValueError, match="palettes"):
            density_graph(make_hypergraph(2, 2, 3, [1]), C5)
        with pytest.raises(ValueError, match="sample size"):
            density_graph(make_hypergraph(6, 2, 2, [1] * 15), C5)
        with limit(3), pytest.raises(BudgetError, match="density_mc"):
            density_graph(EDGE, C5)


class TestDensityGraphon:
    def test_constant_graphon_power(self):
        w = constant_graphon(2, 2, [0.3, 0.7])
        f = make_hypergraph(3, 2, 2, [1, 1, 1])
        assert density_graphon(f, w) == pytest.approx(0.3**3)

    def test_embedded_r1_graph_keeps_its_exact_laws(self):
        # sampling refuses an embedded r = 1 graph; its exact laws do not
        w = embed(make_hypergraph(4, 1, 2, [1, 2, 1, 2]))
        assert density_graphon(make_hypergraph(2, 1, 2, [1, 2]), w) == pytest.approx(0.25)
        assert sum(sample_distribution(w, 2).probs.values()) == pytest.approx(1.0)

    def test_matches_pointwise_integral(self):
        # oracle: sum evaluate() over cell centers, all grid assignments
        from hypertest.graphon import subsets_card_lex

        w = random_step_graphon(2, 2, 3, 3, seed=12)
        g = w.partition.resolution
        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        coords = list(subsets_card_lex(tuple(range(3)), 1))
        acc = 0.0
        for cells in itertools.product(range(g), repeat=len(coords)):
            pts = {c: (cells[i] + 0.5) / g for i, c in enumerate(coords)}
            prod = 1.0
            for e in f.edges():
                prod *= evaluate(w, f.color_of(e), (pts[(e[0],)], pts[(e[1],)]))
            acc += prod
        acc /= g ** len(coords)
        assert density_graphon(f, w) == pytest.approx(acc, abs=1e-12)

    def test_r3_matches_pointwise_integral(self):
        from hypertest.graphon import subsets_card_lex

        w = random_step_graphon(3, 2, 2, 2, seed=6)
        g = w.partition.resolution
        f = make_hypergraph(3, 3, 2, [1])
        coords = list(subsets_card_lex(tuple(range(3)), 2))
        acc = 0.0
        for cells in itertools.product(range(g), repeat=len(coords)):
            pts = {c: (cells[i] + 0.5) / g for i, c in enumerate(coords)}
            point = tuple(pts[c] for c in coords)  # (card,lex) order already
            acc += evaluate(w, 1, point)
        acc /= g ** len(coords)
        assert density_graphon(f, w) == pytest.approx(acc, abs=1e-12)

    def test_embedding_bound_exhaustive_n6(self):
        g = make_hypergraph(6, 2, 2, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1])
        vg = embed(g)
        bound = comb(3, 2) / (6 - comb(3, 2))
        for f in graphs_on(3, 2, 2):
            gap = abs(density_graphon(f, vg) - density_graph(f, g))
            assert gap <= bound + 1e-12

    def test_monte_carlo_within_four_stderr(self):
        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        bad = 0
        for seed in range(20):
            w = random_step_graphon(2, 2, 2, 2, seed=1000 + seed)
            exact = density_graphon(f, w)
            est, se = density_mc(f, w, trials=10**4, seed=seed)
            if abs(est - exact) > 4 * max(se, 1e-12):
                bad += 1
        assert bad == 0

    def test_a_color_without_a_channel_has_density_zero(self):
        w = random_step_graphon(2, 2, 2, 2, seed=1)  # no reserved channel
        f = SampledColoredGraph(q=3, r=2, k=2, colors=(1, 0, 2))
        assert density_graphon(f, w) == 0.0
        assert density_mc(f, w, trials=50, seed=0) == (0.0, 0.0)

    def test_one_trial_has_no_standard_error(self):
        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        for source in (random_step_graphon(2, 2, 2, 2, seed=1), embed(C5), C5):
            est, se = density_mc(f, source, trials=1, seed=0)
            assert 0.0 <= est <= 1.0 and se is None

    @staticmethod
    def _unblocked_mc(f, source, trials, seed):
        """density_mc over all trials in one pass: the blocked loop's reference."""
        rng, q = generator(seed), f.n
        if isinstance(source, ColoredHypergraph):
            rows = np.sort(rng.random((trials, source.n)).argsort(axis=1)[:, :q], axis=1)
        elif isinstance(source, VertexGraphon):
            rows = rng.integers(0, source.n, size=(trials, q))
        else:
            coords = rng.random((trials, len(sample_coordinates(q, source.r))))
            rows = _grid_cells(coords, source.partition.resolution)
        x = _match_probs(source, rows, q, f.colors)
        return float(x.mean()), float(x.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None

    @pytest.mark.parametrize("trials", [1, 2, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                        3 * _MC_BLOCK + 5])
    @pytest.mark.parametrize("kind", ["graph", "vertex-graphon", "step-r2", "step-r3"])
    def test_blocks_give_the_unblocked_estimate(self, kind, trials):
        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        if kind == "graph":
            source = C5
        elif kind == "vertex-graphon":
            source = embed(C5)
        elif kind == "step-r2":
            source = random_step_graphon(2, 2, t=3, resolution=3, seed=4)
        else:
            f = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
            source = random_step_graphon(3, 2, t=2, resolution=2, seed=5)
        got = density_mc(f, source, trials=trials, seed=trials)
        assert repr(got) == repr(self._unblocked_mc(f, source, trials, trials))

    @pytest.mark.parametrize("trials", [0, -1])
    def test_monte_carlo_needs_a_trial(self, trials):
        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        for source in (random_step_graphon(2, 2, 2, 2, seed=1), embed(C5), C5):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                density_mc(f, source, trials=trials, seed=0)

    def test_budget_and_fallback(self):
        w = random_step_graphon(2, 2, 2, 6, seed=0)
        f = make_hypergraph(4, 2, 2, [1] * 6)
        with limit(100), pytest.raises(BudgetError):
            density_graphon(f, w)
        est, se = density_mc(f, w, trials=2000, seed=5)
        assert 0.0 <= est <= 1.0 and se >= 0.0

    def test_vertex_graphon_fast_path(self):
        g = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1])
        vg = embed(g)
        f = make_hypergraph(2, 2, 2, [1])
        # 2 edges out of 16 ordered pairs with distinct cells... the exact
        # value counts ordered cell assignments: 4 ordered adjacent pairs / 16
        assert density_graphon(f, vg) == pytest.approx(4 / 16)


def _match_probs_by_all_channels(w: StepGraphon, rows, q, pattern):
    """The all-channel gather: every channel per edge, then the pattern's column."""
    if any(c not in w.arrays for c in pattern):
        return np.zeros(len(rows))
    probs = _step_edge_probs(w, rows, q)
    chan_idx = {c: i for i, c in enumerate(w.channel_order)}
    value = np.ones(len(rows))
    for col, color in enumerate(pattern):
        value = value * probs[col][:, chan_idx[color]]
    return value


@settings(max_examples=120, deadline=None)
@given(r=st.integers(1, 3), dq=st.integers(0, 2), k=st.integers(1, 3), t=st.integers(1, 3),
       g=st.integers(1, 4), iota=st.booleans(), absent=st.booleans(),
       seed=st.integers(0, 10**6))
def test_one_channel_gather_matches_the_all_channel_gather(r, dq, k, t, g, iota, absent, seed):
    q = r + dq
    w = random_step_graphon(r, k, t, g, seed=seed, with_iota=iota)
    rng = generator(seed)
    rows = _grid_cells(rng.random((64, len(sample_coordinates(q, r)))), g)
    pattern = rng.integers(0 if iota else 1, k + 1, size=comb(q, r)).tolist()
    if absent:  # a color the graphon has no channel for
        pattern[int(rng.integers(len(pattern)))] = k + 1 if iota else 0
    got = _match_probs(w, rows, q, tuple(pattern))
    assert np.array_equal(got, _match_probs_by_all_channels(w, rows, q, tuple(pattern)))
    if absent:
        assert not got.any()


class TestSampleDistribution:
    SOURCES = {
        "graph": C5,
        "vertex-graphon": embed(C5),
        "step-graphon": random_step_graphon(2, 2, 2, 4, seed=3),
    }

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_empty_sample_has_the_law_of_a_one_vertex_sample(self, kind):
        # below r vertices there are no edges: one empty pattern, at probability 1
        zero, one = (sample_distribution(self.SOURCES[kind], q) for q in (0, 1))
        assert zero.probs == one.probs == {(): 1.0}
        assert zero.has_iota == one.has_iota

    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_negative_sample_size_is_refused_naming_q(self, kind):
        with pytest.raises(ValueError, match="q=-1"):
            sample_distribution(self.SOURCES[kind], -1)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_sample_larger_than_the_graph_is_refused(self, sampled):
        g = SampledColoredGraph(5, 2, 2, C5.colors) if sampled else C5
        # the size is checked before the support 2^C(6, 2) meets the budget
        with limit(1), pytest.raises(ValueError, match="sample size 6 exceeds vertex count 5"):
            sample_distribution(g, 6)

    def test_graph_normalization(self):
        mu = sample_distribution(C5, 3)
        assert sum(mu.probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert not mu.has_iota
        assert len(mu.probs) == 2 ** comb(3, 2)

    def test_matches_per_pattern_density(self):
        mu = sample_distribution(C5, 3)
        for f in graphs_on(3, 2, 2):
            pattern = tuple(f.color_of(e) for e in f.edges())
            assert mu.prob(pattern) == pytest.approx(density_graph(f, C5), abs=1e-12)

    def test_constant_graphon_two_atoms(self):
        mu = sample_distribution(constant_graphon(2, 2, [0.3, 0.7]), 2)
        assert mu.prob((1,)) == pytest.approx(0.3)
        assert mu.prob((2,)) == pytest.approx(0.7)

    def test_step_graphon_matches_density(self):
        w = random_step_graphon(2, 2, 2, 2, seed=21)
        mu = sample_distribution(w, 3)
        for f in graphs_on(3, 2, 2):
            pattern = tuple(f.color_of(e) for e in f.edges())
            assert mu.prob(pattern) == pytest.approx(density_graphon(f, w), abs=1e-12)

    def test_iota_mass_of_embedded_triangle(self):
        mu = sample_distribution(embed(make_hypergraph(3, 2, 2, [1, 1, 1])), 2)
        iota_mass = sum(p for pattern, p in mu.probs.items() if 0 in pattern)
        assert iota_mass == pytest.approx(1 / 3)
        assert mu.has_iota

    def test_matches_empirical_sampler(self):
        w = random_step_graphon(2, 2, 2, 2, seed=33)
        mu = sample_distribution(w, 2)
        counts = {}
        trials = 5000
        for i in range(trials):
            s = sample_graphon(w, 2, seed=derive_seed(5, i))
            counts[tuple(s.colors)] = counts.get(tuple(s.colors), 0) + 1
        for pattern, p in mu.probs.items():
            freq = counts.get(pattern, 0) / trials
            assert abs(freq - p) < 4 * np.sqrt(max(p * (1 - p), 1e-4) / trials) + 0.01

    def test_support_budget(self):
        with limit(50), pytest.raises(BudgetError):
            sample_distribution(C5, 4)

    def test_huge_support_refused_before_it_is_built(self):
        # 3 ** C(5000, 2) takes seconds to build; its bit length refuses it at once
        w = random_step_graphon(2, 2, t=2, resolution=4, seed=1, with_iota=True)
        payload = {"q": 5000, "r": 2, "k": 2, "has_iota": True, "probs": {}}
        for stage, build in (("sample_distribution support", lambda: sample_distribution(w, 5000)),
                             ("sample law support", lambda: SampleDistribution.from_json(payload))):
            start = time.perf_counter()
            with limit(DEFAULT_BUDGET), pytest.raises(BudgetError) as err:
                build()
            assert time.perf_counter() - start < 0.5
            assert err.value.stage == stage

    def test_sampled_graph_matches_equivalent_hypergraph(self):
        s = sample_subgraph(C5, 4, seed=3)
        assert not s.has_iota()
        direct = sample_distribution(s, 3)
        via = sample_distribution(make_hypergraph(s.q, s.r, s.k, s.colors), 3)
        assert not direct.has_iota
        for p in all_patterns(3, 2, 2):
            assert direct.prob(p) == pytest.approx(via.prob(p), abs=1e-12)

    def test_sampled_graph_with_iota(self):
        s = SampledColoredGraph(3, 2, 2, (0, 1, 2))
        law = sample_distribution(s, 2)
        assert law.has_iota
        assert law.prob((0,)) == pytest.approx(1 / 3)
        assert sum(law.probs.values()) == pytest.approx(1.0)

    def test_json_roundtrip(self):
        mu = sample_distribution(C5, 3)
        payload = json.loads(json.dumps(mu.to_json()))
        back = SampleDistribution.from_json(payload)
        assert (back.q, back.r, back.k, back.has_iota) == (mu.q, mu.r, mu.k, mu.has_iota)
        assert back.probs == mu.probs

    @pytest.mark.parametrize("probs,message", [
        ({"1": float("nan"), "2": float("nan")}, "non-finite"),
        ({"7": 1.0}, "off the support"),
        ({"1,1,1": 1.0}, "off the support"),
    ])
    def test_from_json_refuses_a_bad_law_by_name(self, probs, message):
        payload = {"q": 2, "r": 2, "k": 2, "has_iota": False, "probs": probs}
        with pytest.raises(ValueError, match=message):
            SampleDistribution.from_json(payload)

    def test_law_is_checked_once_and_read_only(self):
        with pytest.raises(ValueError, match="law length"):
            SampleDistribution(2, 2, 2, False, np.array([1.0]))
        mu = SampleDistribution(2, 2, 2, False, np.array([0.25, 0.75]))
        assert mu.probs == {(1,): 0.25, (2,): 0.75}
        with pytest.raises(ValueError, match="read-only"):
            mu.law[0] = 1.0

    @settings(max_examples=40, deadline=None)
    @given(r=st.sampled_from((2, 3)), extra=st.integers(0, 1), g=st.integers(1, 3),
           t=st.integers(1, 3), seed=st.integers(0, 10**6), with_iota=st.booleans())
    def test_step_law_matches_cell_enumeration(self, r, extra, g, t, seed, with_iota):
        q = r + extra
        if r == 3 and extra:
            g = min(g, 2)  # 3^10 coordinate cells would make the oracle slow
        w = random_step_graphon(r, 2, t, g, seed=seed, with_iota=with_iota)
        coords = sample_coordinates(q, r)
        edges = colex_edges(q, r).tolist()
        law = np.zeros((len(w.channel_order),) * len(edges))
        # every assignment of grid cells to sample coordinates is equally likely;
        # given one, the edges take their colors independently, each by the
        # graphon's value at the cell centres of its own type point
        for cells in itertools.product(range(g), repeat=len(coords)):
            x = {s: (c + 0.5) / g for s, c in zip(coords, cells)}
            cell_law = np.ones(())
            for e in edges:
                point = [x[s] for s in subsets_card_lex(e, r - 1)]
                probs = [w.evaluate(alpha, point) for alpha in w.channel_order]
                cell_law = np.multiply.outer(cell_law, probs)
            law += cell_law / g ** len(coords)
        mu = sample_distribution(w, q)
        assert mu.has_iota == with_iota
        assert len(mu.probs) == law.size
        for idx in itertools.product(range(len(w.channel_order)), repeat=len(edges)):
            pattern = tuple(w.channel_order[i] for i in idx)
            assert mu.prob(pattern) == pytest.approx(law[idx], rel=0, abs=1e-12)

    @pytest.mark.parametrize("q", [8, 12])
    def test_single_channel_law_past_einsum_labels(self, q):
        # 28 and 66 edges: more than one einsum string's letters, and 66
        # more than numpy's 52 einsum labels and 64 array dimensions
        mu = sample_distribution(constant_graphon(2, 1, [1.0]), q)
        assert mu.probs == {(1,) * comb(q, 2): 1.0}

    def test_fourteen_edges_two_channels(self):
        # edge 14 once shared the einsum letter of the cell axis
        mu = sample_distribution(constant_graphon(2, 2, [0.3, 0.7]), 6)
        assert len(mu.probs) == 2**15
        pattern = (1,) * 5 + (2,) * 10
        assert mu.prob(pattern) == pytest.approx(0.3**5 * 0.7**10, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(ones=st.integers(0, 125), wide=st.lists(st.sampled_from((2, 3)), max_size=4),
           cells=st.integers(1, 4), seed=st.integers(0, 10**6))
    def test_mean_outer_matches_kron(self, ones, wide, cells, seed):
        # up to 129 edges, so the fold past numpy's 52 einsum labels runs
        rng = np.random.default_rng(seed)
        sizes = rng.permutation([1] * ones + wide + [2]).tolist()
        per_edge = [rng.uniform(0, 1, (cells, c)) for c in sizes]
        kron = np.mean([reduce(np.kron, [p[n] for p in per_edge]) for n in range(cells)], axis=0)
        assert np.allclose(_mean_outer(per_edge), kron, rtol=1e-12, atol=0)


class TestVariationDistance:
    def test_identical_is_zero(self):
        mu = sample_distribution(C5, 3)
        assert tv_distance(mu, mu) == 0.0

    def test_constant_graphons_analytic(self):
        a = sample_distribution(constant_graphon(2, 2, [0.3, 0.7]), 2)
        b = sample_distribution(constant_graphon(2, 2, [0.55, 0.45]), 2)
        assert tv_distance(a, b) == pytest.approx(0.25)

    def test_forms_agree(self):
        a = sample_distribution(C5, 3)
        b = sample_distribution(make_hypergraph(5, 2, 2, [1] * 10), 3)
        half_sum, max_event = tv_forms(a, b)
        assert half_sum == pytest.approx(max_event, abs=1e-9)

    def test_triangle_inequality(self):
        mus = [
            sample_distribution(random_step_graphon(2, 2, 2, 2, seed=s), 3)
            for s in (1, 2, 3)
        ]
        d01 = tv_distance(mus[0], mus[1])
        d12 = tv_distance(mus[1], mus[2])
        d02 = tv_distance(mus[0], mus[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_unnormalized_law_rejected(self):
        # built around the constructor's check, as a hand-edited law could be
        mu = sample_distribution(C5, 2)
        heavy = object.__new__(SampleDistribution)
        for field, value in vars(mu).items():
            object.__setattr__(heavy, field, value)
        law = mu.law.copy()
        law[0] += 0.5
        object.__setattr__(heavy, "law", law)
        with pytest.raises(ValueError, match="forms disagree"):
            tv_distance(heavy, mu)

    def test_mismatched_support_rejected(self):
        mu_graph = sample_distribution(C5, 2)
        mu_iota = sample_distribution(embed(C5), 2)
        with pytest.raises(ValueError, match="support"):
            tv_distance(mu_graph, mu_iota)

    def test_greedy_coupling_disagreement_equals_tv(self):
        for seed in range(20):
            a = sample_distribution(random_step_graphon(2, 2, 2, 2, seed=seed), 2)
            b = sample_distribution(random_step_graphon(2, 2, 3, 3, seed=seed + 100), 2)
            tv = tv_distance(a, b)
            coupling, disagreement = greedy_coupling(a, b)
            assert tv <= disagreement + 1e-12
            assert disagreement == pytest.approx(tv, abs=1e-9)
            assert sum(coupling.values()) == pytest.approx(1.0, abs=1e-9)
            # marginals reproduce the inputs
            left = {}
            for (x, _), p in coupling.items():
                left[x] = left.get(x, 0.0) + p
            for key, p in a.probs.items():
                assert left.get(key, 0.0) == pytest.approx(p, abs=1e-9)


def _law_source(kind: str, q: int, r: int, k: int, seed: int):
    """A small source of each support kind: step graphons with and without the
    reserved channel, a graph, and an embedded graph (which has it)."""
    if kind.startswith("step"):
        return random_step_graphon(r, k, 2, 2, seed=seed, with_iota=kind == "step-iota")
    colors = generator(seed).integers(1, k + 1, size=comb(q + 1, r))
    g = make_hypergraph(q + 1, r, k, [int(c) for c in colors])
    return embed(g) if kind == "embedded" else g


@settings(max_examples=150, deadline=None)
@given(r=st.integers(1, 3), dq=st.integers(-1, 1), k=st.integers(1, 3),
       kinds=st.tuples(*[st.sampled_from(("step", "step-iota", "graph", "embedded"))] * 2),
       seed=st.integers(0, 10**6))
def test_law_arrays_match_per_pattern_oracles(r, dq, k, kinds, seed):
    q = r + dq
    a, b = (_law_source(kind, q, r, k, seed + i) for i, kind in enumerate(kinds))
    la, lb = sample_laws(a, b, q)
    # padding: a dict copy of the unpadded law's probs over the padded patterns
    for law, source in ((la, a), (lb, b)):
        alone = sample_distribution(source, q)
        want = dict(alone.probs)
        if law.has_iota and not alone.has_iota:
            want = dict.fromkeys(all_patterns(q, r, k, with_iota=True), 0.0)
            want.update(alone.probs)
        assert list(law.probs.items()) == list(want.items())
    # both forms of the variation distance, one pattern at a time
    diffs = [la.prob(p) - lb.prob(p) for p in all_patterns(q, r, k, with_iota=la.has_iota)]
    half_sum, max_event = tv_forms(la, lb)
    assert abs(half_sum - 0.5 * fsum(abs(d) for d in diffs)) <= 1e-15
    assert abs(max_event - fsum(d for d in diffs if d > 0)) <= 1e-15


def _with_zero_iota(w: StepGraphon) -> StepGraphon:
    """The same graphon with an explicit all-zero reserved channel."""
    shape = (w.partition.t,) * w.r
    return StepGraphon(w.r, w.k, w.partition, {0: np.zeros(shape), **w.arrays})


class TestSampleLaws:
    @settings(max_examples=40, deadline=None)
    @given(r=st.sampled_from((2, 3)), q=st.sampled_from((3, 4)), g=st.sampled_from((2, 3)),
           t=st.integers(1, 3), seed=st.integers(0, 10**6), swap=st.booleans())
    def test_padding_the_law_matches_padding_the_graphon(self, r, q, g, t, seed, swap):
        pair = (random_step_graphon(r, 2, t, g, seed=seed),
                random_step_graphon(r, 2, t, g, seed=seed + 1, with_iota=True))
        if swap:
            pair = pair[::-1]
        la, lb = sample_laws(*pair, q)
        assert la.has_iota and lb.has_iota
        padded = [sample_distribution(_with_zero_iota(w) if not w.has_iota else w, q)
                  for w in pair]
        got, want = tv_distance(la, lb), tv_distance(*padded)
        # a zero channel widens every einsum operand by one column; on grid 2
        # the sums keep their order and the TVs are bit-equal, while on grid
        # 3 (r = 2, q = 4) they can differ in the last bits
        if g == 2:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=0, abs=1e-15)

    def test_same_support_laws_are_untouched(self):
        u = random_step_graphon(2, 2, 2, 2, seed=3)
        w = random_step_graphon(2, 2, 3, 4, seed=4)
        la, lb = sample_laws(u, w, 3)
        assert not la.has_iota and not lb.has_iota
        assert la.probs == sample_distribution(u, 3).probs
        assert lb.probs == sample_distribution(w, 3).probs

    def test_strict_tv_still_rejects_mixed_supports(self):
        u = random_step_graphon(2, 2, 2, 2, seed=3)
        w = random_step_graphon(2, 2, 2, 2, seed=4, with_iota=True)
        with pytest.raises(ValueError, match="mismatched support"):
            tv_distance(sample_distribution(u, 3), sample_distribution(w, 3))


class TestCountingBound:
    def test_equal_inputs_zero_lhs(self):
        w = random_step_graphon(2, 2, 2, 2, seed=4)
        report = counting_bound_check(w, w, 3)
        assert report["cut_distance"] == pytest.approx(0.0, abs=1e-12)
        assert report["worst_pattern_gap"] == pytest.approx(0.0, abs=1e-12)
        assert report["violations"] == 0

    def test_constants(self):
        assert counting_constant(4, 2) == 6
        assert variation_constant(3, 2, 2) == pytest.approx(2**9 * 9 / 4)

    def test_random_pairs_no_violations(self):
        for seed in range(12):
            u = random_step_graphon(2, 2, 2, 2, seed=seed)
            w = random_step_graphon(2, 2, 2, 2, seed=seed + 500)
            report = counting_bound_check(u, w, 3)
            assert report["violations"] == 0
            assert report["worst_slack"] >= -1e-9

    def test_mixed_reserved_color_pair(self):
        # one side carries the reserved channel: both laws go on one support
        u = random_step_graphon(2, 2, 2, 2, seed=7, with_iota=True)
        w = random_step_graphon(2, 2, 2, 2, seed=8)
        report = counting_bound_check(u, w, 3)
        assert report["tv"] == tv_distance(*sample_laws(u, w, 3))
        assert report["violations"] == 0
