"""Coloring transfer: cellwise rule, volume base case, lifting, estimation."""

import itertools
import json
from math import comb, log

import numpy as np
import pytest

from hypertest import transfer
from hypertest.budget import BudgetError, limit
from hypertest.density import sample_distribution, tv_distance
from hypertest.graphon import (
    GridPartition,
    StepGraphon,
    VertexGraphon,
    color_mass,
    constant_graphon,
    l1_distance,
    random_grid_partition,
    random_step_graphon,
    sample_coordinates,
    sample_graphon,
)
from hypertest.hypercore import (
    ColoredHypergraph,
    SampledColoredGraph,
    composite_color,
    discolor,
    make_hypergraph,
    split_color,
)
from hypertest.seeds import derive_seed, generator
from hypertest.testers import ParameterFn, nd_parameter
from hypertest.transfer import (
    base_case_report,
    base_case_transfer,
    base_sample_requirement,
    discolor_step,
    embed_sample,
    lift_coloring,
    max_over_refinements,
    nd_estimate_pipeline,
    product_tv,
    transfer_bound_report,
    transfer_coloring,
)


def refine_sample(sample, k, seed):
    """Random k-refinement of the non-reserved edges of a sample."""
    rng = generator(seed)
    colors = tuple(
        c if c == 0 else composite_color(c, int(rng.integers(1, k + 1)), k)
        for c in sample.colors
    )
    return SampledColoredGraph(sample.q, sample.r, sample.k * k, colors,
                               vertices=sample.vertices, coords=sample.coords)


class TestDiscolorStep:
    def test_channel_groups_sum(self):
        w = random_step_graphon(2, 6, t=3, resolution=3, seed=2)
        merged = discolor_step(w, 3)
        assert merged.k == 2
        for alpha in (1, 2):
            expected = sum(w.arrays[(alpha - 1) * 3 + beta] for beta in (1, 2, 3))
            assert np.allclose(merged.arrays[alpha], expected)

    def test_iota_passes_through(self):
        w = random_step_graphon(2, 4, t=2, resolution=2, seed=5, with_iota=True)
        merged = discolor_step(w, 2)
        assert np.array_equal(merged.arrays[0], w.arrays[0])

    def test_rejects_bad_arity(self):
        w = random_step_graphon(2, 3, t=2, resolution=2, seed=1)
        with pytest.raises(ValueError, match="divisible"):
            discolor_step(w, 2)


class TestTransferColoring:
    def test_self_transfer_is_bit_exact(self):
        # v = [u_hat, k] makes the scale factor exactly 1.0 cellwise.
        u_hat = random_step_graphon(2, 4, t=3, resolution=2, seed=7)
        v = discolor_step(u_hat, 2)
        out = transfer_coloring(u_hat, v, u_hat.partition)
        for c in range(1, 5):
            assert np.array_equal(out.arrays[c], u_hat.arrays[c])

    def test_even_split_where_base_vanishes(self):
        part = GridPartition(1, 2, np.array([0, 1]), 2)
        u1 = np.array([[0.0, 0.3], [0.3, 0.6]])
        u_hat = StepGraphon(2, 4, part, {
            1: u1 / 3.0,
            2: u1 * (2.0 / 3.0),
            3: (1.0 - u1) / 2.0,
            4: (1.0 - u1) / 2.0,
        })
        v1 = np.array([[0.8, 0.5], [0.5, 0.5]])
        v = StepGraphon(2, 2, part, {1: v1, 2: 1.0 - v1})
        out = transfer_coloring(u_hat, v, part)
        # base channel 1 of u_hat vanishes at cell (0, 0): even split there
        assert out.arrays[1][0, 0] == pytest.approx(0.4)
        assert out.arrays[2][0, 0] == pytest.approx(0.4)
        # elsewhere the 1:2 share is copied
        assert out.arrays[1][0, 1] == pytest.approx(0.5 / 3.0)
        assert out.arrays[2][0, 1] == pytest.approx(1.0 / 3.0)
        assert l1_distance(discolor_step(out, 2), v) <= 1e-12

    def test_iota_channel_copied_from_target(self):
        u_hat = random_step_graphon(2, 4, t=2, resolution=2, seed=9)
        v = random_step_graphon(2, 2, t=2, resolution=2, seed=10, with_iota=True)
        out = transfer_coloring(u_hat, v, u_hat.partition)
        merged = discolor_step(out, 2)
        assert l1_distance(merged, v) <= 1e-12

    def test_rejects_non_step_refinement(self):
        u_hat = random_step_graphon(2, 4, t=4, resolution=4, seed=11)
        coarse = GridPartition(1, 4, np.array([0, 0, 1, 1]), 2)
        with pytest.raises(ValueError, match="not constant"):
            transfer_coloring(u_hat, discolor_step(u_hat, 2), coarse)

    def test_rejects_incompatible_palettes(self):
        u_hat = random_step_graphon(2, 3, t=2, resolution=2, seed=1)
        v = random_step_graphon(2, 2, t=2, resolution=2, seed=2)
        with pytest.raises(ValueError, match="refine"):
            transfer_coloring(u_hat, v, u_hat.partition)


class TestTransferBound:
    def test_exact_bound_holds_r2(self):
        for seed in range(6):
            u_hat = random_step_graphon(2, 4, t=2, resolution=2, seed=seed)
            v = random_step_graphon(2, 2, t=2, resolution=2, seed=100 + seed)
            rep = transfer_bound_report(u_hat, v, u_hat.partition)
            assert rep["arity"] == 2
            assert rep["refined_distance"] <= rep["bound"] + 1e-9
            assert rep["holds"]

    def test_exact_bound_holds_r3(self):
        u_hat = random_step_graphon(3, 4, t=2, resolution=2, seed=3)
        v = random_step_graphon(3, 2, t=2, resolution=2, seed=4)
        rep = transfer_bound_report(u_hat, v, u_hat.partition)
        assert rep["holds"]

    def test_self_transfer_distance_zero(self):
        u_hat = random_step_graphon(2, 4, t=2, resolution=2, seed=6)
        rep = transfer_bound_report(u_hat, discolor_step(u_hat, 2), u_hat.partition)
        assert rep["base_distance"] == pytest.approx(0.0, abs=1e-12)
        assert rep["refined_distance"] == pytest.approx(0.0, abs=1e-12)


class TestEmbedSample:
    def test_r2_reserved_edges_join_diagonal(self):
        sample = SampledColoredGraph(3, 2, 2, (1, 0, 2))
        w = embed_sample(sample)
        expected_iota = np.eye(3)
        expected_iota[0, 2] = expected_iota[2, 0] = 1.0
        assert np.array_equal(w.arrays[0], expected_iota)
        assert w.arrays[1][0, 1] == 1.0 and w.arrays[2][1, 2] == 1.0

    def test_matches_vertex_embedding_without_iota(self):
        g = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
        by_graph = VertexGraphon(g).to_step()
        by_sample = embed_sample(SampledColoredGraph(4, 3, 2, g.colors))
        assert by_graph.partition.t == by_sample.partition.t
        for c in (0, 1, 2):
            assert np.array_equal(by_graph.arrays[c], by_sample.arrays[c])

    def test_rejects_r4(self):
        with pytest.raises(ValueError, match="r in"):
            embed_sample(SampledColoredGraph(4, 4, 1, (1,)))


class TestBaseCase:
    def test_equal_volumes_copy_through(self):
        a_hat = np.array([[0.3, 0.2], [0.1, 0.4]])
        out = base_case_transfer(a_hat.sum(axis=1), a_hat, 2)
        assert np.allclose(out, a_hat)

    def test_missed_class_splits_evenly(self):
        out = base_case_transfer([0.4, 0.6], [[0.0, 0.0], [0.5, 0.5]], 2)
        assert np.allclose(out[0], [0.2, 0.2])

    def test_rows_sum_to_target(self):
        rng = generator(17)
        for _ in range(20):
            t, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            b = rng.dirichlet(np.ones(t))
            a = rng.dirichlet(np.ones(t * k)).reshape(t, k)
            out = base_case_transfer(b, a, k)
            assert np.allclose(out.sum(axis=1), b)

    def test_shape_and_mass_validation(self):
        with pytest.raises(ValueError, match="shape"):
            base_case_transfer([1.0], [[0.5, 0.5], [0.0, 0.0]], 2)
        with pytest.raises(ValueError, match="sum"):
            base_case_transfer([0.9], [[0.5, 0.5]], 2)


class TestProductTV:
    def test_single_sample_is_half_l1(self):
        a = np.array([0.2, 0.3, 0.5])
        b = np.array([0.4, 0.4, 0.2])
        assert product_tv(a, b, 1) == pytest.approx(0.5 * np.abs(a - b).sum())

    def test_matches_explicit_enumeration(self):
        # independent route: walk all outcome words and sum the overlaps
        a = np.array([0.1, 0.4, 0.25, 0.25])
        b = np.array([0.3, 0.3, 0.2, 0.2])
        q0 = 3
        overlap = sum(
            min(np.prod(a[list(word)]), np.prod(b[list(word)]))
            for word in itertools.product(range(4), repeat=q0)
        )
        assert product_tv(a, b, q0) == pytest.approx(1.0 - overlap)

    def test_budget_refusal(self):
        with limit(100), pytest.raises(BudgetError):
            product_tv(np.full(6, 1 / 6), np.full(6, 1 / 6), 5)


class TestBaseCaseReport:
    def test_two_classes_trading_volume_break_max_form(self):
        # TV 0.2 against a max-form bound of 0.1 already at one sample
        rep = base_case_report([0.6, 0.4], [[0.4], [0.6]], 1, 1)
        assert rep["tv"] == pytest.approx(0.2)
        assert rep["max_form_bound"] == pytest.approx(0.1)
        assert not rep["max_form_holds"]
        assert rep["tv"] <= rep["subadditivity_bound"] + 1e-9

    def test_disjoint_support_shift_breaks_max_form_at_two_samples(self):
        u = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
        v_hat = [[0.0], [0.0], [0.25], [0.25], [0.25], [0.25]]
        rep = base_case_report(u, v_hat, 1, 2)
        assert rep["tv"] == pytest.approx(0.75)
        assert rep["max_form_bound"] == pytest.approx(0.5)
        assert not rep["max_form_holds"]

    def test_subadditivity_bound_on_random_volumes(self):
        rng = generator(23)
        for _ in range(30):
            t, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            q0 = int(rng.integers(1, 4))
            b = rng.dirichlet(np.ones(t))
            a = rng.dirichlet(np.ones(t * k)).reshape(t, k)
            rep = base_case_report(b, a, k, q0)
            assert 0.0 <= rep["tv"] <= rep["subadditivity_bound"] + 1e-9

    def test_exact_volumes_give_zero_tv(self):
        a_hat = np.array([[0.3, 0.2], [0.1, 0.4]])
        for q0 in (1, 2, 3):
            rep = base_case_report(a_hat.sum(axis=1), a_hat, 2, q0)
            assert rep["tv"] == pytest.approx(0.0, abs=1e-12)
            assert rep["max_form_holds"]


class TestSampleRequirement:
    def test_frozen_value(self):
        want = 3.0 * (2 + log(2.0) - log(0.1)) / (4.0 * 0.1 ** 2)
        assert base_sample_requirement(0.1, 1, 2, 1) == pytest.approx(want)
        assert base_sample_requirement(0.1, 1, 2, 1) == pytest.approx(374.67992051654933)

    def test_monotonicity(self):
        base = base_sample_requirement(0.1, 2, 2, 1)
        assert base_sample_requirement(0.1, 3, 2, 1) > base
        assert base_sample_requirement(0.1, 2, 5, 1) > base
        assert base_sample_requirement(0.05, 2, 2, 1) > base

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            base_sample_requirement(0.0, 1, 1, 1)


def _looped_induced_partition(p: GridPartition, coords: np.ndarray, q: int) -> np.ndarray:
    """The r = 3 sample-grid labels, one sample vertex pair at a time."""
    g = p.resolution
    cells = [min(int(x * g), g - 1) for x in coords]
    index = {s: i for i, s in enumerate(sample_coordinates(q, 3))}
    labels = np.empty((q, q, q), dtype=np.int64)
    for a in range(q):
        ca = cells[index[(a,)]]
        for z in range(q):
            labels[a, a, z] = p.labels[ca, ca, min(z * g // q, g - 1)]
        for b in range(a + 1, q):
            cls = p.labels[ca, cells[index[(b,)]], cells[index[(a, b)]]]
            labels[a, b, :] = labels[b, a, :] = cls
    return labels


@pytest.mark.parametrize("q,g,t,seed", [(3, 1, 1, 0), (3, 2, 2, 1), (4, 3, 3, 2),
                                        (5, 4, 5, 3), (7, 3, 4, 4), (8, 5, 6, 5)])
def test_induced_partition_matches_the_pairwise_loop(q, g, t, seed) -> None:
    p = random_grid_partition(2, g, t, seed)
    coords = generator(seed).random(len(sample_coordinates(q, 3)))
    got = transfer._induced_partition(p, coords, q, 3)
    assert np.array_equal(got.labels, _looped_induced_partition(p, coords, q))
    assert (got.t, got.resolution) == (p.t, q)


class TestLiftColoring:
    def test_recovers_refined_coloring_r2(self):
        seed = 414
        u0 = random_step_graphon(2, 4, t=2, resolution=2, seed=31)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 24, derive_seed(seed, 0))
        # the discolored draw of the refined graphon is the draw of the base
        base_draw = sample_graphon(u, 24, derive_seed(seed, 0))
        assert discolor(sample, 2).colors == base_draw.colors
        u_hat, diag = lift_coloring(u, 24, embed_sample(sample), 0.25, 2, seed)
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        assert [s["stage"] for s in diag["stages"]] == [
            "sample", "regularize_source", "induce_sample_partition",
            "regularize_sample_coloring", "transfer_to_sample",
            "refine_source_partition", "color_source_steps",
            "transfer_to_source",
        ]
        assert all(list(s)[:2] == ["stage", "seconds"] and s["seconds"] >= 0
                   for s in diag["stages"])
        assert diag["delta_effective"] == pytest.approx(0.02)
        assert diag["delta_paper"] < 1e-4
        assert diag["final_tv"] is not None
        assert 0.0 <= diag["final_tv"] <= 1.0
        assert json.dumps(diag)

    def test_constant_source_reduces_to_base_case(self):
        u = constant_graphon(2, 2, [0.5, 0.5])
        sample = sample_graphon(u, 12, derive_seed(9, 0))
        refined = refine_sample(sample, 2, seed=99)
        u_hat, diag = lift_coloring(u, 12, embed_sample(refined), 0.3, 1, 9)
        base = diag["stages"][5]["base_case"]
        # one source class: the refined volumes are the sampled slot volumes
        b_hat = np.array(base["refined_target_volumes"])
        assert np.allclose(b_hat, 1.0 / 12.0)
        assert base["tv"] == pytest.approx(0.0, abs=1e-12)
        masses = color_mass(u_hat)
        for alpha in (1, 2):
            got = masses[composite_color(alpha, 1, 2)] + masses[composite_color(alpha, 2, 2)]
            assert got == pytest.approx(0.5, abs=1e-9)

    def test_rejects_foreign_sample_coloring(self):
        u0 = random_step_graphon(2, 4, t=2, resolution=2, seed=31)
        u = discolor_step(u0, 2)
        other = sample_graphon(u0, 10, derive_seed(1234, 0))
        with pytest.raises(ValueError, match="discolor"):
            lift_coloring(u, 10, embed_sample(other), 0.3, 2, 4321)

    def test_provided_sample_drives_the_pipeline(self):
        u0 = random_step_graphon(2, 4, t=2, resolution=3, seed=8)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 15, derive_seed(55, 0))
        v_hat = embed_sample(sample)
        base_sample = discolor(sample, 2)
        u_hat, diag = lift_coloring(u, 15, v_hat, 0.3, 2, 777, sample=base_sample)
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        assert diag["stages"][0]["collisions"] == 0

    def test_r3_smoke(self):
        seed = 77
        u0 = random_step_graphon(3, 4, t=2, resolution=2, seed=11)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 6, derive_seed(seed, 0))
        u_hat, diag = lift_coloring(u, 6, embed_sample(sample), 0.4, 3, seed)
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        inner = diag["stages"][5]["inner"]
        assert inner["r"] == 2 and inner["q"] == 6
        assert diag["final_tv"] is not None
        assert json.dumps(diag)

    def test_refused_measurement_is_none(self, monkeypatch):
        # at q = 3 from a resolution-2 source, stage 7's 12-grid passes the
        # memory guard but its r = 3 orbit weights exceed the default budget:
        # the optional cut distances read None and the lift goes on
        monkeypatch.delenv("HYPERTEST_BUDGET", raising=False)
        u0 = random_step_graphon(3, 4, t=2, resolution=2, seed=1)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 3, derive_seed(1, 0))
        u_hat, diag = lift_coloring(u, 3, embed_sample(sample), 0.4, 3, 1)
        last = diag["stages"][-1]
        assert last["stage"] == "transfer_to_source"
        assert last["measured_refined_distance"] is None
        assert last["measured_base_distance"] is None
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        assert diag["final_tv"] is not None

    def test_rejects_oversized_r3_sample(self):
        u = random_step_graphon(3, 2, t=2, resolution=2, seed=1)
        v = random_step_graphon(3, 4, t=2, resolution=2, seed=2)
        with pytest.raises(ValueError, match="q=12"):
            lift_coloring(u, 13, v, 0.3, 3, 0)

    def test_final_tv_matches_direct_measurement(self):
        seed = 2024
        u0 = random_step_graphon(2, 4, t=2, resolution=2, seed=3)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 8, derive_seed(seed, 0))
        v_hat = embed_sample(sample)
        u_hat, diag = lift_coloring(u, 8, v_hat, 0.3, 3, seed)
        shape = (u_hat.partition.t,) * 2
        padded = StepGraphon(2, 4, u_hat.partition, {0: np.zeros(shape), **u_hat.arrays})
        direct = tv_distance(sample_distribution(padded, 3),
                             sample_distribution(v_hat, 3))
        assert diag["final_tv"] == pytest.approx(direct, abs=1e-9)


class TestMaxOverRefinements:
    @staticmethod
    def monochrome_score(h):
        return sum(1 for c in h.colors if c == 1) / len(h.colors)

    def test_exhaustive_finds_the_obvious_maximum(self):
        g = make_hypergraph(4, 2, 1, [1] * 6)
        best, best_g = max_over_refinements(g, 2, self.monochrome_score,
                                            mode="exact")
        assert best == pytest.approx(1.0)
        assert all(c == 1 for c in best_g.colors)

    def test_local_search_matches_exhaustive_on_smooth_objective(self):
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 2, 1, 2])
        exact, _ = max_over_refinements(g, 2, self.monochrome_score,
                                        mode="exact")
        local, _ = max_over_refinements(g, 2, self.monochrome_score,
                                        mode="heuristic", restarts=4, seed=5)
        assert local == pytest.approx(exact)

    def test_local_never_beats_exhaustive(self):
        rng = generator(12)
        weights = rng.normal(size=6)

        def score(h):
            return float(sum(w for w, c in zip(weights, h.colors) if c % 2 == 1))

        g = make_hypergraph(4, 2, 1, [1] * 6)
        exact, _ = max_over_refinements(g, 2, score, mode="exact")
        local, _ = max_over_refinements(g, 2, score, mode="heuristic",
                                        restarts=6, seed=3)
        assert local <= exact + 1e-12

    def test_auto_falls_back_when_budget_refuses(self):
        g = make_hypergraph(5, 2, 1, [1] * 10)
        with limit(100):
            best, _ = max_over_refinements(g, 2, self.monochrome_score, mode="auto", seed=2)
        assert best == pytest.approx(1.0)
        # 10 edges: 2**10 refinements, refused at 100 and enumerated at 2**10
        f = ParameterFn("monochrome", 2, 2, self.monochrome_score)
        with limit(100):
            assert not nd_parameter(f, g, mode="auto", seed=2).certified
        with limit(2**10):
            assert nd_parameter(f, g, mode="auto").certified

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_local_search_rejects_nonpositive_restarts(self, restarts):
        g = make_hypergraph(4, 2, 1, [1] * 6)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            max_over_refinements(g, 2, self.monochrome_score, mode="heuristic",
                                 restarts=restarts)

    def test_reserved_edges_stay_reserved(self):
        s = SampledColoredGraph(3, 2, 1, (1, 0, 1))
        best, best_g = max_over_refinements(s, 2, self.monochrome_score,
                                            mode="exact")
        assert best_g.colors[1] == 0
        assert best_g.k == 2


class TestEstimationPipeline:
    @staticmethod
    def signed_score(h):
        c1 = sum(1 for c in h.colors if c == 1)
        c4 = sum(1 for c in h.colors if c == 4)
        return (c1 - c4) / len(h.colors)

    def test_full_sample_estimate_is_exact(self):
        rng = generator(6)
        g = make_hypergraph(6, 2, 2, [int(c) for c in rng.integers(1, 3, size=15)])
        rep = nd_estimate_pipeline(g, self.signed_score, 6, 2, seed=4, k=2)
        assert rep["conditioned"]
        assert rep["f_exact"] is not None
        # a conditioned full-size sample is a vertex relabeling
        assert rep["f_hat"] == pytest.approx(rep["f_exact"])
        assert rep["transferred_value"] <= rep["f_exact"] + 1e-9
        assert [split_color(c, 2)[0] for c in rep["coloring"]] == list(g.colors)
        assert rep["gap"] == pytest.approx(rep["f_hat"] - rep["transferred_value"])

    def test_subsample_reports_diagnostics(self):
        rng = generator(8)
        g = make_hypergraph(8, 2, 2, [int(c) for c in rng.integers(1, 3, size=28)])
        rep = nd_estimate_pipeline(g, self.signed_score, 5, 2, seed=11, k=2)
        assert rep["sample_size"] == 5
        assert 0.0 <= rep["f_hat"] <= 1.0
        assert rep["lift"]["final_tv"] is not None
        assert json.dumps(rep)

    def test_budget_reaches_the_lift(self):
        # the volume base case expands 40**2 = 1600 product outcomes, so a
        # budget of 1000 must refuse inside the lift, not only in the
        # refinement search
        rng = generator(8)
        g = make_hypergraph(8, 2, 2, [int(c) for c in rng.integers(1, 3, size=28)])
        with limit(1000), pytest.raises(BudgetError) as err:
            nd_estimate_pipeline(g, self.signed_score, 5, 2, seed=11, k=2)
        assert err.value.stage == "lift stage 'refine_source_partition': product law expansion"
        assert (err.value.needed, err.value.budget) == (1600, 1000)
