"""Coloring transfer: cellwise rule, volume base case, lifting, estimation."""

import itertools
import json
from fractions import Fraction
from math import comb, factorial, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest import graphon, transfer
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
    step_average,
)
from hypertest.hypercore import (
    ColoredHypergraph,
    SampledColoredGraph,
    composite_color,
    discolor,
    enumerate_colorings,
    make_hypergraph,
    split_color,
)
from hypertest.seeds import derive_seed, generator
from hypertest.testers import (
    PARAMETERS,
    PROPERTIES,
    ParameterFn,
    PropertyFn,
    _histogram_witness,
    nd_parameter,
    property_tester,
)
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
        out = transfer_coloring(u_hat, v)
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
        out = transfer_coloring(u_hat, v)
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
        out = transfer_coloring(u_hat, v)
        merged = discolor_step(out, 2)
        assert l1_distance(merged, v) <= 1e-12

    def test_rejects_incompatible_palettes(self):
        u_hat = random_step_graphon(2, 3, t=2, resolution=2, seed=1)
        v = random_step_graphon(2, 2, t=2, resolution=2, seed=2)
        with pytest.raises(ValueError, match="refine"):
            transfer_coloring(u_hat, v)


class TestTransferBound:
    def test_exact_bound_holds_r2(self):
        for seed in range(6):
            u_hat = random_step_graphon(2, 4, t=2, resolution=2, seed=seed)
            v = random_step_graphon(2, 2, t=2, resolution=2, seed=100 + seed)
            rep = transfer_bound_report(u_hat, v)
            assert rep["arity"] == 2
            assert rep["refined_distance"] <= rep["bound"] + 1e-9
            assert rep["holds"]

    def test_exact_bound_holds_r3(self):
        for seed in range(6):
            u_hat = random_step_graphon(3, 4, t=2, resolution=2, seed=seed)
            v = random_step_graphon(3, 2, t=2, resolution=2, seed=100 + seed)
            rep = transfer_bound_report(u_hat, v)
            assert rep["holds"]

    def test_self_transfer_distance_zero(self):
        u_hat = random_step_graphon(2, 4, t=2, resolution=2, seed=6)
        rep = transfer_bound_report(u_hat, discolor_step(u_hat, 2))
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

    def test_rejects_nan_delta_by_name(self):
        # NaN fails every comparison, so only "not delta > 0" refuses it
        with pytest.raises(ValueError, match="^delta must be positive$"):
            base_sample_requirement(float("nan"), 1, 1, 1)

    def test_rejects_infinite_delta_by_name(self):
        # inf passes "delta > 0" and the formula read NaN
        with pytest.raises(ValueError, match="^delta must be finite, got inf$"):
            base_sample_requirement(float("inf"), 1, 1, 1)

    def test_past_the_float_range_is_inf(self):
        # delta**2 underflows to 0.0, or q0^{2k+2} does not fit a float
        assert base_sample_requirement(5e-324, 1, 1, 1) == float("inf")
        assert base_sample_requirement(0.1, 10**200, 1, 1) == float("inf")


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


@settings(max_examples=60, deadline=None)
@given(r=st.sampled_from((2, 3)), g=st.integers(1, 5), t=st.integers(1, 4),
       t_r=st.integers(1, 3), seed=st.integers(0, 10**6), empty=st.booleans())
def test_stack_fibers_nests_and_realizes_its_volumes(r, g, t, t_r, seed, empty) -> None:
    p = random_grid_partition(r - 1, g, t, seed)
    fracs = generator(seed).random((p.t, t_r) + p.labels.shape[:-1])
    if empty:  # class 0 has no target mass anywhere: its cells split evenly
        fracs[0] = 0.0
    part, realized = transfer._stack_fibers(p, fracs, t_r)
    assert (part.resolution, part.t) == (g * t_r, p.t * t_r)
    # every subclass i * t_r + j lies inside its parent class i
    assert np.array_equal(part.labels // t_r, p.refined(t_r).labels)
    assert np.allclose(realized, part.class_volumes().reshape(p.t, t_r), rtol=0, atol=1e-12)


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

    def test_paper_schedule_keeps_its_expression_in_the_float_range(self):
        for delta, r, k, t, q0 in itertools.product((0.1, 0.37, 1e300), (2, 3), (1, 2, 5),
                                                     (1, 2, 3), (1, 2, 3, 4)):
            try:
                want = delta * factorial(r) / (4.0 * k * float(k * t) ** (q0 ** r) * q0 ** r)
            except OverflowError:
                continue
            assert transfer._paper_schedule(delta, r, k, t, q0) == want

    @pytest.mark.parametrize("delta,r,k,t,q0", [
        (1e300, 2, 2, 2, 23), (1e300, 2, 1, 2, 32), (0.25, 2, 2, 2, 40), (0.25, 3, 2, 2, 200),
    ])
    def test_paper_schedule_past_the_float_range_is_its_tiny_value(self, delta, r, k, t, q0):
        with pytest.raises(OverflowError):
            float(k * t) ** (q0 ** r)
        exact = Fraction(delta) * factorial(r) / (4 * k * (k * t) ** (q0 ** r) * q0 ** r)
        got = transfer._paper_schedule(delta, r, k, t, q0)
        # the first two cases stay above the float range's bottom, the last two fall below it
        assert got == pytest.approx(float(exact), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k,t", [(2, 2), (1, 1)])
    def test_paper_schedule_of_a_q0_past_the_float_range(self, k, t):
        # q0^r itself leaves the float range: the power is 0.0 for kt > 1,
        # and for kt = 1 only the q0^r factor is left
        for q0 in (10**155, 10**200, 10**400):
            got = transfer._paper_schedule(0.25, 2, k, t, q0)
            want = 0.0 if k * t > 1 else float(Fraction(1, 8 * q0 ** 2))
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_paper_schedule_refuses_an_overflowing_delta_by_name(self):
        with pytest.raises(ValueError, match=r"delta \* r! overflows, got delta = 1e\+308"):
            transfer._paper_schedule(1e308, 2, 2, 2, 2)

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

    def test_negative_round_cap_is_refused(self):
        u0 = random_step_graphon(2, 4, t=2, resolution=2, seed=31)
        sample = sample_graphon(u0, 8, derive_seed(5, 0))
        with pytest.raises(ValueError, match="max_rounds must be non-negative"):
            lift_coloring(discolor_step(u0, 2), 8, embed_sample(sample), 0.3, 2, 5,
                          max_rounds=-1)

    def test_provided_sample_drives_the_pipeline(self):
        u0 = random_step_graphon(2, 4, t=2, resolution=3, seed=8)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 15, derive_seed(55, 0))
        v_hat = embed_sample(sample)
        base_sample = discolor(sample, 2)
        u_hat, diag = lift_coloring(u, 15, v_hat, 0.3, 2, 777, sample=base_sample)
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        assert diag["stages"][0]["collisions"] == 0

    def test_nan_delta_is_refused_by_name(self):
        u0 = random_step_graphon(2, 4, t=2, resolution=2, seed=31)
        sample = sample_graphon(u0, 8, derive_seed(5, 0))
        with pytest.raises(ValueError, match=r"^delta must be positive$"):
            lift_coloring(discolor_step(u0, 2), 8, embed_sample(sample), float("nan"), 2, 5)

    def test_edge_uniforms_need_a_sample(self):
        u0 = random_step_graphon(2, 4, t=2, resolution=2, seed=31)
        sample = sample_graphon(u0, 8, derive_seed(5, 0))
        with pytest.raises(ValueError, match="edge_uniforms"):
            lift_coloring(discolor_step(u0, 2), 8, embed_sample(sample), 0.3, 2, 5,
                          edge_uniforms=[1.0, 2.0])

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
        # only the outer lift measures its q0-sample distance
        assert "final_tv" not in inner
        for d in (diag, inner):
            # both regularizations keep their input's partition and every
            # measured pair agrees, so the L1 bound certifies all five values
            modes = [rec[key] for rec in d["stages"] for key in rec if key.endswith("_mode")]
            assert modes == ["bound"] * 5
        assert json.dumps(diag)

    def test_lift_transfers_once_and_searches_nothing(self, monkeypatch):
        # stage 4's pair disagrees, so its L1 bound exceeds 1e-9; it is still
        # the recorded upper bound, with no cut-P search behind it, and the
        # one transfer per lift level is stage 7's
        def no_search(*args, **kwargs):
            raise AssertionError("the lift ran a cut-P search")

        calls = []

        def counted(*args):
            calls.append(args)
            return transfer_coloring(*args)

        monkeypatch.setattr(transfer, "cut_distance", no_search)
        monkeypatch.setattr(transfer, "transfer_coloring", counted)
        u0 = random_step_graphon(2, 4, t=2, resolution=3, seed=8)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 15, derive_seed(55, 0))
        _, diag = lift_coloring(u, 15, embed_sample(sample), 0.3, 2, 777,
                                sample=discolor(sample, 2))
        assert len(calls) == 1
        stage4 = diag["stages"][4]
        assert stage4["stage"] == "transfer_to_sample"
        assert stage4["measured_distance_mode"] == "bound"
        assert stage4["measured_distance"] > 1e-9

    def test_agreeing_stage_distances_read_the_bound(self, monkeypatch):
        # at q = 3 from a resolution-2 source, stage 7's r = 3 orbit weights
        # on its 12-grid exceed the default budget; the pairs agree, so the
        # L1 bound certifies both distances with no cut-P machinery, and the
        # lift goes on
        monkeypatch.delenv("HYPERTEST_BUDGET", raising=False)
        u0 = random_step_graphon(3, 4, t=2, resolution=2, seed=1)
        u = discolor_step(u0, 2)
        sample = sample_graphon(u0, 3, derive_seed(1, 0))
        u_hat, diag = lift_coloring(u, 3, embed_sample(sample), 0.4, 3, 1)
        last = diag["stages"][-1]
        assert last["stage"] == "transfer_to_source"
        for name in ("refined", "base"):
            assert last[f"measured_{name}_distance"] <= 1e-9
            assert last[f"measured_{name}_distance_mode"] == "bound"
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        assert diag["final_tv"] is not None

    def test_refused_measurement_is_none(self):
        # the L1 bound of an r = 3 pair sums over the class-tuple weights of
        # its common refinement, whose pairwise chain refuses one row above
        # the budget
        a = random_step_graphon(3, 2, t=2, resolution=4, seed=1)
        b = random_step_graphon(3, 2, t=2, resolution=4, seed=2)
        part, _ = graphon.channel_differences(a, b)
        row = part.resolution * part.t ** 2
        with limit(row - 1):
            with pytest.raises(BudgetError):
                l1_distance(a, b)
            assert transfer._stage_distance(a, b) == (None, None)
        with limit(row):
            assert transfer._stage_distance(a, b) == (l1_distance(a, b), "bound")

    def test_stage_distance_modes(self):
        a = random_step_graphon(2, 2, t=3, resolution=4, seed=1)
        b = random_step_graphon(2, 2, t=3, resolution=4, seed=2)
        own = step_average(a, a.partition)
        d, mode = transfer._stage_distance(a, own)
        assert mode == "bound" and d == l1_distance(a, own) <= 1e-9
        # a pair that disagrees records its L1 distance, an upper bound on
        # every cut-P distance, never a search's lower bound
        d, mode = transfer._stage_distance(a, b)
        assert mode == "bound" and d == l1_distance(a, b) > 1e-9

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

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_auto_refuses_nonpositive_restarts_before_searching(self, restarts):
        # the exact side would certify this at once; auto is refused up front
        g = make_hypergraph(4, 2, 1, [1] * 6)
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            max_over_refinements(g, 2, self.monochrome_score, mode="auto",
                                 restarts=restarts)
        best, _ = max_over_refinements(g, 2, self.monochrome_score, mode="exact",
                                       restarts=restarts)
        assert best == pytest.approx(1.0)

    def test_local_search_keeps_its_seeded_results(self):
        # pinned from the per-edge refinement constructor the one-map
        # constructor replaced: same draws, same flip order, same local
        # optimum (the pair couplings make that optimum path-dependent)
        couple = generator(41).normal(size=(10, 10))

        def score(h):
            c = h.colors
            return float(sum(couple[i, j] for i in range(len(c)) for j in range(i)
                             if c[i] == c[j]))

        s = SampledColoredGraph(5, 2, 2, (1, 0, 2, 2, 1, 0, 1, 2, 2, 1),
                                vertices=(0, 2, 3, 5, 9))
        best, best_s = max_over_refinements(s, 3, score, mode="heuristic",
                                            restarts=3, seed=7)
        assert best == pytest.approx(2.066065485789937, abs=1e-12)
        assert best_s.colors == (2, 0, 4, 5, 3, 0, 3, 6, 4, 2)
        assert (best_s.k, best_s.vertices) == (6, (0, 2, 3, 5, 9))
        g = make_hypergraph(5, 2, 2, [1, 2, 2, 1, 1, 2, 1, 2, 2, 1])
        best, best_g = max_over_refinements(g, 2, score, mode="heuristic",
                                            restarts=2, seed=11)
        assert best == pytest.approx(4.615915007594363, abs=1e-12)
        assert best_g.colors == (1, 4, 3, 1, 2, 4, 2, 4, 4, 1)

    def test_reserved_edges_stay_reserved(self):
        s = SampledColoredGraph(3, 2, 1, (1, 0, 1))
        best, best_g = max_over_refinements(s, 2, self.monochrome_score,
                                            mode="exact")
        assert best_g.colors[1] == 0
        assert best_g.k == 2

    @pytest.mark.parametrize("mode", ["exact", "heuristic", "auto"])
    @pytest.mark.parametrize("histogram", [False, True])
    def test_a_nan_value_raises(self, mode, histogram):
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 2, 1, 2])
        nan = (_histogram_witness(lambda counts: np.full(len(counts), np.nan)) if histogram
               else lambda h: float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            max_over_refinements(g, 2, nan, mode=mode, seed=1)

    def test_a_counts_form_owes_one_value_per_row(self):
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 2, 1, 2])
        scalar = _histogram_witness(lambda counts: counts[0, 1] / counts.sum())
        with pytest.raises(ValueError, match=r"shape \(\) for 16 rows"):
            max_over_refinements(g, 2, scalar, mode="exact")

    @pytest.mark.parametrize("histogram", [False, True])
    def test_minus_infinity_still_returns_the_first_refinement(self, histogram):
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 2, 1, 2])
        never = (_histogram_witness(lambda counts: np.full(len(counts), -np.inf)) if histogram
                 else lambda h: -np.inf)
        best, best_g = max_over_refinements(g, 2, never, mode="exact")
        assert best == -np.inf and best_g == next(enumerate_colorings(g, 2))
        best, best_g = max_over_refinements(g, 2, never, mode="heuristic", seed=1)
        assert best == -np.inf and discolor(best_g, 2) == g
        out = nd_parameter(ParameterFn("never", 2, 4, never), g)
        assert out.certified and out.witness == next(enumerate_colorings(g, 2))


def _witness_graph(data, r: int, t: int, reserved: bool):
    """A random t-colored r-graph, or a sample with reserved edges; at most 7 free edges."""
    if not reserved:
        n = data.draw(st.sampled_from([n for n in range(r, r + 3) if comb(n, r) <= 7]), label="n")
        colors = data.draw(st.lists(st.integers(1, t), min_size=comb(n, r),
                                    max_size=comb(n, r)), label="colors")
        return make_hypergraph(n, r, t, colors)
    n = data.draw(st.integers(r, r + 3), label="n")
    colors = data.draw(st.lists(st.integers(0, t), min_size=comb(n, r),
                                max_size=comb(n, r)), label="colors")
    free = [i for i, c in enumerate(colors) if c != 0]
    for i in free[7:]:
        colors[i] = 0
    coords = tuple(data.draw(st.lists(st.floats(0, 1), min_size=2, max_size=2), label="coords"))
    return SampledColoredGraph(n, r, t, tuple(colors), vertices=tuple(range(1, n + 1)),
                               coords=coords)


def _same_search(found, oracle) -> None:
    (value, best), (want, best_want) = found, oracle
    assert type(value) is type(want) and float(value).hex() == float(want).hex()
    assert best.colors == best_want.colors and best.k == best_want.k
    assert type(best) is type(best_want)
    if isinstance(best_want, SampledColoredGraph):
        assert (best.vertices, best.coords) == (best_want.vertices, best_want.coords)


HISTOGRAM_WITNESSES = {
    **{name: f for name, f in PARAMETERS.items()
       if name in ("edge-density", "triple-density", "signed-split", "triple-signed-split")},
    "all-first-color": PROPERTIES["complete-witness"].member,
    "complete-defect": PROPERTIES["complete-witness"].distance_to,
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), r=st.sampled_from((2, 3)), k=st.integers(1, 3), t=st.integers(1, 3),
       reserved=st.booleans(), name=st.sampled_from(sorted(HISTOGRAM_WITNESSES)))
def test_histogram_search_matches_the_per_candidate_search(data, r, k, t, reserved, name):
    # the same callable with its counts form stripped runs the per-candidate
    # path: values bit for bit and the first winner in enumeration order
    g = _witness_graph(data, r, t, reserved)
    f = HISTOGRAM_WITNESSES[name]
    assert f.counts_form is not None
    _same_search(max_over_refinements(g, k, f, mode="exact"),
                 max_over_refinements(g, k, lambda h: f(h), mode="exact"))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3), t=st.integers(1, 3))
def test_histogram_density_matches_the_per_candidate_density(data, k, t):
    # prop-test's density at witness sample size q_w = n is the predicate
    # on the whole refined graph, scored by its counts form
    g = _witness_graph(data, 2, t, reserved=False)
    base = PROPERTIES["complete-witness"]
    witness = PropertyFn(base.name, 2, t * k, base.member, sample_size=base.sample_size)
    stripped = PropertyFn(base.name, 2, t * k, lambda h: base.member(h),
                          sample_size=base.sample_size)
    accept, trace = property_tester(witness, g, 0.3)
    want_accept, want = property_tester(stripped, g, 0.3)
    assert trace["witness_sample_size"] == g.n
    assert accept == want_accept and trace == want
    assert float(trace["best_density"]).hex() == float(want["best_density"]).hex()


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
