"""Tester harnesses: probes, best-coloring parameters, property testing."""

import hashlib
import json
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from hypertest import testers

from hypertest.budget import DEFAULT_BUDGET, BudgetError, limit
from hypertest.hypercore import (
    ColoredHypergraph,
    SampledColoredGraph,
    colex_edges,
    discolor,
    make_hypergraph,
)
from hypertest.seeds import generator
from hypertest.testers import (
    PARAMETERS,
    PROPERTIES,
    ParameterFn,
    PropertyFn,
    far_from_property,
    nd_parameter,
    probe_sample_complexity,
    property_acceptance_rate,
    property_tester,
    register_parameter,
    wilson_interval,
    witness_sample_density,
)
from hypertest.transfer import nd_estimate_pipeline


def complete_graph(n, r=2):
    return make_hypergraph(n, r, 2, [1] * comb(n, r))


def empty_graph(n, r=2):
    return make_hypergraph(n, r, 2, [2] * comb(n, r))


def random_graph(n, seed, r=2, k=2):
    rng = generator(seed)
    colors = [int(c) for c in rng.integers(1, k + 1, size=comb(n, r))]
    return make_hypergraph(n, r, k, colors)


class TestWilson:
    def test_matches_scipy(self):
        for hits, trials in [(0, 40), (7, 40), (200, 400), (399, 400)]:
            low, high = wilson_interval(hits, trials)
            ref = binomtest(hits, trials).proportion_ci(0.95, method="wilson")
            assert low == pytest.approx(ref.low, abs=1e-12)
            assert high == pytest.approx(ref.high, abs=1e-12)

    def test_degenerate_inputs(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and high < 0.35
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestRegistry:
    def test_builtins_present(self):
        assert {"edge-density", "signed-split", "triple-density"} <= set(PARAMETERS)
        assert {"complete", "complete-witness"} <= set(PROPERTIES)

    def test_edge_density_values(self):
        f = PARAMETERS["edge-density"]
        assert f(complete_graph(5)) == 1.0
        assert f(empty_graph(5)) == 0.0

    def test_rejects_encoding_dependent_callback(self):
        # the color of one fixed colex slot is not a graph parameter
        bogus = ParameterFn("first-slot", 2, 2, lambda h: float(h.colors[0]))
        with pytest.raises(ValueError, match="relabeling"):
            register_parameter(bogus)
        assert "first-slot" not in PARAMETERS


def _max_first_degree(h):
    """Largest first-color degree over n - 1: relabeling-invariant, not a histogram function."""
    hits = colex_edges(h.n, 2)[np.asarray(h.colors) == 1]
    return np.bincount(hits.ravel(), minlength=h.n).max() / (h.n - 1)


PROBE_FAILURES = [27, 21, 0]
GOLDEN_PROBE_REPORT = "dea5c32f9f27ff3e857ecc83d0415f7e9833cd6279f379368867f91905e09cbc"


class TestProbe:
    def test_constant_parameter_never_fails(self):
        f = PARAMETERS["edge-density"]
        report = probe_sample_complexity(f, complete_graph(10), 0.1,
                                         [3, 5, 8], trials=50, seed=1)
        assert all(row["failures"] == 0 for row in report["rows"])
        assert report["recommended_q"] == 3

    def test_full_sample_row_never_fails(self):
        f = PARAMETERS["edge-density"]
        g = random_graph(9, seed=5)
        report = probe_sample_complexity(f, g, 0.05, [9], trials=30, seed=2)
        assert report["rows"][0]["failures"] == 0

    def test_rates_trend_down_within_interval_slack(self):
        f = PARAMETERS["edge-density"]
        g = random_graph(24, seed=7)
        report = probe_sample_complexity(f, g, 0.12, [4, 8, 16], trials=150, seed=3)
        rows = report["rows"]
        for earlier, later in zip(rows, rows[1:]):
            slack = 2 * (earlier["ci_high"] - earlier["ci_low"])
            assert later["rate"] <= earlier["rate"] + slack

    def test_deterministic_given_seed(self):
        f = PARAMETERS["edge-density"]
        g = random_graph(12, seed=11)
        a = probe_sample_complexity(f, g, 0.2, [4, 6], trials=40, seed=9)
        b = probe_sample_complexity(f, g, 0.2, [4, 6], trials=40, seed=9)
        assert a == b

    def test_palette_mismatch_rejected(self):
        f = PARAMETERS["edge-density"]
        with pytest.raises(ValueError, match="palette"):
            probe_sample_complexity(f, random_graph(8, seed=1, r=3), 0.1, [4])

    def test_nan_eps_is_refused_by_name(self):
        # NaN fails every comparison, so only "not eps > 0" refuses it
        g = random_graph(8, seed=1)
        with pytest.raises(ValueError, match="^eps must be positive$"):
            probe_sample_complexity(PARAMETERS["edge-density"], g, float("nan"), [4])
        with pytest.raises(ValueError, match="^eps must be positive$"):
            PROPERTIES["complete"].sample_size(float("nan"))

    def test_infinite_eps_is_refused_by_name(self):
        g = random_graph(8, seed=1)
        with pytest.raises(ValueError, match="^eps must be finite, got inf$"):
            probe_sample_complexity(PARAMETERS["edge-density"], g, float("inf"), [4])
        with pytest.raises(ValueError, match="^eps must be finite, got inf$"):
            property_tester(PROPERTIES["complete"], g, float("inf"))

    def test_golden_report_without_counts_form(self):
        # recorded with one sample_subgraph and one parameter call per trial;
        # a parameter that is no function of the color histogram keeps
        # scoring its samples one graph at a time
        f = ParameterFn("max-first-degree", 2, 2, _max_first_degree)
        assert f.counts_form is None
        report = probe_sample_complexity(f, random_graph(16, seed=41), 0.15,
                                         [5, 9, 16], trials=60, seed=8)
        assert [row["failures"] for row in report["rows"]] == PROBE_FAILURES
        digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
        assert digest == GOLDEN_PROBE_REPORT

    def test_batches_split_at_any_size_give_the_same_report(self, monkeypatch):
        f = PARAMETERS["signed-split"]
        g = random_graph(12, seed=3, k=4)
        whole = probe_sample_complexity(f, g, 0.2, [3, 7], trials=25, seed=4)
        monkeypatch.setattr(testers, "_PROBE_CELLS", 40)
        assert probe_sample_complexity(f, g, 0.2, [3, 7], trials=25, seed=4) == whole

    def test_sample_size_refusals_pass_through(self):
        f = PARAMETERS["triple-density"]
        g = random_graph(6, seed=1, r=3)
        with pytest.raises(ValueError, match=r"^cannot sample q=7 vertices from n=6$"):
            probe_sample_complexity(f, g, 0.1, [4, 7], trials=5)
        with pytest.raises(ValueError, match=r"^sample size q=2 below uniformity r=3$"):
            probe_sample_complexity(f, g, 0.1, [2], trials=5)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PARAMETERS)), extra=st.integers(0, 8),
       seed=st.integers(0, 2**32), data=st.data())
def test_probe_by_counts_form_matches_the_stripped_parameter(name, extra, seed, data):
    f = PARAMETERS[name]
    n = f.r + extra
    g = random_graph(n, seed, r=f.r, k=f.k)
    grid = data.draw(st.lists(st.integers(f.r, n), min_size=1, max_size=3))
    eps = data.draw(st.sampled_from([0.05, 0.1, 0.3]))
    trials = data.draw(st.integers(1, 30))
    stripped = ParameterFn(f.name, f.r, f.k, lambda h: f.fn(h))
    assert f.counts_form is not None and stripped.counts_form is None
    by_form = probe_sample_complexity(f, g, eps, grid, trials=trials, seed=seed)
    one_by_one = probe_sample_complexity(stripped, g, eps, grid, trials=trials, seed=seed)
    assert json.dumps(by_form) == json.dumps(one_by_one)


class TestNdParameter:
    def test_triangle_split_maximum(self):
        # 8 colorings of K3 by hand: all-(1,1) puts every edge in the
        # positive class and nothing in the negative one
        out = nd_parameter(PARAMETERS["signed-split"], complete_graph(3))
        assert out.value == pytest.approx(1.0)
        assert out.certified
        assert all(c == 1 for c in out.witness.colors)

    def test_arity_one_is_plain_evaluation(self):
        g = random_graph(5, seed=3)
        f = ParameterFn("identity-probe", 2, 2, PARAMETERS["edge-density"].fn)
        out = nd_parameter(f, g)
        assert out.value == pytest.approx(PARAMETERS["edge-density"](g))

    def test_local_never_beats_exhaustive(self):
        f = PARAMETERS["signed-split"]
        for seed in range(20):
            g = random_graph(4, seed=seed)
            exact = nd_parameter(f, g, mode="exact")
            local = nd_parameter(f, g, mode="heuristic", seed=seed, restarts=4)
            assert local.value <= exact.value + 1e-12
            assert not local.certified

    def test_auto_respects_budget(self):
        # 5 and 10 edges of the two base colors split into 6 * 11 = 66
        # subcolor histograms, which a budget of 50 refuses
        f = PARAMETERS["signed-split"]
        g = random_graph(6, seed=2)
        with limit(50):
            out = nd_parameter(f, g, mode="auto")
            assert not out.certified
            with pytest.raises(BudgetError):
                nd_parameter(f, g, mode="exact")

    def test_auto_certifies_by_histogram(self):
        # K8 has 28 edges, so 2**28 refinements, far over the default
        # budget; signed-split depends on the color histogram alone, and
        # the 15 and 13 edges of the two base colors split 16 * 14 ways
        f = PARAMETERS["signed-split"]
        g = random_graph(8, seed=4)
        assert 2 ** len(g.colors) > DEFAULT_BUDGET
        out = nd_parameter(f, g, mode="auto")
        assert out.certified
        # the best split puts every first-color edge in the positive class
        assert out.value == sum(1 for c in g.colors if c == 1) / len(g.colors)
        assert discolor(out.witness, 2) == g
        report = nd_estimate_pipeline(g, f, 5, 2, seed=1, k=2)
        assert report["f_exact"] == out.value


class TestPropertyTester:
    def test_witness_density_counts_clean_subsets(self):
        # path 0-1-2-3 as a composite-colored graph: 3 of the 6 vertex
        # pairs induce an all-(1,1) subgraph
        colors = [1 if e in {(0, 1), (1, 2), (2, 3)} else 3
                  for e in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]]
        h = make_hypergraph(4, 2, 4, colors)
        got = witness_sample_density(PROPERTIES["complete-witness"], h, 2)
        assert got == pytest.approx(3 / 6)

    def test_witness_density_whole_graph_asks_the_predicate_once(self):
        # q = n: the one induced pattern is h itself, so no sweep and no rebuild
        base = PROPERTIES["complete-witness"]
        for h in (complete_graph(5), random_graph(5, 3)):
            seen = []
            spy = PropertyFn(base.name, base.r, base.k, base.member,
                             lambda g: seen.append(g) or base.sample_predicate()(g))
            got = witness_sample_density(spy, h, h.n)
            assert seen == [h] and seen[0] is h
            assert got == float(base.sample_predicate()(h))
        assert witness_sample_density(base, complete_graph(5), 5) == 1.0
        assert witness_sample_density(base, empty_graph(5), 5) == 0.0

    def test_sample_with_reserved_edges_is_refused(self):
        sample = SampledColoredGraph(3, 2, 2, (1, 0, 1))
        with pytest.raises(ValueError, match="reserved color 0"):
            property_tester(PROPERTIES["complete-witness"], sample, 0.3)

    def test_complete_sample_accepted(self):
        accept, trace = property_tester(PROPERTIES["complete-witness"],
                                        complete_graph(6), 0.3)
        assert accept
        assert trace["best_density"] == pytest.approx(1.0)
        assert trace["witness_sample_size"] == 6
        assert trace["sample_threshold"] == pytest.approx(3 / 5)
        assert trace["outer_thresholds"] == [pytest.approx(2 / 5), pytest.approx(3 / 5)]

    def test_empty_sample_rejected(self):
        accept, trace = property_tester(PROPERTIES["complete-witness"],
                                        empty_graph(6), 0.3)
        assert not accept
        assert trace["best_density"] == pytest.approx(0.0)

    def test_acceptance_rates_split_cleanly(self):
        witness = PROPERTIES["complete-witness"]
        good = property_acceptance_rate(witness, complete_graph(8), 4, 0.3,
                                        trials=40, seed=5)
        bad = property_acceptance_rate(witness, empty_graph(8), 4, 0.3,
                                       trials=40, seed=5)
        assert good["rate"] >= 3 / 5
        assert bad["rate"] <= 2 / 5
        assert good["ci_low"] <= good["rate"] <= good["ci_high"]

    def test_acceptance_rate_runs_every_trial_at_its_mode_and_restarts(self, monkeypatch):
        seen = []
        tester = testers.property_tester

        def recording(*args, **kwargs):
            seen.append((kwargs["mode"], kwargs["restarts"]))
            return tester(*args, **kwargs)

        monkeypatch.setattr(testers, "property_tester", recording)
        witness = PROPERTIES["complete-witness"]
        property_acceptance_rate(witness, complete_graph(8), 4, 0.3, trials=5, seed=5)
        property_acceptance_rate(witness, complete_graph(8), 4, 0.3, trials=5, seed=5,
                                 mode="heuristic", restarts=2)
        assert seen == [("auto", 8)] * 5 + [("heuristic", 2)] * 5

    def test_budget_refusal_propagates(self):
        # the 21 edges of K7 split into 22 subcolor histograms
        with limit(20), pytest.raises(BudgetError):
            property_tester(PROPERTIES["complete-witness"], complete_graph(7), 0.3, mode="exact")

    def test_auto_passes_a_witness_refusal_through(self):
        # arity 1: the single refinement fits the budget, but the witness
        # density at sample size 4 needs C(8, 4) = 70 subsets. The refusal
        # comes from the value callback, so auto must not answer with the
        # heuristic: the heuristic refuses too, with the same stage.
        with limit(10), pytest.raises(BudgetError) as err:
            property_tester(PROPERTIES["complete"], complete_graph(8), 2.0, mode="auto")
        assert err.value.stage == "sample property density"
        assert err.value.needed == comb(8, 4)


class TestFarness:
    def test_normalizations_disagree_for_graphs(self):
        g = empty_graph(5)
        by_subsets = far_from_property(PROPERTIES["complete"], g, 0.5)
        by_square = far_from_property(PROPERTIES["complete"], g, 0.5,
                                      normalization="square")
        assert by_subsets["distance"] == 10
        assert by_subsets["far"] and not by_square["far"]

    def test_brute_force_matches_declared_distance(self):
        g = random_graph(4, seed=13)
        declared = far_from_property(PROPERTIES["complete"], g, 0.1)
        generic = PropertyFn("complete-generic", 2, 2,
                             lambda h: all(c == 1 for c in h.colors))
        brute = far_from_property(generic, g, 0.1)
        assert brute["distance"] == declared["distance"]

    @pytest.mark.parametrize("eps,message", [
        (float("nan"), "^eps must be positive$"),
        (-0.1, "^eps must be positive$"),
        (float("inf"), "^eps must be finite, got inf$"),
    ])
    def test_improper_eps_is_refused_by_name(self, eps, message):
        with pytest.raises(ValueError, match=message):
            far_from_property(PROPERTIES["complete"], empty_graph(4), eps)

    def test_empty_property_raises(self):
        impossible = PropertyFn("never", 2, 2, lambda h: False)
        with pytest.raises(ValueError, match="no members"):
            far_from_property(impossible, random_graph(4, seed=1), 0.1)

    def test_property_of_another_uniformity_is_refused(self):
        # distance_to would count the 6 pair edges as if they were triples
        triples = PropertyFn("all-first-triples", 3, 2, lambda h: all(c == 1 for c in h.colors),
                             distance_to=lambda h: sum(1 for c in h.colors if c != 1))
        with pytest.raises(ValueError, match=r"'all-first-triples' expects palette \(3, 2\)"):
            far_from_property(triples, empty_graph(4), 0.1)

    def test_property_of_another_palette_is_refused(self):
        # without distance_to the brute force would build 4-colored graphs on a 2-palette
        fourth = PropertyFn("all-fourth", 2, 4, lambda h: all(c == 4 for c in h.colors))
        with pytest.raises(ValueError, match=r"'all-fourth' expects palette \(2, 4\)"):
            far_from_property(fourth, empty_graph(4), 0.1)

    def test_a_huge_brute_force_count_is_refused_unbuilt(self):
        # (2^100 + 1)^100128 candidate colorings is a 10^7-bit count, which
        # took 2 s and 1.25 MB to build: it is sized by its exponent and
        # refused unbuilt
        k = 2**100 + 1
        anything = PropertyFn("anything", 2, k, lambda h: True)
        g = make_hypergraph(448, 2, k, [1] * comb(448, 2))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BudgetError, match="^property edit distance: "):
                far_from_property(anything, g, 0.1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 2**20

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            far_from_property(PROPERTIES["complete"], empty_graph(4), 0.1,
                              normalization="cubes")
