"""Weak regularity: round caps, class bounds, and the residual guarantee."""

import itertools
from fractions import Fraction
from math import ceil, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest import regularity
from hypertest.budget import BudgetError
from hypertest.cutnorm import cut_distance
from hypertest.graphon import (
    GridPartition,
    StepGraphon,
    l1_distance,
    random_grid_partition,
    random_step_graphon,
    step_average,
)
from hypertest.regularity import (
    RegularityError,
    class_count_bound,
    class_count_bound_log2,
    growth_sequence,
    sup_partition_distance,
    symmetrized_step,
    trace_csv,
    weak_regularize,
)


def test_nan_eps_is_refused_by_name():
    # NaN fails every comparison, so only "not eps > 0" refuses it
    w = random_step_graphon(2, 2, 2, 4, seed=7)
    with pytest.raises(ValueError, match="^eps must be positive$"):
        weak_regularize(w, float("nan"))
    with pytest.raises(ValueError, match="^eps must be positive$"):
        class_count_bound_log2(2, 2, float("nan"), 1)


def test_infinite_eps_is_refused_by_name():
    w = random_step_graphon(2, 2, 2, 4, seed=7)
    with pytest.raises(ValueError, match="^eps must be finite, got inf$"):
        weak_regularize(w, float("inf"))
    with pytest.raises(ValueError, match="^eps must be finite, got inf$"):
        class_count_bound_log2(2, 2, float("inf"), 1)


@settings(max_examples=300, deadline=None)
@given(eps=st.floats(min_value=1e-3, max_value=1.3e154))
def test_clamped_caps_equal_the_plain_formulas(eps):
    # wherever eps**2 does not overflow, clamping eps changes no cap
    assert regularity._ceil_squared_ratio(1.0, eps) == ceil(1.0 / eps**2)
    assert regularity._ceil_squared_ratio(2.0, eps) == ceil(4.0 / eps**2)


def test_huge_eps_bounds_equal_those_at_eps_two():
    # from eps = 2 on the bound's exponent ceil(4/eps^2) is 1
    assert class_count_bound_log2(2, 2, 1e308, 3) == class_count_bound_log2(2, 2, 2.0, 3)
    assert class_count_bound(2, 2, 1e308, 3) == class_count_bound(2, 2, 2.0, 3)


@pytest.mark.parametrize("eps", [5e-324, 1e-160])
def test_tiny_eps_caps_are_exact(eps):
    # eps**2 underflows to 0.0 or to a subnormal whose reciprocal is inf
    assert regularity._ceil_squared_ratio(1.0, eps) == ceil(1 / Fraction(eps) ** 2)
    assert regularity._ceil_squared_ratio(2.0, eps) == ceil(4 / Fraction(eps) ** 2)
    assert class_count_bound_log2(2, 2, eps, 1) == float("inf")
    with pytest.raises(ValueError, match="log2"):
        class_count_bound(2, 2, eps, 1)


def test_a_refinement_that_changes_nothing_ends_the_rounds():
    # round 0 sweeps (residual 7.8e-18 > eps), then every refinement
    # rebuilds the same 4-class partition: the rounds stop there, keeping
    # the best approximant, residual and mode the round cap would give
    w = random_step_graphon(2, 2, t=4, resolution=4, seed=1)
    with pytest.raises(RegularityError) as err:
        weak_regularize(w, 1e-100, seed=1, max_rounds=5)
    assert [row["round"] for row in err.value.trace] == [0]
    assert err.value.trace[0]["mode"] == "exact"
    assert err.value.achieved == pytest.approx(7.806255641895632e-18, rel=1e-12)
    assert err.value.p == w.partition
    # without a round cap the rounds would run to ceil(1/eps^2) = 1e200
    with pytest.raises(RegularityError) as uncapped:
        weak_regularize(w, 1e-100, seed=1)
    assert uncapped.value.trace == err.value.trace


class TestClassCountBound:
    def test_base_formula_value(self):
        # (2*1)^((1*1+1)^(4/4)) = 2^2
        assert class_count_bound(1, 1, 2.0, 1) == 4

    def test_monotone_in_k_and_t(self):
        base = class_count_bound(1, 1, 2.0, 1)
        assert class_count_bound(1, 2, 2.0, 1) >= base
        assert class_count_bound(1, 1, 2.0, 3) >= base
        assert class_count_bound_log2(2, 2, 0.5, 4) >= class_count_bound_log2(2, 1, 0.5, 4)

    def test_huge_bound_refuses_to_materialize(self):
        with pytest.raises(ValueError, match="log2"):
            class_count_bound(2, 2, 0.1, 2)
        assert class_count_bound_log2(2, 2, 0.1, 2) > 1_000_000

    def test_log2_matches_small_integer(self):
        assert class_count_bound_log2(1, 1, 2.0, 1) == pytest.approx(2.0)
        assert class_count_bound_log2(2, 1, 1.0, 2) == pytest.approx(
            log2(class_count_bound(2, 1, 1.0, 2))
        )

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            class_count_bound(2, 2, 0.0, 1)
        with pytest.raises(ValueError):
            class_count_bound_log2(0, 1, 0.5, 1)


class TestGrowthSequence:
    def test_recurrence_values(self):
        # s(i+1) = s(i) * (s(i)*t + 1)^(rk) with r=2, k=1, t=2
        assert growth_sequence(2, 1, 2, 3) == [1, 9, 3249, 137228016249]

    def test_bit_guard_stops_early(self):
        seq = growth_sequence(2, 2, 3, 50, max_bits=64)
        assert len(seq) < 51
        assert all(s.bit_length() <= 64 for s in seq)


class TestWeakRegularize:
    def test_input_within_budget_returns_itself(self):
        w = random_step_graphon(2, 2, 3, 4, seed=5)
        v, p, trace = weak_regularize(w, eps=0.3, t=3)
        assert len(trace) == 1 and trace[0]["round"] == 0
        assert trace[0]["residual"] <= 1e-12
        assert p == w.partition
        for c in w.arrays:
            assert np.allclose(v.arrays[c], w.arrays[c])

    def test_own_partition_is_certified_by_the_l1_bound(self):
        w = random_step_graphon(2, 2, 3, 4, seed=5)
        for mode in ("auto", "heuristic"):
            v, p, trace = weak_regularize(w, eps=0.3, mode=mode)
            assert [row["mode"] for row in trace] == ["bound"]
            assert trace[0]["residual"] == l1_distance(w, v)
            assert p is w.partition
        # exact mode is asked for the exact residual, so it sweeps
        _, _, trace = weak_regularize(w, eps=0.3, mode="exact")
        assert [row["mode"] for row in trace] == ["exact"]

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_modes_that_may_read_restarts_refuse_nonpositive_ones(self, restarts):
        # auto takes the L1 bound here and never sweeps, yet it is refused
        w = random_step_graphon(2, 2, 3, 4, seed=5)
        for mode in ("auto", "heuristic"):
            with pytest.raises(ValueError, match="restarts must be at least 1"):
                weak_regularize(w, eps=0.3, mode=mode, restarts=restarts)
        _, _, trace = weak_regularize(w, eps=0.3, mode="exact", restarts=restarts)
        assert [row["mode"] for row in trace] == ["exact"]

    def test_bound_above_eps_falls_back_to_the_sweep(self, monkeypatch):
        # the own-partition average is w up to rounding, so its bound tops
        # eps only by a few ulps; a stand-in bound makes that case certain
        monkeypatch.setattr(regularity, "l1_distance", lambda u, w: 1.0)
        w = random_step_graphon(2, 2, 3, 4, seed=5)
        v, p, trace = weak_regularize(w, eps=0.3)
        assert [row["mode"] for row in trace] == ["exact"]
        assert trace[0]["residual"] <= 1e-12

    def test_round_cap_at_half(self):
        # eps = 0.5 allows at most ceil(1/0.25) = 4 refinement rounds
        for seed in (0, 1, 2):
            w = random_step_graphon(2, 2, 4, 4, seed=seed)
            v, p, trace = weak_regularize(w, eps=0.5, t=1)
            assert len(trace) - 1 <= 4
            assert trace[-1]["residual"] <= 0.5 + 1e-12

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_guarantee_against_all_small_partitions(self, seed):
        w = random_step_graphon(2, 2, 3, 4, seed=seed)
        t = w.partition.t
        v, p, trace = weak_regularize(w, eps=0.25, t=t)
        m = max(1, len(trace) - 1)
        worst, qp, _ = sup_partition_distance(w, v, m * t, mode="exact")
        assert worst <= 0.25 + 1e-9
        # the sup really is attained by some partition the checker saw
        assert cut_distance(w, v, p=qp, mode="exact") == pytest.approx(worst, abs=1e-9)

    def test_trace_nonincreasing_and_classes_logged(self):
        w = random_step_graphon(2, 2, 4, 4, seed=11)
        v, p, trace = weak_regularize(w, eps=0.2, t=1)
        residuals = [row["residual"] for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert all(row["classes"] >= 1 for row in trace)
        assert log2(p.t) <= class_count_bound_log2(2, 2, 0.2, 1)

    def test_round_budget_exhaustion_reports_achieved(self):
        w = random_step_graphon(2, 2, 4, 4, seed=12)
        with pytest.raises(RegularityError) as err:
            weak_regularize(w, eps=1e-4, t=1, max_rounds=0)
        assert err.value.achieved > 1e-4
        assert err.value.trace[-1]["residual"] == err.value.achieved
        assert err.value.v.partition == err.value.p

    def test_negative_round_cap_is_refused(self):
        w = random_step_graphon(2, 2, 4, 4, seed=3)
        with pytest.raises(ValueError, match="max_rounds must be non-negative, got -1"):
            weak_regularize(w, eps=0.3, max_rounds=-1)
        # a cap of zero still measures round zero and keeps a fitting partition
        v, p, trace = weak_regularize(w, eps=0.3, max_rounds=0)
        assert p == w.partition
        assert [(row["round"], row["classes"]) for row in trace] == [(0, 4)]

    def test_heuristic_fallback_on_big_grids(self):
        # exact partition sweep for 16 cells into <= 4 classes blows the
        # default budget; auto mode must fall back and still finish
        w = random_step_graphon(2, 2, 5, 16, seed=13)
        v, p, trace = weak_regularize(w, eps=0.5, t=1)
        assert trace[-1]["residual"] <= 0.5
        assert [row["mode"] for row in trace] == ["heuristic"] * len(trace)

    def test_auto_stays_exact_on_small_grids(self):
        w = random_step_graphon(2, 2, 3, 4, seed=13)
        v, p, trace = weak_regularize(w, eps=0.5, t=1)
        assert [row["mode"] for row in trace] == ["exact"] * len(trace)

    def test_exact_mode_propagates_budget_error(self):
        w = random_step_graphon(2, 2, 5, 16, seed=13)
        with pytest.raises(BudgetError):
            weak_regularize(w, eps=0.5, t=1, mode="exact")

    def test_r3_small_grid(self):
        w = random_step_graphon(3, 2, 2, 2, seed=9)
        v, p, trace = weak_regularize(w, eps=0.4, t=1)
        assert trace[-1]["residual"] <= 0.4 + 1e-12
        assert v.partition == p

    def test_bad_inputs(self):
        w = random_step_graphon(2, 2, 2, 4, seed=1)
        with pytest.raises(ValueError, match="eps"):
            weak_regularize(w, eps=0.0)
        with pytest.raises(ValueError, match="mode"):
            weak_regularize(w, eps=0.5, mode="guess")


@settings(max_examples=60, deadline=None)
@given(r=st.integers(2, 3), k=st.integers(1, 3), t=st.integers(1, 3), pt=st.integers(1, 3),
       iota=st.booleans(), pair=st.sampled_from(("independent", "coarsened", "own")),
       seed=st.integers(0, 2**16), data=st.data())
def test_cut_distances_never_exceed_l1(r, k, t, pt, iota, pair, seed, data):
    # every cut-type distance integrates the difference over sets, so the
    # L1 distance bounds each; "own" pairs sit at 0 up to rounding, the
    # pairs the lift and round zero of weak_regularize certify by the bound
    resolution = 4 if r == 2 else 2
    # a class limit of 99 covers every orbit, where one evaluation attains
    # the sup; an r = 3 sweep over 2 or 3 classes takes seconds
    limit = data.draw(st.sampled_from((1, 2, 3, 99) if r == 2 else (1, 99)))
    u = random_step_graphon(r, k, t, resolution, seed=seed, with_iota=iota)
    if pair == "independent":
        w = random_step_graphon(r, k, t, resolution, seed=seed + 1, with_iota=iota)
    else:
        coarse = random_grid_partition(r - 1, resolution, pt, seed=seed + 2)
        w = step_average(u, coarse if pair == "coarsened" else u.partition)
    p = random_grid_partition(r - 1, resolution, pt, seed=seed + 3)
    bound = l1_distance(u, w) * (1 + 1e-12) + 1e-15
    assert sup_partition_distance(u, w, limit, mode="exact")[0] <= bound
    assert cut_distance(u, w, p=p, mode="exact") <= bound
    assert cut_distance(u, w, mode="exact") <= bound


class TestSupPartitionDistance:
    def test_monotone_in_limit(self):
        u = random_step_graphon(2, 2, 3, 4, seed=20)
        w = random_step_graphon(2, 2, 3, 4, seed=21)
        vals = [sup_partition_distance(u, w, limit, mode="exact")[0] for limit in (1, 2, 4)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_limit_one_is_plain_cut_distance(self):
        u = random_step_graphon(2, 2, 3, 4, seed=22)
        w = random_step_graphon(2, 2, 3, 4, seed=23)
        val, qp, wits = sup_partition_distance(u, w, 1, mode="exact")
        assert qp.t == 1
        assert val == pytest.approx(cut_distance(u, w, mode="exact"), abs=1e-12)
        assert len(wits) == len(set(u.arrays) | set(w.arrays))

    def test_dominates_random_partitions(self):
        u = random_step_graphon(2, 2, 3, 4, seed=24)
        w = random_step_graphon(2, 2, 3, 4, seed=25)
        best, _, _ = sup_partition_distance(u, w, 3, mode="exact")
        for seed in range(5):
            qp = random_grid_partition(1, 4, 3, seed=seed)
            assert cut_distance(u, w, p=qp, mode="exact") <= best + 1e-12

    def test_heuristic_is_an_estimate_not_above_exact_finest(self):
        u = random_step_graphon(2, 2, 3, 4, seed=26)
        w = random_step_graphon(2, 2, 3, 4, seed=27)
        exact_finest, _, _ = sup_partition_distance(u, w, 99, mode="exact")
        est, _, _ = sup_partition_distance(u, w, 99, mode="heuristic")
        assert est <= exact_finest + 1e-9

    def test_bad_inputs(self):
        u = random_step_graphon(2, 2, 3, 4, seed=28)
        with pytest.raises(ValueError, match="limit"):
            sup_partition_distance(u, u, 0)
        w3 = random_step_graphon(3, 2, 2, 2, seed=29)
        with pytest.raises(ValueError, match="uniformity"):
            sup_partition_distance(u, w3, 2)


class TestSymmetrization:
    def test_noop_on_symmetric_input(self):
        w = random_step_graphon(2, 2, 3, 3, seed=30)
        v = symmetrized_step(2, 2, w.partition, dict(w.arrays))
        for c in w.arrays:
            assert np.allclose(v.arrays[c], w.arrays[c])

    def test_never_increases_distance_to_symmetric_target(self):
        # brute-force oracle: free cut norm of a (possibly asymmetric)
        # cell array D is max over set pairs of |sum D[S x T]| / g^2
        def brute_free(d):
            g = d.shape[0]
            cells = range(g)
            best = 0.0
            for ones_s in itertools.product((0, 1), repeat=g):
                for ones_t in itertools.product((0, 1), repeat=g):
                    s = [i for i in cells if ones_s[i]]
                    t = [i for i in cells if ones_t[i]]
                    best = max(best, abs(d[np.ix_(s, t)].sum()) / g**2)
            return best

        rng = np.random.default_rng(31)
        part = GridPartition(1, 3, np.arange(3), 3)
        w = random_step_graphon(2, 2, 3, 3, seed=32)
        raw1 = rng.uniform(0.05, 0.95, (3, 3))
        raw = {1: raw1, 2: 1.0 - raw1}
        v = symmetrized_step(2, 2, part, raw)
        asym_dist = sum(
            brute_free(raw[c][part.labels][:, part.labels] - w.arrays[c][w.partition.labels][:, w.partition.labels])
            for c in (1, 2)
        )
        assert cut_distance(v, w, mode="exact") <= asym_dist + 1e-9


class TestTraceCsv:
    def test_format(self):
        w = random_step_graphon(2, 2, 4, 4, seed=33)
        _, _, trace = weak_regularize(w, eps=0.3, t=1)
        text = trace_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "round,residual,classes,mode"
        assert len(lines) == len(trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) >= 0.0
        assert [line.split(",")[3] for line in lines[1:]] == [row["mode"] for row in trace]

    def test_own_partition_row_reads_bound(self):
        w = random_step_graphon(2, 2, 3, 4, seed=5)
        _, _, trace = weak_regularize(w, eps=0.3)
        first = trace_csv(trace).splitlines()[1].split(",")
        assert first[0] == "0" and first[3] == "bound"
