"""Cut norm and cut-P-norm tests against exhaustive set-enumeration oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.budget import BudgetError, limit
from hypertest.cutnorm import (
    CutWitness,
    StepKernel,
    TuplePartition,
    cut_distance,
    cutnorm_exact,
    cutnorm_heuristic,
    cutnorm_p,
    difference_kernel,
    evaluate_witness,
    graph_difference_arrays,
    kernel_cutnorm,
    kernel_cutnorm_p,
    random_symmetric_array,
    _solve,
    sup_cutnorm_over_partitions,
)
from hypertest.graphon import GridPartition, embed, random_step_graphon
from hypertest.hypercore import make_hypergraph


def bits(mask, m):
    return [i for i in range(m) if mask >> i & 1]


def brute_cutnorm_r2(a):
    """Oracle: enumerate every pair of vertex subsets directly."""
    n = a.shape[0]
    best = 0.0
    for m1 in range(1 << n):
        for m2 in range(1 << n):
            val = sum(a[i, j] for i in bits(m1, n) for j in bits(m2, n))
            best = max(best, abs(val))
    return best / n**2


def brute_cutnorm_r3(a):
    """Oracle: enumerate symmetric set triples as subsets of unordered pairs."""
    n = a.shape[0]
    pairs = list(itertools.combinations(range(n), 2))
    m = len(pairs)
    rank = {p: i for i, p in enumerate(pairs)}
    contrib = np.zeros((m, m, m))
    for tup in itertools.product(range(n), repeat=3):
        if len(set(tup)) != 3:
            continue
        proj = tuple(
            rank[tuple(sorted(tup[:j] + tup[j + 1 :]))] for j in range(3)
        )
        contrib[proj] += a[tup]
    best = 0.0
    masks = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
    for m1 in range(1 << m):
        inner = np.tensordot(masks[m1], contrib, axes=(0, 0))
        vals = masks @ inner @ masks.T
        best = max(best, float(np.abs(vals).max()))
    return best / n**3


def brute_cutp_r2(a, classes, q):
    """Oracle: direct per-class absolute sums over all subset pairs."""
    n = a.shape[0]
    best = 0.0
    for m1 in range(1 << n):
        s1 = bits(m1, n)
        for m2 in range(1 << n):
            s2 = bits(m2, n)
            total = 0.0
            for j1 in range(q):
                for j2 in range(q):
                    total += abs(
                        sum(
                            a[u, v]
                            for u in s1
                            if classes[u] == j1
                            for v in s2
                            if classes[v] == j2
                        )
                    )
            best = max(best, total)
    return best / n**2


class TestExactArray:
    def test_zero_array(self):
        value, witness = cutnorm_exact(np.zeros((4, 4)))
        assert value == 0.0
        assert witness.sets == ((), ())

    def test_all_ones_off_diagonal(self):
        a = np.ones((4, 4)) - np.eye(4)
        value, witness = cutnorm_exact(a)
        assert value == pytest.approx(12 / 16)
        assert witness.sets == ((0, 1, 2, 3), (0, 1, 2, 3))

    def test_diagonal_entries_participate_for_r2(self):
        # 1-tuples cannot repeat, so no off-diagonal restriction applies
        value, _ = cutnorm_exact(np.eye(4))
        assert value == pytest.approx(4 / 16)

    def test_repeated_index_entries_ignored_for_r3(self):
        a = np.zeros((4, 4, 4))
        for perm in itertools.permutations((0, 0, 1)):
            a[perm] = 1.0
        value, _ = cutnorm_exact(a)
        assert value == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_subset_enumeration_r2(self, seed):
        a = random_symmetric_array(4, 2, seed)
        value, _ = cutnorm_exact(a)
        assert value == pytest.approx(brute_cutnorm_r2(a), abs=1e-10)

    @pytest.mark.parametrize("seed", [7, 21])
    def test_matches_subset_enumeration_r3(self, seed):
        a = random_symmetric_array(4, 3, seed)
        value, _ = cutnorm_exact(a)
        assert value == pytest.approx(brute_cutnorm_r3(a), abs=1e-10)

    def test_structural_cap_and_budget(self):
        with pytest.raises(BudgetError):
            cutnorm_exact(random_symmetric_array(13, 2, 0))
        with limit(100), pytest.raises(BudgetError):
            cutnorm_exact(random_symmetric_array(8, 2, 0))

    @pytest.mark.parametrize("via_env", [False, True])
    def test_raised_budget_runs_past_two_to_the_24(self, monkeypatch, via_env):
        # 13 atoms at r = 2: 2^26 set tuples, all the budget is asked for
        a = random_symmetric_array(13, 2, seed=1)
        if via_env:
            monkeypatch.setenv("HYPERTEST_BUDGET", str(10**9))
            value, witness = cutnorm_exact(a)
        else:
            with limit(2**26):
                value, witness = cutnorm_exact(a)
        assert evaluate_witness(a, witness) == pytest.approx(value, abs=1e-12)
        assert value >= cutnorm_heuristic(a, seed=0)[0] - 1e-12

    def test_rejects_asymmetric_input(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            cutnorm_exact(a)


class TestHeuristic:
    def test_lower_bound_and_hit_rate_r2(self):
        hits = 0
        for seed in range(40):
            a = random_symmetric_array(4, 2, 500 + seed)
            exact, _ = cutnorm_exact(a)
            heur, _ = cutnorm_heuristic(a, restarts=16, seed=seed)
            assert heur <= exact + 1e-9
            hits += abs(heur - exact) < 1e-7
        assert hits >= 38

    def test_monotone_nonnegative_array_selects_full_sets(self):
        rng = np.random.default_rng(3)
        raw = rng.uniform(0.1, 1.0, size=(5, 5))
        a = (raw + raw.T) / 2
        value, witness = cutnorm_heuristic(a, restarts=2, seed=0)
        assert witness.sets == (tuple(range(5)), tuple(range(5)))
        assert value == pytest.approx(a.sum() / 25)

    def test_reproducible(self):
        a = random_symmetric_array(5, 2, 9)
        first = cutnorm_heuristic(a, restarts=8, seed=42)
        second = cutnorm_heuristic(a, restarts=8, seed=42)
        assert first[0] == second[0]
        assert first[1].sets == second[1].sets


class TestCutP:
    def test_single_class_equals_plain(self):
        a = random_symmetric_array(4, 2, 11)
        plain, _ = cutnorm_exact(a)
        single, _ = cutnorm_p(a, TuplePartition.trivial(4, 1))
        assert single == pytest.approx(plain, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_enumeration(self, seed):
        a = random_symmetric_array(4, 2, 300 + seed)
        p = TuplePartition.random(4, 1, 2, seed)
        value, witness = cutnorm_p(a, p)
        assert value == pytest.approx(brute_cutp_r2(a, p.classes, p.q), abs=1e-10)
        assert evaluate_witness(a, witness, p) == pytest.approx(value, abs=1e-9)

    def test_r3_matches_tensor_enumeration(self):
        a = random_symmetric_array(4, 3, 17)
        p = TuplePartition.random(4, 2, 2, 5)
        value, _ = cutnorm_p(a, p)
        # rebuild the coefficient tensor by direct tuple enumeration, then
        # enumerate all three atom sets with the class split
        n, pairs = 4, list(itertools.combinations(range(4), 2))
        rank = {pr: i for i, pr in enumerate(pairs)}
        m = len(pairs)
        t = np.zeros((m, m, m))
        for tup in itertools.product(range(n), repeat=3):
            if len(set(tup)) != 3:
                continue
            idx = tuple(rank[tuple(sorted(tup[:j] + tup[j + 1 :]))] for j in range(3))
            t[idx] += a[tup] / n**3
        masks = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
        onehot = (np.array(p.classes)[:, None] == np.arange(p.q)).astype(float)
        best = 0.0
        for m1 in range(1 << m):
            w = np.einsum("a,aj,bk,cl,abc->jklbc", masks[m1], onehot, onehot, onehot, t)
            # w[j,k,l,b,c]: contract remaining atom axes with the other two sets
            vals = np.einsum("jklbc,sb,uc->sujkl", w, masks, masks)
            best = max(best, float(np.abs(vals).sum(axis=(2, 3, 4)).max()))
        assert value == pytest.approx(best, abs=1e-10)

    def test_bounds_between_cutnorm_and_l1(self):
        for seed in range(10):
            a = random_symmetric_array(5, 2, 40 + seed)
            p = TuplePartition.random(5, 1, 3, seed)
            plain, _ = cutnorm_exact(a)
            withp, _ = cutnorm_p(a, p)
            l1 = float(np.abs(a).sum()) / 25
            assert plain - 1e-10 <= withp <= l1 + 1e-10

    def test_heuristic_is_lower_bound(self):
        hits = 0
        for seed in range(20):
            a = random_symmetric_array(4, 2, 100 + seed)
            p = TuplePartition.random(4, 1, 2, seed)
            exact, _ = cutnorm_p(a, p, mode="exact")
            heur, _ = cutnorm_p(a, p, mode="heuristic", restarts=8, seed=seed)
            assert heur <= exact + 1e-9
            hits += abs(heur - exact) < 1e-7
        assert hits >= 15

    def test_random_partition_keeps_its_classes_nonempty(self):
        # 200 draws of 10 labels all miss one of 10 classes: the last draw
        # is relabelled to the classes it hits, not replaced by one class
        for seed in range(5):
            p = TuplePartition.random(10, 1, 10, seed)
            assert 1 < p.q < 10 and sorted(set(p.classes)) == list(range(p.q))
        with pytest.raises(ValueError, match="nonempty classes need at least 5 atoms"):
            TuplePartition.random(3, 1, 5, 0)

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="class labels"):
            TuplePartition(4, 1, (0, 1, 2, 0), 2)
        with pytest.raises(ValueError, match="nonempty"):
            TuplePartition(4, 1, (0, 0, 0, 0), 2)
        with pytest.raises(ValueError, match="class labels"):
            TuplePartition(4, 1, (0, 0, 0), 1)
        # mismatched array/partition shapes
        with pytest.raises(ValueError, match="does not match"):
            cutnorm_p(random_symmetric_array(5, 2, 0), TuplePartition.trivial(4, 1))


class TestKernels:
    def test_constant_kernel(self):
        part = GridPartition.trivial(1)
        value, _ = kernel_cutnorm(StepKernel(part, np.full((1, 1), -0.4)))
        assert value == pytest.approx(0.4)

    def test_step_distance_matches_cell_array_route(self):
        u = random_step_graphon(2, 2, 3, 3, seed=5)
        w = random_step_graphon(2, 2, 2, 2, seed=9)
        dist = cut_distance(u, w)
        total = 0.0
        for alpha in (1, 2):
            kern = difference_kernel(u, w, alpha)
            cells = kern.array[np.ix_(kern.partition.labels, kern.partition.labels)]
            val, _ = cutnorm_exact(cells)
            total += val
        assert dist == pytest.approx(total, abs=1e-9)

    def test_refinement_invariance(self):
        part = GridPartition(1, 2, np.array([0, 1]), 2)
        arr = np.array([[0.3, -0.5], [-0.5, 0.2]])
        coarse, _ = kernel_cutnorm(StepKernel(part, arr))
        fine, _ = kernel_cutnorm(StepKernel(part.refined(2), arr))
        assert coarse == pytest.approx(fine, abs=1e-12)

    def test_kernel_cutp_refined_partition(self):
        u = random_step_graphon(2, 2, 3, 3, seed=5)
        w = random_step_graphon(2, 2, 2, 2, seed=9)
        kern = difference_kernel(u, w, 1)
        q = GridPartition(1, 2, np.array([0, 1]), 2)
        plain, _ = kernel_cutnorm(kern)
        withp, witness = kernel_cutnorm_p(kern, q)
        assert withp >= plain - 1e-12
        assert evaluate_witness(kern, witness, q) == pytest.approx(withp, abs=1e-9)

    def test_r3_kernel_distance_runs_exactly(self):
        u = random_step_graphon(3, 2, 2, 2, seed=4)
        w = random_step_graphon(3, 2, 2, 2, seed=8)
        assert cut_distance(u, w) >= 0.0
        assert cut_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_kernel_rejected(self):
        part = GridPartition(1, 2, np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="symmetric"):
            StepKernel(part, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCutDistance:
    def test_graph_pair_matches_subset_oracle(self):
        two_matchings = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1])
        cycle = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
        dist = cut_distance(two_matchings, cycle)
        expected = sum(
            brute_cutnorm_r2(diff)
            for diff in graph_difference_arrays(two_matchings, cycle).values()
        )
        assert dist == pytest.approx(expected, abs=1e-10)

    def test_identity_and_symmetry(self):
        g = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1])
        h = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
        assert cut_distance(g, g) == pytest.approx(0.0, abs=1e-12)
        assert cut_distance(g, h) == pytest.approx(cut_distance(h, g), abs=1e-12)

    def test_triangle_inequality(self):
        graphs = [
            make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1]),
            make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1]),
            make_hypergraph(4, 2, 2, [2, 2, 1, 1, 1, 2]),
        ]
        d01 = cut_distance(graphs[0], graphs[1])
        d12 = cut_distance(graphs[1], graphs[2])
        d02 = cut_distance(graphs[0], graphs[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_different_vertex_counts(self):
        big = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1])
        small = make_hypergraph(2, 2, 2, [1])
        assert cut_distance(big, small) >= 0.0

    def test_graph_route_agrees_with_embedded_kernels(self):
        g = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1])
        h = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
        via_arrays = cut_distance(g, h)
        via_kernels = cut_distance(embed(g), embed(h))
        assert via_arrays == pytest.approx(via_kernels, abs=1e-9)

    def test_mixed_types_rejected(self):
        g = make_hypergraph(4, 2, 2, [1, 2, 2, 2, 2, 1])
        with pytest.raises(ValueError, match="two graphs or two graphons"):
            cut_distance(g, embed(g))


class TestSupOverPartitions:
    def test_t1_equals_plain_cutnorm(self):
        a = random_symmetric_array(4, 2, 3)
        plain, _ = cutnorm_exact(a)
        assert sup_cutnorm_over_partitions(a, 1) == pytest.approx(plain, abs=1e-12)

    def test_monotone_in_class_budget(self):
        a = random_symmetric_array(4, 2, 3)
        values = [sup_cutnorm_over_partitions(a, t) for t in (1, 2, 3)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_dominates_every_fixed_partition(self):
        a = random_symmetric_array(4, 2, 6)
        sup2 = sup_cutnorm_over_partitions(a, 2)
        for seed in range(5):
            p = TuplePartition.random(4, 1, 2, seed)
            fixed, _ = cutnorm_p(a, p)
            assert fixed <= sup2 + 1e-10

    def test_kernel_object_accepted(self):
        u = random_step_graphon(2, 2, 2, 2, seed=5)
        w = random_step_graphon(2, 2, 2, 2, seed=6)
        kern = difference_kernel(u, w, 1)
        plain, _ = kernel_cutnorm(kern)
        assert sup_cutnorm_over_partitions(kern, 2) >= plain - 1e-12


    @pytest.mark.parametrize("seed", [3, 8])
    def test_heuristic_mode_is_the_annealed_energy_reduction(self, seed):
        from hypertest.energy import sup_cutnorm_via_energy

        a = random_symmetric_array(3, 2, seed)
        got = sup_cutnorm_over_partitions(a, 2, mode="heuristic", restarts=2, seed=seed)
        assert got == sup_cutnorm_via_energy(a, 2, mode="anneal", restarts=2, seed=seed)
        assert got <= sup_cutnorm_over_partitions(a, 2, mode="exact") + 1e-12


class TestWitness:
    def test_reevaluation_within_tolerance(self):
        a = random_symmetric_array(5, 2, 23)
        for value, witness in (cutnorm_exact(a), cutnorm_heuristic(a, seed=1)):
            assert evaluate_witness(a, witness) == pytest.approx(value, abs=1e-9)

    def test_json_roundtrippable_payload(self):
        import json

        a = random_symmetric_array(4, 2, 2)
        p = TuplePartition.random(4, 1, 2, 8)
        value, witness = cutnorm_p(a, p)
        payload = json.loads(json.dumps(witness.to_json()))
        assert payload["value"] == pytest.approx(value)
        assert payload["kind"] == "array"
        assert len(payload["sets"]) == 2
        assert payload["signs"] is not None

    def test_atom_mismatch_rejected(self):
        a = random_symmetric_array(4, 2, 2)
        _, witness = cutnorm_exact(a)
        with pytest.raises(ValueError, match="atoms"):
            evaluate_witness(random_symmetric_array(5, 2, 3), witness)


def brute_cutp_r1(t, classes, tq):
    """Oracle: per-class absolute sums over every subset of the atoms."""
    m = len(t)
    return max(
        sum(abs(sum(t[a] for a in bits(mask, m) if classes[a] == j)) for j in range(tq))
        for mask in range(1 << m)
    )


@st.composite
def r1_cutp_problems(draw):
    m = draw(st.integers(1, 8))
    tq = draw(st.integers(1, 4))
    values = draw(st.lists(
        st.sampled_from([0.0, 0.5, -0.5]) | st.floats(-1, 1, allow_nan=False),
        min_size=m, max_size=m))
    classes = np.array(draw(st.lists(st.integers(0, tq - 1), min_size=m, max_size=m)))
    return np.array(values), classes, tq


class TestCutPR1:
    """r = 1 exact cut-P is the closed form: per class, the larger mass."""

    @settings(max_examples=200, deadline=None)
    @given(r1_cutp_problems())
    def test_closed_form_matches_subset_enumeration(self, problem):
        # the public r = 1 entry points have one atom (the empty subset or
        # the single 0-dimensional cell), so several atoms and classes are
        # posed to the dispatch they hand their problem to
        t, classes, tq = problem
        atoms = np.zeros((len(t), 0), dtype=np.intp)
        exact, wit = _solve("kernel", atoms, t, classes, tq, "exact")
        heur, _ = _solve("kernel", atoms, t, classes, tq, "heuristic", restarts=4, seed=1)
        assert exact == pytest.approx(brute_cutp_r1(t, classes, tq), abs=1e-12)
        assert heur <= exact + 1e-12
        chosen = list(wit.sets[0])
        sums = np.bincount(classes[chosen], weights=t[chosen], minlength=tq)
        assert exact == pytest.approx(float(np.abs(sums).sum()), abs=1e-12)

    def test_ties_take_the_positive_side(self):
        t = np.array([0.5, -0.5, 0.0, 0.0])
        classes = np.array([0, 0, 1, 1])
        value, wit = _solve("kernel", np.zeros((4, 0), dtype=np.intp), t, classes, 2, "exact")
        assert value == 0.5
        assert wit.sets == ((0,),)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-1, 1, allow_nan=False), st.integers(1, 3))
    def test_kernel_entry_point(self, value, resolution):
        cell = GridPartition(0, resolution, np.zeros((), dtype=np.int64), 1)
        kern = StepKernel(cell, np.array([value]))
        exact, wit = kernel_cutnorm_p(kern, cell, mode="exact")
        heur, _ = kernel_cutnorm_p(kern, cell, mode="heuristic", restarts=2)
        assert exact == pytest.approx(abs(value), abs=1e-12)
        assert heur <= exact + 1e-12
        assert wit.r == 1

    def test_array_entry_point_no_longer_refuses(self):
        a = np.array([0.5, -0.2, 0.3, -0.4])
        value, _ = cutnorm_p(a, TuplePartition(4, 0, (0,), 1), mode="exact")
        assert value == pytest.approx(0.2 / 4)
