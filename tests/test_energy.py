"""Partition energies, ground states, and the sign-array reduction."""

import itertools
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest.budget import BudgetError, limit
from hypertest.cutnorm import (
    StepKernel,
    TuplePartition,
    random_symmetric_array,
    sup_cutnorm_over_partitions,
)
from hypertest.energy import (
    CouplingArray,
    _labeling_energy,
    _LocalFields,
    _maximize,
    concentration_experiment,
    energy,
    gse,
    gse_graphon,
    make_reduction_arrays,
    sup_cutnorm_via_energy,
)
from hypertest.graphon import GridPartition, constant_graphon, embed
from hypertest.hypercore import colex_subsets, make_hypergraph


def k33():
    # complete bipartite graph on {0,1,2} x {3,4,5}, color 1 = edge
    colors = [1 if (a < 3) != (b < 3) else 2 for (a, b) in colex_subsets(6, 2)]
    return make_hypergraph(6, 2, 2, colors)


def random_hypergraph(n, r, k, seed):
    rng = np.random.default_rng(seed)
    return make_hypergraph(n, r, k, rng.integers(1, k + 1, size=comb(n, r)).tolist())


def ising_coupling(q=2):
    j = 2.0 * np.eye(q) - 1.0
    return CouplingArray(2, q, 2, {1: j, 2: np.zeros((q, q))})


class TestCouplingArray:
    def test_validation(self):
        with pytest.raises(ValueError, match="one array per color"):
            CouplingArray(2, 2, 2, {1: np.zeros((2, 2))})
        with pytest.raises(ValueError, match="shape"):
            CouplingArray(1, 2, 2, {1: np.zeros((2, 3))})
        with pytest.raises(ValueError, match="sup norm"):
            CouplingArray(1, 2, 2, {1: 1.5 * np.ones((2, 2))})

    def test_json_roundtrip(self):
        j = CouplingArray(2, 3, 2, {1: np.eye(3), 2: -0.5 * np.ones((3, 3))})
        back = CouplingArray.from_json(j.to_json())
        assert back.k == j.k and back.q == j.q and back.r == j.r
        for alpha in (1, 2):
            assert np.array_equal(back.arrays[alpha], j.arrays[alpha])

    def test_negated_and_sup_norm(self):
        j = ising_coupling()
        assert j.sup_norm == 1.0
        assert np.array_equal(j.negated().arrays[1], -j.arrays[1])


class TestEnergy:
    def test_triangle_single_class(self):
        # all 6 ordered adjacent pairs contribute 1, normalized by 3^2
        tri = make_hypergraph(3, 2, 2, [1, 1, 1])
        j = CouplingArray(2, 1, 2, {1: np.array([[1.0]]), 2: np.array([[0.0]])})
        assert energy(tri, j, TuplePartition.trivial(3, 1)) == pytest.approx(6 / 9)

    def test_zero_coupling(self):
        g = random_hypergraph(5, 2, 2, seed=1)
        j = CouplingArray(2, 2, 2, {1: np.zeros((2, 2)), 2: np.zeros((2, 2))})
        p = TuplePartition.random(5, 1, 2, seed=3)
        assert energy(g, j, p) == 0.0

    def test_linear_in_coupling(self):
        g = random_hypergraph(5, 2, 2, seed=4)
        p = TuplePartition.random(5, 1, 2, seed=5)
        rng = np.random.default_rng(6)
        a = rng.uniform(-0.4, 0.4, size=(2, 2))
        b = rng.uniform(-0.4, 0.4, size=(2, 2))
        ja = CouplingArray(2, 2, 2, {1: a, 2: np.zeros((2, 2))})
        jb = CouplingArray(2, 2, 2, {1: b, 2: np.zeros((2, 2))})
        jab = CouplingArray(2, 2, 2, {1: a + b, 2: np.zeros((2, 2))})
        assert energy(g, jab, p) == pytest.approx(energy(g, ja, p) + energy(g, jb, p), abs=1e-12)

    def test_all_ones_counts_ordered_edges(self):
        # with J^alpha = 1 the partition drops out and the energy is the
        # normalized count of ordered tuples of that color
        for r, n in ((2, 6), (3, 5)):
            g = random_hypergraph(n, r, 2, seed=10 + r)
            counts = g.color_counts()
            p = TuplePartition.random(n, r - 1, 2, seed=7)
            for alpha in (1, 2):
                arrays = {
                    c: (np.ones((2,) * r) if c == alpha else np.zeros((2,) * r)) for c in (1, 2)
                }
                j = CouplingArray(2, 2, r, arrays)
                expected = factorial(r) * counts[alpha] / n**r
                assert energy(g, j, p) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatches_rejected(self):
        g = random_hypergraph(5, 2, 2, seed=1)
        j = ising_coupling()
        with pytest.raises(ValueError, match="classes"):
            energy(g, CouplingArray(2, 3, 2, {1: np.zeros((3,) * 2), 2: np.zeros((3,) * 2)}),
                   TuplePartition.random(5, 1, 2, seed=2))
        with pytest.raises(ValueError, match="does not match the graph"):
            energy(g, CouplingArray(1, 2, 2, {1: np.zeros((2, 2))}),
                   TuplePartition.random(5, 1, 2, seed=2))
        with pytest.raises(ValueError, match="atoms"):
            energy(g, j, TuplePartition.random(6, 1, 2, seed=2))


class TestGse:
    def test_k33_exact_frozen(self):
        # brute force over the 2^6 labelings gives 0.5, attained by the
        # single-class labeling (18 ordered edges, all scored +1, over 36)
        val, part = gse(k33(), ising_coupling(), mode="exact")
        assert val == pytest.approx(0.5, abs=1e-12)
        assert energy(k33(), ising_coupling(), part) == pytest.approx(val, abs=1e-12)

    def test_k33_anneal_matches_exact(self):
        val, part = gse(k33(), ising_coupling(), mode="anneal", seed=3)
        assert val == pytest.approx(0.5, abs=1e-12)
        assert energy(k33(), ising_coupling(), part) == pytest.approx(val, abs=1e-12)

    def test_negated_coupling_gives_minus_min(self):
        # independent check: enumerate every labeling through the public
        # energy function and compare against gse of the negated coupling
        g = random_hypergraph(4, 2, 2, seed=20)
        j = ising_coupling()
        vals = []
        for labels in itertools.product(range(2), repeat=4):
            p = TuplePartition(4, 1, labels, 2, allow_empty=True)
            vals.append(energy(g, j, p))
        val, _ = gse(g, j.negated(), mode="exact")
        assert val == pytest.approx(-min(vals), abs=1e-12)
        assert gse(g, j, mode="exact")[0] == pytest.approx(max(vals), abs=1e-12)

    def test_dominates_fixed_partitions(self):
        g = random_hypergraph(5, 2, 2, seed=21)
        rng = np.random.default_rng(22)
        j = CouplingArray(2, 2, 2, {1: rng.uniform(-1, 1, (2, 2)), 2: rng.uniform(-1, 1, (2, 2))})
        best, _ = gse(g, j, mode="exact")
        for seed in range(10):
            p = TuplePartition.random(5, 1, 2, seed=seed)
            assert energy(g, j, p) <= best + 1e-12

    def test_class_relabeling_invariance(self):
        g = random_hypergraph(5, 2, 2, seed=23)
        rng = np.random.default_rng(24)
        arr1, arr2 = rng.uniform(-1, 1, (2, 3, 3)), rng.uniform(-1, 1, (2, 3, 3))
        j = CouplingArray(2, 3, 2, {1: arr1[0], 2: arr2[0]})
        perm = np.array([2, 0, 1])
        jp = CouplingArray(2, 3, 2, {
            1: arr1[0][np.ix_(perm, perm)],
            2: arr2[0][np.ix_(perm, perm)],
        })
        assert gse(g, j, mode="exact")[0] == pytest.approx(gse(g, jp, mode="exact")[0], abs=1e-12)

    def test_r3_exact_vs_anneal(self):
        g = random_hypergraph(5, 3, 2, seed=25)
        rng = np.random.default_rng(26)
        j = CouplingArray(2, 2, 3, {1: rng.uniform(-1, 1, (2, 2, 2)), 2: rng.uniform(-1, 1, (2, 2, 2))})
        exact, _ = gse(g, j, mode="exact")
        heur, _ = gse(g, j, mode="anneal", seed=0, restarts=6)
        assert heur <= exact + 1e-12
        assert heur == pytest.approx(exact, abs=1e-9)

    def test_budget_refusal_and_bad_mode(self):
        g = random_hypergraph(8, 2, 2, seed=27)
        j = ising_coupling(q=6)
        with limit(1000), pytest.raises(BudgetError):
            gse(g, j, mode="exact")
        with pytest.raises(ValueError, match="mode"):
            gse(g, ising_coupling(), mode="solve")

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            gse(k33(), ising_coupling(), mode="anneal", restarts=restarts)


# random instances: T is dense, so tuples that repeat an atom carry weight
# as in graphon instances, and J is asymmetric as in the reduction arrays
instances = st.tuples(
    st.sampled_from([1, 2, 3]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def random_instance(r, m, q, k, seed):
    rng = np.random.default_rng(seed)
    tensors = [rng.uniform(-1, 1, (m,) * r) for _ in range(k)]
    js = [rng.uniform(-1, 1, (q,) * r) for _ in range(k)]
    return tensors, js, rng


class TestLocalFields:
    @given(instances)
    @settings(max_examples=60, deadline=None)
    def test_deltas_and_fields_match_recomputation(self, shape):
        r, m, q, k, seed = shape
        tensors, js, rng = random_instance(r, m, q, k, seed)
        labels = rng.integers(0, q, size=m)
        fields = _LocalFields(tensors, js, q)
        fields.reset(labels)
        for _ in range(12):
            before = _labeling_energy(tensors, js, labels)
            for atom in range(m):
                for cls in range(q):
                    moved = labels.copy()
                    moved[atom] = cls
                    exact = _labeling_energy(tensors, js, moved) - before
                    assert fields.delta(atom, cls) == pytest.approx(exact, abs=1e-12)
            fields.move(int(rng.integers(m)), int(rng.integers(q)))
        fresh = _LocalFields(tensors, js, q)
        fresh.reset(labels.copy())
        assert np.allclose(fields.f, fresh.f, rtol=0.0, atol=1e-12)

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_anneal_never_beats_exact(self, shape):
        r, m, q, k, seed = shape
        tensors, js, _ = random_instance(r, m, q, k, seed)
        exact, _ = _maximize(tensors, js, m, q, "exact", 0, 1)
        heur, labels = _maximize(tensors, js, m, q, "anneal", seed, 2)
        assert heur <= exact + 1e-12
        assert heur == pytest.approx(_labeling_energy(tensors, js, labels), abs=1e-12)


class TestGseGraphon:
    def test_embedded_graph_matches_r2(self):
        # r=2 cell orbits are exactly the vertices, so the search spaces agree
        g = k33()
        j = ising_coupling()
        assert gse_graphon(embed(g), j, mode="exact") == pytest.approx(
            gse(g, j, mode="exact")[0], abs=1e-12
        )

    def test_embedded_graph_r3_within_diagonal_mass(self):
        g = make_hypergraph(4, 3, 2, [1, 2, 2, 1])
        j = CouplingArray(2, 2, 3, {1: 0.5 * np.ones((2, 2, 2)), 2: -0.25 * np.ones((2, 2, 2))})
        exact, _ = gse(g, j, mode="exact")
        approx = gse_graphon(embed(g), j, mode="anneal", seed=2, restarts=3)
        diag_mass = 1 - (4 * 3 * 2) / 4**3
        assert abs(approx - exact) <= diag_mass * j.sup_norm + 1e-12

    def test_constant_graphon_single_class(self):
        w = constant_graphon(2, 2, [0.3, 0.7])
        j = CouplingArray(2, 1, 2, {1: np.array([[0.8]]), 2: np.array([[-0.5]])})
        assert gse_graphon(w, j, mode="exact") == pytest.approx(0.3 * 0.8 - 0.7 * 0.5, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        w = constant_graphon(2, 2, [0.5, 0.5])
        with pytest.raises(ValueError, match="does not match"):
            gse_graphon(w, CouplingArray(1, 2, 2, {1: np.zeros((2, 2))}))


class TestReductionArrays:
    def test_b0_structure_r2(self):
        # power set axis order (), {0}, {1}, {0,1}; membership demands
        # position 0 in the first subset and position 1 in the second
        ca = make_reduction_arrays(np.array([[1.0]]), [1.0])
        assert ca.q == 4 and ca.k == 1 and ca.r == 2
        b0 = ca.arrays[1]
        assert int(b0.sum()) == 4
        ones = {(1, 2), (1, 3), (3, 2), (3, 3)}
        assert {tuple(ix) for ix in np.argwhere(b0 == 1.0)} == ones

    def test_scaling_by_level_values(self):
        base = make_reduction_arrays(np.array([[1.0]]), [1.0]).arrays[1]
        ca = make_reduction_arrays(np.array([[1.0]]), [0.25, -0.5])
        assert np.allclose(ca.arrays[1], 0.25 * base)
        assert np.allclose(ca.arrays[2], -0.5 * base)

    def test_sign_block_kron(self):
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ca = make_reduction_arrays(signs, [1.0])
        assert ca.q == 8
        b0 = make_reduction_arrays(np.array([[1.0]]), [1.0]).arrays[1]
        # block (i1, i2) of the kron is signs[i1, i2] * B0
        arr = ca.arrays[1]
        assert np.array_equal(arr[4:, :4], -b0)
        assert np.array_equal(arr[4:, 4:], b0)

    def test_validation(self):
        with pytest.raises(ValueError, match="-1 or 1"):
            make_reduction_arrays(np.array([[0.5]]), [1.0])
        with pytest.raises(ValueError, match="level values"):
            make_reduction_arrays(np.array([[1.0]]), [2.0])


class TestReductionEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_r2(self, seed):
        a = random_symmetric_array(4, 2, seed=seed, lo=-1.0, hi=1.0)
        lhs = sup_cutnorm_via_energy(a, 2, mode="exact")
        rhs = sup_cutnorm_over_partitions(a, 2, mode="exact")
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_step_kernel(self):
        part = GridPartition(1, 2, np.array([0, 1]), 2)
        kern = StepKernel(part, np.array([[0.6, -0.2], [-0.2, 0.3]]))
        lhs = sup_cutnorm_via_energy(kern, 2, mode="exact")
        rhs = sup_cutnorm_over_partitions(kern, 2, mode="exact")
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_anneal_lower_bounds_exact(self):
        a = random_symmetric_array(4, 2, seed=9, lo=-1.0, hi=1.0)
        exact = sup_cutnorm_via_energy(a, 2, mode="exact")
        heur = sup_cutnorm_via_energy(a, 2, mode="anneal", restarts=2, seed=1)
        assert heur <= exact + 1e-9

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="rescale"):
            sup_cutnorm_via_energy(2.0 * np.eye(3), 2, mode="exact")


class TestConcentration:
    def test_full_sample_has_zero_spread(self):
        rep = concentration_experiment(k33(), ising_coupling(), sample_size=6, trials=6,
                                       seed=1, restarts=2)
        assert max(rep["values"]) - min(rep["values"]) == pytest.approx(0.0, abs=1e-12)
        assert rep["iqr"] == pytest.approx(0.0, abs=1e-12)

    def test_iqr_shrinks_with_sample_size(self):
        g = random_hypergraph(12, 2, 2, seed=30)
        j = ising_coupling()
        small = concentration_experiment(g, j, sample_size=4, trials=24, seed=2, restarts=2)
        large = concentration_experiment(g, j, sample_size=11, trials=24, seed=2, restarts=2)
        assert small["iqr"] >= large["iqr"]

    def test_report_shape(self):
        rep = concentration_experiment(k33(), ising_coupling(), sample_size=4, trials=5,
                                       seed=3, restarts=1, epsilons=(0.5,))
        assert len(rep["values"]) == 5
        tail = rep["tails"][0]
        assert tail["bound"] == pytest.approx(2 * np.exp(-0.25 * 4 / 32))
        assert 0.0 <= tail["empirical"] <= 1.0
