"""Partition energies, ground states, and the sign-array reduction.

The annealer golden digests are recorded on the bulk-draw rule of
``energy._anneal_once`` (each run's draws taken up front as arrays, in
the documented order): every annealed value and labeling below must
stay bit-identical.
"""

import hashlib
import itertools
import json
import time
import warnings
from math import comb, exp, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertest import cli
from hypertest.budget import DEFAULT_BUDGET, BudgetError, limit
from hypertest.cutnorm import (
    StepKernel,
    TuplePartition,
    random_symmetric_array,
    sup_cutnorm_over_partitions,
)
from hypertest.energy import (
    CouplingArray,
    _labeling_energy,
    _anneal_once,
    _MEMO_MAX_Q,
    _LocalFields,
    _maximize,
    _temperatures,
    concentration_experiment,
    energy,
    gse,
    gse_graphon,
    make_reduction_arrays,
    sup_cutnorm_via_energy,
)
from hypertest.graphon import (
    GridPartition,
    constant_graphon,
    embed,
    random_step_graphon,
    step_graphon_to_json,
)
from hypertest.hypercore import colex_subsets, hypergraph_to_json, make_hypergraph
from hypertest.seeds import derive_seed, generator


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_rejected(self, bad):
        # NaN passes a sup-norm test (every comparison is False), so it
        # must be refused by name before gse compares energies
        with pytest.raises(ValueError, match=r"J\^2 has a non-finite entry"):
            CouplingArray(2, 2, 2, {1: np.zeros((2, 2)), 2: [[bad, -0.5], [-0.5, 0.25]]})

    def test_non_finite_json_rejected(self):
        # Python's json reads NaN and Infinity
        payload = json.loads('{"k": 1, "q": 2, "r": 2, "arrays": {"1": [NaN, -0.5, -0.5, 0.25]}}')
        with pytest.raises(ValueError, match=r"J\^1 has a non-finite entry"):
            CouplingArray.from_json(payload)

    def test_cli_gse_refuses_non_finite_coupling(self, tmp_path: Path):
        src, cpl, out = tmp_path / "in.json", tmp_path / "j.json", tmp_path / "out.json"
        src.write_text(json.dumps(hypergraph_to_json(make_hypergraph(4, 2, 1, [1] * 6))))
        cpl.write_text('{"k": 1, "q": 2, "r": 2, "arrays": {"1": [NaN, -0.5, -0.5, 0.25]}}')
        for mode in ("exact", "heuristic"):
            argv = ["gse", "--in", str(src), "--coupling", str(cpl), "--mode", mode,
                    "--out", str(out)]
            assert cli.run(argv) == 1
            assert not out.exists()

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


def _gathered_r2_update(fields, atom, old, new):
    """The r = 2 field update as gathered per move before the class-pair table."""
    n_terms, q = fields._j_pairs.shape[1], fields.q
    rows = np.arange(n_terms)[:, None]
    codes = np.zeros((n_terms, 1), dtype=np.intp)  # no free position: code 0
    jd = fields._j_pairs[new] - fields._j_pairs[old]
    return fields._t_pairs[atom] @ jd[rows, :, codes].reshape(-1, q)


class TestLocalFieldMirrors:
    @given(
        r=st.sampled_from([2, 3]),
        m=st.integers(1, 6),
        q=st.integers(1, 4),
        k=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        moves=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.booleans()),
                       min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_mirrors_and_table_follow_every_move(self, r, m, q, k, seed, moves):
        tensors, js, rng = random_instance(r, m, q, k, seed)
        labels = rng.integers(0, q, size=m)
        fields = _LocalFields(tensors, js, q)
        fields.reset(labels)
        assert fields.f_flat == fields.f.ravel().tolist()
        assert fields.label_list == labels.tolist()
        for atom, cls, stay in moves:
            atom %= m
            cls = int(labels[atom]) if stay else cls % q
            if r == 2:
                want = fields.f + _gathered_r2_update(fields, atom, int(labels[atom]), cls)
            fields.move(atom, cls)
            assert fields.f_flat == fields.f.ravel().tolist()
            assert fields.label_list == labels.tolist()
            if r == 2:
                assert np.array_equal(fields.f, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_r2_move_reuses_its_update_bit_for_bit(self, seed):
        # a -> new -> old -> new: the third move adds the update kept by the first
        tensors, js, rng = random_instance(2, 5, 3, 2, seed)
        labels = rng.integers(0, 3, size=5)
        fields = _LocalFields(tensors, js, 3)
        fields.reset(labels)
        atom, old = 2, int(labels[2])
        new = (old + 1) % 3
        key = (atom * 3 + new) * 3 + old
        for step, cls in enumerate((new, old, new)):
            want = fields.f + _gathered_r2_update(fields, atom, int(labels[atom]), cls)
            fields.move(atom, cls)
            assert fields.f.tobytes() == want.tobytes()
            assert fields.f_flat == fields.f.ravel().tolist()
            if step == 0:
                kept = fields._updates[key]
        assert fields._updates[key] is kept

    @pytest.mark.parametrize("q, room", [(3, 0), (3, 2), (3, 100), (8, 100)])
    def test_r2_memo_kept_within_the_budget_left(self, q, room):
        # the memo keeps m * q floats per update, in what the 4 x (m^2 + q^3) tables
        # leave; past that, or past _MEMO_MAX_Q classes, updates are computed unkept
        m = 5
        tensors, js, rng = random_instance(2, m, q, 2, seed=room)
        with limit(4 * (m**2 + q**3) + room * m * q):
            fields = _LocalFields(tensors, js, q)
        labels = rng.integers(0, q, size=m)
        fields.reset(labels)
        keys = set()
        for atom, cls in zip(rng.integers(0, m, 60).tolist(), rng.integers(0, q, 60).tolist()):
            keys.add((atom, cls, int(labels[atom])))
            want = fields.f + _gathered_r2_update(fields, atom, int(labels[atom]), cls)
            fields.move(atom, cls)
            assert fields.f.tobytes() == want.tobytes()
            assert fields.f_flat == fields.f.ravel().tolist()
        assert len(fields._updates) == (min(room, len(keys)) if q <= _MEMO_MAX_Q else 0)


def _anneal_reference(fields, rng):
    """The annealing run written from its documented draw order, one proposal at a time.

    The oracle for ``_anneal_once``: the same bulk draws, indexed as numpy
    arrays, with the temperature of proposal i taken from sweep i // m.
    """
    m, q = fields.m, fields.q
    labels = rng.integers(0, q, size=m)
    fields.reset(labels)
    warm = max(2 * m, 20)
    warm_atoms, warm_classes = rng.integers(0, m, warm), rng.integers(0, q, warm)
    scale = max(abs(fields.delta(int(a), int(c))) for a, c in zip(warm_atoms, warm_classes))
    temps, temp = [], max(scale, 1e-12)
    floor = temp * 1e-4
    while temp > floor:
        temps.append(temp)
        temp *= 0.95
    n = len(temps) * m
    atoms, classes, uniforms = rng.integers(0, m, n), rng.integers(0, q, n), rng.random(n)
    for i in range(n):
        atom, cls = int(atoms[i]), int(classes[i])
        if cls == fields.label_list[atom]:
            continue
        d = fields.delta(atom, cls)
        if d >= 0 or uniforms[i] < exp(d / temps[i // m]):
            fields.move(atom, cls)
    improved = True
    while improved:
        improved = False
        for atom in range(m):
            for cls in range(q):
                if fields.delta(atom, cls) > 1e-13:
                    fields.move(atom, cls)
                    improved = True
    return _labeling_energy(fields.tensors, fields.js, labels), labels


class _KeepEveryClass:
    """Draws in ``_anneal_once``'s order whose sweep proposals all keep their atom's class.

    The run starts from ``start``, and each sweep atom proposes its own
    starting class, so no sweep move is taken: every move of the run is
    the polish's. Every uniform is 0, which would take any scored proposal.
    """

    def __init__(self, start):
        self.start, self.draws = start, []

    def integers(self, low, high, size):
        call = len(self.draws)
        if call == 0:
            out = self.start.copy()
        elif call == 4:  # the sweep classes, after the sweep atoms
            out = self.start[self.draws[3]]
        else:  # warm-up atoms and classes, sweep atoms
            out = np.arange(size) % high
        self.draws.append(out)
        return out

    def random(self, size):
        return np.zeros(size)


class TestAnnealReference:
    @given(
        r=st.sampled_from([2, 3]),
        m=st.integers(1, 7),
        q=st.integers(1, 4),
        k=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_run_as_reference_loop(self, r, m, q, k, seed):
        tensors, js, _ = random_instance(r, m, q, k, seed)
        fields = _LocalFields(tensors, js, q)
        want_rng, rng = generator(seed + 1), generator(seed + 1)
        want_val, want_labels = _anneal_reference(fields, want_rng)
        val, labels = _anneal_once(fields, rng)
        assert val == want_val
        assert np.array_equal(labels, want_labels)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("r", [2, 3])
    def test_polish_ends_at_a_local_optimum(self, r):
        tensors, js, _ = random_instance(r, 6, 3, 2, seed=70)
        start = np.zeros(6, dtype=np.int64)
        fields = _LocalFields(tensors, js, 3)
        val, labels = _anneal_once(fields, _KeepEveryClass(start))
        assert not np.array_equal(labels, start)  # the polish moved
        assert all(fields.delta(a, c) <= 1e-13 for a in range(6) for c in range(3))
        assert val == _labeling_energy(tensors, js, labels)
        want_val, want_labels = _anneal_reference(_LocalFields(tensors, js, 3),
                                                  _KeepEveryClass(start))
        assert val == want_val and np.array_equal(labels, want_labels)

    @given(
        r=st.sampled_from([2, 3]),
        m=st.integers(1, 6),
        q=st.integers(1, 4),
        k=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        restarts=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_restarts_sharing_fields_match_fresh_fields(self, r, m, q, k, seed, restarts):
        # _maximize keeps one _LocalFields, and so one r = 2 update memo, for all restarts
        tensors, js, _ = random_instance(r, m, q, k, seed)
        val, labels = _maximize(tensors, js, m, q, "anneal", seed, restarts)
        want_val, want_labels = -np.inf, None
        for restart in range(restarts):
            fresh = _LocalFields(tensors, js, q)
            v, lab = _anneal_once(fresh, generator(derive_seed(seed, restart)))
            if v > want_val:
                want_val, want_labels = v, lab
        assert val == want_val
        assert np.array_equal(labels, want_labels)

    @pytest.mark.parametrize("scale", [0.0, 1e-6, 1.0, 1e6])
    def test_180_sweeps_at_every_scale(self, scale):
        # 0.95**180 < 1e-4 < 0.95**179; a zero scale starts at the 1e-12 floor
        temps = _temperatures(scale)
        assert len(temps) == 180
        assert temps[0] == max(scale, 1e-12)
        assert all(b == a * 0.95 for a, b in zip(temps, temps[1:]))


class TestAnnealerBudget:
    def _instance(self, n):
        return random_hypergraph(n, 3, 2, seed=60), _random_coupling(2, 2, 3, 61)

    def test_field_table_refused_past_budget(self):
        # 12 terms (2 colors x 6 position pairs) x m^3 entries, m = C(n, 2)
        g, j = self._instance(10)
        with limit(10**6), pytest.raises(BudgetError) as err:
            gse(g, j, mode="anneal", restarts=1)
        assert err.value.stage == "annealer local fields"
        assert err.value.needed == 12 * 45**3
        g9, _ = self._instance(9)
        with limit(10**6):
            gse(g9, j, mode="anneal", restarts=1)

    def test_class_pair_table_counted_at_r2(self):
        # 2 terms x (m^2 + q^3) entries: the table dominates at large q
        tensors, js, _ = random_instance(2, 2, 80, 1, seed=62)
        with limit(10**6), pytest.raises(BudgetError) as err:
            _LocalFields(tensors, js, 80)
        assert err.value.stage == "annealer local fields"
        assert err.value.needed == 2 * (2**2 + 80**3)

    @pytest.mark.parametrize("q, largest", [(2, 499), (10, 498)])
    def test_largest_r2_instance_at_the_default_budget(self, q, largest):
        # k = 2: 4 terms x (m^2 + q^3) entries; the update memo adds nothing
        tensors, js, _ = random_instance(2, largest + 1, q, 2, seed=63)
        with limit(DEFAULT_BUDGET):
            _LocalFields([t[:largest, :largest] for t in tensors], js, q)
            with pytest.raises(BudgetError) as err:
                _LocalFields(tensors, js, q)
        assert err.value.needed == 4 * ((largest + 1) ** 2 + q**3)

    def test_cli_gse_heuristic_at_ten_classes(self, tmp_path: Path):
        # 4 terms x (40^2 + 10^3) entries, far inside the default budget
        src, cpl, out = tmp_path / "in.json", tmp_path / "j.json", tmp_path / "out.json"
        src.write_text(json.dumps(hypergraph_to_json(random_hypergraph(40, 2, 2, seed=64))))
        cpl.write_text(json.dumps(_random_coupling(2, 10, 2, 65).to_json()))
        argv = ["gse", "--in", str(src), "--coupling", str(cpl), "--mode", "heuristic",
                "--restarts", "1", "--seed", "1", "--out", str(out)]
        with limit(DEFAULT_BUDGET):
            assert cli.run(argv) == 0
        assert len(json.loads(out.read_text())["labels"]) == 40

    def test_exact_enumeration_sized_before_it_is_built(self):
        # 3 ** (10 ** 7) takes seconds to build; its bit length refuses it at once
        start = time.perf_counter()
        with limit(DEFAULT_BUDGET), pytest.raises(BudgetError) as err:
            _maximize([], [], 10**7, 3, "exact", 0, 1)
        assert time.perf_counter() - start < 0.5
        assert err.value.stage == "gse exact labeling enumeration"

    def test_cli_refuses_and_runs_under_raised_budget(self, tmp_path: Path):
        g, j = self._instance(10)
        src, cpl, out = tmp_path / "in.json", tmp_path / "j.json", tmp_path / "out.json"
        src.write_text(json.dumps(hypergraph_to_json(g)))
        cpl.write_text(json.dumps(j.to_json()))
        argv = ["gse", "--in", str(src), "--coupling", str(cpl), "--mode", "heuristic",
                "--restarts", "1", "--seed", "1", "--out", str(out)]
        assert cli.run(argv + ["--budget", "1000000"]) == 2
        assert not out.exists()
        assert cli.run(argv + ["--budget", "2000000"]) == 0
        assert len(json.loads(out.read_text())["labels"]) == 45


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

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_rejected(self, trials):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trials must be at least 1"):
                concentration_experiment(k33(), ising_coupling(), sample_size=4, trials=trials)

    def test_report_shape(self):
        rep = concentration_experiment(k33(), ising_coupling(), sample_size=4, trials=5,
                                       seed=3, restarts=1, epsilons=(0.5,))
        assert len(rep["values"]) == 5
        tail = rep["tails"][0]
        assert tail["bound"] == pytest.approx(2 * np.exp(-0.25 * 4 / 32))
        assert 0.0 <= tail["empirical"] <= 1.0


# ----------------------------------------------------------------------
# annealer goldens


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _random_coupling(k, q, r, seed):
    rng = np.random.default_rng(seed)
    return CouplingArray(k, q, r, {a: rng.uniform(-1, 1, (q,) * r) for a in range(1, k + 1)})


def _anneal_payloads():
    out = {}
    # instances large enough that different draws end in different optima
    g2 = random_hypergraph(24, 2, 2, seed=40)
    for seed, restarts in ((0, 1), (1, 3)):
        val, part = gse(g2, _random_coupling(2, 4, 2, 52), mode="anneal", seed=seed,
                        restarts=restarts)
        out[f"gse-r2-restarts{restarts}"] = [val.hex(), list(part.classes)]
    # r = 3 instances carry tuples that hit an atom at two positions with a
    # third one free, so proposals go through the partial-correction terms
    g3 = random_hypergraph(8, 3, 2, seed=41)
    for restarts in (1, 2):
        val, part = gse(g3, _random_coupling(2, 3, 3, 42), mode="anneal", seed=0,
                        restarts=restarts)
        out[f"gse-r3-restarts{restarts}"] = [val.hex(), list(part.classes)]
    w = random_step_graphon(2, 2, t=3, resolution=8, seed=43)
    out["gse-graphon-r2"] = gse_graphon(w, _random_coupling(2, 4, 2, 44), mode="anneal",
                                        seed=1, restarts=2).hex()
    w3 = random_step_graphon(3, 2, t=2, resolution=2, seed=45)
    out["gse-graphon-r3"] = gse_graphon(w3, _random_coupling(2, 2, 3, 46), mode="anneal",
                                        seed=8, restarts=2).hex()
    rep = concentration_experiment(random_hypergraph(14, 2, 2, seed=47), ising_coupling(),
                                   sample_size=9, trials=6, seed=9, restarts=2)
    out["concentration-values"] = [v.hex() for v in rep["values"]]
    a = random_symmetric_array(4, 2, seed=48, lo=-1.0, hi=1.0)
    out["sup-cutnorm-via-energy"] = sup_cutnorm_via_energy(a, 2, mode="anneal", restarts=2,
                                                           seed=10).hex()
    # one restart with the generator's state after it: later draws depend on it
    tensors, js, _ = random_instance(2, 7, 3, 2, seed=53)
    rng = generator(54)
    val, labels = _anneal_once(_LocalFields(tensors, js, 3), rng)
    out["anneal-once-end-state"] = [val.hex(), labels.tolist(), rng.bit_generator.state,
                                    rng.random().hex()]
    return out


GOLDEN_ANNEAL = {
    "anneal-once-end-state": "4afb18f640b5f12099b148668081422c0a51e885cc354e02572c864a64a68d61",
    "concentration-values": "563254e69843ff06f48fe271fa0aedfc47b8fbb33ff2383cb0d2a49ad113e46c",
    "gse-graphon-r2": "cef255c4ec05990df1a3db8285a8c1bbf216482c74445848b33a6783fde56897",
    "gse-graphon-r3": "bf35e17722c94efa499ac17c701ead7069db8a2e202a842d24030ccd22d80f62",
    "gse-r2-restarts1": "060d51a60bfe2ece2d13ebde22d9e8bcdff5a7fa9302e707ef113bc90bf1cbb4",
    "gse-r2-restarts3": "060d51a60bfe2ece2d13ebde22d9e8bcdff5a7fa9302e707ef113bc90bf1cbb4",
    "gse-r3-restarts1": "d78373a6ad8a76f196c579a42b082e50e28a8c39b571f7bfc3c4e59e6f34f586",
    "gse-r3-restarts2": "d78373a6ad8a76f196c579a42b082e50e28a8c39b571f7bfc3c4e59e6f34f586",
    "sup-cutnorm-via-energy": "93f9c8354cecb2a1dd0ee0366eccfc0aac6cc5e1e453128130e4ace7d884e588",
}


@pytest.fixture(scope="module")
def anneal_payloads():
    return _anneal_payloads()


@pytest.mark.parametrize("name", sorted(GOLDEN_ANNEAL))
def test_golden_anneal(name, anneal_payloads):
    assert _digest(anneal_payloads[name]) == GOLDEN_ANNEAL[name]


GOLDEN_CLI_GSE = {
    "graph": "4651d3c28e941b76be16c965b3413f6d47c3c9221c90c21325ea2ec1056393db",
    "graphon": "3a117b7d9df32b3f60d05a6f05282b193de4a95549b5042fb6b8f228c1c389bc",
}


@pytest.mark.parametrize("source", sorted(GOLDEN_CLI_GSE))
def test_golden_cli_gse_heuristic(source, tmp_path: Path):
    payloads = {
        "graph": hypergraph_to_json(random_hypergraph(8, 2, 2, seed=49)),
        "graphon": step_graphon_to_json(random_step_graphon(2, 2, t=3, resolution=4, seed=51)),
    }
    src, cpl, out = tmp_path / "in.json", tmp_path / "j.json", tmp_path / "out.json"
    src.write_text(json.dumps(payloads[source]))
    cpl.write_text(json.dumps(_random_coupling(2, 3, 2, 50).to_json()))
    argv = ["gse", "--in", str(src), "--coupling", str(cpl), "--mode", "heuristic",
            "--restarts", "3", "--seed", "11", "--out", str(out)]
    assert cli.run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CLI_GSE[source]
