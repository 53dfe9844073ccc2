"""Desk-scale acceptance suite: thirteen end-to-end checks.

Every inequality is verified by exact enumeration at sizes where that is
feasible; heuristic routes are compared against the exact oracles, never
trusted on their own. Each check prints a single verdict line (visible
with ``pytest -s`` or in the captured-output section of a failure).

Check 10 is expected to fail, and the failure is kept: the per-class
maximum form of the product-volume bound is false for small sample
sizes, where the variation distance keeps the total deviation across
classes while the bound only keeps the largest one. The failure message
carries the first frozen counterexample; the provable total-deviation
variant is what the library itself asserts.
"""

import itertools
import time
from math import comb

import numpy as np
import pytest

from hypertest.budget import limit
from hypertest.cutnorm import (
    TuplePartition,
    cut_distance,
    cutnorm_exact,
    cutnorm_heuristic,
    cutnorm_p,
    difference_kernel,
    random_symmetric_array,
    sup_cutnorm_over_partitions,
)
from hypertest.density import (
    SampleDistribution,
    all_patterns,
    density_graphon,
    sample_distribution,
    tv_forms,
)
from hypertest.energy import (
    CouplingArray,
    concentration_experiment,
    gse,
    sup_cutnorm_via_energy,
)
from hypertest.graphon import (
    VertexGraphon,
    l1_distance,
    random_step_graphon,
    sample_graphon,
)
from hypertest.hypercore import colex_rank, make_hypergraph
from hypertest.regularity import weak_regularize
from hypertest.seeds import derive_seed, generator
from hypertest.testers import (
    PARAMETERS,
    PROPERTIES,
    far_from_property,
    property_acceptance_rate,
)
from hypertest.transfer import (
    base_case_report,
    base_case_transfer,
    discolor_step,
    embed_sample,
    lift_coloring,
    nd_estimate_pipeline,
    transfer_bound_report,
)


def random_graph(n: int, r: int, k: int, seed: int):
    rng = generator(seed)
    return make_hypergraph(n, r, k, [int(c) for c in rng.integers(1, k + 1, size=comb(n, r))])


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")


COUPLING = CouplingArray(
    2, 2, 2,
    {1: np.array([[1.0, -0.5], [-0.5, 0.25]]),
     2: np.array([[-0.25, 0.5], [0.5, -1.0]])},
)


def test_criterion_01_sample_counting_bound():
    """Pattern densities of two graphons differ by at most C(q,2) times
    their exact cut distance; 50 random pairs, all patterns at q=3."""
    start = time.perf_counter()
    patterns = [make_hypergraph(3, 2, 2, list(p)) for p in all_patterns(3, 2, 2)]
    violations = 0
    worst_slack = float("inf")
    for i in range(50):
        u = random_step_graphon(2, 2, i % 3 + 1, 4, seed=derive_seed(101, i, 0))
        w = random_step_graphon(2, 2, (i // 3) % 3 + 1, 4, seed=derive_seed(101, i, 1))
        bound = 3.0 * cut_distance(u, w, mode="exact")
        for f in patterns:
            gap = abs(density_graphon(f, u) - density_graphon(f, w))
            worst_slack = min(worst_slack, bound - gap)
            if gap > bound + 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    verdict(1, "sample counting bound", ok,
            f"50 pairs x 8 patterns, worst slack {worst_slack:.6f}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_02_vertex_embedding_deviation():
    """Induced q=3 pattern densities of a graph and of its vertex
    embedding differ by at most C(q,2)/(n - C(q,2)): exhaustively over
    all n=6 two-colored graphs, and over an n=10 corpus at bound 3/7.

    The n=6 sweep runs on a vectorized reimplementation whose laws are
    cross-checked against the library distributions on a random sample
    of instances.
    """
    n, q = 6, 3
    m = comb(n, 2)
    codes = np.arange(1 << m, dtype=np.int64)
    colors = ((codes[:, None] >> np.arange(m)) & 1).astype(np.int8) + 1

    sub_idx = np.array([
        [colex_rank((a, b)), colex_rank((a, c)), colex_rank((b, c))]
        for a, b, c in itertools.combinations(range(n), q)
    ])
    pc = colors[:, sub_idx] - 1
    pc = pc[..., 0] * 4 + pc[..., 1] * 2 + pc[..., 2]
    sub_probs = np.stack([(pc == c).mean(axis=1) for c in range(8)], axis=1)

    maps = [t for t in itertools.product(range(n), repeat=q) if len(set(t)) == q]
    map_idx = np.array([
        [colex_rank(tuple(sorted((v0, v1)))),
         colex_rank(tuple(sorted((v0, v2)))),
         colex_rank(tuple(sorted((v1, v2))))]
        for v0, v1, v2 in maps
    ])
    mc = colors[:, map_idx] - 1
    mc = mc[..., 0] * 4 + mc[..., 1] * 2 + mc[..., 2]
    map_probs = np.stack([(mc == c).sum(axis=1) / n**q for c in range(8)], axis=1)

    # dual route: the sweep's two laws must match the library exactly
    rng = generator(202)
    pats = all_patterns(q, 2, 2)
    for gi in rng.integers(0, 1 << m, size=20):
        g = make_hypergraph(n, 2, 2, [int(c) for c in colors[gi]])
        lib_sub = sample_distribution(g, q)
        lib_map = sample_distribution(VertexGraphon(g), q)
        for ci, pat in enumerate(pats):
            assert abs(lib_sub.prob(pat) - sub_probs[gi, ci]) <= 1e-12
            assert abs(lib_map.prob(pat) - map_probs[gi, ci]) <= 1e-12

    max6 = float(np.abs(sub_probs - map_probs).max())
    bound6 = comb(q, 2) / (n - comb(q, 2))

    def deviation10(cols):
        g = make_hypergraph(10, 2, 2, cols)
        a = sample_distribution(g, q)
        b = sample_distribution(VertexGraphon(g), q)
        return max(abs(a.prob(p) - b.prob(p)) for p in pats)

    pair_rank = {tuple(sorted(e)): r for r, e in
                 enumerate(itertools.combinations(range(10), 2))}

    def build10(pred):
        cols = [0] * comb(10, 2)
        for (a, b), r in pair_rank.items():
            cols[r] = 1 if pred(a, b) else 2
        return cols

    corpus = [[1] * comb(10, 2), [2] * comb(10, 2),
              build10(lambda a, b: a < 5 and b < 5),
              build10(lambda a, b: (a < 5) != (b < 5)),
              build10(lambda a, b: a == 0 or b == 0),
              build10(lambda a, b: b - a == 1)]
    rng10 = generator(2024)
    corpus += [[int(c) for c in rng10.integers(1, 3, size=comb(10, 2))]
               for _ in range(100)]
    max10 = max(deviation10(cols) for cols in corpus)
    bound10 = comb(q, 2) / (10 - comb(q, 2))

    ok = max6 <= bound6 + 1e-12 and max10 <= bound10 + 1e-12
    verdict(2, "vertex embedding deviation", ok,
            f"all 2^15 graphs at n=6: max {max6:.4f} <= {bound6:.4f}; "
            f"{len(corpus)} graphs at n=10: max {max10:.4f} <= {bound10:.4f}")
    assert max6 <= bound6 + 1e-12
    assert max10 <= bound10 + 1e-12


def test_criterion_03_variation_distance_forms():
    """The half-sum and max-event forms of the variation distance agree
    to 1e-9 on 100 random distribution pairs with q <= 3, r <= 3, k <= 2."""
    shapes = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 2, 3), (3, 1, 3), (3, 2, 3)]
    worst = 0.0
    for i in range(100):
        r, k, q = shapes[i % len(shapes)]
        rng = generator(derive_seed(303, i))
        pats = all_patterns(q, r, k)
        pair = []
        for _ in range(2):
            vec = rng.random(len(pats)) + 1e-3
            vec /= vec.sum()
            pair.append(SampleDistribution(q, r, k, False, vec))
        half_sum, max_event = tv_forms(*pair)
        worst = max(worst, abs(half_sum - max_event))
    verdict(3, "variation distance forms", worst <= 1e-9,
            f"100 pairs, worst form gap {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_cutnorm_heuristic_agreement():
    """Sign-ascent cut norms never exceed the exact value and match it on
    at least 95% of 200 random 2-dim arrays and 85% of 50 random 3-dim
    arrays (n=4, 16 restarts)."""
    above = 0

    def rates(r, count, base):
        nonlocal above
        hits = 0
        for i in range(count):
            a = random_symmetric_array(4, r, seed=derive_seed(base, i))
            exact, _ = cutnorm_exact(a)
            heur, _ = cutnorm_heuristic(a, restarts=16, seed=derive_seed(base, i, 1))
            if heur > exact + 1e-12:
                above += 1
            if abs(heur - exact) <= 1e-9:
                hits += 1
        return hits / count

    rate2 = rates(2, 200, 404)
    rate3 = rates(3, 50, 405)
    ok = above == 0 and rate2 >= 0.95 and rate3 >= 0.85
    verdict(4, "cut norm heuristic vs exact", ok,
            f"hit rates r=2: {rate2:.3f} (>=0.95), r=3: {rate3:.3f} (>=0.85), "
            f"above-exact count {above}")
    assert above == 0
    assert rate2 >= 0.95
    assert rate3 >= 0.85


def test_criterion_05_norm_chain():
    """Cut norm <= cut-P norm <= grand mean of |entries| on 200 random
    instances, all three values exact."""
    violations = 0
    for i in range(200):
        r = 3 if i % 4 == 3 else 2
        n = 4 if r == 3 else 4 + i % 2
        a = random_symmetric_array(n, r, seed=derive_seed(505, i), lo=-1.0, hi=1.0)
        part = TuplePartition.random(n, r - 1, 2, seed=derive_seed(505, i, 1))
        plain, _ = cutnorm_exact(a)
        refined, _ = cutnorm_p(a, part, mode="exact")
        grand = float(np.abs(a).mean())
        if plain > refined + 1e-9 or refined > grand + 1e-9:
            violations += 1
    verdict(5, "norm chain", violations == 0, f"200 instances, {violations} violations")
    assert violations == 0


def test_criterion_06_energy_reduction_equality():
    """The sign-array energy maximum equals the supremum of cut-P norms
    over partitions with at most 2 classes, both exact, on 20 instances."""
    worst = 0.0
    for i in range(20):
        n = (3, 4, 4, 5)[i % 4]
        a = random_symmetric_array(n, 2, seed=derive_seed(606, i), lo=-1.0, hi=1.0)
        lhs = sup_cutnorm_via_energy(a, 2, mode="exact")
        rhs = sup_cutnorm_over_partitions(a, 2, mode="exact")
        worst = max(worst, abs(lhs - rhs))
    verdict(6, "energy reduction equality", worst <= 1e-9,
            f"20 instances with n <= 5, worst gap {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_07_energy_concentration():
    """Sampled-subgraph energies spread less at larger sample sizes
    (IQR at 30 <= IQR at 10, 200 trials each, fixed n=60 host), and the
    annealer agrees with exact enumeration on a 50-instance corpus."""
    h = random_graph(60, 2, 2, seed=707)
    r10 = concentration_experiment(h, COUPLING, 10, 200, seed=71)
    r30 = concentration_experiment(h, COUPLING, 30, 200, seed=72)

    misses = 0
    worst = 0.0
    for i in range(50):
        g = random_graph(4 + i % 3, 2, 2, seed=derive_seed(708, i))
        exact, _ = gse(g, COUPLING, mode="exact")
        anneal, _ = gse(g, COUPLING, mode="anneal", seed=derive_seed(709, i), restarts=8)
        worst = max(worst, abs(exact - anneal))
        if abs(exact - anneal) > 1e-9:
            misses += 1
    ok = r30["iqr"] <= r10["iqr"] + 1e-12 and misses == 0
    verdict(7, "energy concentration", ok,
            f"IQR n'=30: {r30['iqr']:.4f} <= n'=10: {r10['iqr']:.4f}; "
            f"anneal misses {misses}/50, worst {worst:.2e}")
    assert r30["iqr"] <= r10["iqr"] + 1e-12
    assert misses == 0


def test_criterion_08_weak_regularity():
    """weak_regularize at eps=0.25 halts within 16 rounds with at most
    16t classes, and an independent exact supremum over partitions
    confirms the residual on every instance."""
    eps = 0.25
    worst_overall = 0.0
    max_rounds_seen = 0
    for i in range(30):
        t_mult = 1 if i < 20 else 2
        w = random_step_graphon(2, 2, 6, 6, seed=derive_seed(808, i))
        v, p, trace = weak_regularize(w, eps, t=t_mult, mode="exact")
        rounds = trace[-1]["round"] if trace else 0
        max_rounds_seen = max(max_rounds_seen, rounds)
        assert rounds <= 16
        assert p.t <= 16 * t_mult
        residual = 0.0
        for alpha in (1, 2):
            kern = difference_kernel(w, v, alpha)
            cap = min(16 * t_mult, kern.partition.t)
            with limit(10**7):
                residual += sup_cutnorm_over_partitions(kern, cap, mode="exact")
        worst_overall = max(worst_overall, residual)
        assert residual <= eps + 1e-9
    verdict(8, "weak regularity", True,
            f"30 instances, max rounds {max_rounds_seen}, "
            f"worst exact residual {worst_overall:.4f} <= {eps}")


def test_criterion_09_coloring_transfer_bound():
    """Cellwise transfer keeps the refined cut-P distance within k times
    the base distance, exactly, on 50 random instances."""
    violations = 0
    worst_slack = float("inf")
    for i in range(50):
        res = 2 + i % 2
        u_hat = random_step_graphon(2, 4, t=2, resolution=res, seed=derive_seed(909, i, 0))
        v = random_step_graphon(2, 2, t=2, resolution=res, seed=derive_seed(909, i, 1))
        rep = transfer_bound_report(u_hat, v, mode="exact")
        worst_slack = min(worst_slack, rep["bound"] - rep["refined_distance"])
        if not rep["holds"] or rep["refined_distance"] > 2.0 * rep["base_distance"] + 1e-9:
            violations += 1
    verdict(9, "coloring transfer bound", violations == 0,
            f"50 instances, {violations} violations, worst slack {worst_slack:.6f}")
    assert violations == 0


def test_criterion_10_volume_base_case():
    """Arity-1 transfer: the product-law variation distance must equal
    the closed form and stay under (q0^(k+1)/2) * max class deviation on
    100 random volume instances.

    The equality holds everywhere. The maximum-deviation bound does not:
    whenever several classes deviate at q0=1 the distance keeps the sum
    of deviations while the bound keeps only the largest, so it fails on
    a fixed fraction of random instances. The library reports this form
    without asserting it and enforces the provable total-deviation bound
    (q0/2 * sum of deviations) instead; this check records the stated
    form's failure rather than watering it down.
    """
    eq_worst = 0.0
    violations = []
    for i in range(100):
        rng = generator(derive_seed(424242, i))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        q0 = int(rng.integers(1, 4))
        u = rng.random(t) + 0.05
        u /= u.sum()
        v_hat = rng.random((t, k)) + 0.05
        v_hat /= v_hat.sum()
        rep = base_case_report(u, v_hat, k, q0)
        a = base_case_transfer(u, v_hat, k).ravel()
        b = v_hat.ravel()
        closed = 0.5 * sum(
            abs(np.prod([a[w] for w in word]) - np.prod([b[w] for w in word]))
            for word in itertools.product(range(a.size), repeat=q0)
        )
        eq_worst = max(eq_worst, abs(closed - rep["tv"]))
        if rep["tv"] > rep["max_form_bound"] + 1e-9:
            violations.append((i, t, k, q0, rep["tv"], rep["max_form_bound"]))
    ok = eq_worst <= 1e-12 and not violations
    verdict(10, "volume base case", ok,
            f"closed-form gap {eq_worst:.2e}; "
            f"max-form bound violated on {len(violations)}/100 instances")
    assert eq_worst <= 1e-12
    if violations:
        i, t, k, q0, tv, bound = violations[0]
        pytest.fail(
            f"max-class-deviation bound fails on {len(violations)}/100 frozen "
            f"instances; first at instance {i} (t={t}, k={k}, q0={q0}): "
            f"distance {tv:.6f} > bound {bound:.6f}. The distance keeps the "
            f"summed class deviations, the bound only the largest; the "
            f"provable total-deviation bound is asserted in the library and "
            f"holds on all 100."
        )


def test_criterion_11_end_to_end_lift():
    """Lifting a planted sample coloring (q=200, q0=2) back onto the
    source keeps the median two-vertex sample variation within 0.15
    over 20 seeds, in under ten minutes."""
    start = time.perf_counter()
    u0 = random_step_graphon(2, 4, t=2, resolution=4, seed=111)
    u = discolor_step(u0, 2)
    tvs = []
    for seed in range(1, 21):
        sample = sample_graphon(u0, 200, derive_seed(seed, 0))
        u_hat, diag = lift_coloring(u, 200, embed_sample(sample), 0.1, 2, seed)
        assert l1_distance(discolor_step(u_hat, 2), u) <= 1e-9
        assert diag["final_tv"] is not None
        tvs.append(diag["final_tv"])
    med = float(np.median(tvs))
    elapsed = time.perf_counter() - start
    ok = med <= 0.15 and elapsed < 600.0
    verdict(11, "end-to-end lift", ok,
            f"20 seeds, median tv {med:.4f} <= 0.15, "
            f"range [{min(tvs):.4f}, {max(tvs):.4f}], {elapsed:.0f}s")
    assert med <= 0.15
    assert elapsed < 600.0


def test_criterion_12_estimate_sandwich():
    """The sampling estimate brackets the exhaustive best-coloring value:
    transferred lower bound <= exact <= sample estimate + reported gap on
    a 20-instance corpus with the signed color-density witness.

    Full-information samples (q equal to the vertex count) are used;
    below that no finite-sample guarantee exists and the bracket can
    genuinely fail.
    """
    witness = PARAMETERS["signed-split"]
    violations = 0
    for i in range(20):
        n = (4, 5, 6)[i % 3]
        g = random_graph(n, 2, 2, seed=derive_seed(121212, i))
        rep = nd_estimate_pipeline(g, witness, n, 2, seed=derive_seed(121212, i, 1),
                                   k=2, mode="exact")
        assert rep["f_exact"] is not None
        lo = rep["transferred_value"]
        hi = rep["f_hat"] + rep["gap"]
        if not (lo - 1e-9 <= rep["f_exact"] <= hi + 1e-9):
            violations += 1
    verdict(12, "estimate sandwich", violations == 0,
            f"20 instances (n in 4..6), {violations} bracket violations")
    assert violations == 0


def test_criterion_13_property_tester_thresholds():
    """The constructed tester accepts members at rate >= 3/5 and
    0.3-far non-members at rate <= 2/5 (n=8, q=4, 500 trials, 3 sigma)."""
    trials = 500
    prop = PROPERTIES["complete-witness"]
    member = make_hypergraph(8, 2, 2, [1] * 28)
    nonmember = make_hypergraph(8, 2, 2, [2] * 28)
    farness = far_from_property(PROPERTIES["complete"], nonmember, 0.3,
                                normalization="subsets")
    assert farness["far"]

    accept = property_acceptance_rate(prop, member, 4, 0.3, trials=trials, seed=131)
    reject = property_acceptance_rate(prop, nonmember, 4, 0.3, trials=trials, seed=132)
    slack = 3.0 * float(np.sqrt(0.6 * 0.4 / trials))
    ok = accept["rate"] >= 3 / 5 - slack and reject["rate"] <= 2 / 5 + slack
    verdict(13, "property tester thresholds", ok,
            f"member rate {accept['rate']:.3f} >= {3 / 5 - slack:.3f}, "
            f"far rate {reject['rate']:.3f} <= {2 / 5 + slack:.3f}")
    assert accept["rate"] >= 3 / 5 - slack
    assert reject["rate"] <= 2 / 5 + slack
