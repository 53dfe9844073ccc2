"""Empirical testers for hypergraph parameters and properties.

Three harnesses. ``probe_sample_complexity`` measures how often a
parameter of a random induced sample strays from its value on the whole
graph, with Wilson confidence intervals over a grid of sample sizes.
``nd_parameter`` evaluates a best-over-colorings parameter, either by
exact enumeration (an oracle at desk scale) or by a heuristic
first-improvement local search (a flagged lower bound).
``property_tester`` builds a tester for a plain property out of a tester
for its colored witness property: the sample is accepted when some
coloring of it has witness sample-property density at least 3/5, with
outer thresholds 2/5 and 3/5.

Every built-in witness is a function of the color histogram, written
once as a counts form (an (N, K + 1) array of color counts in, N values
out, column 0 the reserved color); its per-graph callable is derived
from that form and carries it. A refinement search on such a witness
scores the splits of each base color's count into k subcolor counts,
and the budget counts those splits; a callable without the form scores
all k**m refinements one by one, and the budget counts those. The
heuristic search always scores refinements one by one. The density of
``property_tester`` carries the form when the witness sample size is
the whole graph, where the density is the predicate on the graph.

Callbacks registered here must be pure functions of their argument and
invariant under vertex relabeling; registration spot-checks the
invariance on random permutations, because that invariance is what makes
the callback a graph parameter rather than a function of the adjacency
encoding. Trials are seed-derived and independent, so their outcome does
not depend on the order they run in: each experiment draws its trials'
samples through the one batched sampler (``hypercore.sample_subgraphs``),
and the probe scores a batch by the parameter's counts form in one call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import ceil, comb, log, sqrt
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .budget import check_budget
from .hypercore import (
    IOTA,
    ColoredHypergraph,
    SampledColoredGraph,
    _color_histogram,
    _color_histograms,
    induced_sweep,
    pattern_counts,
    sample_subgraphs,
)
from .regularity import _check_proximity
from .seeds import derive_seed, generator
from .transfer import _refinement_search, max_over_refinements

__all__ = [
    "PARAMETERS",
    "PROPERTIES",
    "NdResult",
    "ParameterFn",
    "PropertyFn",
    "far_from_property",
    "nd_parameter",
    "probe_sample_complexity",
    "property_acceptance_rate",
    "property_tester",
    "register_parameter",
    "register_property",
    "wilson_interval",
    "witness_sample_density",
]

# witness tester thresholds and the outer accept/reject thresholds built
# from them
WITNESS_LOW = 1.0 / 5.0
WITNESS_HIGH = 4.0 / 5.0
SAMPLE_THRESHOLD = 3.0 / 5.0
OUTER_LOW = 2.0 / 5.0
OUTER_HIGH = 3.0 / 5.0

Z_95 = 1.959963984540054

# edge colors per probe batch: bounds the sampled rows held at once
_PROBE_CELLS = 1 << 20


@dataclass(frozen=True)
class ParameterFn:
    """A real-valued, relabeling-invariant function of colored r-graphs."""

    name: str
    r: int
    k: int
    fn: Callable[[Any], float]

    def __call__(self, g) -> float:
        return float(self.fn(g))

    @property
    def counts_form(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """``fn``'s counts form as floats, or None when ``fn`` has none."""
        form = getattr(self.fn, "counts_form", None)
        if form is None:
            return None
        return lambda counts: np.asarray(form(counts), dtype=np.float64)


@dataclass(frozen=True)
class PropertyFn:
    """A relabeling-invariant membership predicate with tester metadata.

    ``member`` answers membership for graphs on the declared palette.
    ``sample_member`` is the sample-property predicate used by the
    constructed tester (defaults to ``member``), ``sample_size`` maps a
    proximity parameter to the witness tester's sample size, and
    ``distance_to`` (optional) counts the edge recolorings needed to
    enter the property.
    """

    name: str
    r: int
    k: int
    member: Callable[[ColoredHypergraph], bool]
    sample_member: Callable[[ColoredHypergraph], bool] | None = None
    sample_size: Callable[[float], int] = field(default=lambda eps: 2)
    distance_to: Callable[[ColoredHypergraph], int] | None = None

    def sample_predicate(self) -> Callable[[ColoredHypergraph], bool]:
        return self.sample_member if self.sample_member is not None else self.member


PARAMETERS: dict[str, ParameterFn] = {}
PROPERTIES: dict[str, PropertyFn] = {}


def _check_graph(r: int, k: int, seed: int) -> ColoredHypergraph:
    n = r + 3
    rng = generator(seed)
    colors = tuple(int(c) for c in rng.integers(1, k + 1, size=comb(n, r)))
    return ColoredHypergraph(n, r, k, colors)


def _assert_invariant(name: str, r: int, k: int, value_of, seed: int,
                      permutations: int = 10) -> None:
    g = _check_graph(r, k, seed)
    reference = value_of(g)
    rng = generator(derive_seed(seed, 1))
    for _ in range(permutations):
        perm = tuple(int(v) for v in rng.permutation(g.n))
        got = value_of(g.relabeled(perm))
        if isinstance(reference, bool) or isinstance(got, bool):
            ok = bool(got) == bool(reference)
        else:
            ok = abs(float(got) - float(reference)) <= 1e-9
        if not ok:
            raise ValueError(
                f"{name!r} is not invariant under vertex relabeling; "
                f"it is a function of the encoding, not a graph parameter"
            )


def register_parameter(p: ParameterFn, seed: int = 0) -> ParameterFn:
    """Add a parameter to the registry after a relabeling spot check."""
    _assert_invariant(p.name, p.r, p.k, p, seed)
    PARAMETERS[p.name] = p
    return p


def register_property(p: PropertyFn, seed: int = 0) -> PropertyFn:
    """Add a property to the registry after a relabeling spot check."""
    _assert_invariant(p.name, p.r, p.k, p.member, seed)
    PROPERTIES[p.name] = p
    return p


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def probe_sample_complexity(
    f: ParameterFn,
    g: ColoredHypergraph,
    eps: float,
    q_grid: Sequence[int],
    trials: int = 400,
    seed: int = 0,
) -> dict[str, Any]:
    """Empirical deviation probabilities of f over induced q-samples.

    For each q in the grid, estimates P(|f(G) - f(sample)| > eps) over
    ``trials`` independent samples with a 95% Wilson interval, and
    reports the smallest q whose upper confidence limit is below eps
    (the working notion of a sufficient sample size: the deviation
    probability itself should drop below the proximity target). Each
    trial's seed is fixed by its index. A parameter with a counts form
    scores a whole batch of samples by their color histograms in one
    call; any other parameter is called on each sample in turn.
    """
    if f.r != g.r or f.k != g.k:
        raise ValueError(f"parameter {f.name!r} expects palette ({f.r}, {f.k})")
    _check_proximity("eps", eps)
    reference = f(g)
    form = f.counts_form
    rows = []
    for qi, q in enumerate(q_grid):
        seeds = [derive_seed(seed, qi * trials + trial) for trial in range(trials)]
        batch = max(1, _PROBE_CELLS // max(comb(q, g.r), 1))
        failures = 0
        for start in range(0, trials, batch):
            _, colors = sample_subgraphs(g, q, seeds[start:start + batch])
            if form is not None:
                values = form(_color_histograms(colors, g.k))
            else:
                values = np.array([f(ColoredHypergraph(q, g.r, g.k, row))
                                   for row in colors.tolist()])
            failures += int(np.count_nonzero(np.abs(values - reference) > eps))
        low, high = wilson_interval(failures, trials)
        rows.append({
            "q": int(q),
            "failures": failures,
            "rate": failures / trials,
            "ci_low": low,
            "ci_high": high,
        })
    recommended = next((row["q"] for row in rows if row["ci_high"] < eps), None)
    return {
        "parameter": f.name,
        "epsilon": eps,
        "trials": trials,
        "value": reference,
        "rows": rows,
        "recommended_q": recommended,
    }


class NdResult(NamedTuple):
    value: float
    certified: bool
    witness: Any


def _refinement_arity(witness: ParameterFn | PropertyFn, g) -> int:
    """How many subcolors the witness palette gives each color of ``g``."""
    if witness.r != g.r:
        raise ValueError("witness uniformity does not match the graph")
    if witness.k % g.k != 0:
        raise ValueError(f"witness palette {witness.k} does not refine the graph palette {g.k}")
    return witness.k // g.k


def nd_parameter(
    f_witness: ParameterFn,
    g: ColoredHypergraph,
    mode: str = "exact",
    seed: int = 0,
    restarts: int = 8,
) -> NdResult:
    """Best witness value over the refinements of ``g``.

    Mode "exact" enumerates every coloring and certifies the maximum;
    "heuristic" hill-climbs single-edge recolorings from ``restarts``
    seeded starts and returns a lower bound with ``certified=False``.
    Mode "auto" enumerates and falls back to the heuristic when the
    budget refuses; ``certified`` says whether enumeration ran.
    """
    arity = _refinement_arity(f_witness, g)
    (value, witness), ran = _refinement_search(g, arity, f_witness, mode, restarts, seed)
    return NdResult(float(value), ran == "exact", witness)


def witness_sample_density(p_witness: PropertyFn, h: ColoredHypergraph, q: int) -> float:
    """Fraction of induced q-subsets of ``h`` in the witness sample property.

    The predicate runs once per distinct induced pattern, weighted by
    the number of subsets that induce it.
    """
    if not h.r <= q <= h.n:
        raise ValueError(f"need r <= q <= n, got q={q} for n={h.n}")
    check_budget("sample property density", comb(h.n, q))
    predicate = p_witness.sample_predicate()
    if q == h.n and type(h) is ColoredHypergraph:
        # the one q-subset is the whole vertex set, whose pattern is h itself
        return float(bool(predicate(h)))
    hits = sum(
        count for pattern, count in pattern_counts(induced_sweep(h, q)).items()
        if predicate(ColoredHypergraph(q, h.r, h.k, pattern))
    )
    return hits / comb(h.n, q)


def property_tester(
    p_witness: PropertyFn,
    h: ColoredHypergraph | SampledColoredGraph,
    eps: float,
    seed: int = 0,
    mode: str = "auto",
    restarts: int = 8,
) -> tuple[bool, dict[str, Any]]:
    """Accept ``h`` when some coloring passes the witness sample test.

    Membership in the constructed sample property: there is a k-coloring
    of ``h`` whose witness sample-property density at the witness
    tester's own sample size reaches 3/5. The search over colorings is
    exact at desk scale (mode "heuristic" trades the certificate for a
    one-sided search; "auto" falls back to it when the budget refuses).
    The witness sample size is capped at the size of ``h`` itself.
    """
    _check_proximity("eps", eps)
    if isinstance(h, SampledColoredGraph):
        if h.has_iota():
            raise ValueError(f"sample has an edge of the reserved color {IOTA} (a repeated "
                             "vertex); the tester needs a sample without reserved edges")
        h = ColoredHypergraph(h.n, h.r, h.k, h.colors)
    arity = _refinement_arity(p_witness, h)
    q_w = min(max(p_witness.sample_size(eps), h.r), h.n)

    def density(refined) -> float:
        return witness_sample_density(p_witness, refined, q_w)

    form = getattr(p_witness.sample_predicate(), "counts_form", None)
    if q_w == h.n and form is not None:
        # the one q_w-subset is the whole refined graph, so the density is
        # the predicate on its color histogram
        density.counts_form = lambda counts: np.asarray(form(counts), dtype=bool).astype(np.float64)

    best, best_g = max_over_refinements(
        h, arity, density, mode=mode, restarts=restarts, seed=seed
    )
    accept = bool(best >= SAMPLE_THRESHOLD - 1e-12)
    trace = {
        "witness_sample_size": q_w,
        "arity": arity,
        "best_density": float(best),
        "sample_threshold": SAMPLE_THRESHOLD,
        "outer_thresholds": [OUTER_LOW, OUTER_HIGH],
        "accept": accept,
        "best_coloring": list(best_g.colors),
    }
    return accept, trace


def property_acceptance_rate(
    p_witness: PropertyFn,
    g: ColoredHypergraph,
    q: int,
    eps: float,
    trials: int = 400,
    seed: int = 0,
    mode: str = "auto",
    restarts: int = 8,
) -> dict[str, Any]:
    """Acceptance frequency of the constructed tester over random q-samples.

    Each trial's seed is fixed by its index; ``mode`` and ``restarts`` go
    to every trial's :func:`property_tester`.
    """
    seeds = [derive_seed(seed, trial) for trial in range(trials)]
    _, colors = sample_subgraphs(g, q, seeds)
    accepted = 0
    for trial_seed, row in zip(seeds, colors.tolist()):
        sub = ColoredHypergraph(q, g.r, g.k, row)
        ok, _ = property_tester(p_witness, sub, eps, seed=trial_seed, mode=mode,
                                restarts=restarts)
        accepted += int(ok)
    low, high = wilson_interval(accepted, trials)
    return {
        "q": q,
        "epsilon": eps,
        "trials": trials,
        "accepted": accepted,
        "rate": accepted / trials,
        "ci_low": low,
        "ci_high": high,
    }


def _brute_force_distance(prop: PropertyFn, g: ColoredHypergraph) -> int:
    m = len(g.colors)
    check_budget("property edit distance", prop.k ** m)
    best = None
    for colors in itertools.product(range(1, prop.k + 1), repeat=m):
        candidate = ColoredHypergraph(g.n, g.r, g.k, colors)
        if prop.member(candidate):
            dist = sum(1 for a, b in zip(colors, g.colors) if a != b)
            best = dist if best is None else min(best, dist)
    if best is None:
        raise ValueError(f"property {prop.name!r} has no members on {g.n} vertices")
    return best


def far_from_property(
    prop: PropertyFn,
    g: ColoredHypergraph,
    eps: float,
    normalization: str = "subsets",
) -> dict[str, Any]:
    """Whether ``g`` needs more than the eps-allowance of edits to enter.

    Two allowance normalizations exist side by side: "subsets" scales by
    the number of r-subsets C(n, r), which is the natural volume for
    r-graphs and the default here, while "square" scales by n^2, the
    customary choice for graphs. They disagree for r != 2, so the choice
    is explicit rather than silent.
    """
    _check_proximity("eps", eps)
    if normalization not in ("subsets", "square"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if (prop.r, prop.k) != (g.r, g.k):
        raise ValueError(f"property {prop.name!r} expects palette ({prop.r}, {prop.k})")
    if prop.distance_to is not None:
        distance = int(prop.distance_to(g))
    else:
        distance = _brute_force_distance(prop, g)
    if normalization == "subsets":
        allowance = eps * comb(g.n, g.r)
    else:
        allowance = eps * g.n ** 2
    return {
        "distance": distance,
        "allowance": allowance,
        "far": bool(distance > allowance),
        "normalization": normalization,
    }


# ----------------------------------------------------------------------
# built-in registry


def _histogram_witness(counts_form: Callable[[np.ndarray], np.ndarray]) -> Callable[[Any], Any]:
    """The per-graph callable of a witness written on color counts.

    ``counts_form`` maps an (N, K + 1) array of color counts, column 0
    the reserved color, to N values. The callable evaluates it on one
    graph's histogram and carries it as its ``counts_form`` attribute,
    so a refinement search can score histograms without building graphs.
    """
    def fn(h):
        return counts_form(_color_histogram(h)[None])[0].item()

    fn.counts_form = counts_form
    return fn


def _count(counts: np.ndarray, color: int) -> np.ndarray:
    """Column ``color`` of a counts array; zeros for a color past its palette."""
    return counts[:, color] if color < counts.shape[1] else np.zeros(len(counts), np.int64)


def _fraction_of(color: int) -> Callable[[Any], float]:
    return _histogram_witness(lambda counts: _count(counts, color) / counts.sum(axis=1))


@_histogram_witness
def _signed_split(counts: np.ndarray) -> np.ndarray:
    return (counts[:, 1] - _count(counts, 2)) / counts.sum(axis=1)


@_histogram_witness
def _all_first_color(counts: np.ndarray) -> np.ndarray:
    return counts[:, 1] == counts.sum(axis=1)


@_histogram_witness
def _complete_defect(counts: np.ndarray) -> np.ndarray:
    return counts.sum(axis=1) - counts[:, 1]


def _clean_sample_size(r: int) -> Callable[[float], int]:
    # a graph eps-far from all-first-color keeps at least eps*C(n, r) bad
    # edges, so q/r disjoint probes each miss with probability at most
    # 1 - eps; q = r * ceil(ln 5 / eps + 1) pushes the all-clean chance
    # under 1/5
    def size(eps: float) -> int:
        _check_proximity("eps", eps)
        try:
            return r * ceil(log(5.0) / eps + 1.0)
        except OverflowError:  # ln 5 / eps past the float range: take it exactly
            from fractions import Fraction  # imported here: it pulls in decimal

            return r * ceil(Fraction(log(5.0)) / Fraction(eps) + 1)

    return size


register_parameter(ParameterFn("edge-density", 2, 2, _fraction_of(1)))
register_parameter(ParameterFn("triple-density", 3, 2, _fraction_of(1)))
register_parameter(ParameterFn("signed-split", 2, 4, _signed_split))
register_parameter(ParameterFn("triple-signed-split", 3, 4, _signed_split))

register_property(PropertyFn(
    "complete", 2, 2, _all_first_color,
    sample_size=_clean_sample_size(2),
    distance_to=_complete_defect,
))
register_property(PropertyFn(
    "complete-witness", 2, 4, _all_first_color,
    sample_size=_clean_sample_size(2),
    distance_to=_complete_defect,
))
