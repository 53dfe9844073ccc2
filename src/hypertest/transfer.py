"""Coloring transfer between step graphons and their samples.

Three layers build on each other. ``transfer_coloring`` moves a palette
refinement from one graphon onto a nearby one cellwise, with a cut-P
guarantee carrying a factor of the refinement arity. ``base_case_transfer``
is the one-dimensional version on class-volume vectors, where closeness is
measured by the variation distance of repeated-sample laws.
``lift_coloring`` chains them into the full sample-to-source pipeline:
regularize both sides, color the sampled step structure by transfer, split
the source partition along fibers in the sampled proportions, and transfer
back. ``nd_estimate_pipeline`` sits on top and estimates a best-coloring
parameter of a finite graph from a sample, pulling the witness coloring
back onto the graph by the lift plus randomized rounding.

Everything is deterministic given its seed; pipeline stages run on
``derive_seed(seed, stage_index)``. Proximity numbers in the lift
diagnostics are measured, never asserted: the pipeline's end-to-end
guarantee is probabilistic in the sample, and desk-scale samples are far
below the sizes where the failure probability becomes negligible.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from math import comb, factorial, log
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .budget import BudgetError, check_budget, exact_or_heuristic
from .cutnorm import cut_distance
from .density import sample_laws, tv_distance
from .graphon import (
    GridPartition,
    StepGraphon,
    VertexGraphon,
    _as_step,
    _block_classes,
    _edge_layout,
    _grid_cells,
    _inverse_cdf,
    _sample_uniforms,
    color_mass,
    colors_at,
    common_refinement,
    embed,
    embed_sample,
    l1_distance,
    sample_coordinates,
    sample_graphon,
    step_average,
)
from .hypercore import (
    IOTA,
    ColoredHypergraph,
    SampledColoredGraph,
    _refined_with,
    colex_edges,
    composite_color,
    enumerate_colorings,
)
from .regularity import RegularityError, weak_regularize
from .seeds import derive_seed, generator

# embed_sample is defined in graphon and re-exported here
__all__ = [
    "base_case_report",
    "base_case_transfer",
    "base_sample_requirement",
    "discolor_step",
    "embed_sample",
    "lift_coloring",
    "max_over_refinements",
    "nd_estimate_pipeline",
    "product_tv",
    "transfer_bound_report",
    "transfer_coloring",
]


# ----------------------------------------------------------------------
# palette plumbing


def discolor_step(w: StepGraphon, k: int) -> StepGraphon:
    """Merge a composite [t] x [k] palette back to t base colors.

    Channel (alpha-1)*k + beta sums into alpha; a reserved channel 0
    passes through unchanged.
    """
    if k < 1 or w.k % k != 0:
        raise ValueError(f"palette size {w.k} is not divisible by k={k}")
    t = w.k // k
    arrays: dict[int, np.ndarray] = {}
    if 0 in w.arrays:
        arrays[0] = w.arrays[0]
    for alpha in range(1, t + 1):
        arrays[alpha] = sum(
            w.arrays[composite_color(alpha, beta, k)] for beta in range(1, k + 1)
        )
    return StepGraphon(w.r, t, w.partition, arrays)


# ----------------------------------------------------------------------
# cellwise transfer


def _require_step_on(w: StepGraphon, p: GridPartition) -> None:
    """Every channel of w must be constant on the class tuples of p."""
    part, pairs = common_refinement(w.partition, p)
    iw, ip = pairs.T
    r = w.r
    idx = np.indices((part.t,) * r)
    key = tuple(ip[idx[l]] for l in range(r))
    for c in sorted(w.arrays):
        fine = w.arrays[c][np.ix_(*([iw] * r))]
        hi = np.full((p.t,) * r, -np.inf)
        lo = np.full((p.t,) * r, np.inf)
        np.maximum.at(hi, key, fine)
        np.minimum.at(lo, key, fine)
        realized = hi > -np.inf
        if realized.any() and float(np.max(hi[realized] - lo[realized])) > 1e-9:
            raise ValueError(
                f"channel {c} is not constant on the class tuples of the partition"
            )


def transfer_coloring(u_hat: StepGraphon, v: StepGraphon, p: GridPartition) -> StepGraphon:
    """Copy the palette refinement of ``u_hat`` onto ``v``, cellwise.

    ``u_hat`` carries ``v.k * k`` composite colors and must be a step
    function on ``p``. Within every base color the returned coloring
    reuses ``u_hat``'s local refinement shares; where the base channel of
    ``u_hat`` vanishes the split is an even 1/k. The cut-P distance
    between ``u_hat`` and the result is at most k times the cut-P
    distance between ``[u_hat, k]`` and ``v``: per composite channel the
    share factor is constant on class tuples and lies in [0, 1], so it
    can only shrink each per-tuple score, and the palette sum pays the
    factor k. A reserved channel of ``v`` passes through unchanged.

    Raises
    ------
    ValueError
        If the palettes are incompatible, the grids are not refinable,
        or ``u_hat`` is not a step function on ``p``.
    """
    if u_hat.r != v.r:
        raise ValueError("uniformities differ")
    if u_hat.k % v.k != 0:
        raise ValueError(
            f"palette {u_hat.k} does not refine the base palette {v.k}"
        )
    k = u_hat.k // v.k
    if p.r_minus_1 != u_hat.r - 1:
        raise ValueError("partition dimensionality does not match the graphons")
    _require_step_on(u_hat, p)
    part, pairs = common_refinement(u_hat.partition, v.partition)
    iu, iv = pairs.T
    r = v.r
    ix_u = np.ix_(*([iu] * r))
    ix_v = np.ix_(*([iv] * r))
    arrays: dict[int, np.ndarray] = {}
    if 0 in v.arrays:
        arrays[0] = v.arrays[0][ix_v]
    for alpha in range(1, v.k + 1):
        comps = [composite_color(alpha, beta, k) for beta in range(1, k + 1)]
        fine = [u_hat.arrays[c][ix_u] for c in comps]
        base = sum(fine)
        v_base = v.arrays[alpha][ix_v]
        positive = base > 0
        # v_base/base is exactly 1.0 wherever the two agree, so a
        # self-transfer reproduces u_hat bit for bit.
        scale = np.divide(v_base, base, out=np.zeros_like(v_base), where=positive)
        for c, f in zip(comps, fine):
            arrays[c] = np.where(positive, f * scale, v_base / k)
    return StepGraphon(r, u_hat.k, part, arrays)


def transfer_bound_report(
    u_hat: StepGraphon,
    v: StepGraphon,
    p: GridPartition,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> dict[str, Any]:
    """Evaluate both sides of the transfer guarantee on one instance.

    Returns the refined cut-P distance d(u_hat, transferred), the base
    distance d([u_hat, k], v), the arity, and whether refined <= arity *
    base held. With mode "exact" the flag is a theorem check; heuristic
    distances underestimate both sides, so treat the flag as advisory.
    """
    v_hat = transfer_coloring(u_hat, v, p)
    k = u_hat.k // v.k
    refined = cut_distance(u_hat, v_hat, p=p, mode=mode, restarts=restarts,
                           seed=derive_seed(seed, 0))
    base = cut_distance(discolor_step(u_hat, k), v, p=p, mode=mode, restarts=restarts,
                        seed=derive_seed(seed, 1))
    return {
        "arity": k,
        "refined_distance": refined,
        "base_distance": base,
        "bound": k * base,
        "holds": bool(refined <= k * base + 1e-9),
    }


# ----------------------------------------------------------------------
# the one-dimensional base case


def base_case_transfer(
    u: Sequence[float] | np.ndarray, v_hat: Sequence[Sequence[float]] | np.ndarray, k: int
) -> np.ndarray:
    """Refine target class volumes in the sampled refinement proportions.

    ``u`` holds the t class volumes of the target side, ``v_hat`` the
    t x k refined volumes observed on the sampled side (its row sums are
    the sampled class volumes). Each target class splits in the sampled
    shares; classes the sample missed split evenly. Row i of the result
    sums back to u[i].
    """
    b = np.asarray(u, dtype=float)
    a_hat = np.asarray(v_hat, dtype=float)
    if k < 1:
        raise ValueError("refinement arity k must be >= 1")
    if b.ndim != 1:
        raise ValueError("target volumes must be a flat vector")
    if a_hat.shape != (b.size, k):
        raise ValueError(
            f"refined volumes must have shape {(b.size, k)}, got {a_hat.shape}"
        )
    if b.min(initial=0.0) < -1e-12 or a_hat.min(initial=0.0) < -1e-12:
        raise ValueError("volumes must be nonnegative")
    for name, total in (("target", b.sum()), ("sampled", a_hat.sum())):
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} volumes sum to {total}, not 1")
    a = a_hat.sum(axis=1)
    share = np.divide(a_hat, a[:, None], out=np.full_like(a_hat, 1.0 / k),
                      where=a[:, None] > 0)
    return b[:, None] * share


def product_tv(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray, q0: int
) -> float:
    """Variation distance between the q0-fold products of two finite laws.

    Exact, by expanding all len(a)**q0 outcomes; inputs are flattened and
    must each sum to 1.
    """
    pa = np.asarray(a, dtype=float).ravel()
    pb = np.asarray(b, dtype=float).ravel()
    if pa.size != pb.size:
        raise ValueError("laws live on different outcome spaces")
    if q0 < 1:
        raise ValueError("q0 must be >= 1")
    for name, vec in (("first", pa), ("second", pb)):
        if vec.min(initial=0.0) < -1e-12 or abs(vec.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} argument is not a probability vector")
    check_budget("product law expansion", pa.size ** q0)
    ta, tb = pa, pb
    for _ in range(q0 - 1):
        ta = np.multiply.outer(ta, pa).ravel()
        tb = np.multiply.outer(tb, pb).ravel()
    return 0.5 * float(np.abs(ta - tb).sum())


def base_case_report(
    u: Sequence[float] | np.ndarray,
    v_hat: Sequence[Sequence[float]] | np.ndarray,
    k: int,
    q0: int,
) -> dict[str, Any]:
    """Transfer the volumes and measure the q0-sample variation distance.

    The TV between the q0-fold laws of the refined target and sampled
    volumes is computed exactly. Two bounds accompany it: the max-form
    (q0^{k+1}/2) * max-class-deviation, reported with a flag because it
    can genuinely fail (already at q0 = 1 two classes trading 0.1 of
    volume give TV 0.2 against a bound of 0.1), and the subadditivity
    form (q0/2) * summed deviation, which is a theorem (the one-sample TV
    equals half the summed deviation and products are TV-subadditive) and
    is therefore enforced.
    """
    b_hat = base_case_transfer(u, v_hat, k)
    a_hat = np.asarray(v_hat, dtype=float)
    dev = np.abs(a_hat.sum(axis=1) - np.asarray(u, dtype=float))
    tv = product_tv(b_hat, a_hat, q0)
    max_dev = float(dev.max(initial=0.0))
    max_form = 0.5 * q0 ** (k + 1) * max_dev
    sub_form = 0.5 * q0 * float(dev.sum())
    if tv > sub_form + 1e-9:
        raise RuntimeError(
            "product TV exceeded the subadditivity bound; volume inputs inconsistent"
        )
    return {
        "q0": q0,
        "arity": k,
        "tv": tv,
        "max_class_deviation": max_dev,
        "max_form_bound": max_form,
        "max_form_holds": bool(tv <= max_form + 1e-12),
        "subadditivity_bound": sub_form,
        "refined_target_volumes": b_hat.tolist(),
    }


def base_sample_requirement(delta: float, q0: int, t: int, k: int) -> float:
    """Sample size from which the volume transfer succeeds w.h.p.

    Concentrating every class volume within 2*delta/q0^{k+1} and paying a
    union bound over t classes gives
    3 * q0^{2k+2} * (t + ln 2 - ln delta) / (4 delta^2).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if min(q0, t, k) < 1:
        raise ValueError("q0, t, k must be >= 1")
    return 3.0 * q0 ** (2 * k + 2) * (t + log(2.0) - log(delta)) / (4.0 * delta ** 2)


# ----------------------------------------------------------------------
# sampling helpers shared by the pipelines


def _largest_remainder(fracs: np.ndarray, total: int) -> np.ndarray:
    """Deterministic integer split of ``total`` slots proportional to fracs."""
    fracs = np.clip(np.asarray(fracs, dtype=float), 0.0, None)
    s = fracs.sum()
    fracs = fracs / s if s > 0 else np.full_like(fracs, 1.0 / fracs.size)
    raw = fracs * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(counts - raw, kind="stable")
        counts[order[:short]] += 1
    return counts


def _measurable_grid(part: GridPartition, r: int) -> bool:
    """Whether cut-P machinery on this grid stays within desk memory.

    The kernel problems intersect the grid with its symmetry orbits, so
    for r = 3 the orbit count m grows with the cube of the resolution,
    and the orbit-tuple weights are a dense m^3 tensor. This is a memory
    guard the budget cannot replace: the weights' class histogram (g^2 x m,
    1764 x 37926 floats on a 42-grid) comes before their budgeted step.
    """
    if r == 2:
        return part.resolution <= 2048
    return part.resolution ** 3 <= 5000


def _mu_tv(a: StepGraphon, b: StepGraphon, q0: int) -> float:
    """Exact q0-sample variation distance."""
    if q0 < a.r:
        return 0.0
    if q0 == a.r:
        ma, mb = color_mass(a), color_mass(b)
        keys = set(ma) | set(mb)
        return 0.5 * sum(abs(ma.get(c, 0.0) - mb.get(c, 0.0)) for c in keys)
    return tv_distance(*sample_laws(a, b, q0))


def _measured(measure: Callable[[], float]) -> float | None:
    """An optional measurement: its value, or None when the budget refuses it."""
    return exact_or_heuristic("auto", measure, lambda: None)[0]


# ----------------------------------------------------------------------
# the lifting pipeline


def _regularize_stage(w, eps, mode, restarts, max_rounds, seed):
    try:
        v, p, trace = weak_regularize(w, eps, mode=mode, restarts=restarts,
                                      max_rounds=max_rounds, seed=seed)
        return v, p, trace, True
    except RegularityError as err:
        return err.v, err.p, err.trace, False


def _induced_partition(p: GridPartition, coords: np.ndarray, q: int, r: int) -> GridPartition:
    """Paint the sample grid by the source-partition classes of its draws.

    For r = 3 each off-diagonal column inherits the class of its sampled
    type point; diagonal columns (never sampled) reuse the source
    partition's own fiber structure, scaled onto the sample grid.
    """
    g = p.resolution
    cells = _grid_cells(coords, g)
    if r == 2:
        return GridPartition(1, q, p.labels[cells[:q]], p.t, allow_empty=True)
    # the sample coordinates are the q singletons, then the pairs in lex order
    a, b = np.triu_indices(q, 1)
    single = cells[:q, None]
    labels = np.empty((q, q, q), dtype=np.int64)
    labels[a, b] = labels[b, a] = p.labels[cells[a], cells[b], cells[q:]][:, None]
    z_map = np.minimum(np.arange(q) * g // q, g - 1)
    labels[np.arange(q), np.arange(q)] = p.labels[single, single, z_map]
    return GridPartition(2, q, labels, p.t, allow_empty=True)


def _stack_1d(
    p: GridPartition, shares: np.ndarray, t_r: int
) -> tuple[GridPartition, np.ndarray]:
    """Split every class of a 1-axis partition into t_r runs of subcells."""
    g = p.resolution
    labels = np.empty(g * t_r, dtype=np.int64)
    realized = np.zeros((p.t, t_r))
    for i in range(p.t):
        slots = np.flatnonzero(np.repeat(p.labels == i, t_r))
        counts = _largest_remainder(shares[i], slots.size)
        labels[slots] = i * t_r + np.repeat(np.arange(t_r), counts)
        realized[i] = counts / (g * t_r)
    part = GridPartition(1, g * t_r, labels, p.t * t_r, allow_empty=True)
    return part, realized


def _stack_3d(
    p: GridPartition, fracs: np.ndarray, t_r: int
) -> tuple[GridPartition, np.ndarray]:
    """Split fibers of a 3-axis partition columnwise in given proportions.

    ``fracs[i, j, a, b]`` is the target fiber fraction of subclass (i, j)
    above column (a, b); within each column the class-i cells are carved
    into t_r runs by largest remainder.
    """
    g = p.resolution
    col = np.empty((g, g, g * t_r), dtype=np.int64)
    realized = np.zeros((p.t, t_r))
    for a in range(g):
        for b in range(a, g):
            column = p.labels[a, b, :]
            newcol = np.empty(g * t_r, dtype=np.int64)
            for i in np.unique(column):
                slots = np.flatnonzero(np.repeat(column == i, t_r))
                counts = _largest_remainder(fracs[i, :, a, b], slots.size)
                newcol[slots] = i * t_r + np.repeat(np.arange(t_r), counts)
                weight = 2.0 if a != b else 1.0
                realized[i] += weight * counts / (g * t_r)
            col[a, b] = col[b, a] = newcol
    labels = np.repeat(np.repeat(col, t_r, axis=0), t_r, axis=1)
    part = GridPartition(2, g * t_r, labels, p.t * t_r, allow_empty=True)
    return part, realized / (g * g)


@contextmanager
def _stage(name: str, stages: list[dict[str, Any]] | None) -> Iterator[dict[str, Any]]:
    """One lift stage: label its budget refusals and record its seconds.

    The body fills the yielded dict; on success the record
    ``{"stage": name, "seconds": ..., **filled}`` is appended to
    ``stages`` (nothing is recorded when ``stages`` is None).
    """
    rec: dict[str, Any] = {}
    t0 = time.perf_counter()
    try:
        yield rec
    except BudgetError as err:
        raise BudgetError(f"lift stage '{name}': {err.stage}", err.needed, err.budget) from err
    if stages is not None:
        stages.append({"stage": name, "seconds": time.perf_counter() - t0, **rec})


def lift_coloring(
    u: StepGraphon | VertexGraphon,
    q: int,
    v_hat: StepGraphon,
    delta: float,
    q0: int,
    seed: int,
    *,
    sample: SampledColoredGraph | None = None,
    edge_uniforms: Sequence[float] | None = None,
    reg_floor: float = 0.02,
    max_rounds: int = 4,
    restarts: int = 4,
    mode: str = "auto",
) -> tuple[StepGraphon, dict[str, Any]]:
    """Pull a coloring of a q-vertex sample back onto the source graphon.

    ``v_hat`` must color the embedded sample of ``u``: without an explicit
    ``sample`` argument the sample is re-derived as
    ``sample_graphon(w, q, derive_seed(seed, 0))``, which for any
    refinement w of u draws the same coordinates and coupled colors, so a
    caller that samples a refined graphon with that seed and embeds the
    result (``embed_sample``) produces a compatible ``v_hat``. With
    ``sample`` given, its coordinate provenance drives the pipeline and
    ``edge_uniforms`` (one per colex r-subset, optional) feeds the
    sampled-approximant draw.

    The stages: regularize the source (target half the effective
    proximity), paint the sample grid with the source classes, regularize
    the sample coloring, color the sampled approximant by cellwise
    transfer, refine the source partition by stacking fibers in the
    sampled proportions (recursing on (r-1)-marginals when r = 3, volume
    vectors at the bottom), and transfer back onto the source. The
    effective proximity is max(delta * r! / (4k (kt)^{q0^r} q0^r),
    reg_floor): the first expression is the schedule the guarantee wants,
    the floor keeps desk-scale class counts sane; diagnostics always
    record both. Regularity targets that cannot be met within
    ``max_rounds`` are carried as best-so-far approximants and flagged,
    budget failures propagate with a stage label.

    Returns the lifted coloring (its discoloring is ``u`` up to float
    rounding) and a diagnostics record: per-stage runtimes, class counts,
    measured cut-P distances, the base-case volume report, and the final
    q0-sample variation distance (measured, never asserted). These
    measurements are optional: one the budget refuses, or whose grid is
    too large to measure in memory, reads None and the lift goes on.
    """
    u = _as_step(u)
    r = u.r
    if r not in (2, 3):
        raise ValueError(f"lifting supports r in (2, 3), got r={r}")
    if r == 3 and q > 12:
        raise ValueError("for r=3 the stacked marginal grids explode past q=12")
    if v_hat.r != r:
        raise ValueError("sample coloring has the wrong uniformity")
    if v_hat.k % u.k != 0 or v_hat.k == 0:
        raise ValueError(
            f"sample palette {v_hat.k} does not refine the source palette {u.k}"
        )
    if delta <= 0 or q0 < 1:
        raise ValueError("need delta > 0 and q0 >= 1")
    k = v_hat.k // u.k
    t_pal = u.k
    n_coords = len(sample_coordinates(q, r))
    n_edges = comb(q, r)
    stages: list[dict[str, Any]] = []

    # stage 0: the sample behind v_hat
    with _stage("sample", stages) as rec:
        if sample is None:
            base_sample = sample_graphon(u, q, derive_seed(seed, 0))
            coords, ues = _sample_uniforms(generator(derive_seed(seed, 0)), q, r)
        else:
            if sample.coords is None:
                raise ValueError("provided sample lacks coordinate provenance")
            coords = np.asarray(sample.coords, dtype=float)
            if coords.size != n_coords:
                raise ValueError(
                    f"sample coordinates have length {coords.size}, need {n_coords}"
                )
            if (sample.r, sample.k, sample.n) != (r, t_pal, q):
                raise ValueError("provided sample does not match the source")
            if edge_uniforms is not None:
                ues = np.asarray(edge_uniforms, dtype=float)
                if ues.size != n_edges:
                    raise ValueError(f"need {n_edges} edge uniforms")
            else:  # edge uniforms for a given sample: the first n_edges of the stage-0 stream
                ues = np.concatenate(_sample_uniforms(generator(derive_seed(seed, 0)), q, r))
                ues = ues[:n_edges]
            base_sample = sample
        v_base = embed_sample(base_sample)
        if l1_distance(discolor_step(v_hat, k), v_base) > 1e-9:
            raise ValueError("v_hat does not discolor to the embedded sample")
        rec["collisions"] = sum(1 for c in base_sample.colors if c == IOTA)

    # stage 1: regularize the source
    with _stage("regularize_source", stages) as rec:
        delta_paper = (
            delta * factorial(r)
            / (4.0 * k * float(k * t_pal) ** (q0 ** r) * q0 ** r)
        )
        delta_eff = max(delta_paper, reg_floor)
        w1, p_part, trace1, ok1 = _regularize_stage(
            u, delta_eff / 2, mode, restarts, max_rounds, derive_seed(seed, 1)
        )
        g1 = p_part.resolution
        rec.update({
            "classes": p_part.t,
            "target": delta_eff / 2,
            "achieved": trace1[-1]["residual"],
            "attained": ok1,
        })

    # stage 2: the sample induces a partition of its grid
    with _stage("induce_sample_partition", stages) as rec:
        p_prime = _induced_partition(p_part, coords, q, r)
        rec.update({"classes": p_prime.t, "resolution": q})

    # stage 3: regularize the sample coloring
    with _stage("regularize_sample_coloring", stages) as rec:
        z_hat, r_part, trace3, ok3 = _regularize_stage(
            v_hat, delta_eff, mode, restarts, max_rounds, derive_seed(seed, 3)
        )
        t_r = r_part.t
        rec.update({
            "classes": t_r,
            "target": delta_eff,
            "achieved": trace3[-1]["residual"],
            "attained": ok3,
        })

    # stage 4: color the sampled approximant by transfer
    with _stage("transfer_to_sample", stages) as rec:
        w2 = embed_sample(SampledColoredGraph(q, r, t_pal, colors_at(w1, q, coords, ues)))
        d_sampled = None
        if _measurable_grid(r_part, r):
            d_sampled = _measured(lambda: cut_distance(
                discolor_step(z_hat, k), w2, p=r_part, mode="heuristic",
                restarts=max(2, restarts // 2), seed=derive_seed(seed, 4),
            ))
        w2_hat = transfer_coloring(z_hat, w2, r_part)
        rec.update({
            "measured_distance": d_sampled,
            "claimed_bound": 2 * delta_eff,
            "transferred_bound": 2 * k * delta_eff,
        })

    # stage 5: refine the source partition in the sampled proportions
    with _stage("refine_source_partition", stages) as rec:
        if r == 2:
            counts = np.zeros((p_part.t, t_r))
            np.add.at(counts, (p_prime.labels, r_part.labels), 1.0)
            volume_report = base_case_report(p_part.class_volumes(), counts / q, t_r, q0)
            b_hat = np.asarray(volume_report["refined_target_volumes"])
            p_second, realized = _stack_1d(p_part, b_hat, t_r)
            quantization = float(np.abs(realized - b_hat).max())
            extra: dict[str, Any] = {"base_case": volume_report}
        else:
            ident_g1 = GridPartition(1, g1, np.arange(g1), g1)
            marg = np.stack([
                (p_part.labels == i).mean(axis=2) for i in range(p_part.t)
            ])
            w_marg = StepGraphon(
                2, p_part.t, ident_g1, {i + 1: marg[i] for i in range(p_part.t)}
            )
            code = p_prime.labels * t_r + r_part.labels
            m_hat = np.stack([
                (code == comp).mean(axis=2) for comp in range(p_part.t * t_r)
            ])
            off_diag = 1.0 - np.eye(q)
            arrays_m = {c + 1: m_hat[c] * off_diag for c in range(p_part.t * t_r)}
            arrays_m[0] = np.eye(q)
            u_marg_hat = StepGraphon(
                2, p_part.t * t_r, GridPartition(1, q, np.arange(q), q), arrays_m
            )
            pairs = colex_edges(q, 2)
            inner_colors = (p_prime.labels[pairs[:, 0], pairs[:, 1], 0] + 1).tolist()
            inner_sample = SampledColoredGraph(
                q, 2, p_part.t, inner_colors, coords=tuple(coords[:q])
            )
            pair_start = {s: i for i, s in enumerate(sample_coordinates(q, 3))}
            inner_ues = coords[[pair_start[pair] for pair in map(tuple, pairs.tolist())]]
            w_marg_hat, inner_diag = lift_coloring(
                w_marg, q, u_marg_hat, delta / 4, q0, derive_seed(seed, 5),
                sample=inner_sample, edge_uniforms=inner_ues,
                reg_floor=reg_floor, max_rounds=max_rounds,
                restarts=restarts, mode=mode,
            )
            m_out = step_average(w_marg_hat, ident_g1)
            fracs = np.stack([
                np.stack([
                    m_out.arrays[composite_color(i + 1, j + 1, t_r)]
                    for j in range(t_r)
                ])
                for i in range(p_part.t)
            ])
            p_second, realized = _stack_3d(p_part, fracs, t_r)
            target = fracs.mean(axis=(2, 3))
            quantization = float(np.abs(realized - target).max())
            extra = {"inner": inner_diag}
        rec.update({
            "classes": p_second.t,
            "resolution": p_second.resolution,
            "quantization": quantization,
            **extra,
        })

    # stage 6: color the regularized source on the refined partition
    with _stage("color_source_steps", stages) as rec:
        arrays_hat: dict[int, np.ndarray] = {}
        if 0 in w1.arrays:
            arrays_hat[0] = np.kron(w1.arrays[0], np.ones((t_r,) * r))
        for alpha in range(1, t_pal + 1):
            comps = [composite_color(alpha, beta, k) for beta in range(1, k + 1)]
            fine = [z_hat.arrays[c] for c in comps]
            base = sum(fine)
            for c, f in zip(comps, fine):
                share = np.divide(f, base, out=np.full_like(f, 1.0 / k),
                                  where=base > 0)
                arrays_hat[c] = np.kron(w1.arrays[alpha], np.clip(share, 0.0, 1.0))
        w1_hat = StepGraphon(r, t_pal * k, p_second, arrays_hat)
        rec["classes"] = p_second.t

    # stage 7: transfer back onto the source
    with _stage("transfer_to_source", stages) as rec:
        u_hat = transfer_coloring(w1_hat, u, p_second)
        d_refined = d_base = None
        if _measurable_grid(p_second, r):
            d_refined = _measured(lambda: cut_distance(
                w1_hat, u_hat, p=p_second, mode="heuristic",
                restarts=max(2, restarts // 2), seed=derive_seed(seed, 7),
            ))
            d_base = _measured(lambda: cut_distance(
                w1, u, p=p_second, mode="heuristic",
                restarts=max(2, restarts // 2), seed=derive_seed(seed, 8),
            ))
        rec.update({
            "measured_refined_distance": d_refined,
            "measured_base_distance": d_base,
        })

    final_tv = _measured(lambda: _mu_tv(u_hat, v_hat, q0))

    diagnostics = {
        "r": r,
        "q": q,
        "q0": q0,
        "arity": k,
        "palette": t_pal,
        "delta": delta,
        "delta_paper": delta_paper,
        "delta_effective": delta_eff,
        "stages": stages,
        "final_tv": final_tv,
    }
    return u_hat, diagnostics


# ----------------------------------------------------------------------
# nondeterministic estimation


def max_over_refinements(
    g: ColoredHypergraph | SampledColoredGraph,
    k: int,
    value_fn: Callable[[Any], float],
    mode: str = "auto",
    restarts: int = 8,
    seed: int = 0,
) -> tuple[float, Any]:
    """Maximize a parameter over the k-refinements of a colored graph.

    mode "exact" enumerates all k**m refinements of the m non-reserved
    edges (budget checked), "heuristic" runs seeded first-improvement
    subcolor flips from random starts, "auto" enumerates and falls back
    to the search when the budget refuses. Returns the best value and
    the refined graph attaining it.
    """
    if k < 1:
        raise ValueError("refinement arity k must be >= 1")
    m = sum(1 for c in g.colors if c != IOTA)

    def enumerate_all() -> tuple[float, Any]:
        best, best_g = -np.inf, None
        for candidate in enumerate_colorings(g, k):
            value = value_fn(candidate)
            if value > best:
                best, best_g = value, candidate
        return best, best_g

    def local_search() -> tuple[float, Any]:
        if restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {restarts}")
        best, best_g = -np.inf, None
        for restart in range(restarts):
            rng = generator(derive_seed(seed, restart))
            betas = rng.integers(1, k + 1, size=m)
            current = _refined_with(g, betas, k)
            value = value_fn(current)
            improved = True
            while improved:
                improved = False
                for pos in range(m):
                    old = betas[pos]
                    for nb in range(1, k + 1):
                        if nb == old:
                            continue
                        betas[pos] = nb
                        candidate = _refined_with(g, betas, k)
                        cand_value = value_fn(candidate)
                        if cand_value > value + 1e-12:
                            value, current, improved = cand_value, candidate, True
                            break
                        betas[pos] = old
            if value > best:
                best, best_g = value, current
        return best, best_g

    return exact_or_heuristic(mode, enumerate_all, local_search)[0]


def _round_coloring(
    g: ColoredHypergraph, u_hat: StepGraphon, k: int, seed: int
) -> ColoredHypergraph:
    """Round a lifted coloring of the embedded graph back to the graph.

    Every vertex keeps its own cell (jittered uniformly inside), larger
    coordinate subsets draw fresh uniforms, and each edge picks its
    subcolor from the lifted refinement shares at its type point by the
    sampler's decode rule (``graphon._inverse_cdf``); the base color is
    the graph's own, so discoloring returns the graph.
    """
    n, r = g.n, g.r
    coords, edge_us = _sample_uniforms(generator(seed), n, r)
    coords[:n] = (np.arange(n) + coords[:n]) / n  # the singletons come first
    cells = _grid_cells(coords, u_hat.partition.resolution)[None, :]
    classes = _block_classes(u_hat.partition, cells, _edge_layout(n, r)[:, None])
    # each edge's k subcolors of its base color, gathered at its type point
    comps = composite_color(np.asarray(g.colors)[:, None], np.arange(1, k + 1), k)
    stack = np.stack([u_hat.arrays[c] for c in range(1, u_hat.k + 1)])
    probs = stack[(comps - 1,) + tuple(c[0] for c in classes)]
    total = probs.sum(axis=1, keepdims=True)
    probs = np.divide(probs, total, out=np.full_like(probs, 1.0 / k), where=total > 0)
    betas = _inverse_cdf(np.cumsum(probs, axis=1).T, edge_us)
    colors = comps[np.arange(len(comps)), betas].tolist()
    return ColoredHypergraph(n, r, g.k * k, colors)


def nd_estimate_pipeline(
    g: ColoredHypergraph,
    witness_g: Callable[[Any], float],
    q: int,
    q0: int,
    seed: int,
    *,
    k: int = 2,
    delta: float = 0.1,
    mode: str = "auto",
    restarts: int = 8,
) -> dict[str, Any]:
    """Estimate a best-k-refinement parameter of ``g`` from a q-sample.

    The sample's best refinement gives the estimate f_hat. Its coloring
    is lifted onto the embedded graph and rounded back to an actual
    refinement of ``g``, whose witness value is a certified lower bound
    on the true maximum; the report carries both numbers, their gap, the
    exact maximum when the budget allows it, and the lift diagnostics.
    ``mode`` ("exact", "heuristic" or "auto") picks the search over the
    sample's refinements; the lift always runs in "auto". The budget in
    force (``budget.limit``) caps every enumeration, the lift's included.
    Sampling avoids reserved colors by rejection when the collision-free
    probability is workable, otherwise reserved edges flow through (the
    witness callback sees them).
    """
    if g.r not in (2, 3):
        raise ValueError("the estimation pipeline supports r in (2, 3)")
    emb = embed(g)
    p_clean = float(np.prod(1.0 - np.arange(q) / g.n)) if q <= g.n else 0.0
    conditioned = p_clean >= 1e-3
    sample = sample_graphon(emb, q, derive_seed(seed, 0),
                            condition_no_iota=conditioned)
    f_hat, best_sample = max_over_refinements(
        sample, k, witness_g, mode=mode, restarts=restarts, seed=derive_seed(seed, 1)
    )
    v_hat = embed_sample(best_sample)
    u_hat, diag = lift_coloring(
        emb.to_step(), q, v_hat, delta, q0, derive_seed(seed, 2), sample=sample
    )
    rounded = _round_coloring(g, u_hat, k, derive_seed(seed, 3))
    transferred = float(witness_g(rounded))
    report: dict[str, Any] = {
        "f_hat": float(f_hat),
        "transferred_value": transferred,
        "gap": float(f_hat) - transferred,
        "sample_size": q,
        "arity": k,
        "conditioned": bool(conditioned),
        "coloring": list(rounded.colors),
        "lift": diag,
    }
    report["f_exact"] = _measured(
        lambda: float(max_over_refinements(g, k, witness_g, mode="exact")[0])
    )
    return report
