"""Coloring transfer between step graphons and their samples.

Three layers build on each other. ``transfer_coloring`` moves a palette
refinement from one graphon onto a nearby one cellwise, with a cut-P
guarantee on the refinement's own partition that carries a factor of the
refinement arity. ``base_case_transfer`` is the one-dimensional version
on class-volume vectors, where closeness is measured by the variation
distance of repeated-sample laws.
``lift_coloring`` chains them into the full sample-to-source pipeline:
regularize both sides, color the sampled step structure by transfer, split
the source partition along fibers in the sampled proportions, and transfer
back. ``nd_estimate_pipeline`` sits on top and estimates a best-coloring
parameter of a finite graph from a sample, pulling the witness coloring
back onto the graph by the lift plus randomized rounding.

Each lift concept has one rule. ``_palette`` groups a [t] x [k] palette
by base color. ``graphon._shares`` splits a whole into its parts' shares,
evenly where the whole is 0; base-case volumes, fiber quotas
(``_largest_remainder``), the stage-6 subcolors and the rounding all
split through it. ``graphon._joint_counts`` counts class pairs, and
``graphon._fiber_shares`` gives the per-fiber class shares of the r = 3
marginals. ``_stack_fibers`` carves the source partition for r = 2 and
3 alike. ``_regularize_stage`` runs and records both regularizations,
and ``_stage_distance`` bounds the stage distances by L1; each records
the mode behind its value.

The lift is one function per stage, each returning its outputs and its
record: ``_sample``, ``_regularize_stage`` (stages 1 and 3),
``_induce_sample_partition``, ``_transfer_to_sample``,
``_refine_source_partition`` (with ``_lift_marginals``, the r = 3
recursion), ``_color_source_steps`` and ``_transfer_to_source``. ``_lift``
calls them in order through ``_run_stage``, which times each stage and
labels its budget refusals.

Everything is deterministic given its seed; pipeline stages run on
``derive_seed(seed, stage_index)``. Proximity numbers in the lift
diagnostics are measured, never asserted: the pipeline's end-to-end
guarantee is probabilistic in the sample, and desk-scale samples are far
below the sizes where the failure probability becomes negligible. The
final q0-sample distance is ``density.tv_distance`` of the two exact
laws from ``density.sample_laws``, whose q0 = r law is the color mass. The
stage distances are upper bounds on the cut-P distances the guarantee
speaks of, never a search's lower bound.
"""

from __future__ import annotations

import time
from math import comb, exp, factorial, inf, isfinite, log
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .budget import BudgetError, check_power_budget, exact_or_heuristic
from .cutnorm import _check_restarts, cut_distance
from .density import sample_laws, tv_distance
from .graphon import (
    GridPartition,
    StepGraphon,
    VertexGraphon,
    _as_step,
    _block_classes,
    _edge_layout,
    _fiber_shares,
    _grid_cells,
    _inverse_cdf,
    _joint_counts,
    _sample_uniforms,
    _shares,
    colors_at,
    common_refinement,
    embed,
    embed_sample,
    l1_distance,
    orbit_partition,
    sample_coordinates,
    sample_graphon,
    step_average,
)
from .hypercore import (
    IOTA,
    ColoredHypergraph,
    SampledColoredGraph,
    _first_subcolors,
    _refined_with,
    _refinement_layout,
    _refinement_splits,
    colex_edges,
    composite_color,
    enumerate_colorings,
)
from .regularity import RegularityError, _check_proximity, weak_regularize
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

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# palette plumbing


def _palette(t: int, k: int) -> list[list[int]]:
    """A [t] x [k] palette grouped by base color: row alpha - 1 lists alpha's k subcolors."""
    return composite_color(np.arange(1, t + 1)[:, None], np.arange(1, k + 1), k).tolist()


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
    for alpha, comps in enumerate(_palette(t, k), start=1):
        arrays[alpha] = sum(w.arrays[c] for c in comps)
    return StepGraphon(w.r, t, w.partition, arrays)


# ----------------------------------------------------------------------
# cellwise transfer


def transfer_coloring(u_hat: StepGraphon, v: StepGraphon) -> StepGraphon:
    """Copy the palette refinement of ``u_hat`` onto ``v``, cellwise.

    ``u_hat`` carries ``v.k * k`` composite colors. Within every base
    color the returned coloring reuses ``u_hat``'s local refinement
    shares; where the base channel of ``u_hat`` vanishes the split is an
    even 1/k. With P the partition of ``u_hat``, the cut-P distance
    between ``u_hat`` and the result is at most k times the cut-P
    distance between ``[u_hat, k]`` and ``v``: ``u_hat`` is a step
    function on P, so per composite channel the share factor is constant
    on class tuples of P and lies in [0, 1]; it can only shrink each
    per-tuple score, and the palette sum pays the factor k. A reserved
    channel of ``v`` passes through unchanged.

    Raises
    ------
    ValueError
        If the uniformities differ or the palettes are incompatible.
    """
    if u_hat.r != v.r:
        raise ValueError("uniformities differ")
    if u_hat.k % v.k != 0:
        raise ValueError(
            f"palette {u_hat.k} does not refine the base palette {v.k}"
        )
    k = u_hat.k // v.k
    part, pairs = common_refinement(u_hat.partition, v.partition)
    r = v.r
    if part is u_hat.partition:  # an identity refinement: both sides are already on it
        u_on, v_on = u_hat.arrays, v.arrays
    else:
        ix_u, ix_v = (np.ix_(*([idx] * r)) for idx in pairs.T)
        u_on = {c: u_hat.arrays[c][ix_u] for c in range(1, u_hat.k + 1)}
        v_on = {c: v.arrays[c][ix_v] for c in v.arrays}
    arrays: dict[int, np.ndarray] = {}
    if 0 in v.arrays:
        arrays[0] = v_on[0]
    for alpha, comps in enumerate(_palette(v.k, k), start=1):
        fine = [u_on[c] for c in comps]
        base = sum(fine)
        v_base = v_on[alpha]
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
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> dict[str, Any]:
    """Evaluate both sides of the transfer guarantee on one instance.

    Both distances are cut-P with P the partition of ``u_hat``. Returns
    the refined distance d(u_hat, transferred), the base distance
    d([u_hat, k], v), the arity, and whether refined <= arity * base
    held. With mode "exact" the flag is a theorem check; heuristic
    distances underestimate both sides, so treat the flag as advisory.
    """
    v_hat = transfer_coloring(u_hat, v)
    k = u_hat.k // v.k
    p = u_hat.partition
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
    return b[:, None] * _shares(a_hat, axis=1)


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
    check_power_budget("product law expansion", pa.size, q0)
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
    3 * q0^{2k+2} * (t + ln 2 - ln delta) / (4 delta^2),
    or inf where that leaves the float range.
    """
    _check_proximity("delta", delta)
    if min(q0, t, k) < 1:
        raise ValueError("q0, t, k must be >= 1")
    try:
        return 3.0 * q0 ** (2 * k + 2) * (t + log(2.0) - log(delta)) / (4.0 * delta ** 2)
    except (OverflowError, ZeroDivisionError):  # delta**2 underflows, or q0^{2k+2} is huge
        return inf


# ----------------------------------------------------------------------
# sampling helpers shared by the pipelines


def _largest_remainder(fracs: np.ndarray, total: int) -> np.ndarray:
    """Deterministic integer split of ``total`` slots proportional to fracs."""
    raw = _shares(np.clip(np.asarray(fracs, dtype=float), 0.0, None), axis=0) * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(counts - raw, kind="stable")
        counts[order[:short]] += 1
    return counts


# L1 distance up to which two step graphons agree: the lift's input check
_AGREE_L1 = 1e-9


def _mu_tv(a: StepGraphon, b: StepGraphon, q0: int) -> float:
    """Exact q0-sample variation distance (0 below r vertices, where no edge is seen)."""
    return 0.0 if q0 < a.r else tv_distance(*sample_laws(a, b, q0))


def _paper_schedule(delta: float, r: int, k: int, t_pal: int, q0: int) -> float:
    """The guarantee's proximity delta r! / (4k (k t)^{q0^r} q0^r).

    A power (k t)^{q0^r} past the float range takes the same quotient in
    log space: the tiny value it is, 0.0 once that underflows. Its exponent
    q0^r is capped at 2^1023 there, where the quotient is 0.0 already
    (or, for k t = 1, the power is 1), so no q0 overflows a float.
    """
    numerator = delta * factorial(r)
    if not isfinite(numerator):
        raise ValueError(f"delta * r! overflows, got delta = {delta}")
    try:
        return numerator / (4.0 * k * float(k * t_pal) ** (q0 ** r) * q0 ** r)
    except OverflowError:
        spread = min(q0 ** r, 2 ** 1023) * log(k * t_pal)
        return exp(log(numerator / (4.0 * k)) - spread - log(q0 ** r))


def _measured(measure: Callable[[], _T]) -> _T | None:
    """An optional measurement: its value, or None when the budget refuses it."""
    return exact_or_heuristic("auto", measure, lambda: None)[0]


def _stage_distance(a: StepGraphon, b: StepGraphon) -> tuple[float | None, str | None]:
    """A lift stage's cut-P distance bound and how it was obtained.

    Every cut-P distance is at most the L1 distance of the same pair, so
    the L1 distance certifies the stage's proximity claim as an upper
    bound, mode "bound". It reads (None, None) when the budget refuses it.
    """
    return _measured(lambda: (l1_distance(a, b), "bound")) or (None, None)


# ----------------------------------------------------------------------
# the lifting pipeline: one function per stage, run in order by _lift


def _run_stage(stages: list[dict], name: str, fn: Callable[..., tuple[_T, dict]], *args) -> _T:
    """Run lift stage ``name`` as ``fn(*args)``, which returns its outputs and its record.

    Appends ``{"stage": name, "seconds": ..., **record}`` to ``stages``, labels
    the stage's budget refusals, and returns the outputs.
    """
    t0 = time.perf_counter()
    try:
        out, rec = fn(*args)
    except BudgetError as err:
        raise BudgetError(f"lift stage '{name}': {err.stage}", err.needed, err.budget) from err
    stages.append({"stage": name, "seconds": time.perf_counter() - t0, **rec})
    return out


def _sample(u, q, v_hat, delta, q0, reg_floor, seed, sample, ues):
    """Stage 0: check the lift's inputs and the sample behind ``v_hat``, drawn when missing.

    Returns k, the coordinates and the edge uniforms: ``ues``, else those of
    the stream ``seed`` draws (its first C(q, r) values for a given sample).
    """
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
    _check_proximity("delta", delta)
    if q0 < 1:
        raise ValueError("q0 must be >= 1")
    _check_proximity("reg_floor", reg_floor, zero_ok=True)
    k = v_hat.k // u.k
    if not isfinite(2 * k * reg_floor):  # delta_eff >= reg_floor: transferred_bound is inf
        raise ValueError(f"2 * k * reg_floor overflows, got reg_floor = {reg_floor}")
    if sample is None:
        sample = sample_graphon(u, q, seed)
        ues = _sample_uniforms(generator(seed), q, r)[1]
    if sample.coords is None:
        raise ValueError("provided sample lacks coordinate provenance")
    coords = np.asarray(sample.coords, dtype=float)
    n_coords = len(sample_coordinates(q, r))
    if coords.size != n_coords:
        raise ValueError(f"sample coordinates have length {coords.size}, need {n_coords}")
    if (sample.r, sample.k, sample.n) != (r, u.k, q):
        raise ValueError("provided sample does not match the source")
    if ues is None:  # a given sample's: the first C(q, r) values of the stream
        ues = np.concatenate(_sample_uniforms(generator(seed), q, r))[:comb(q, r)]
    if l1_distance(discolor_step(v_hat, k), embed_sample(sample)) > _AGREE_L1:
        raise ValueError("v_hat does not discolor to the embedded sample")
    return (k, coords, ues), {"collisions": sum(1 for c in sample.colors if c == IOTA)}


def _regularize_stage(w, eps, mode, restarts, max_rounds, seed):
    """Stages 1 and 3: regularize ``w`` toward ``eps``; return (v, p) and the stage record.

    A target missed within ``max_rounds`` keeps the best-so-far
    approximant and records ``attained: False``. ``achieved_mode`` is the
    mode of the trace row that measured ``achieved``: "bound", "exact" or
    "heuristic".
    """
    try:
        v, p, trace = weak_regularize(w, eps, mode=mode, restarts=restarts,
                                      max_rounds=max_rounds, seed=seed)
        attained = True
    except RegularityError as err:
        v, p, trace, attained = err.v, err.p, err.trace, False
    achieved = trace[-1]["residual"]
    # trace residuals are running minima: the first row at the minimum measured it
    row = next(row for row in trace if row["residual"] == achieved)
    return (v, p), dict(classes=p.t, target=eps, achieved=achieved,
                        achieved_mode=row["mode"], attained=attained)


def _induce_sample_partition(p: GridPartition, coords: np.ndarray, q: int, r: int):
    """Stage 2: paint the sample grid by the source-partition classes of its draws.

    For r = 3 each off-diagonal column inherits the class of its sampled
    type point; diagonal columns (never sampled) reuse the source
    partition's own fiber structure, scaled onto the sample grid.
    """
    g = p.resolution
    cells = _grid_cells(coords, g)
    rec = {"classes": p.t, "resolution": q}
    if r == 2:
        return GridPartition(1, q, p.labels[cells[:q]], p.t, allow_empty=True), rec
    # the sample coordinates are the q singletons, then the pairs in lex order
    a, b = np.triu_indices(q, 1)
    single = cells[:q, None]
    labels = np.empty((q, q, q), dtype=np.int64)
    labels[a, b] = labels[b, a] = p.labels[cells[a], cells[b], cells[q:]][:, None]
    z_map = np.minimum(np.arange(q) * g // q, g - 1)
    labels[np.arange(q), np.arange(q)] = p.labels[single, single, z_map]
    return GridPartition(2, q, labels, p.t, allow_empty=True), rec


def _transfer_to_sample(w1, z_hat, k, q, coords, ues, delta_eff):
    """Stage 4: measure the regularized sample coloring against the sampled approximant.

    The transfer onto the approximant would pay this proximity; the
    transferred coloring itself is never read, so it is not built.
    """
    w2 = embed_sample(SampledColoredGraph(q, w1.r, w1.k, colors_at(w1, q, coords, ues)))
    d_sampled, sampled_mode = _stage_distance(discolor_step(z_hat, k), w2)
    return None, {
        "measured_distance": d_sampled,
        "measured_distance_mode": sampled_mode,
        "claimed_bound": 2 * delta_eff,
        "transferred_bound": 2 * k * delta_eff,
    }


def _stack_fibers(
    p: GridPartition, fracs: np.ndarray, t_r: int
) -> tuple[GridPartition, np.ndarray]:
    """Split every class of p into t_r subclasses, fiber by fiber.

    A fiber is a column along the last grid axis; for r = 2 the whole
    grid is one fiber. ``fracs[(i, j) + fiber]`` is the target share of
    subclass (i, j) among the class-i cells of that fiber, which are
    carved into t_r runs by largest remainder on a last axis t_r times
    finer. The other axes are repeated t_r times, so the result lives on
    the grid t_r times finer and subclass (i, j) is class i * t_r + j.
    Returns it with the realized subclass volumes, shape (p.t, t_r).
    """
    g = p.resolution
    fibers = p.labels.shape[:-1]  # () for r = 2, (g, g) for r = 3
    cols = np.empty(fibers + (g * t_r,), dtype=np.int64)
    realized = np.zeros((p.t, t_r))
    for fiber in np.ndindex(fibers):
        # r = 3 labels are symmetric in the two singleton axes: each column
        # is carved once, as (a, b) with a <= b, and copied to its mirror
        if fiber[::-1] < fiber:
            continue
        weight = 1.0 if fiber == fiber[::-1] else 2.0
        column = p.labels[fiber]
        for i in np.unique(column):
            slots = np.flatnonzero(np.repeat(column == i, t_r))
            counts = _largest_remainder(fracs[(i, slice(None)) + fiber], slots.size)
            cols[fiber + (slots,)] = i * t_r + np.repeat(np.arange(t_r), counts)
            realized[i] += weight * counts / (g * t_r)
        cols[fiber[::-1]] = cols[fiber]
    labels = cols
    for axis in range(len(fibers)):
        labels = np.repeat(labels, t_r, axis=axis)
    part = GridPartition(p.r_minus_1, g * t_r, labels, p.t * t_r, allow_empty=True)
    return part, realized / (p.labels.size // g)


def _refine_source_partition(p_part, p_prime, r_part, q, q0, coords, delta, seed,
                             reg_floor, max_rounds, restarts, mode):
    """Stage 5: carve the source partition's fibers in the sampled proportions.

    Those are the volume base case's at r = 2 and :func:`_lift_marginals`'s at r = 3.
    """
    t_r = r_part.t
    if p_part.r_minus_1 == 1:
        counts = _joint_counts(p_prime.labels, r_part.labels, p_part.t, t_r)
        volume_report = base_case_report(p_part.class_volumes(), counts / q, t_r, q0)
        fracs = target = np.asarray(volume_report["refined_target_volumes"])
        extra: dict[str, Any] = {"base_case": volume_report}
    else:
        fracs, target, inner_diag = _lift_marginals(p_part, p_prime, r_part, q, q0, coords, delta,
                                                    seed, reg_floor, max_rounds, restarts, mode)
        extra = {"inner": inner_diag}
    p_second, realized = _stack_fibers(p_part, fracs, t_r)
    return p_second, {
        "classes": p_second.t,
        "resolution": p_second.resolution,
        "quantization": float(np.abs(realized - target).max()),
        **extra,
    }


def _lift_marginals(p_part, p_prime, r_part, q, q0, coords, delta, seed,
                    reg_floor, max_rounds, restarts, mode):
    """Stage 5 at r = 3: the fiber shares, their means and the inner record, by an r = 2 lift.

    It lifts the sample's refined (r-1)-marginal shares onto the source's,
    with the singleton draws as its sample and the pair draws as its edge uniforms.
    """
    t_r = r_part.t
    ident_g1 = orbit_partition(1, p_part.resolution)  # one class per grid cell
    marg = _fiber_shares(p_part.labels, p_part.t)
    w_marg = StepGraphon(
        2, p_part.t, ident_g1, {i + 1: marg[..., i] for i in range(p_part.t)}
    )
    m_hat = _fiber_shares(p_prime.labels * t_r + r_part.labels, p_part.t * t_r)
    off_diag = 1.0 - np.eye(q)
    arrays_m = {c + 1: m_hat[..., c] * off_diag for c in range(p_part.t * t_r)}
    arrays_m[0] = np.eye(q)
    u_marg_hat = StepGraphon(
        2, p_part.t * t_r, orbit_partition(1, q), arrays_m
    )
    pairs = colex_edges(q, 2)
    inner_colors = (p_prime.labels[pairs[:, 0], pairs[:, 1], 0] + 1).tolist()
    inner_sample = SampledColoredGraph(
        q, 2, p_part.t, inner_colors, coords=tuple(coords[:q])
    )
    pair_start = {s: i for i, s in enumerate(sample_coordinates(q, 3))}
    inner_ues = coords[[pair_start[pair] for pair in map(tuple, pairs.tolist())]]
    w_marg_hat, inner_diag = _lift(
        w_marg, q, u_marg_hat, delta / 4, q0, seed, inner_sample, inner_ues,
        reg_floor, max_rounds, restarts, mode,
    )
    m_out = step_average(w_marg_hat, ident_g1)
    fracs = np.stack([
        [m_out.arrays[c] for c in comps] for comps in _palette(p_part.t, t_r)
    ])
    return fracs, fracs.mean(axis=(2, 3)), inner_diag


def _color_source_steps(w1, z_hat, k, p_second):
    """Stage 6: color the regularized source on the refined partition, in the sample's shares."""
    arrays_hat: dict[int, np.ndarray] = {}
    if 0 in w1.arrays:
        arrays_hat[0] = np.kron(w1.arrays[0], np.ones((z_hat.partition.t,) * w1.r))
    for alpha, comps in enumerate(_palette(w1.k, k), start=1):
        shares = _shares(np.stack([z_hat.arrays[c] for c in comps]), axis=0)
        for c, share in zip(comps, shares):
            arrays_hat[c] = np.kron(w1.arrays[alpha], np.clip(share, 0.0, 1.0))
    return StepGraphon(w1.r, w1.k * k, p_second, arrays_hat), {"classes": p_second.t}


def _transfer_to_source(w1_hat, w1, u):
    """Stage 7: transfer the colored steps back onto the source, and measure both pairs."""
    u_hat = transfer_coloring(w1_hat, u)
    d_refined, refined_mode = _stage_distance(w1_hat, u_hat)
    d_base, base_mode = _stage_distance(w1, u)
    return u_hat, {
        "measured_refined_distance": d_refined,
        "measured_refined_distance_mode": refined_mode,
        "measured_base_distance": d_base,
        "measured_base_distance_mode": base_mode,
    }


def lift_coloring(
    u: StepGraphon | VertexGraphon,
    q: int,
    v_hat: StepGraphon,
    delta: float,
    q0: int,
    seed: int,
    *,
    sample: SampledColoredGraph | None = None,
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
    ``sample`` given, its coordinate provenance drives the pipeline.

    The stages: regularize the source (target half the effective
    proximity), paint the sample grid with the source classes, regularize
    the sample coloring, measure it against the sampled approximant (the
    proximity the transfer onto that approximant would pay for; the
    transferred coloring itself is never read, so it is not built),
    refine the source partition by stacking fibers in the
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
    the regularity residuals and the cut-P distances of stages 4 and 7
    with the mode that obtained each, the base-case volume report, and
    the final q0-sample variation distance (measured, never asserted).
    Each stage distance is the pair's L1 distance, an upper bound on its
    cut-P distance, mode "bound". These measurements are optional: one
    the budget refuses reads None and the lift goes on.
    """
    u_hat, diagnostics = _lift(u, q, v_hat, delta, q0, seed, sample, None,
                               reg_floor, max_rounds, restarts, mode)
    diagnostics["final_tv"] = _measured(lambda: _mu_tv(u_hat, v_hat, q0))
    return u_hat, diagnostics


def _lift(u, q, v_hat, delta, q0, seed, sample, ues, reg_floor, max_rounds, restarts, mode):
    """The stages of :func:`lift_coloring`, without its final_tv, in order.

    ``ues`` are the sample's edge uniforms, None for the stage-0 stream's.
    The r = 3 recursion (:func:`_lift_marginals`) runs this function with its
    own sample and uniforms: only the outer lift's q0-sample distance is
    reported, so the inner lift computes none.
    """
    u = _as_step(u)
    stages: list[dict[str, Any]] = []
    k, coords, ues = _run_stage(stages, "sample", _sample, u, q, v_hat, delta, q0, reg_floor,
                                derive_seed(seed, 0), sample, ues)
    delta_paper = _paper_schedule(delta, u.r, k, u.k, q0)
    delta_eff = max(delta_paper, reg_floor)
    w1, p_part = _run_stage(stages, "regularize_source", _regularize_stage,
                            u, delta_eff / 2, mode, restarts, max_rounds, derive_seed(seed, 1))
    p_prime = _run_stage(stages, "induce_sample_partition", _induce_sample_partition,
                         p_part, coords, q, u.r)
    z_hat, r_part = _run_stage(stages, "regularize_sample_coloring", _regularize_stage,
                               v_hat, delta_eff, mode, restarts, max_rounds, derive_seed(seed, 3))
    _run_stage(stages, "transfer_to_sample", _transfer_to_sample,
               w1, z_hat, k, q, coords, ues, delta_eff)
    p_second = _run_stage(stages, "refine_source_partition", _refine_source_partition,
                          p_part, p_prime, r_part, q, q0, coords, delta, derive_seed(seed, 5),
                          reg_floor, max_rounds, restarts, mode)
    w1_hat = _run_stage(stages, "color_source_steps", _color_source_steps, w1, z_hat, k, p_second)
    u_hat = _run_stage(stages, "transfer_to_source", _transfer_to_source, w1_hat, w1, u)
    return u_hat, {
        "r": u.r,
        "q": q,
        "q0": q0,
        "arity": k,
        "palette": u.k,
        "delta": delta,
        "delta_paper": delta_paper,
        "delta_effective": delta_eff,
        "stages": stages,
    }


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
    the refined graph attaining it, the first one in enumeration order
    when several do, also when the best value is -inf. A NaN value
    raises ``ValueError``.

    When ``value_fn`` has a ``counts_form`` attribute (a function from an
    (N, K + 1) array of color counts to N values, column 0 the reserved
    color), the exact side scores the prod C(n_alpha + k - 1, k - 1)
    splits of each base color's count into k subcolor counts in one
    call instead, budget checked by that number, and builds only the
    winner: the same value and refinement, since the value depends on
    the histogram alone.
    """
    return _refinement_search(g, k, value_fn, mode, restarts, seed)[0]


def _refinement_search(g, k, value_fn, mode, restarts, seed) -> tuple[tuple[float, Any], str]:
    """:func:`max_over_refinements` with the side that ran: "exact" or "heuristic"."""
    if k < 1:
        raise ValueError("refinement arity k must be >= 1")
    if mode != "exact":
        _check_restarts(restarts)
    base, _ = _refinement_layout(g, k)

    def score(candidate) -> float:
        value = value_fn(candidate)
        if value != value:
            raise ValueError("refinement value is NaN")
        return value

    def enumerate_all() -> tuple[float, Any]:
        best, best_g = -np.inf, None
        for candidate in enumerate_colorings(g, k):
            value = score(candidate)
            if best_g is None or value > best:
                best, best_g = value, candidate
        return best, best_g

    def by_histogram() -> tuple[float, Any]:
        hists = _refinement_splits(g, k)
        values = np.asarray(counts_form(hists))
        if values.shape != (len(hists),):
            raise ValueError(f"counts_form gave shape {values.shape} for {len(hists)} rows")
        if np.any(values != values):
            raise ValueError("refinement value is NaN")
        best = values.max()
        # the first tied refinement in enumeration order: the lexicographically
        # least subcolor row among the tied splits' first refinements
        betas = _first_subcolors(g, k, hists[values == best])
        first = betas[np.lexsort(betas.T[::-1])[0]]
        return best.item(), _refined_with(g, base, first.tolist(), k)

    def local_search() -> tuple[float, Any]:
        best, best_g = -np.inf, None
        free = [i for i, c in enumerate(g.colors) if c != IOTA]
        for restart in range(restarts):
            rng = generator(derive_seed(seed, restart))
            betas = [IOTA] * len(base)
            for i, beta in zip(free, rng.integers(1, k + 1, size=len(free)).tolist()):
                betas[i] = beta
            current = _refined_with(g, base, betas, k)
            value = score(current)
            improved = True
            while improved:
                improved = False
                for pos in free:
                    old = betas[pos]
                    for nb in range(1, k + 1):
                        if nb == old:
                            continue
                        betas[pos] = nb
                        candidate = _refined_with(g, base, betas, k)
                        cand_value = score(candidate)
                        if cand_value > value + 1e-12:
                            value, current, improved = cand_value, candidate, True
                            break
                        betas[pos] = old
            if best_g is None or value > best:
                best, best_g = value, current
        return best, best_g

    counts_form = getattr(value_fn, "counts_form", None)
    exact = enumerate_all if counts_form is None else by_histogram
    return exact_or_heuristic(mode, exact, local_search)


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
    comps = np.array(_palette(g.k, k))[np.asarray(g.colors) - 1]
    stack = np.stack([u_hat.arrays[c] for c in range(1, u_hat.k + 1)])
    probs = _shares(stack[(comps - 1,) + tuple(c[0] for c in classes)], axis=1)
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
