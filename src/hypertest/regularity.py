"""Weak regularity decompositions of colored step graphons.

Each round measures the worst cut-P residual over symmetric partitions
within the class budget, then splits the current partition by the
witnessing sets of every color channel. Averaging over the refined
partition is an exact conditional expectation, so each detected residual
eta pushes the approximant's L2 energy up by eta^2 and the number of
productive rounds is capped by 1/eps^2. The returned approximant is the
best one seen, which keeps the reported residual trace nonincreasing.
A round zero that keeps the input's own partition is certified by the
L1 bound instead of a sweep, outside "exact" mode, whenever that bound
meets the target.
"""

from __future__ import annotations

import csv
import io
from functools import partial
from math import ceil, inf, isfinite, log2
from typing import Any, Sequence

import numpy as np

from .budget import check_budget, exact_or_heuristic
from .cutnorm import (
    CutWitness,
    StepKernel,
    _check_restarts,
    _count_growth_strings,
    _growth_strings,
    kernel_cutnorm_p,
)
from .graphon import (
    GridPartition,
    StepGraphon,
    VertexGraphon,
    _as_step,
    _symmetrize,
    channel_differences,
    l1_distance,
    orbit_partition,
    step_average,
)
from .seeds import derive_seed

__all__ = [
    "RegularityError",
    "weak_regularize",
    "sup_partition_distance",
    "class_count_bound",
    "class_count_bound_log2",
    "growth_sequence",
    "symmetrized_step",
    "trace_csv",
]


class RegularityError(RuntimeError):
    """Raised when the round budget runs out above the target residual.

    Carries the best decomposition found so its caller can still inspect
    or reuse it: ``achieved`` is the smallest certified residual, and
    ``v``, ``p``, ``trace`` mirror the normal return values.
    """

    def __init__(self, target: float, achieved: float, v: StepGraphon,
                 p: GridPartition, trace: list[dict[str, Any]]):
        rounds = len(trace) - 1
        super().__init__(
            f"residual {achieved:.6g} still above target {target:.6g} "
            f"after {rounds} refinement rounds"
        )
        self.target = target
        self.achieved = achieved
        self.v = v
        self.p = p
        self.trace = trace


def sup_partition_distance(
    u: StepGraphon | VertexGraphon,
    w: StepGraphon | VertexGraphon,
    limit: int,
    mode: str = "exact",
    restarts: int = 16,
    seed: int = 0,
) -> tuple[float, GridPartition, list[CutWitness]]:
    """Worst cut-P distance over symmetric partitions with <= limit classes.

    Returns the maximizing partition and one witness per color channel.
    Per-channel cut-P norms are monotone under partition refinement, so
    when the class budget covers every cell orbit the finest symmetric
    partition attains the supremum and the sweep collapses to one
    evaluation. Heuristic mode evaluates only that finest partition and
    reports a sign-ascent estimate rather than a certified value.
    """
    us, ws = _as_step(u), _as_step(w)
    if us.r != ws.r or us.k != ws.k:
        raise ValueError("graphons must share uniformity and palette")
    if limit < 1:
        raise ValueError("class limit must be >= 1")
    part, diffs = channel_differences(us, ws)
    kernels = [StepKernel(part, diff) for diff in diffs.values()]
    g = part.resolution
    orbit = orbit_partition(us.r - 1, g)

    if limit >= orbit.t or mode == "heuristic":
        candidates: Any = [orbit]
    elif mode == "exact":
        check_budget("residual partition sweep", _count_growth_strings(orbit.t, limit))
        candidates = (
            GridPartition(us.r - 1, g, np.asarray(rgs)[orbit.labels], max(rgs) + 1)
            for rgs in _growth_strings(orbit.t, limit)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best = -1.0
    best_part: GridPartition | None = None
    best_wits: list[CutWitness] = []
    for qp in candidates:
        total, wits = 0.0, []
        for i, kern in enumerate(kernels):
            value, wit = kernel_cutnorm_p(kern, qp, mode=mode, restarts=restarts,
                                          seed=derive_seed(seed, i))
            total += value
            wits.append(wit)
        if total > best:
            best, best_part, best_wits = total, qp, wits
    return best, best_part, best_wits


def _refined_by_witnesses(p: GridPartition, qpart: GridPartition,
                          witnesses: Sequence[CutWitness], g: int) -> GridPartition:
    """Split classes of p by the q-partition and every witness set."""
    orbit_labels = orbit_partition(p.r_minus_1, g).labels
    qp = qpart.refined(g // qpart.resolution)
    code = p.refined(g // p.resolution).labels.astype(np.int64)
    code = code * qp.t + qp.labels
    for wit in witnesses:
        for s in wit.sets:
            member = np.isin(orbit_labels, np.asarray(s, dtype=np.int64))
            code = code * 2 + member
    _, labels = np.unique(code.ravel(), return_inverse=True)
    labels = labels.reshape(code.shape)
    return GridPartition(p.r_minus_1, g, labels, int(labels.max()) + 1)


def weak_regularize(
    w: StepGraphon | VertexGraphon,
    eps: float,
    t: int | None = None,
    max_rounds: int | None = None,
    mode: str = "auto",
    restarts: int = 16,
    seed: int = 0,
) -> tuple[StepGraphon, GridPartition, list[dict[str, Any]]]:
    """Approximate w by a step function with small cut-P residual.

    The residual is the worst cut-P distance over symmetric partitions
    with at most cap*t classes, where cap = min(max_rounds, ceil(1/eps^2))
    bounds the refinement rounds; meeting that is stricter than the
    per-round target of rounds*t classes. ``t`` defaults to the class
    count of w's own partition. If w already fits in t classes, round
    zero keeps w's partition and its approximant
    ``step_average(w, w.partition)`` equals w up to rounding.

    mode "exact" certifies every residual by enumeration, "heuristic"
    estimates them by sign ascent, and "auto" tries exact first and falls
    back when the enumeration budget runs out. Every cut-P distance
    integrates the difference over sets, so the residual is at most the
    L1 distance between w and its approximant. When round zero keeps
    w's partition, "auto" and "heuristic" take that bound as the round's
    residual, certified, and sweep only when it is above eps; "exact"
    always sweeps.

    Returns (v, p, trace) where trace rows carry round, residual, class
    count, and "mode": "exact" or "heuristic", the sweep that measured
    that round's residual, or "bound" for the L1 bound. The rounds end
    early when a refinement returns the partition it refined: every later
    round would repeat that one exactly. Raises RegularityError when the
    rounds end with the best residual still above eps.
    """
    w = _as_step(w)
    _check_proximity("eps", eps)
    if mode not in ("auto", "exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "exact":
        _check_restarts(restarts)
    if t is None:
        t = w.partition.t
    if t < 1:
        raise ValueError("class multiplier t must be >= 1")
    if max_rounds is not None and max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    cap = _ceil_squared_ratio(1.0, eps)
    if max_rounds is not None:
        cap = min(cap, max_rounds)
    limit = max(1, cap * t)
    g = w.partition.resolution
    bound_log2 = class_count_bound_log2(w.r, w.k, eps, t)

    if w.partition.t <= t:
        p = w.partition
    else:
        dim = 2 ** (w.r - 1) - 1
        p = GridPartition(w.r - 1, g, np.zeros((g,) * dim, dtype=np.int64), 1)

    rounds = 0
    trace: list[dict[str, Any]] = []
    while True:
        v = step_average(w, p)
        # while p is w's own partition, v is w up to rounding: try the bound first
        bound = l1_distance(w, v) if p is w.partition and mode != "exact" else np.inf
        if bound <= eps:
            residual, ran = bound, "bound"
        else:
            sweep = partial(sup_partition_distance, w, v, limit, restarts=restarts, seed=seed)
            (residual, qpart, wits), ran = exact_or_heuristic(
                mode, partial(sweep, mode="exact"), partial(sweep, mode="heuristic"))
        if not trace or residual < best_res:
            best_v, best_p, best_res = v, p, residual
        trace.append({"round": rounds, "residual": best_res, "classes": p.t, "mode": ran})
        if best_res <= eps or rounds >= cap:
            break
        refined = _refined_by_witnesses(p, qpart, wits, g)
        if refined.t == p.t and np.array_equal(refined.labels, p.labels):
            break  # a fixed point: every later round would repeat this one
        rounds += 1
        p = refined
        if log2(p.t) > bound_log2:
            raise RuntimeError("class count escaped the regularity bound")

    if best_res > eps:
        raise RegularityError(eps, best_res, best_v, best_p, trace)
    return best_v, best_p, trace


# ----------------------------------------------------------------------
# bounds and bookkeeping


def _check_proximity(name: str, value: float, zero_ok: bool = False) -> None:
    """The package's one check of a proximity (eps, delta or reg_floor).

    A proximity must be finite and > 0, or finite and >= 0 when
    ``zero_ok`` (a floor); anything else, NaN included, is refused by name.
    """
    if zero_ok:
        if not (value >= 0 and isfinite(value)):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
        return
    if not value > 0:  # NaN fails this too
        raise ValueError(f"{name} must be positive")
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _ceil_squared_ratio(c: float, eps: float) -> int:
    """ceil(c**2 / eps**2). It is 1 for every eps >= c, so clamping eps at c
    changes no value and keeps a huge eps from overflowing eps**2. Where a
    tiny eps**2 underflows, the float quotient is inf or a division by zero,
    and the exact quotient is taken instead."""
    e = min(eps, c)
    try:
        return ceil(c**2 / e**2)
    except (OverflowError, ZeroDivisionError):
        from fractions import Fraction  # imported here: it pulls in decimal

        return ceil(Fraction(c) ** 2 / Fraction(e) ** 2)


def _bound_exponent_log2(r: int, k: int, eps: float) -> float:
    _check_proximity("eps", eps)
    if min(r, k) < 1:
        raise ValueError("r, k must be >= 1")
    try:
        return _ceil_squared_ratio(2.0, eps) * log2(r * k + 1)
    except OverflowError:  # a ratio past the float range
        return inf


def class_count_bound(r: int, k: int, eps: float, t: int) -> int:
    """Worst-case class count (2t)^((rk+1)^ceil(4/eps^2)) as an exact integer.

    Refuses to materialize numbers beyond a million bits; use
    class_count_bound_log2 for comparisons at that scale.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    e_log2 = _bound_exponent_log2(r, k, eps)
    # size the result before touching big integers: log2(bound) = 2^e_log2 * log2(2t)
    if e_log2 > 60 or 2.0**e_log2 * log2(2 * t) > 1_000_000:
        raise ValueError("bound too large to materialize; compare via class_count_bound_log2")
    return (2 * t) ** ((r * k + 1) ** _ceil_squared_ratio(2.0, eps))


def class_count_bound_log2(r: int, k: int, eps: float, t: int) -> float:
    """log2 of the class count bound, finite or +inf, never materialized."""
    if t < 1:
        raise ValueError("t must be >= 1")
    e_log2 = _bound_exponent_log2(r, k, eps)
    if e_log2 >= 1023:
        return float("inf")
    # the exponent fits a float exactly enough for comparisons
    return float((r * k + 1) ** _ceil_squared_ratio(2.0, eps)) * log2(2 * t)


def growth_sequence(r: int, k: int, t: int, rounds: int,
                    max_bits: int = 100_000) -> list[int]:
    """Reference class-count recurrence s(i+1) = s(i)*(s(i)*t+1)^(rk).

    Purely informational; stops early once entries exceed max_bits bits.
    """
    seq = [1]
    for _ in range(rounds):
        nxt = seq[-1] * (seq[-1] * t + 1) ** (r * k)
        if nxt.bit_length() > max_bits:
            break
        seq.append(nxt)
    return seq


def symmetrized_step(r: int, k: int, partition: GridPartition,
                     arrays: dict[int, np.ndarray]) -> StepGraphon:
    """Average raw channel arrays over coordinate permutations.

    Symmetrizing commutes with the partition-of-unity constraint, and by
    the triangle inequality it never increases cut-type distances to any
    symmetric target.
    """
    return StepGraphon(r, k, partition, {c: _symmetrize(arr) for c, arr in arrays.items()})


def trace_csv(trace: Sequence[dict[str, Any]]) -> str:
    """The trace of :func:`weak_regularize` as CSV, one line per round.

    ``mode`` names what measured the round's residual: "exact" or
    "heuristic" for a sweep, "bound" for the L1 bound.
    """
    fields = ("round", "residual", "classes", "mode")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in trace:
        writer.writerow({key: row[key] for key in fields})
    return buf.getvalue()
