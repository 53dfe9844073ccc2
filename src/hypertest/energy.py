"""Ground state energies over tuple partitions and the sign-array reduction.

An energy instance reuses the cut-norm atom machinery: the coefficient
tensor T aggregates the (1/n^r)-normalized edge indicator over unordered
(r-1)-subset atoms, so the energy of a labeling L is
sum_{a1..ar} T[a1..ar] * J[L(a1)..L(ar)], summed over colors. The exact
optimizer enumerates labelings; the annealer proposes single-atom class
moves with geometric cooling and a greedy polish. It keeps per-atom
local fields (the energy each atom would see in each class, summed over
colors and positions), so a proposal's energy change is a table lookup:
O(1) for r = 2, whatever k is. An accepted move updates the fields in
O(m^(r-1) q) per color and position pair; at r = 2 that update is one
matrix product with a coupling difference tabulated once per (new, old)
class pair, and at small q kept per (atom, new, old) on first use. The
labels and the fields are mirrored in flat Python lists, so a proposal
reads Python floats, not numpy scalars, and the annealer scores one
without a method call. The schedule fixes every proposal count before a
run starts, so a run takes all of its draws up front in a few bulk
generator calls and loops over plain lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, exp
from typing import Any, Sequence

import numpy as np

from .budget import check_budget, check_power_budget, current_budget
from .cutnorm import StepKernel, TuplePartition, _check_restarts, _problem
from .graphon import StepGraphon, VertexGraphon, _as_step, subsets_card_lex
from .hypercore import ColoredHypergraph, _json_int, sample_subgraphs
from .seeds import derive_seed, generator

__all__ = [
    "CouplingArray",
    "energy",
    "gse",
    "gse_graphon",
    "make_reduction_arrays",
    "sup_cutnorm_via_energy",
    "concentration_experiment",
]

_LABELING_CHUNK = 20000  # labelings scored per batch by the exact search
# largest class count whose r = 2 field updates the annealer keeps: past it a
# run repeats few of an atom's q (q - 1) class pairs (under 40 % of the moves
# of gse runs at q = 8 and 10 reused a kept update) and keeping saved no time
_MEMO_MAX_Q = 7


@dataclass(frozen=True)
class CouplingArray:
    """Per-color coupling tensors J^alpha of shape (q,)*r with sup norm <= 1."""

    k: int
    q: int
    r: int
    arrays: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        if set(self.arrays) != set(range(1, self.k + 1)):
            raise ValueError(f"need one array per color 1..{self.k}")
        fixed = {}
        for alpha, arr in self.arrays.items():
            arr = np.array(arr, dtype=float)
            if arr.shape != (self.q,) * self.r:
                raise ValueError(f"J^{alpha} has shape {arr.shape}, want {(self.q,) * self.r}")
            if not np.isfinite(arr).all():
                raise ValueError(f"J^{alpha} has a non-finite entry")
            if np.abs(arr).max(initial=0.0) > 1.0 + 1e-12:
                raise ValueError(f"J^{alpha} exceeds sup norm 1")
            arr.flags.writeable = False
            fixed[alpha] = arr
        object.__setattr__(self, "arrays", fixed)

    @property
    def sup_norm(self) -> float:
        return max(float(np.abs(a).max(initial=0.0)) for a in self.arrays.values())

    def negated(self) -> "CouplingArray":
        return CouplingArray(self.k, self.q, self.r, {a: -j for a, j in self.arrays.items()})

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "q": self.q,
            "r": self.r,
            "arrays": {str(a): list(map(float, j.ravel())) for a, j in self.arrays.items()},
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "CouplingArray":
        k, q, r = (_json_int(payload[key], key) for key in ("k", "q", "r"))
        arrays = {
            int(a): np.array(flat, dtype=float).reshape((q,) * r)
            for a, flat in payload["arrays"].items()
        }
        return cls(k, q, r, arrays)


# ----------------------------------------------------------------------
# instances: per-color coefficient tensors over shared atoms


def _graph_instance(h: ColoredHypergraph, colors: Sequence[int]) -> list[np.ndarray]:
    return [_problem(h.adjacency_array(alpha), None)[1] for alpha in colors]


def _graphon_instance(w: StepGraphon, colors: Sequence[int]) -> list[np.ndarray]:
    return [_problem(StepKernel(w.partition, w.arrays[alpha]), None)[1] for alpha in colors]


def _tuple_codes(labels: np.ndarray, width: int, q: int) -> np.ndarray:
    """Class code sum_i L(a_i) q^(width-1-i) of every width-tuple of atoms, in C order."""
    codes = np.zeros(1, dtype=np.intp)
    for _ in range(width):
        codes = (codes[:, None] * q + labels[None, :]).ravel()
    return codes


def _labeling_energy(tensors: Sequence[np.ndarray], js: Sequence[np.ndarray], labels: np.ndarray) -> float:
    """sum over colors and atom tuples of T[a1..ar] * J[L(a1)..L(ar)]."""
    q = js[0].shape[0]
    codes = _tuple_codes(labels, tensors[0].ndim, q)
    return sum(float((t.ravel() * j.ravel()[codes]).sum()) for t, j in zip(tensors, js))


def energy(h: ColoredHypergraph, j: CouplingArray, p: TuplePartition) -> float:
    """Exact partition energy: normalized class-tuple edge counts against J."""
    if (j.r, j.k) != (h.r, h.k):
        raise ValueError("coupling shape does not match the graph")
    if (p.n, p.r_minus_1) != (h.n, h.r - 1):
        raise ValueError("partition does not match the graph's atoms")
    if p.q != j.q:
        raise ValueError(f"partition has {p.q} classes but J expects {j.q}")
    tensors = _graph_instance(h, range(1, h.k + 1))
    js = [j.arrays[a] for a in range(1, h.k + 1)]
    return _labeling_energy(tensors, js, np.asarray(p.classes))


# ----------------------------------------------------------------------
# maximization


def _batched_gather(j: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """gathered[n, a1..ar] = J[labels[n,a1], .., labels[n,ar]] via broadcasting."""
    n, m = labels.shape
    r = j.ndim
    idx = []
    for pos in range(r):
        shape = [n] + [1] * r
        shape[1 + pos] = m
        idx.append(labels.reshape(shape))
    return j[tuple(idx)]


def _all_labeling_energies(
    tensors: Sequence[np.ndarray], js: Sequence[np.ndarray], m: int, q: int
) -> tuple[float, np.ndarray]:
    """(max value, argmax labels) over all q^m labelings."""
    total = q**m
    best_val, best_labels = -np.inf, None
    radix = q ** np.arange(m)
    for start in range(0, total, _LABELING_CHUNK):
        codes = np.arange(start, min(start + _LABELING_CHUNK, total))
        labels = (codes[:, None] // radix) % q
        vals = np.zeros(len(codes))
        for t, j in zip(tensors, js):
            vals += _batched_gather(j, labels).reshape(len(codes), -1) @ t.ravel()
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_labels = float(vals[i]), labels[i].copy()
    return best_val, best_labels


def gse(
    h: ColoredHypergraph,
    j: CouplingArray,
    mode: str = "exact",
    seed: int = 0,
    restarts: int = 8,
) -> tuple[float, TuplePartition]:
    """Ground state energy: maximize the partition energy over q-class labelings."""
    if (j.r, j.k) != (h.r, h.k):
        raise ValueError("coupling shape does not match the graph")
    tensors = _graph_instance(h, range(1, h.k + 1))
    js = [j.arrays[a] for a in range(1, h.k + 1)]
    m = comb(h.n, h.r - 1)
    value, labels = _maximize(tensors, js, m, j.q, mode, seed, restarts)
    partition = TuplePartition(h.n, h.r - 1, tuple(int(c) for c in labels), j.q, allow_empty=True)
    return value, partition


def gse_graphon(
    w: StepGraphon | VertexGraphon,
    j: CouplingArray,
    mode: str = "exact",
    seed: int = 0,
    restarts: int = 8,
) -> float:
    """GSE over symmetric partitions built from grid-cell orbits.

    This searches grid-respecting partitions only, an inner approximation
    of the supremum over all measurable partitions.
    """
    w = _as_step(w)
    if (j.r, j.k) != (w.r, w.k):
        raise ValueError("coupling shape does not match the graphon")
    tensors = _graphon_instance(w, range(1, w.k + 1))
    js = [j.arrays[a] for a in range(1, w.k + 1)]
    m = tensors[0].shape[0]
    value, _ = _maximize(tensors, js, m, j.q, mode, seed, restarts)
    return value


def _maximize(
    tensors: Sequence[np.ndarray],
    js: Sequence[np.ndarray],
    m: int,
    q: int,
    mode: str,
    seed: int,
    restarts: int,
) -> tuple[float, np.ndarray]:
    if mode == "exact":
        check_power_budget("gse exact labeling enumeration", q, m)
        return _all_labeling_energies(tensors, js, m, q)
    if mode != "anneal":
        raise ValueError(f"unknown mode {mode!r}")
    _check_restarts(restarts)
    fields = _LocalFields(tensors, js, q)
    best_val, best_labels = -np.inf, None
    for restart in range(restarts):
        rng = generator(derive_seed(seed, restart))
        val, labels = _anneal_once(fields, rng)
        if val > best_val:
            best_val, best_labels = val, labels
    return best_val, best_labels


class _LocalFields:
    """Per-atom class fields of a labeling, kept current under single-atom moves.

    f[a, x] sums, over colors and positions p, the weight of every tuple
    with atom a at p when p takes class x and the other positions keep
    their current labels (a's own included). Moving a from o to c changes
    the energy by f[a, c] - f[a, o], plus a correction for tuples that hit a at a set U
    of two or more positions: there the fields count the change once per
    position of U, with o at the rest of U, where the true change puts c
    at all of U. Corrections with no free position are tabulated per
    atom (for r = 2 that is every correction, so a proposal is a table
    lookup); the others are gathered per proposal, and only for atoms
    that carry such tuples. An accepted move of b updates the fields by
    telescoping over the positions where b can sit. For r = 2 no position
    is free, so that update is one product of b's weight slice with a
    coupling difference tabulated per (new, old) class pair. The product
    depends on (b, new, old) alone, so for q <= ``_MEMO_MAX_Q`` it is kept
    on first use: a later move of b from old to new adds the kept array,
    the same operands' same bits. The memo outlives ``reset``, so restarts
    share it. It keeps an update only while the kept floats fit in the
    budget that the weight slices and the table leave; past that, updates
    are computed as they come. So the memo never refuses an instance.

    The labels and the fields are mirrored in Python lists (``label_list``
    beside the ``labels`` array; ``f_flat``, ``f`` in C order, with f[a, x]
    at a * q + x), built by ``reset`` and updated in place by every
    ``move``, so a proposal reads Python floats, not numpy scalars, and a
    caller may hold the lists across moves. The float operations are the
    same, and so are the results, bit for bit. ``_partial[a]`` says whether
    atom a carries partial terms (never at r = 2); ``delta`` of any other
    atom is the table lookup
    ``f_flat[a * q + cls] - f_flat[a * q + old] + _diag[a][cls][old]``.
    """

    def __init__(self, tensors: Sequence[np.ndarray], js: Sequence[np.ndarray], q: int) -> None:
        self.tensors, self.js, self.q = tensors, js, q
        r, m = tensors[0].ndim, tensors[0].shape[0]
        self.m = m
        # one term per (color, field position p, moved position s): the moved
        # atom's slice t_pairs[b] is (atom at p) x (term, free tuple), and
        # j_pairs[c] is (term, class at p, free class code)
        pairs = list(itertools.permutations(range(r), 2))
        terms = [(t, j, p, s) for t, j in zip(tensors, js) for p, s in pairs]
        n_terms, n_free = len(terms), max(r - 2, 0)
        # the weight slices, and the class-pair table when no position is free
        needed = n_terms * (m**r + (q**3 if n_free == 0 else 0))
        check_budget("annealer local fields", needed)
        t_pairs = np.empty((m, m, n_terms, m**n_free))
        self._j_pairs = np.empty((q, n_terms, q, q**n_free))
        self._use_new = np.empty((n_terms, n_free), dtype=bool)
        for i, (t, j, p, s) in enumerate(terms):
            free = [pos for pos in range(r) if pos not in (p, s)]
            t_pairs[:, :, i] = t.transpose((s, p, *free)).reshape(m, m, -1)
            self._j_pairs[:, i] = j.transpose((s, p, *free)).reshape(q, q, -1)
            # telescoping: free positions before s already carry the new label
            self._use_new[i] = [pos < s for pos in free]
        self._t_pairs = t_pairs.reshape(m, m, -1)
        self._free_atoms = np.indices((m,) * n_free).reshape(n_free, m**n_free)
        self._rows = np.arange(n_terms)[:, None]
        self._no_codes = np.zeros((n_terms, m**n_free), dtype=np.intp)
        # with no free position the update's coupling difference depends on
        # the class pair alone: table[new][old] is the r >= 3 gather at code 0
        self._table = None
        if n_free == 0:
            self._table = [
                [(self._j_pairs[new] - self._j_pairs[old]).reshape(-1, q) for old in range(q)]
                for new in range(q)
            ]
            # the field update of moving atom a from old to new, at (a * q + new) * q + old,
            # kept while its m * q floats fit in the budget the tables leave
            self._updates: dict[int, np.ndarray] = {}
            self._room = (current_budget() - needed) // (m * q) if q <= _MEMO_MAX_Q else 0
        # corrections for tuples hitting an atom exactly at positions U, |U| >= 2
        diag = np.zeros((m, q, q))
        self._partial_terms = []
        partial = np.zeros(m, dtype=bool)
        for size in range(2, r + 1):
            for u in itertools.combinations(range(r), size):
                free = [i for i in range(r) if i not in u]
                xs, kappas = [], []
                for t, j in zip(tensors, js):
                    x, kappa = _exact_hits(t.transpose((*u, *free)), j.transpose((*u, *free)), size)
                    xs.append(x)
                    kappas.append(kappa)
                x, kappa = np.stack(xs, axis=1), np.stack(kappas)
                if not free:
                    diag += np.einsum("ai,ico->aco", x[:, :, 0], kappa[..., 0])
                else:
                    partial |= x.reshape(m, -1).any(axis=1)
                    self._partial_terms.append((len(free), x.reshape(m, -1), kappa))
        self._diag = diag.tolist()
        self._partial = partial.tolist()

    def reset(self, labels: np.ndarray) -> None:
        """Adopt a labeling (kept by reference and updated by moves) and build its fields."""
        self.labels = labels
        self.label_list = labels.tolist()
        r, m, q = self.tensors[0].ndim, self.m, self.q
        codes = _tuple_codes(labels, r - 1, q)
        self.f = np.zeros((m, q))
        for t, j in zip(self.tensors, self.js):
            for p in range(r):
                order = (p, *(i for i in range(r) if i != p))
                gathered = j.transpose(order).reshape(q, -1)[:, codes]
                self.f += t.transpose(order).reshape(m, -1) @ gathered.T
        self.f_flat = self.f.ravel().tolist()

    def delta(self, atom: int, cls: int) -> float:
        """Energy change from relabeling one atom."""
        old = self.label_list[atom]
        if cls == old:
            return 0.0
        b = atom * self.q
        d = self.f_flat[b + cls] - self.f_flat[b + old] + self._diag[atom][cls][old]
        if self._partial[atom]:
            for width, x, kappa in self._partial_terms:
                codes = _tuple_codes(self.labels, width, self.q)
                d += x[atom] @ kappa[:, cls, old][:, codes].ravel()
        return float(d)

    def move(self, atom: int, cls: int) -> None:
        """Relabel one atom and update every field it enters."""
        labels, q = self.labels, self.q
        old = self.label_list[atom]
        if self._table is not None:
            key = (atom * q + cls) * q + old
            update = self._updates.get(key)
            if update is None:
                update = self._t_pairs[atom] @ self._table[cls][old]
                if len(self._updates) < self._room:
                    self._updates[key] = update
            self.f += update
        else:
            codes = self._no_codes
            for slot, idx in enumerate(self._free_atoms):
                was = labels[idx]
                now = np.where(idx == atom, cls, was)
                codes = codes * q + np.where(self._use_new[:, slot, None], now, was)
            jd = (self._j_pairs[cls] - self._j_pairs[old])[self._rows, :, codes].reshape(-1, q)
            self.f += self._t_pairs[atom] @ jd
        labels[atom] = cls
        self.label_list[atom] = cls
        self.f_flat[:] = self.f.ravel().tolist()


def _exact_hits(t: np.ndarray, j: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and correction couplings of the tuples hitting an atom exactly at U.

    t and j have the positions of U first. x[a, e] is t at (a,..,a, e) for
    free tuples e that avoid a; kappa[c, o, d] is the correction per unit
    weight when a moves from o to c and the free positions carry class
    code d: J[c@U] - sum_{p in U} J[c@p, o@U-p] + (|U|-1) J[o@U].
    """
    m, q = t.shape[0], j.shape[0]
    free = t.ndim - size
    atoms = np.arange(m)
    x = t[(atoms,) * size].reshape(m, -1)
    grid = np.indices((m,) * free).reshape(free, m**free)
    x[(grid[None, :, :] == atoms[:, None, None]).any(axis=1)] = 0.0
    jf = j.reshape((q,) * size + (-1,))
    c, o = np.arange(q)[:, None], np.arange(q)[None, :]
    kappa = jf[(c,) * size] + (size - 1) * jf[(o,) * size]
    for p in range(size):
        kappa = kappa - jf[tuple(c if i == p else o for i in range(size))]
    return x, kappa


def _temperatures(scale: float) -> list[float]:
    """One temperature per sweep: the warm-up scale (at least 1e-12), x0.95 while above 1e-4 of it."""
    temp = max(scale, 1e-12)
    floor = temp * 1e-4
    temps = []
    while temp > floor:
        temps.append(temp)
        temp *= 0.95
    return temps


def _anneal_once(fields: _LocalFields, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """One annealing run from a random labeling, then a greedy polish.

    The run takes its draws up front, in this order: the initial labels
    (``integers(0, q, m)``); the W = max(2m, 20) warm-up atoms and then
    their classes (``integers(0, m, W)``, ``integers(0, q, W)``); and,
    once the warm-up's largest |delta| has fixed the temperatures (one
    sweep of m proposals each, see ``_temperatures``), the N = sweeps * m
    sweep atoms, N classes and N uniforms (``integers(0, m, N)``,
    ``integers(0, q, N)``, ``random(N)``). A proposal that keeps its
    atom's class is skipped; any other is scored and taken when d >= 0, or
    when its uniform is below exp(d / temp). A sweep scores the proposal
    for an atom without partial terms inline, as ``delta``'s own table
    lookup on the fields' flat mirror, and calls ``delta`` only for atoms
    with partial terms. The warm-up and the polish score every proposal by
    ``delta``. The polish draws nothing.
    """
    m, q = fields.m, fields.q
    labels = rng.integers(0, q, size=m)
    fields.reset(labels)
    delta, move, label_list = fields.delta, fields.move, fields.label_list
    f_flat, diag, partial = fields.f_flat, fields._diag, fields._partial
    # warmup pass measures the move scale to set the starting temperature
    warm = max(2 * m, 20)
    warm_atoms, warm_classes = rng.integers(0, m, warm).tolist(), rng.integers(0, q, warm).tolist()
    temps = _temperatures(max(abs(delta(a, c)) for a, c in zip(warm_atoms, warm_classes)))
    n = len(temps) * m
    atoms, classes, uniforms = rng.integers(0, m, n), rng.integers(0, q, n), rng.random(n)
    props = zip(atoms.tolist(), classes.tolist(), uniforms.tolist())
    for temp in temps:
        for atom, cls, u in itertools.islice(props, m):
            old = label_list[atom]
            if cls != old:
                if partial[atom]:
                    d = delta(atom, cls)
                else:
                    b = atom * q
                    d = f_flat[b + cls] - f_flat[b + old] + diag[atom][cls][old]
                if d >= 0 or u < exp(d / temp):
                    move(atom, cls)
    # greedy polish: strictly improving single moves until stable
    improved = True
    while improved:
        improved = False
        for atom in range(m):
            for cls in range(q):
                if delta(atom, cls) > 1e-13:
                    move(atom, cls)
                    improved = True
    return _labeling_energy(fields.tensors, fields.js, labels), labels


# ----------------------------------------------------------------------
# sign-array reduction


def _power_set_card_lex(r: int) -> list[tuple[int, ...]]:
    return [()] + list(subsets_card_lex(tuple(range(r)), r))


def make_reduction_arrays(a: np.ndarray, values: Sequence[float]) -> CouplingArray:
    """Couplings J_A^alpha = y_alpha * (A tensor B0) for the cut-norm reduction.

    B0 has one axis per position, indexed by the power set of [r] in
    (cardinality, lex) order; an entry is 1 exactly when each position j
    belongs to the subset chosen on axis j.
    """
    a = np.asarray(a, dtype=float)
    r = a.ndim
    if not np.all(np.isin(a, (-1.0, 1.0))):
        raise ValueError("sign array entries must be -1 or 1")
    subsets = _power_set_card_lex(r)
    size = len(subsets)
    b0 = np.zeros((size,) * r)
    for idx in itertools.product(range(size), repeat=r):
        if all(j in subsets[idx[j]] for j in range(r)):
            b0[idx] = 1.0
    arrays = {}
    for alpha, y in enumerate(values, start=1):
        if abs(y) > 1 + 1e-12:
            raise ValueError("level values must lie in [-1, 1]")
        arrays[alpha] = y * np.kron(a, b0)
    return CouplingArray(len(list(values)), a.shape[0] * size, r, arrays)


def sup_cutnorm_via_energy(
    obj: np.ndarray | StepKernel,
    t: int,
    mode: str = "anneal",
    restarts: int = 8,
    seed: int = 0,
) -> float:
    """Max over sign arrays of the reduction energy: equals the cut-P supremum.

    The target is split into level sets (one 0/1 channel per distinct
    value); each sign array A yields couplings J_A whose GSE is computed
    over labelings of the atoms into 2^r * t classes.
    """
    kernel = isinstance(obj, StepKernel)
    arr = obj.array if kernel else np.asarray(obj, dtype=float)
    r, values = arr.ndim, np.unique(arr)
    levels = ((arr == y).astype(float) for y in values)
    tensors = [_problem(StepKernel(obj.partition, lv) if kernel else lv, None)[1] for lv in levels]
    if np.abs(values).max(initial=0.0) > 1 + 1e-12:
        raise ValueError("values outside [-1, 1]; rescale the kernel first")
    m = tensors[0].shape[0]
    n_signs = 2 ** (t**r)
    if mode == "exact":
        check_budget("sign-array sweep", n_signs * (t * 2**r) ** m)
    else:
        check_budget("sign-array sweep", n_signs)
    best = 0.0
    for bits in range(n_signs):
        signs = np.array(
            [1.0 if bits >> i & 1 else -1.0 for i in range(t**r)]
        ).reshape((t,) * r)
        coupling = make_reduction_arrays(signs, [float(y) for y in values])
        js = [coupling.arrays[a] for a in range(1, coupling.k + 1)]
        value, _ = _maximize(
            tensors, js, m, coupling.q, mode, derive_seed(seed, bits), restarts
        )
        best = max(best, value)
    return best


# ----------------------------------------------------------------------
# concentration


def concentration_experiment(
    h: ColoredHypergraph,
    j: CouplingArray,
    sample_size: int,
    trials: int,
    seed: int = 0,
    restarts: int = 4,
    epsilons: Sequence[float] = (0.25, 0.5, 1.0),
) -> dict[str, Any]:
    """Empirical spread of sampled-subgraph energies vs the Azuma-type bound.

    Report-only: heuristic optimization adds noise, so the bound is shown
    alongside the empirical tail frequencies, never asserted.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _, colors = sample_subgraphs(h, sample_size, [derive_seed(seed, i, 0) for i in range(trials)])
    values = []
    for i, row in enumerate(colors.tolist()):
        sub = ColoredHypergraph(sample_size, h.r, h.k, row)
        val, _ = gse(sub, j, mode="anneal", seed=derive_seed(seed, i, 1), restarts=restarts)
        values.append(val)
    arr = np.array(values)
    mean = float(arr.mean())
    sup = j.sup_norm
    q25, q75 = np.percentile(arr, [25, 75])
    tails = []
    for eps in epsilons:
        empirical = float(np.mean(np.abs(arr - mean) >= eps * sup)) if sup > 0 else 0.0
        azuma = 2.0 * exp(-(eps**2) * sample_size / (8 * h.r**2))
        tails.append({"epsilon": eps, "empirical": empirical, "bound": azuma})
    return {
        "sample_size": sample_size,
        "trials": trials,
        "values": values,
        "mean": mean,
        "iqr": float(q75 - q25),
        "tails": tails,
    }
