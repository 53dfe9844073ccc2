"""Per-layer tracing from outside the package.

Every public module-level function of the traced layers is replaced by a
timing wrapper in every ``hypertest`` module namespace that binds it, so
calls made through ``from .graphon import sample_graphon`` inside the
package are seen as well as calls made by the benchmark. Spans (name,
start, end, parent span, op id) are kept in memory, packed into arrays
after each op, and written when the run ends. Nothing in the package
changes; uninstalling restores the original bindings.

Generator functions (``colex_subsets``, ``enumerate_colorings``) are timed
only while the generator is created; iterating them is charged to the
caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAYERS = (
    "hypercore", "budget", "seeds", "graphon", "density", "cutnorm",
    "energy", "regularity", "transfer", "testers", "cli",
)

LIFT_STAGES = (
    "sample", "regularize_source", "induce_sample_partition",
    "regularize_sample_coloring", "transfer_to_sample",
    "refine_source_partition", "color_source_steps", "transfer_to_source",
)

# functions whose inclusive time is reported (layer.function.s)
INCLUSIVE = (
    "graphon.sample_graphon", "graphon.step_average", "graphon.class_tuple_weights",
    "cutnorm.cut_distance", "energy.gse", "regularity.weak_regularize",
    "transfer.max_over_refinements", "transfer.transfer_coloring",
    "hypercore.sample_subgraph", "density.sample_distribution",
    "testers.property_tester",
)

_COLUMNS = (("id", "q"), ("name", "H"), ("start", "d"), ("end", "d"),
            ("parent", "q"), ("op", "i"), ("cross_thread", "b"))
_LEAF_COLUMNS = (("parent", "q"), ("name", "H"), ("op", "i"), ("count", "q"), ("seconds", "d"))


class Tracer:
    """Span recorder; inert (one flag test per call) until ``active``.

    A call that makes no traced call itself (a leaf) and runs in the
    thread of its parent is kept as one aggregate row per parent span and
    function (count, total seconds) instead of one span per call:
    enumerating the refinements of an n=6 graph calls ``composite_color``
    10**6 times, and the per-layer metrics need only count and time.
    """

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.spans = {col: array(code) for col, code in _COLUMNS}
        self.leaves = {col: array(code) for col, code in _LEAF_COLUMNS}
        self.counters: dict[str, float] = defaultdict(float)
        self._pending: list[tuple] = []
        self._pending_leaves: dict[tuple[int, int], list] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = ([], [])
        self._bindings: list[tuple[Any, str, Callable, Callable]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; they are built on the first call only."""
        if not self._bindings:
            mods = {layer: importlib.import_module(f"hypertest.{layer}") for layer in LAYERS}
            namespaces = [m for name, m in list(sys.modules.items())
                          if name == "hypertest" or name.startswith("hypertest.")]
            for layer, mod in mods.items():
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    for ns in namespaces:
                        for bound, obj in list(vars(ns).items()):
                            if obj is fn:
                                self._bindings.append((ns, bound, fn, wrapper))
        for ns, bound, _, wrapper in self._bindings:
            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        for ns, bound, fn, _ in self._bindings:
            setattr(ns, bound, fn)

    def _state(self) -> tuple[list[int], list[bool]]:
        """This thread's open spans and, per open span, whether it has a child."""
        state = getattr(self._local, "state", None)
        if state is None:
            main = threading.current_thread() is threading.main_thread()
            state = self._local.state = self._main if main else ([], [])
        return state

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)
        name_idx = len(self.names)
        self.names.append(name)
        tracer = self
        pending = self._pending
        leaves = self._pending_leaves

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, has_child = tracer._state()
            cross = False
            if stack:
                parent = stack[-1]
                has_child[-1] = True
            elif stack is tracer._main[0]:
                parent = -1
            else:
                # a worker thread: its cause is the span the main thread is
                # blocked in (the testers' trial pool)
                main_stack, main_child = tracer._main
                parent = main_stack[-1] if main_stack else -1
                cross = True
                if main_child:
                    main_child[-1] = True
            sid = next(tracer._ids)
            stack.append(sid)
            has_child.append(False)
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if has_child.pop() or cross:
                    pending.append((sid, name_idx, t0, t1, parent, cross))
                else:
                    agg = leaves.get((parent, name_idx))
                    if agg is None:
                        leaves[(parent, name_idx)] = [1, t1 - t0]
                    else:
                        agg[0] += 1
                        agg[1] += t1 - t0
                if hook is not None:
                    with tracer._lock:  # hooks also run in the trial pool's threads
                        hook(tracer.counters, args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def end_op(self) -> None:
        """Pack the spans of the op just finished into the column arrays."""
        c = self.spans
        for sid, name_idx, t0, t1, parent, cross in self._pending:
            c["id"].append(sid)
            c["name"].append(name_idx)
            c["start"].append(t0)
            c["end"].append(t1)
            c["parent"].append(parent)
            c["op"].append(self.op_id)
            c["cross_thread"].append(cross)
        lc = self.leaves
        for (parent, name_idx), (count, seconds) in self._pending_leaves.items():
            lc["parent"].append(parent)
            lc["name"].append(name_idx)
            lc["op"].append(self.op_id)
            lc["count"].append(count)
            lc["seconds"].append(seconds)
        self._pending.clear()
        self._pending_leaves.clear()

    def span_count(self) -> tuple[int, int]:
        """(spans kept, leaf calls folded into aggregate rows)."""
        return len(self.spans["id"]), int(sum(self.leaves["count"]))

    # -- output -------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans, then leaf aggregates (``count`` calls, ``seconds`` in total)."""
        s, lv, names = self.spans, self.leaves, self.names
        with gzip.open(path, "wt") as fh:
            fh.write("kind,id,name,start,end,parent,op,count,seconds\n")
            for i in range(len(s["id"])):
                fh.write(f"span,{s['id'][i]},{names[s['name'][i]]},{s['start'][i]:.9f},"
                         f"{s['end'][i]:.9f},{s['parent'][i]},{s['op'][i]},1,"
                         f"{s['end'][i] - s['start'][i]:.9f}\n")
            for i in range(len(lv["parent"])):
                fh.write(f"leaf,,{names[lv['name'][i]]},,,{lv['parent'][i]},{lv['op'][i]},"
                         f"{lv['count'][i]},{lv['seconds'][i]:.9f}\n")


def _budget_hook(counters, args, kwargs, result, error) -> None:
    needed = args[1] if len(args) > 1 else kwargs.get("needed", 0)
    counters["budget.needed_items"] += float(needed)
    if error is not None and type(error).__name__ == "BudgetError":
        counters["budget.refusals"] += 1


def _regularity_hook(counters, args, kwargs, result, error) -> None:
    if result is not None:
        counters["regularity.rounds"] += len(result[2])


def _lift_hook(counters, args, kwargs, result, error) -> None:
    if result is not None:
        for stage in result[1]["stages"]:
            counters[f"transfer.stage.{stage['stage']}.s"] += stage["seconds"]


def _cli_hook(counters, args, kwargs, result, error) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if result == 0 and "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        counters["cli.bytes_out"] += out.stat().st_size


_HOOKS = {
    "budget.check_budget": _budget_hook,
    "cli.run": _cli_hook,
    "regularity.weak_regularize": _regularity_hook,
    "transfer.lift_coloring": _lift_hook,
}


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of intervals (children may run in parallel)."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(zip(starts.tolist(), ends.tolist())):
        if a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op means of every per-layer metric from one traced pass.

    ``.s`` is inclusive time, not counting a call made directly from a
    span of the same name; ``self_s`` is each span's duration minus the
    part of it that its child spans cover, summed over the layer.
    """
    names = tracer.names
    n_names = max(len(names), 1)
    layer_of = np.array([LAYERS.index(x.split(".", 1)[0]) for x in names] or [0])
    s = {col: np.frombuffer(a, dtype=a.typecode) for col, a in tracer.spans.items()}
    lv = {col: np.frombuffer(a, dtype=a.typecode) for col, a in tracer.leaves.items()}
    dur = s["end"] - s["start"]
    order = np.argsort(s["id"])
    sorted_ids = s["id"][order]

    def row_of(ids: np.ndarray) -> np.ndarray:
        """Row of each parent id among the kept spans; -1 for no parent.

        A span with a child is always kept, so every parent id is found.
        """
        pos = np.searchsorted(sorted_ids, ids)
        return np.where(ids >= 0, order[np.minimum(pos, len(order) - 1)] if len(order) else -1, -1)

    span_parent = row_of(s["parent"])
    leaf_parent = row_of(lv["parent"])
    n = len(dur)
    covered = np.bincount(span_parent[span_parent >= 0], weights=dur[span_parent >= 0],
                          minlength=n)
    covered += np.bincount(leaf_parent[leaf_parent >= 0],
                           weights=lv["seconds"][leaf_parent >= 0], minlength=n)
    # children from worker threads overlap: cover with the union of their
    # intervals (their own leaves ran inside them, so they add nothing)
    for p in np.unique(span_parent[(s["cross_thread"] == 1) & (span_parent >= 0)]):
        kids = (span_parent == p) & (s["cross_thread"] == 1)
        same = (span_parent == p) & (s["cross_thread"] == 0)
        covered[p] = _union_length(s["start"][kids], s["end"][kids]) + dur[same].sum() + \
            lv["seconds"][leaf_parent == p].sum()
    self_t = dur - covered
    span_layer = layer_of[s["name"]]
    leaf_layer = layer_of[lv["name"]]
    calls = (np.bincount(span_layer, minlength=len(LAYERS))
             + np.bincount(leaf_layer, weights=lv["count"], minlength=len(LAYERS)))
    self_s = (np.bincount(span_layer, weights=self_t, minlength=len(LAYERS))
              + np.bincount(leaf_layer, weights=lv["seconds"], minlength=len(LAYERS)))
    span_outer = (span_parent < 0) | (s["name"][np.maximum(span_parent, 0)] != s["name"])
    leaf_outer = (leaf_parent < 0) | (s["name"][np.maximum(leaf_parent, 0)] != lv["name"]) \
        if n else np.ones(len(leaf_parent), dtype=bool)
    incl = (np.bincount(s["name"][span_outer], weights=dur[span_outer], minlength=n_names)
            + np.bincount(lv["name"][leaf_outer], weights=lv["seconds"][leaf_outer],
                          minlength=n_names))
    fn_calls = (np.bincount(s["name"], minlength=n_names)
                + np.bincount(lv["name"], weights=lv["count"], minlength=n_names))

    def by_name(table, name):
        return float(table[names.index(name)]) if name in names else 0.0

    out: dict[str, float] = {}
    for li, lname in enumerate(LAYERS):
        out[f"{lname}.calls"] = float(calls[li]) / ops
        if lname not in ("budget", "seeds"):
            out[f"{lname}.self_s"] = float(self_s[li]) / ops
    for name in INCLUSIVE:
        out[f"{name}.s"] = by_name(incl, name) / ops
    counters = tracer.counters
    out["regularity.rounds"] = counters.get("regularity.rounds", 0.0) / ops
    for stage in LIFT_STAGES:
        key = f"transfer.stage.{stage}.s"
        out[key] = counters.get(key, 0.0) / ops
    checks = by_name(fn_calls, "budget.check_budget")
    refusals = counters.get("budget.refusals", 0.0)
    out["budget.needed_items"] = counters.get("budget.needed_items", 0.0) / ops
    out["budget.refusals"] = refusals / ops
    out["budget.refusal_ratio"] = refusals / checks if checks else 0.0
    out["seeds.generator.calls"] = by_name(fn_calls, "seeds.generator") / ops
    out["cli.bytes_out"] = counters.get("cli.bytes_out", 0.0) / ops
    return out


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in its order."""
    return list(layer_metrics(Tracer(), 1)) + ["trace.overhead_s"]


def unit_of(name: str) -> str:
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    if name.endswith("refusal_ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"
