"""Command line front end: JSON in, JSON out, deterministic by seed.

Each subcommand reads graphs, graphons, arrays, or couplings from JSON
files, runs one library operation, and emits a single JSON artifact to
stdout, or to ``--out`` with anything time-dependent segregated into a
sibling ``<out>.meta.json``. The artifact is a pure function of argv,
so reruns are byte-identical; CSV appears only for traces. The artifact's
text is exactly what ``json.dumps(artifact, indent=2, sort_keys=True,
allow_nan=False)`` writes, produced by a faster writer of its own. JSON is
standard both ways: an input file holding NaN or Infinity is refused, and
no artifact can carry one. Exit codes: 0 success, 2 budget refusal, 1
anything else, including an artifact that cannot be written.

The enumeration budget is ``--budget`` when given, else the
HYPERTEST_BUDGET environment variable when set, else 10**6; ``run``
resolves it once and scopes it over the whole call with
``budget.limit``, so every enumeration the subcommand reaches sees the
same number and the environment is read once per call.
Commands whose selected mode draws randomness require ``--seed``.

``run`` parses with one parser per process, built by :func:`build_parser`
on first use and reused by every later call; ``build_parser`` itself
still returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .budget import BudgetError, current_budget, limit
from .cutnorm import (
    TuplePartition,
    _check_restarts,
    cutnorm_exact,
    cutnorm_heuristic,
    cutnorm_p,
)
from .density import (
    density_graph,
    density_graphon,
    density_mc,
    sample_laws,
    tv_distance,
)
from .energy import CouplingArray, gse, gse_graphon
from .graphon import (
    embed,
    sample_graphon,
    step_graphon_from_json,
    step_graphon_to_json,
)
from .hypercore import (
    ColoredHypergraph,
    SampledColoredGraph,
    _json_int,
    hypergraph_from_json,
    sample_subgraph,
)
from .regularity import RegularityError, trace_csv, weak_regularize
from .testers import (
    PARAMETERS,
    PROPERTIES,
    probe_sample_complexity,
    property_acceptance_rate,
    property_tester,
)
from .transfer import lift_coloring, nd_estimate_pipeline

__all__ = ["CliError", "build_parser", "main", "run"]

class CliError(Exception):
    """A user-facing input problem; reported on stderr with exit code 1."""


# ----------------------------------------------------------------------
# JSON plumbing


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"it holds {name}, which standard JSON does not allow")


# Python's json reads NaN, Infinity and -Infinity by default; the CLI reads standard JSON
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from err
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as err:
        raise CliError(
            f"malformed JSON in {path} at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except ValueError as err:
        raise CliError(f"{path} is not standard JSON: {err}") from err


# each file kind the CLI reads: the keys that identify it, and its parser
_KINDS: dict[str, tuple[frozenset[str], Callable[[dict[str, Any]], Any]]] = {
    "hypergraph": (frozenset({"n", "colors"}), hypergraph_from_json),
    "sample": (frozenset({"q", "colors"}), lambda d: SampledColoredGraph(
        *(_json_int(d[key], key) for key in ("q", "r", "k")),
        tuple(_json_int(c, "colors") for c in d["colors"]))),
    "step-graphon": (frozenset({"arrays", "labels"}), step_graphon_from_json),
    "array": (frozenset({"array"}), lambda d: np.array(d["array"], dtype=float)),
    "partition": (frozenset({"n", "r_minus_1", "classes", "q"}), lambda d: TuplePartition(
        _json_int(d["n"], "n"), _json_int(d["r_minus_1"], "r_minus_1"),
        tuple(_json_int(c, "classes") for c in d["classes"]), _json_int(d["q"], "q"),
        allow_empty=True)),
    "coupling": (frozenset({"q", "arrays"}), CouplingArray.from_json),
}

# a graph or graphon source; a step graphon is recognized first
_SOURCE = ("step-graphon", "hypergraph")


def _load(path: str, *kinds: str) -> Any:
    """Parse ``path`` as the first of ``kinds`` whose identifying keys it has."""
    d = _load_json(path)
    for kind in kinds:
        keys, parse = _KINDS[kind]
        if isinstance(d, dict) and keys <= d.keys():
            try:
                return parse(d)
            except (KeyError, TypeError, ValueError) as err:
                raise CliError(f"{path} is a malformed {kind} file: {err}") from err
    names = " or ".join(kinds)
    raise CliError(f"{path} is not {'an' if names[0] in 'aeiou' else 'a'} {names} file")


def _load_array(path: str, color: int) -> np.ndarray:
    """An array file, else that hypergraph's channel ``color``."""
    x = _load(path, "array", "hypergraph")
    return x if isinstance(x, np.ndarray) else x.adjacency_array(color)


def _split_timings(payload: Any) -> tuple[Any, dict[str, Any]]:
    """Plain JSON of a payload, with every "seconds" field moved out.

    Wall-clock times are metadata, not results. numpy scalars and arrays
    become Python values and lists, tuples become lists, keys strings.
    An array's ``tolist()`` holds no dicts or numpy scalars, so it is not
    walked, and a list item of a plain scalar type is kept as it is.
    """
    timings: dict[str, Any] = {}
    leaves = {float, int, str, bool, type(None)}

    def plain(node: Any, path: str) -> Any:
        if isinstance(node, dict):
            out = {}
            for key, v in node.items():
                key = str(key)
                if key == "seconds":
                    timings[path or "total"] = plain(v, path)
                else:
                    out[key] = plain(v, f"{path}.{key}" if path else key)
            return out
        if isinstance(node, np.ndarray):
            return node.tolist()
        if isinstance(node, (list, tuple)):
            return [v if type(v) in leaves else plain(v, f"{path}[{i}]")
                    for i, v in enumerate(node)]
        return node.item() if isinstance(node, np.generic) else node

    return plain(payload, ""), timings


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("Out of range float values are not JSON compliant: " + repr(v))
    return float.__repr__(v)


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, byte for byte.

    With ``indent`` set the stdlib runs its pure-Python encoder, which
    calls ``float.__repr__`` once per float; an artifact of step
    functions repeats a few values thousands of times. So each float's
    text is kept per call, keyed by the float's 64 bits, which keeps 0.0
    and -0.0 apart (equal floats, different text); a non-finite value
    is never kept, it raises the stdlib's ``ValueError``. A list of only
    floats or only ints is joined in one pass. Types are checked in the
    stdlib's order; anything else, a dict with a non-str key included,
    is handed to ``json.dumps`` itself and re-indented, so it also
    raises the stdlib's ``TypeError``.
    """
    memo: dict[int, str] = {}

    def floats(items: Sequence[float]) -> list[str]:
        keys = array("Q", array("d", items).tobytes()).tolist()
        texts = list(map(memo.get, keys))
        if None in texts:
            for key, v in dict(zip(keys, items)).items():
                if key not in memo:
                    memo[key] = _float_text(v)
            texts = list(map(memo.get, keys))
        return texts

    def text(node: Any, pad: str) -> str:
        if isinstance(node, str):
            return _encode_str(node)
        if node is None:
            return "null"
        if node is True:
            return "true"
        if node is False:
            return "false"
        if isinstance(node, int):
            return int.__repr__(node)
        if isinstance(node, float):
            return _float_text(node)
        inner = pad + "  "
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            kinds = set(map(type, node))
            if kinds == {float}:
                items: Any = floats(node)
            elif kinds == {int}:
                items = map(int.__repr__, node)
            else:
                items = [text(v, inner) for v in node]
            return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
        if isinstance(node, dict) and all(type(key) is str for key in node):
            if not node:
                return "{}"
            items = [_encode_str(key) + ": " + text(node[key], inner) for key in sorted(node)]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        dumped = json.dumps(node, indent=2, sort_keys=True, allow_nan=False)
        return dumped.replace("\n", "\n" + pad)

    return text(obj, "")


def _emit(args: argparse.Namespace, payload: dict[str, Any]) -> None:
    """Write the artifact and its meta file as standard JSON: NaN and
    Infinity are refused, never written.

    The artifact's text is what ``json.dumps(..., indent=2,
    sort_keys=True, allow_nan=False)`` writes (:func:`_json_text`), on
    stdout and under ``--out`` alike; a refused artifact writes no file.
    """
    cleaned, timings = _split_timings(payload)
    text = _json_text(cleaned)
    out = getattr(args, "out", None)
    if out is None:
        print(text)
        return
    path = Path(out)
    path.write_text(text + "\n")
    meta = {
        "argv": list(args.raw_argv),
        "created_unix": time.time(),
        "output": str(path),
        "timings_seconds": timings,
    }
    meta_text = json.dumps(meta, indent=2, allow_nan=False)
    Path(str(path) + ".meta.json").write_text(meta_text + "\n")


# ----------------------------------------------------------------------
# option plumbing


def _resolved_seed(args: argparse.Namespace, stochastic: bool) -> int:
    if args.seed is None:
        if stochastic:
            raise CliError(f"--seed is required for mode {args.mode!r}")
        return 0
    return args.seed


def _registry_get(table: dict[str, Any], name: str, kind: str) -> Any:
    if name not in table:
        raise CliError(f"unknown {kind} {name!r}; registered: {', '.join(sorted(table))}")
    return table[name]


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_density(args: argparse.Namespace) -> dict[str, Any]:
    pattern = _load(args.pattern, "sample", "hypergraph")
    source = _load(args.infile, *_SOURCE)
    q = pattern.q if isinstance(pattern, SampledColoredGraph) else pattern.n
    out: dict[str, Any] = {"mode": args.mode, "q": q}
    if args.mode == "exact":
        if isinstance(source, ColoredHypergraph):
            out["value"] = density_graph(pattern, source)
        else:
            out["value"] = density_graphon(pattern, source)
        return out
    seed = _resolved_seed(args, True)
    value, stderr = density_mc(pattern, source, trials=args.trials, seed=seed)
    out.update({"value": value, "stderr": stderr, "trials": args.trials, "seed": seed})
    return out


def _cmd_tvdist(args: argparse.Namespace) -> dict[str, Any]:
    da, db = sample_laws(_load(args.a, *_SOURCE), _load(args.b, *_SOURCE), args.q)
    return {"mode": "exact", "q": args.q, "value": tv_distance(da, db)}


def _cmd_cutnorm(args: argparse.Namespace) -> dict[str, Any]:
    arr = _load_array(args.infile, args.color)
    if args.mode == "exact":
        value, witness = cutnorm_exact(arr)
    else:
        seed = _resolved_seed(args, True)
        value, witness = cutnorm_heuristic(arr, restarts=args.restarts, seed=seed)
    return {"mode": args.mode, "value": value, "witness": witness.to_json()}


def _cmd_cutnorm_p(args: argparse.Namespace) -> dict[str, Any]:
    arr = _load_array(args.infile, args.color)
    part = _load(args.partition, "partition")
    seed = _resolved_seed(args, args.mode != "exact")
    value, witness = cutnorm_p(arr, part, mode=args.mode, restarts=args.restarts, seed=seed)
    return {"mode": args.mode, "classes": part.q, "value": value, "witness": witness.to_json()}


def _cmd_gse(args: argparse.Namespace) -> dict[str, Any]:
    source = _load(args.infile, *_SOURCE)
    coupling = _load(args.coupling, "coupling")
    seed = _resolved_seed(args, args.mode != "exact")
    module_mode = "exact" if args.mode == "exact" else "anneal"
    out: dict[str, Any] = {"mode": args.mode, "classes": coupling.q}
    if isinstance(source, ColoredHypergraph):
        value, part = gse(
            source, coupling, mode=module_mode, seed=seed, restarts=args.restarts
        )
        out.update({"value": value, "labels": list(part.classes)})
    else:
        out["value"] = gse_graphon(
            source, coupling, mode=module_mode, seed=seed, restarts=args.restarts
        )
    return out


def _cmd_regularize(args: argparse.Namespace) -> dict[str, Any]:
    source = _load(args.infile, *_SOURCE)
    w = embed(source) if isinstance(source, ColoredHypergraph) else source
    seed = _resolved_seed(args, args.mode != "exact")
    v, p, trace = weak_regularize(
        w, args.eps, t=args.t, max_rounds=args.max_rounds, mode=args.mode,
        restarts=args.restarts, seed=seed,
    )
    if args.trace:
        Path(args.trace).write_text(trace_csv(trace))
    return {
        "mode": args.mode,
        "eps": args.eps,
        "classes": p.t,
        "rounds": trace[-1]["round"],
        "residual": trace[-1]["residual"],
        "graphon": step_graphon_to_json(v),
    }


def _cmd_sample(args: argparse.Namespace) -> dict[str, Any]:
    source = _load(args.infile, *_SOURCE)
    if isinstance(source, ColoredHypergraph):
        s = sample_subgraph(source, args.q, args.seed)
    else:
        s = sample_graphon(source, args.q, args.seed)
    return {
        "mode": "mc",
        "seed": args.seed,
        "q": s.q,
        "r": s.r,
        "k": s.k,
        "colors": s.colors,
        "vertices": s.vertices,
        "coords": s.coords,
    }


def _cmd_transfer(args: argparse.Namespace) -> dict[str, Any]:
    source = _load(args.source, *_SOURCE)
    u = embed(source) if isinstance(source, ColoredHypergraph) else source
    v_hat = _load(args.witness, "step-graphon")
    u_hat, diag = lift_coloring(
        u, args.q, v_hat, args.delta, args.q0, args.seed,
        reg_floor=args.reg_floor, max_rounds=args.max_rounds,
        restarts=args.restarts, mode=args.mode,
    )
    return {"mode": args.mode, "diagnostics": diag, "graphon": step_graphon_to_json(u_hat)}


def _cmd_nd_estimate(args: argparse.Namespace) -> dict[str, Any]:
    g = _load(args.infile, "hypergraph")
    witness = _registry_get(PARAMETERS, args.witness, "parameter")
    if witness.r != g.r or witness.k != g.k * args.k:
        raise CliError(
            f"witness {args.witness!r} expects palette ({witness.r}, {witness.k}); "
            f"graph with arity {args.k} refines to ({g.r}, {g.k * args.k})"
        )
    report = nd_estimate_pipeline(
        g, witness, args.q, args.q0, args.seed,
        k=args.k, delta=args.delta, mode=args.mode, restarts=args.restarts,
    )
    return {"mode": args.mode, "witness": args.witness, **report}


def _cmd_probe(args: argparse.Namespace) -> dict[str, Any]:
    g = _load(args.infile, "hypergraph")
    f = _registry_get(PARAMETERS, args.parameter, "parameter")
    try:
        grid = [int(x) for x in args.q_grid.split(",") if x.strip()]
    except ValueError as err:
        raise CliError(f"--q-grid wants comma-separated integers: {err}") from err
    if not grid:
        raise CliError("--q-grid is empty")
    report = probe_sample_complexity(
        f, g, args.eps, grid, trials=args.trials, seed=args.seed,
    )
    return {"mode": "mc", "seed": args.seed, **report}


def _cmd_prop_test(args: argparse.Namespace) -> dict[str, Any]:
    g = _load(args.infile, "hypergraph")
    prop = _registry_get(PROPERTIES, args.property, "property")
    if args.trials < 0:
        raise CliError(f"--trials must be non-negative, got {args.trials}")
    # checked up front, before a rate run samples anything
    if args.mode != "exact":
        _check_restarts(args.restarts)
    if args.trials > 0:
        if args.q is None:
            raise CliError("--q is required when --trials is positive")
        report = property_acceptance_rate(
            prop, g, args.q, args.eps, trials=args.trials, seed=args.seed,
            mode=args.mode, restarts=args.restarts,
        )
        return {"mode": "mc", "property": args.property, "seed": args.seed, **report}
    accept, trace = property_tester(
        prop, g, args.eps, seed=args.seed, mode=args.mode, restarts=args.restarts
    )
    return {
        "mode": args.mode,
        "property": args.property,
        "epsilon": args.eps,
        "seed": args.seed,
        **trace,
    }


def _cmd_oracle_suite(args: argparse.Namespace) -> int:
    # the desk level is the full acceptance suite; the tests ship with the
    # source checkout rather than the wheel
    suite = Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py"
    if not suite.exists():
        raise CliError(f"acceptance suite not found at {suite} (run from a source checkout)")
    cmd = [sys.executable, "-m", "pytest", str(suite), "-v"]
    return subprocess.run(cmd, check=False).returncode


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for every subcommand; changing it changes no other parser."""
    parser = argparse.ArgumentParser(
        prog="hypertest",
        description="colored hypergraphs, step graphons, cut norms, and sampling testers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget", type=int, default=None,
        help="enumeration cap (default: HYPERTEST_BUDGET when set, else 10**6)",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the JSON artifact here instead of stdout")

    sp = sub.add_parser("density", parents=[budget, out],
                        help="induced pattern density in a graph or graphon")
    sp.add_argument("--pattern", required=True, help="pattern graph or sample JSON")
    sp.add_argument("--in", dest="infile", required=True, help="target graph or graphon JSON")
    sp.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(handler=_cmd_density)

    sp = sub.add_parser("tvdist", parents=[budget, out],
                        help="variation distance between q-sample laws")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(handler=_cmd_tvdist)

    sp = sub.add_parser("cutnorm", parents=[budget, out],
                        help="cut norm of an array or a graph channel")
    sp.add_argument("--in", dest="infile", required=True, help="array or graph JSON")
    sp.add_argument("--color", type=int, default=1, help="channel for graph inputs")
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(handler=_cmd_cutnorm)

    sp = sub.add_parser("cutnorm-p", parents=[budget, out],
                        help="cut norm restricted to a tuple partition")
    sp.add_argument("--in", dest="infile", required=True, help="array or graph JSON")
    sp.add_argument("--partition", required=True, help="tuple-partition JSON")
    sp.add_argument("--color", type=int, default=1, help="channel for graph inputs")
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(handler=_cmd_cutnorm_p)

    sp = sub.add_parser("gse", parents=[budget, out],
                        help="ground state energy for a coupling array")
    sp.add_argument("--in", dest="infile", required=True, help="graph or graphon JSON")
    sp.add_argument("--coupling", required=True, help="coupling-array JSON")
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact",
                    help="heuristic = restarted annealing")
    sp.add_argument("--restarts", type=int, default=8)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(handler=_cmd_gse)

    sp = sub.add_parser("regularize", parents=[budget, out], help="weak regularity decomposition")
    sp.add_argument("--in", dest="infile", required=True, help="graph or graphon JSON")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--t", type=int, default=None, help="class multiplier")
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trace", help="write the round trace to this CSV file")
    sp.set_defaults(handler=_cmd_regularize)

    sp = sub.add_parser("sample", parents=[out], help="draw a q-vertex sample")
    sp.add_argument("--in", dest="infile", required=True, help="graph or graphon JSON")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(handler=_cmd_sample)

    sp = sub.add_parser("transfer", parents=[budget, out],
                        help="lift a sample coloring onto its source graphon")
    sp.add_argument("--source", required=True, help="graph or graphon JSON")
    sp.add_argument("--witness", required=True, help="colored-sample step graphon JSON")
    sp.add_argument("--q", type=int, required=True, help="sample size the witness colors")
    sp.add_argument("--q0", type=int, required=True, help="proximity sample size")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--reg-floor", type=float, default=0.02)
    sp.add_argument("--max-rounds", type=int, default=4)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=4)
    sp.set_defaults(handler=_cmd_transfer)

    sp = sub.add_parser("nd-estimate", parents=[budget, out],
                        help="sample-and-lift estimate of a best-coloring parameter")
    sp.add_argument("--in", dest="infile", required=True, help="graph JSON")
    sp.add_argument("--witness", required=True, help="registered parameter name")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--q0", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--k", type=int, default=2, help="refinement arity")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=8)
    sp.set_defaults(handler=_cmd_nd_estimate)

    sp = sub.add_parser("probe", parents=[out], help="empirical sample-size probe for a parameter")
    sp.add_argument("--in", dest="infile", required=True, help="graph JSON")
    sp.add_argument("--parameter", required=True, help="registered parameter name")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--q-grid", required=True, help="comma-separated sample sizes")
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(handler=_cmd_probe)

    sp = sub.add_parser("prop-test", parents=[budget, out],
                        help="run the constructed property tester")
    sp.add_argument("--in", dest="infile", required=True, help="graph JSON")
    sp.add_argument("--property", required=True, help="registered property name")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", type=int, default=None, help="sample size for rate experiments")
    sp.add_argument("--trials", type=int, default=0,
                    help="when positive, measure the acceptance rate over q-samples")
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=8)
    sp.set_defaults(handler=_cmd_prop_test)

    sp = sub.add_parser("oracle-suite",
                        help="run the acceptance suite and pass its exit code through")
    sp.add_argument("--level", choices=["desk"], default="desk")
    sp.set_defaults(handler=_cmd_oracle_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``); returns the exit code.

    The parser is built once per process and reused: parsing returns a
    new namespace each call, no option keeps state between calls, and
    each handler looks up its own module globals when it runs. A handler
    replaced as ``cli._cmd_*`` after the first call is not picked up,
    since the parser holds the function it was built with.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    args.raw_argv = argv
    try:
        budget = getattr(args, "budget", None)
        with limit(current_budget() if budget is None else budget):
            result = args.handler(args)
        if isinstance(result, int):
            return result
        _emit(args, {"command": args.subcommand, **result})
    except BudgetError as err:
        print(f"budget refusal: {err}", file=sys.stderr)
        return 2
    except RegularityError as err:
        print(f"error: regularity target not met: {err}", file=sys.stderr)
        return 1
    except (CliError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
