"""Command line front end: JSON in, JSON out, deterministic by seed.

Each subcommand reads graphs, graphons, arrays, or couplings from JSON
files, runs one library operation, and emits a single JSON artifact to
stdout, or to ``--out`` with anything time-dependent segregated into a
sibling ``<out>.meta.json``. The artifact is a pure function of argv,
so reruns are byte-identical; CSV appears only for traces. Exit codes:
0 success, 2 budget refusal, 1 anything else.

The enumeration budget is ``--budget`` when given, else the
HYPERTEST_BUDGET environment variable when set, else 10**6; ``run``
scopes it over the whole call with ``budget.limit``, so every
enumeration the subcommand reaches sees the same number.
Commands whose selected mode draws randomness require ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .budget import BudgetError, limit
from .cutnorm import (
    TuplePartition,
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
    StepGraphon,
    embed,
    sample_graphon,
    step_graphon_from_json,
    step_graphon_to_json,
)
from .hypercore import (
    ColoredHypergraph,
    SampledColoredGraph,
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


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise CliError(
            f"malformed JSON in {path} at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err


def _load_graph(path: str) -> ColoredHypergraph:
    d = _load_json(path)
    if not isinstance(d, dict) or "colors" not in d or "n" not in d:
        raise CliError(f"{path} is not a hypergraph file (need n/r/k/colors)")
    return hypergraph_from_json(d)


def _load_pattern(path: str) -> ColoredHypergraph | SampledColoredGraph:
    d = _load_json(path)
    if isinstance(d, dict) and "q" in d and "colors" in d:
        return SampledColoredGraph(
            int(d["q"]), int(d["r"]), int(d["k"]), tuple(int(c) for c in d["colors"])
        )
    if isinstance(d, dict) and "n" in d and "colors" in d:
        return hypergraph_from_json(d)
    raise CliError(f"{path} is neither a hypergraph nor a sample file")


def _load_source(path: str) -> ColoredHypergraph | StepGraphon:
    d = _load_json(path)
    if isinstance(d, dict) and "arrays" in d and "labels" in d:
        return step_graphon_from_json(d)
    if isinstance(d, dict) and "colors" in d and "n" in d:
        return hypergraph_from_json(d)
    raise CliError(f"{path} is neither a hypergraph nor a step-graphon file")


def _load_array(path: str, color: int) -> np.ndarray:
    d = _load_json(path)
    if isinstance(d, dict) and "array" in d:
        return np.array(d["array"], dtype=float)
    if isinstance(d, dict) and "colors" in d and "n" in d:
        return hypergraph_from_json(d).adjacency_array(color)
    raise CliError(f"{path} is neither an array nor a hypergraph file")


def _load_tuple_partition(path: str) -> TuplePartition:
    d = _load_json(path)
    needed = {"n", "r_minus_1", "classes", "q"}
    if not isinstance(d, dict) or needed - set(d):
        raise CliError(f"{path} is not a partition file (need n/r_minus_1/classes/q)")
    return TuplePartition(
        int(d["n"]),
        int(d["r_minus_1"]),
        tuple(int(c) for c in d["classes"]),
        int(d["q"]),
        allow_empty=True,
    )


def _jsonable(x: Any) -> Any:
    if isinstance(x, dict):
        return {str(key): _jsonable(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _split_timings(payload: Any) -> tuple[Any, dict[str, float]]:
    """Strip every "seconds" field; wall-clock times are metadata, not results."""
    timings: dict[str, float] = {}

    def strip(node: Any, path: str) -> Any:
        if isinstance(node, dict):
            out = {}
            for key, v in node.items():
                here = f"{path}.{key}" if path else str(key)
                if key == "seconds":
                    timings[path or "total"] = v
                else:
                    out[key] = strip(v, here)
            return out
        if isinstance(node, list):
            return [strip(v, f"{path}[{i}]") for i, v in enumerate(node)]
        return node

    return strip(payload, ""), timings


def _emit(args: argparse.Namespace, payload: dict[str, Any]) -> None:
    cleaned, timings = _split_timings(_jsonable(payload))
    text = json.dumps(cleaned, indent=2, sort_keys=True)
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
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


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
    pattern = _load_pattern(args.pattern)
    source = _load_source(args.infile)
    q = pattern.q if isinstance(pattern, SampledColoredGraph) else pattern.n
    out: dict[str, Any] = {"command": "density", "mode": args.mode, "q": q}
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
    da, db = sample_laws(_load_source(args.a), _load_source(args.b), args.q)
    return {
        "command": "tvdist",
        "mode": "exact",
        "q": args.q,
        "value": tv_distance(da, db),
    }


def _cmd_cutnorm(args: argparse.Namespace) -> dict[str, Any]:
    arr = _load_array(args.infile, args.color)
    if args.mode == "exact":
        value, witness = cutnorm_exact(arr)
    else:
        seed = _resolved_seed(args, True)
        value, witness = cutnorm_heuristic(arr, restarts=args.restarts, seed=seed)
    return {
        "command": "cutnorm",
        "mode": args.mode,
        "value": value,
        "witness": witness.to_json(),
    }


def _cmd_cutnorm_p(args: argparse.Namespace) -> dict[str, Any]:
    arr = _load_array(args.infile, args.color)
    part = _load_tuple_partition(args.partition)
    seed = _resolved_seed(args, args.mode != "exact")
    value, witness = cutnorm_p(arr, part, mode=args.mode, restarts=args.restarts, seed=seed)
    return {
        "command": "cutnorm-p",
        "mode": args.mode,
        "classes": part.q,
        "value": value,
        "witness": witness.to_json(),
    }


def _cmd_gse(args: argparse.Namespace) -> dict[str, Any]:
    source = _load_source(args.infile)
    coupling = CouplingArray.from_json(_load_json(args.coupling))
    seed = _resolved_seed(args, args.mode != "exact")
    module_mode = "exact" if args.mode == "exact" else "anneal"
    out: dict[str, Any] = {"command": "gse", "mode": args.mode, "classes": coupling.q}
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
    source = _load_source(args.infile)
    w = embed(source) if isinstance(source, ColoredHypergraph) else source
    seed = _resolved_seed(args, args.mode != "exact")
    v, p, trace = weak_regularize(
        w, args.eps, t=args.t, max_rounds=args.max_rounds, mode=args.mode,
        restarts=args.restarts, seed=seed,
    )
    if args.trace:
        Path(args.trace).write_text(trace_csv(trace))
    return {
        "command": "regularize",
        "mode": args.mode,
        "eps": args.eps,
        "classes": p.t,
        "rounds": trace[-1]["round"] if trace else 0,
        "residual": trace[-1]["residual"] if trace else 0.0,
        "graphon": step_graphon_to_json(v),
    }


def _cmd_sample(args: argparse.Namespace) -> dict[str, Any]:
    source = _load_source(args.infile)
    if isinstance(source, ColoredHypergraph):
        s = sample_subgraph(source, args.q, args.seed)
    else:
        s = sample_graphon(source, args.q, args.seed)
    return {
        "command": "sample",
        "mode": "mc",
        "seed": args.seed,
        "q": s.q,
        "r": s.r,
        "k": s.k,
        "colors": list(s.colors),
        "vertices": None if s.vertices is None else list(s.vertices),
        "coords": None if s.coords is None else list(s.coords),
    }


def _cmd_transfer(args: argparse.Namespace) -> dict[str, Any]:
    source = _load_source(args.source)
    u = embed(source) if isinstance(source, ColoredHypergraph) else source
    d = _load_json(args.witness)
    if not isinstance(d, dict) or "arrays" not in d:
        raise CliError(f"{args.witness} is not a step-graphon file")
    v_hat = step_graphon_from_json(d)
    u_hat, diag = lift_coloring(
        u, args.q, v_hat, args.delta, args.q0, args.seed,
        reg_floor=args.reg_floor, max_rounds=args.max_rounds,
        restarts=args.restarts, mode=args.mode,
    )
    return {
        "command": "transfer",
        "mode": args.mode,
        "diagnostics": diag,
        "graphon": step_graphon_to_json(u_hat),
    }


def _cmd_nd_estimate(args: argparse.Namespace) -> dict[str, Any]:
    g = _load_graph(args.infile)
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
    return {"command": "nd-estimate", "mode": args.mode, "witness": args.witness, **report}


def _cmd_probe(args: argparse.Namespace) -> dict[str, Any]:
    g = _load_graph(args.infile)
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
    return {"command": "probe", "mode": "mc", "seed": args.seed, **report}


def _cmd_prop_test(args: argparse.Namespace) -> dict[str, Any]:
    g = _load_graph(args.infile)
    prop = _registry_get(PROPERTIES, args.property, "property")
    if args.trials > 0:
        if args.q is None:
            raise CliError("--q is required when --trials is positive")
        report = property_acceptance_rate(
            prop, g, args.q, args.eps, trials=args.trials, seed=args.seed,
            mode=args.mode,
        )
        return {
            "command": "prop-test",
            "mode": "mc",
            "property": args.property,
            "seed": args.seed,
            **report,
        }
    accept, trace = property_tester(
        prop, g, args.eps, seed=args.seed, mode=args.mode, restarts=args.restarts
    )
    return {
        "command": "prop-test",
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


def _add_out(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="write the JSON artifact here instead of stdout")


def _add_budget(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--budget", type=int, default=None,
        help="enumeration cap (default: HYPERTEST_BUDGET when set, else 10**6)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertest",
        description="colored hypergraphs, step graphons, cut norms, and sampling testers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("density", help="induced pattern density in a graph or graphon")
    sp.add_argument("--pattern", required=True, help="pattern graph or sample JSON")
    sp.add_argument("--in", dest="infile", required=True, help="target graph or graphon JSON")
    sp.add_argument("--mode", choices=["exact", "mc"], default="exact")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_density)

    sp = sub.add_parser("tvdist", help="variation distance between q-sample laws")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--q", type=int, required=True)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_tvdist)

    sp = sub.add_parser("cutnorm", help="cut norm of an array or a graph channel")
    sp.add_argument("--in", dest="infile", required=True, help="array or graph JSON")
    sp.add_argument("--color", type=int, default=1, help="channel for graph inputs")
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_cutnorm)

    sp = sub.add_parser("cutnorm-p", help="cut norm restricted to a tuple partition")
    sp.add_argument("--in", dest="infile", required=True, help="array or graph JSON")
    sp.add_argument("--partition", required=True, help="tuple-partition JSON")
    sp.add_argument("--color", type=int, default=1, help="channel for graph inputs")
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_cutnorm_p)

    sp = sub.add_parser("gse", help="ground state energy for a coupling array")
    sp.add_argument("--in", dest="infile", required=True, help="graph or graphon JSON")
    sp.add_argument("--coupling", required=True, help="coupling-array JSON")
    sp.add_argument("--mode", choices=["exact", "heuristic"], default="exact",
                    help="heuristic = restarted annealing")
    sp.add_argument("--restarts", type=int, default=8)
    sp.add_argument("--seed", type=int, default=None)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_gse)

    sp = sub.add_parser("regularize", help="weak regularity decomposition")
    sp.add_argument("--in", dest="infile", required=True, help="graph or graphon JSON")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--t", type=int, default=None, help="class multiplier")
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=16)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--trace", help="write the round trace to this CSV file")
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_regularize)

    sp = sub.add_parser("sample", help="draw a q-vertex sample")
    sp.add_argument("--in", dest="infile", required=True, help="graph or graphon JSON")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_sample)

    sp = sub.add_parser("transfer", help="lift a sample coloring onto its source graphon")
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
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_transfer)

    sp = sub.add_parser("nd-estimate", help="sample-and-lift estimate of a best-coloring parameter")
    sp.add_argument("--in", dest="infile", required=True, help="graph JSON")
    sp.add_argument("--witness", required=True, help="registered parameter name")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--q0", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--k", type=int, default=2, help="refinement arity")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=8)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_nd_estimate)

    sp = sub.add_parser("probe", help="empirical sample-size probe for a parameter")
    sp.add_argument("--in", dest="infile", required=True, help="graph JSON")
    sp.add_argument("--parameter", required=True, help="registered parameter name")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--q-grid", required=True, help="comma-separated sample sizes")
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--seed", type=int, required=True)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_probe)

    sp = sub.add_parser("prop-test", help="run the constructed property tester")
    sp.add_argument("--in", dest="infile", required=True, help="graph JSON")
    sp.add_argument("--property", required=True, help="registered property name")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--q", type=int, default=None, help="sample size for rate experiments")
    sp.add_argument("--trials", type=int, default=0,
                    help="when positive, measure the acceptance rate over q-samples")
    sp.add_argument("--mode", choices=["exact", "heuristic", "auto"], default="auto")
    sp.add_argument("--restarts", type=int, default=8)
    _add_budget(sp)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_prop_test)

    sp = sub.add_parser("oracle-suite", help="run the acceptance suite and pass its exit code through")
    sp.add_argument("--level", choices=["desk"], default="desk")
    sp.set_defaults(handler=_cmd_oracle_suite)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    args.raw_argv = argv
    try:
        with limit(getattr(args, "budget", None)):
            result = args.handler(args)
    except BudgetError as err:
        print(f"budget refusal: {err}", file=sys.stderr)
        return 2
    except RegularityError as err:
        print(f"error: regularity target not met: {err}", file=sys.stderr)
        return 1
    except (CliError, ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if isinstance(result, int):
        return result
    _emit(args, result)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
