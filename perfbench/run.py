#!/usr/bin/env python3
"""hypertest benchmark: one closed-loop workload per run, from the repo root.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload for ``--seconds`` seconds with tracing
off and reports the end-to-end metrics. ``--trace 1`` runs each op of a
fixed list twice, untraced then traced, and reports the per-layer
metrics (per-op means) together with the tracing overhead. Every op's output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
(machine facts, digests, latencies) goes to ``.perfbench/results/`` and,
for traced runs, the spans to a gzipped CSV beside it.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# set-up is measured this many times per run (fresh processes but the
# last, which is the workload process itself) and reported as the median
SETUP_REPEATS = 3
# ops in the traced run's fixed list, whole kind cycles of each workload
TRACE_OPS = {"lift": 48, "anneal": 60, "cli": 45}
# Timings are scaled to a reference CPU speed: a fixed pure-Python loop
# (``canary``) is timed before and after each op and the op's seconds are
# multiplied by CANARY_REF_S / (mean canary). On a shared 2-vCPU Xeon box,
# neighbours' load slowed the CPU by up to 1.7x for stretches of seconds to
# minutes; over ten 30 s runs the raw medians then spread by up to 33 %,
# the scaled ones by at most 8 %. Raw values are printed and recorded too.
CANARY_REF_S = 1e-3
# an untimed run goes on past --seconds until it has this many ops, so that
# at least ten lie beyond the 90th percentile
MIN_OPS = 100

END_TO_END = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["lift", "anneal", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up once, print it as JSON and exit")
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# set-up


def setup(name: str, seed: int, workdir: Path):
    """Import the package, build the fixtures and run one warm-up op per kind.

    Returns the workload, the seconds it took (raw and scaled) and the
    number of warm-up ops that failed their check.
    """
    c0 = canary()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports hypertest

    import hypertest
    if Path(hypertest.__file__).resolve().parent != SRC / "hypertest":
        raise RuntimeError(f"hypertest imported from {hypertest.__file__}, not {SRC}")
    w = workloads.WORKLOADS[name](seed, workdir)
    failed = 0
    for i in w.warmup_indices():
        failed += not run_op(w, i)[1]
    seconds = time.perf_counter() - t0
    return w, seconds, scaled(seconds, c0, canary()), failed


def _child_setup(args: argparse.Namespace) -> tuple[float, float, int]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["setup_s"], rec["setup_scaled_s"], rec["warmup_failed"]


# ----------------------------------------------------------------------
# the op loop


def run_op(w, i: int, tracer=None):
    """Run op ``i``: (seconds, passed, canonical output or None).

    Only ``execute`` is timed, and traced when a tracer is given; the
    check runs untraced.
    """
    prep = w.prepare(i)
    if tracer is not None:
        tracer.op_id = i
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = w.execute(prep)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - t0, False, None
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    try:
        passed = bool(w.check(prep, out))
    except Exception as exc:
        print(f"op {i} check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        passed = False
    return dt, passed, w.canonical(prep, out)


class Pass:
    """Latencies, failures and the output digest of a sequence of ops."""

    def __init__(self, digest_ops: int) -> None:
        self.lat: list[float] = []
        self.canary: list[float] = []
        self.kinds: list = []
        self.failed = 0
        self.digest_ops = digest_ops
        self._sha = hashlib.sha256()
        self.digest: str | None = None

    def add(self, kind, dt: float, passed: bool, canon: bytes | None) -> None:
        self.lat.append(dt)
        self.kinds.append(kind)
        self.failed += not passed
        canon = canon if canon is not None else b"<no output>"
        self._sha.update(len(canon).to_bytes(8, "big") + canon)
        if len(self.lat) == self.digest_ops:
            self.digest = self._sha.hexdigest()

    @property
    def digest_all(self) -> str:
        return self._sha.hexdigest()


def canary() -> float:
    """Seconds of a fixed pure-Python loop, best of three: the CPU's current speed."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for k in range(15000):
            acc += k * k
        best = min(best, time.perf_counter() - t0)
    return best


def pin_cpu() -> dict:
    """Pin this process, and the processes and threads it starts, to one CPU.

    The canary then times the very CPU that runs the ops, and the
    testers' worker threads take turns on it instead of spreading onto a
    second CPU whose speed no canary sees. The fastest allowed CPU by the
    canary is chosen. Returns the allowed CPUs and the chosen one as run
    facts (None where affinity is not available).
    """
    if not hasattr(os, "sched_setaffinity"):
        return {"cpu_affinity": None, "pinned_cpu": None}
    allowed = sorted(os.sched_getaffinity(0))
    speed = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = canary()
    best = min(allowed, key=speed.__getitem__)
    os.sched_setaffinity(0, {best})
    return {"cpu_affinity": allowed, "pinned_cpu": best}


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the canaries around them."""
    return seconds * CANARY_REF_S * 2.0 / (before + after)


def timed_loop(w, seconds: float, digest_ops: int) -> Pass:
    res = Pass(digest_ops)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        res.canary.append(canary())
        dt, passed, canon = run_op(w, i)
        res.add(w.kind(i), dt, passed, canon)
        i += 1
        if i >= MIN_OPS and time.perf_counter() >= deadline:
            res.canary.append(canary())
            return res


def paired_passes(w, ops: int, tracer) -> tuple[Pass, Pass]:
    """Each op of a fixed list untraced, then at once again traced.

    Pairing the two runs of an op in time keeps drift in machine speed
    out of the tracing overhead.
    """
    plain, traced = Pass(ops), Pass(ops)
    for i in range(ops):
        plain.add(w.kind(i), *run_op(w, i))
        tracer.install()
        try:
            result = run_op(w, i, tracer)
        finally:
            tracer.uninstall()
            tracer.end_op()
        traced.add(w.kind(i), *result)
    return plain, traced


def p90(values: list[float]) -> float:
    """Linear-interpolation 90th percentile (numpy's default method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ----------------------------------------------------------------------
# run facts


def _blas_threads() -> int | None:
    env = [os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    maps = Path("/proc/self/maps")
    libs = set(re.findall(r"\S*openblas\S*\.so\S*", maps.read_text())) if maps.exists() else set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(env[0] or env[1]) if (env[0] or env[1]) else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_facts(args: argparse.Namespace, ops: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_run": ops,
    }


# ----------------------------------------------------------------------
# main


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hypertest" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hypertest'}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:  # already pinned by the workload process
            _, seconds, scaled_s, failed = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds, "setup_scaled_s": scaled_s,
                              "warmup_failed": failed}))
            return 0
        return _run(args, workdir, pin_cpu())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args: argparse.Namespace, workdir: Path, pinning: dict) -> int:
    setups = [_child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    w, *own = setup(args.workload, args.seed, workdir)
    setups.append(tuple(own))
    warm_failed = sum(f for _, _, f in setups)
    name = args.workload
    record: dict = {"setup_s_samples": [s for s, _, _ in setups],
                    "setup_scaled_s_samples": [s for _, s, _ in setups]}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)

    if args.trace == 0:
        res = timed_loop(w, args.seconds, TRACE_OPS[name])
        norm = [scaled(dt, a, b) for dt, a, b in zip(res.lat, res.canary, res.canary[1:])]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        def e2e(lat: list[float], setup_s: float) -> dict:
            values = {"op_s.p50": statistics.median(lat), "op_s.p90": p90(lat),
                      "ops_per_s": len(lat) / sum(lat), "setup_s": setup_s,
                      "peak_rss_mb": rss}
            return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}

        metrics = e2e(norm, statistics.median(s for _, s, _ in setups))
        record["raw_metrics"] = e2e(res.lat, statistics.median(s for s, _, _ in setups))
        attempted, failed = len(res.lat), res.failed
        correct = failed == 0 and warm_failed == 0
        record.update({"digest": res.digest, "digest_ops": res.digest_ops,
                       "digest_all": res.digest_all, "ops": attempted})
        passes = {"untraced": res}
    else:
        import layertrace as tracing

        ops = TRACE_OPS[name]
        tracer = tracing.Tracer()
        plain, traced = paired_passes(w, ops, tracer)
        values = tracing.layer_metrics(tracer, ops)
        values["trace.overhead_s"] = statistics.median(traced.lat) - statistics.median(plain.lat)
        metrics = {k: _metric(v, tracing.unit_of(k)) for k, v in values.items()}
        attempted = 2 * ops
        failed = plain.failed + traced.failed
        same = plain.digest == traced.digest
        correct = failed == 0 and warm_failed == 0 and same
        spans_path = results / f"{name}-seed{args.seed}-spans.csv.gz"
        tracer.write(spans_path)
        record.update({"digest": plain.digest, "digest_traced": traced.digest,
                       "digests_equal": same, "digest_ops": ops, "ops": ops,
                       "spans": tracer.span_count(), "spans_file": spans_path.name,
                       "untraced_op_s.p50": statistics.median(plain.lat),
                       "traced_op_s.p50": statistics.median(traced.lat)})
        passes = {"untraced": plain, "traced": traced}

    summary = w.summary()
    record.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": {**run_facts(args, record["ops"]), **pinning},
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "warmup_failed": warm_failed,
        "correct": correct,
        "workload_summary": summary,
        "latencies": {k: {"kind": [str(x) for x in p.kinds], "s": p.lat, "canary": p.canary}
                      for k, p in passes.items()},
    })
    record_path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    title = ("per-layer (traced, per-op means)" if args.trace
             else f"end to end (untraced; seconds scaled to a {CANARY_REF_S:g} s canary)")
    _print_table(f"workload {name}, seed {args.seed}, {record['ops']} ops: {title}", metrics)
    if "raw_metrics" in record:
        _print_table("  raw wall-clock values", record["raw_metrics"])
    print(f"  {'error_rate':<44} {failed / attempted:>16.6g} ratio")
    if "exact_agree_ratio" in summary:
        print(f"  {'exact_agree_ratio':<44} {summary['exact_agree_ratio']!s:>16} ratio"
              f" ({summary['exact_ops']} q'=10 ops)")
    print(f"  digest of first {record['digest_ops']} ops: {record['digest']}")
    if args.trace:
        kept, folded = record["spans"]
        print(f"  traced digest equal: {record['digests_equal']}; "
              f"spans kept: {kept}; leaf calls folded into rows: {folded}")
    print(f"  facts: {json.dumps(record['facts'], sort_keys=True)}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
