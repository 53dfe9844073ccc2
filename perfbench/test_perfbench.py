"""Self-checks of the benchmark (not of the package).

    python3 -m pytest perfbench -q

Small op counts only; the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _make(name: str, seed: int, tmp_path: Path, kinds=None):
    wdir = tmp_path / f"{name}-{seed}"
    wdir.mkdir()
    w = workloads.WORKLOADS[name](seed, wdir)
    if kinds is not None:
        w.KINDS = kinds
    for i in w.warmup_indices():
        assert run.run_op(w, i)[1]
    return w


def fixed_pass(w, ops: int) -> run.Pass:
    res = run.Pass(ops)
    for i in range(ops):
        res.add(w.kind(i), *run.run_op(w, i))
    return res


def test_metric_names_match_the_pattern_and_the_declaration() -> None:
    bench = _bench()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == layertrace.per_layer_names()
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(m["unit"] == layertrace.unit_of(m["name"]) for m in bench["per_layer"])


def _inputs(w) -> str:
    """What a workload feeds the package for its first op, as text."""
    import hypertest.graphon as g

    if isinstance(w, workloads.Lift):
        q, seed, u0, _ = w.prepare(0)
        return json.dumps([q, seed, g.step_graphon_to_json(u0)["arrays"]], default=str)
    if isinstance(w, workloads.Anneal):
        return json.dumps([w.prepare(0)[:2], w.host.colors])
    return json.dumps([w.argvs[0], sorted(p.read_text() for p in w.workdir.glob("*.json")
                                          if not p.name.startswith("out"))])


@pytest.mark.parametrize("name,kinds", [
    ("lift", (40,)),
    ("anneal", ((10, 4),)),
    ("cli", (0, 10)),  # density exact, sample
])
def test_another_seed_changes_inputs_and_digest(name, kinds, tmp_path: Path) -> None:
    a = _make(name, 1, tmp_path, kinds)
    b = _make(name, 2, tmp_path, kinds)
    assert _inputs(a) != _inputs(b)
    pa, pb = fixed_pass(a, 2), fixed_pass(b, 2)
    assert pa.failed == pb.failed == 0
    assert pa.digest != pb.digest
    again_dir = tmp_path / "again"
    again_dir.mkdir()
    again = _make(name, 1, again_dir, kinds)
    assert fixed_pass(again, 2).digest == pa.digest


def test_layer_call_counts_repeat_across_traced_runs(tmp_path: Path) -> None:
    counts = []
    for rep in range(2):
        sub = tmp_path / f"rep{rep}"
        sub.mkdir()
        # cli kinds 13 and 14 run the testers' thread pool (probe, prop-test)
        w = _make("cli", 3, sub, (13, 14, 11))
        tracer = layertrace.Tracer()
        plain, traced = run.paired_passes(w, 3, tracer)
        assert plain.failed == traced.failed == 0
        assert plain.digest == traced.digest
        metrics = layertrace.layer_metrics(tracer, 3)
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith((".calls", ".rounds", "needed_items", "bytes_out"))})
    assert counts[0] == counts[1]
    assert counts[0]["testers.calls"] > 0 and counts[0]["transfer.calls"] > 0


def test_tracing_restores_the_package_and_keeps_outputs(tmp_path: Path) -> None:
    import hypertest.graphon
    import hypertest.transfer

    original = hypertest.transfer.sample_graphon
    tracer = layertrace.Tracer()
    tracer.install()
    assert hypertest.transfer.sample_graphon is not original
    assert hypertest.transfer.sample_graphon is hypertest.graphon.sample_graphon
    tracer.uninstall()
    assert hypertest.transfer.sample_graphon is original
    w = _make("lift", 4, tmp_path, (40,))
    plain, traced = run.paired_passes(w, 1, tracer)
    assert hypertest.transfer.sample_graphon is original
    assert traced.digest == plain.digest
    metrics = layertrace.layer_metrics(tracer, 1)
    assert metrics["energy.calls"] == 0
    assert metrics["graphon.sample_graphon.s"] > 0


class _Failing(workloads.Anneal):
    """Anneal with an injected check failure on op 1 and a raise on op 2."""

    def execute(self, prep):
        if prep[2] == 2:
            raise RuntimeError("injected")
        return super().execute(prep)

    def check(self, prep, out) -> bool:
        return prep[2] != 1 and super().check(prep, out)


def test_failed_checks_and_raising_ops_count_as_errors(tmp_path: Path) -> None:
    w = _Failing(5, tmp_path)
    w.KINDS = ((10, 1),)
    res = fixed_pass(w, 4)
    assert res.failed == 2
    assert len(res.lat) == 4


def test_scaling_divides_out_the_canary() -> None:
    assert run.scaled(0.5, run.CANARY_REF_S, run.CANARY_REF_S) == pytest.approx(0.5)
    assert run.scaled(0.5, 2 * run.CANARY_REF_S, 2 * run.CANARY_REF_S) == pytest.approx(0.25)
    assert run.canary() > 0


def test_pinning_leaves_one_allowed_cpu() -> None:
    # in a child process, so that this one keeps its CPUs
    code = ("import os, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "before = sorted(os.sched_getaffinity(0)); facts = run.pin_cpu(); "
            "cpu = facts['pinned_cpu']; assert facts['cpu_affinity'] == before; "
            "assert os.sched_getaffinity(0) == {cpu} and cpu in before, facts")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE)],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr


def test_exits_nonzero_without_the_package(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
