"""The three workloads: fixtures, ops, output checks and canonical outputs.

Every workload is a closed loop run by one client: op ``i`` starts after
op ``i - 1`` has returned. Op ``i`` has kind ``KINDS[i % len(KINDS)]``
and a seed derived from the workload seed and ``i`` alone, so the op
sequence of a seed is fixed whatever the run length.

A workload object is built by ``setup`` (fixtures plus one untimed
warm-up op per kind). For each op the runner calls ``prepare`` (untimed),
``execute`` (timed), then ``check`` and ``canonical`` (untimed). The
package is reached through module attributes at call time, so the
tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

import hypertest.cli
import hypertest.energy
import hypertest.graphon
import hypertest.hypercore
import hypertest.seeds
import hypertest.transfer

ht = hypertest


def op_seed(seed: int, tag: str, i: int) -> int:
    """A 60-bit seed for op ``i``; owned by the benchmark, not the package."""
    digest = hashlib.sha256(f"{seed}:{tag}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 4


def _strip_seconds(node: Any) -> Any:
    if isinstance(node, dict):
        return {k: _strip_seconds(v) for k, v in node.items() if k != "seconds"}
    if isinstance(node, (list, tuple)):
        return [_strip_seconds(v) for v in node]
    if isinstance(node, np.ndarray):
        return _strip_seconds(node.tolist())
    if isinstance(node, np.generic):
        return node.item()
    return node


def _canon(payload: Any) -> bytes:
    return json.dumps(_strip_seconds(payload), sort_keys=True).encode()


class Workload:
    """Base class; subclasses set NAME and KINDS and define the op hooks."""

    NAME = ""
    KINDS: tuple = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def kind(self, i: int):
        return self.KINDS[i % len(self.KINDS)]

    def warmup_indices(self) -> list[int]:
        # negative indices: warm-up ops never coincide with timed ones
        return [-1 - j for j in range(len(self.KINDS))]

    def prepare(self, i: int) -> Any:
        raise NotImplementedError

    def execute(self, prep: Any) -> Any:
        raise NotImplementedError

    def check(self, prep: Any, out: Any) -> bool:
        raise NotImplementedError

    def canonical(self, prep: Any, out: Any) -> bytes:
        raise NotImplementedError

    def summary(self) -> dict[str, Any]:
        """Workload-specific figures for the run record."""
        return {}


class Lift(Workload):
    """Criterion 11's transfer pipeline at benchmark size (r=2, k=2 -> 4)."""

    NAME = "lift"
    KINDS = (40, 80, 40)
    SOURCES = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sources = []
        for f in range(self.SOURCES):
            u0 = ht.graphon.random_step_graphon(
                2, 4, t=2, resolution=4, seed=op_seed(seed, "lift-source", f))
            self.sources.append((u0, ht.transfer.discolor_step(u0, 2)))

    def prepare(self, i: int):
        u0, u = self.sources[i % self.SOURCES]
        return self.kind(i), op_seed(self.seed, "lift", i), u0, u

    def execute(self, prep):
        q, s, u0, u = prep
        sample = ht.graphon.sample_graphon(u0, q, ht.seeds.derive_seed(s, 0))
        return ht.transfer.lift_coloring(u, q, ht.transfer.embed_sample(sample), 0.1, 2, s)

    def check(self, prep, out) -> bool:
        _, _, _, u = prep
        u_hat, diag = out
        tv = diag.get("final_tv")
        return (
            ht.graphon.l1_distance(ht.transfer.discolor_step(u_hat, 2), u) <= 1e-9
            and isinstance(tv, float) and 0.0 <= tv <= 1.0
        )

    def canonical(self, prep, out) -> bytes:
        u_hat, diag = out
        return _canon({"u_hat": ht.graphon.step_graphon_to_json(u_hat), "diagnostics": diag})


COUPLING_ARRAYS = {
    1: [[1.0, -0.5], [-0.5, 0.25]],
    2: [[-0.25, 0.5], [0.5, -1.0]],
}


def _coupling():
    return ht.energy.CouplingArray(
        2, 2, 2, {c: np.array(a) for c, a in COUPLING_ARRAYS.items()})


def _random_graph(n: int, r: int, k: int, seed: int):
    rng = np.random.default_rng(seed)
    return ht.hypercore.make_hypergraph(
        n, r, k, [int(c) for c in rng.integers(1, k + 1, size=math.comb(n, r))])


class Anneal(Workload):
    """Criterion 07's shape: annealed GSE of induced samples of an n=60 host."""

    NAME = "anneal"
    # (q', restarts): criterion 07's restarts where the exact check applies,
    # one restart at q'=30 so that a 30 s run holds over 100 ops
    KINDS = ((10, 4), (30, 1), (10, 4))
    HOST_N = 60

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.host = _random_graph(self.HOST_N, 2, 2, op_seed(seed, "anneal-host", 0))
        self.coupling = _coupling()
        self.exact_ops = 0
        self.exact_agree = 0

    def prepare(self, i: int):
        return self.kind(i), op_seed(self.seed, "anneal", i), i

    def execute(self, prep):
        (q, restarts), s, _ = prep
        smp = ht.hypercore.sample_subgraph(self.host, q, s)
        sub = ht.hypercore.ColoredHypergraph(q, 2, 2, smp.colors)
        value, part = ht.energy.gse(
            sub, self.coupling, mode="anneal", seed=s + 1, restarts=restarts)
        return sub, value, part

    def check(self, prep, out) -> bool:
        (q, _), _, i = prep
        sub, value, part = out
        ok = (math.isfinite(value) and len(part.classes) == q
              and abs(ht.energy.energy(sub, self.coupling, part) - value) <= 1e-9)
        if q <= 10:
            exact, _ = ht.energy.gse(sub, self.coupling, mode="exact")
            ok = ok and value <= exact + 1e-9
            if i >= 0:
                self.exact_ops += 1
                self.exact_agree += abs(exact - value) <= 1e-9
        return ok

    def canonical(self, prep, out) -> bytes:
        _, value, part = out
        return _canon({"value": repr(float(value)), "labels": list(part.classes)})

    def summary(self) -> dict[str, Any]:
        ratio = self.exact_agree / self.exact_ops if self.exact_ops else None
        return {"exact_ops": self.exact_ops, "exact_agree": self.exact_agree,
                "exact_agree_ratio": ratio}


class Cli(Workload):
    """Every subcommand but oracle-suite, in-process, on small fixture files."""

    NAME = "cli"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.argvs = self._fixtures()
        self.KINDS = tuple(range(len(self.argvs)))
        self.reference: dict[int, bytes] = {}

    def _write(self, name: str, payload: Any) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _fixtures(self) -> list[list[str]]:
        s = self.seed

        def seed_of(tag: str) -> str:
            return str(op_seed(s, "cli-argv-" + tag, 0))

        hj = ht.hypercore.hypergraph_to_json
        g8 = self._write("g8.json", hj(_random_graph(8, 2, 2, op_seed(s, "cli-g8", 0))))
        g5 = self._write("g5.json", hj(_random_graph(5, 2, 2, op_seed(s, "cli-g5", 0))))
        g6 = self._write("g6.json", hj(_random_graph(6, 2, 2, op_seed(s, "cli-g6", 0))))
        g40 = self._write("g40.json", hj(_random_graph(40, 2, 2, op_seed(s, "cli-g40", 0))))
        pat = self._write("pattern.json", hj(_random_graph(3, 2, 2, op_seed(s, "cli-pat", 0))))
        w = self._write("w.json", ht.graphon.step_graphon_to_json(
            ht.graphon.random_step_graphon(2, 2, t=4, resolution=4,
                                           seed=op_seed(s, "cli-w", 0))))
        u0 = ht.graphon.random_step_graphon(2, 4, t=2, resolution=4,
                                            seed=op_seed(s, "cli-u", 0))
        src = self._write("source.json", ht.graphon.step_graphon_to_json(
            ht.transfer.discolor_step(u0, 2)))
        transfer_seed = int(seed_of("transfer"))
        witness = ht.transfer.embed_sample(ht.graphon.sample_graphon(
            u0, 30, ht.seeds.derive_seed(transfer_seed, 0)))
        wit = self._write("witness.json", ht.graphon.step_graphon_to_json(witness))
        rng = np.random.default_rng(op_seed(s, "cli-partition", 0))
        classes = [int(c) for c in rng.permutation([0] * 4 + [1] * 4)]
        part = self._write("partition.json",
                           {"n": 8, "r_minus_1": 1, "classes": classes, "q": 2})
        cpl = self._write("coupling.json", _coupling().to_json())
        return [
            ["density", "--pattern", pat, "--in", g8, "--mode", "exact"],
            ["density", "--pattern", pat, "--in", w, "--mode", "mc",
             "--seed", seed_of("density-mc")],
            ["tvdist", "--a", g8, "--b", w, "--q", "3"],
            ["cutnorm", "--in", g8, "--mode", "exact"],
            ["cutnorm", "--in", g8, "--mode", "heuristic", "--seed", seed_of("cutnorm")],
            ["cutnorm-p", "--in", g8, "--partition", part, "--mode", "exact"],
            ["cutnorm-p", "--in", g8, "--partition", part, "--mode", "heuristic",
             "--seed", seed_of("cutnorm-p")],
            ["gse", "--in", g8, "--coupling", cpl, "--mode", "exact"],
            # two restarts, not the default eight: at eight this one op took
            # 45 % of a cycle, and a run held a third fewer cycles
            ["gse", "--in", g6, "--coupling", cpl, "--mode", "heuristic",
             "--restarts", "2", "--seed", seed_of("gse")],
            ["regularize", "--in", w, "--eps", "0.3", "--seed", seed_of("regularize")],
            ["sample", "--in", w, "--q", "30", "--seed", seed_of("sample")],
            ["transfer", "--source", src, "--witness", wit, "--q", "30", "--q0", "2",
             "--seed", str(transfer_seed)],
            ["nd-estimate", "--in", g5, "--witness", "signed-split", "--q", "5",
             "--q0", "2", "--seed", seed_of("nd-estimate")],
            ["probe", "--in", g40, "--parameter", "edge-density", "--eps", "0.2",
             "--q-grid", "10,20", "--trials", "100", "--seed", seed_of("probe")],
            ["prop-test", "--in", g8, "--property", "complete-witness", "--eps", "0.3",
             "--q", "4", "--trials", "50", "--seed", seed_of("prop-test")],
        ]

    def prepare(self, i: int):
        k = self.kind(i)
        out = self.workdir / f"out{k:02d}.json"
        return k, i, out

    def execute(self, prep):
        k, _, out = prep
        return ht.cli.run(self.argvs[k] + ["--out", str(out)])

    def check(self, prep, rc) -> bool:
        k, i, out = prep
        if rc != 0:
            return False
        data = out.read_bytes()
        try:
            json.loads(data)
        except ValueError:
            return False
        if i < 0:  # the warm-up op of a kind is the reference for its argv
            self.reference[k] = data
        return data == self.reference.get(k)

    def canonical(self, prep, rc) -> bytes:
        return prep[2].read_bytes() if rc == 0 else b""


WORKLOADS = {w.NAME: w for w in (Lift, Anneal, Cli)}
