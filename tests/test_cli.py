"""End-to-end checks of the command line front end.

Commands run in-process through ``cli.run`` so exit codes and stdout can
be asserted directly; values are cross-checked against the module-level
oracles the commands wrap.
"""

import json
from pathlib import Path

import pytest

from hypertest import cli, cutnorm, graphon
from hypertest.cutnorm import cutnorm_exact
from hypertest.energy import CouplingArray, gse
from hypertest.graphon import random_step_graphon, step_graphon_to_json
from hypertest.hypercore import hypergraph_to_json, make_hypergraph

import numpy as np


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def graph_file(tmp_path: Path) -> str:
    g = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
    return write_json(tmp_path / "g.json", hypergraph_to_json(g))


@pytest.fixture
def graphon_file(tmp_path: Path) -> str:
    w = random_step_graphon(2, 2, 2, 4, seed=7)
    return write_json(tmp_path / "w.json", step_graphon_to_json(w))


def run_json(capsys, argv: list[str]) -> dict:
    assert cli.run(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_help_exits_zero(self) -> None:
        assert cli.run(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self) -> None:
        assert cli.run([]) == 1

    def test_missing_file(self) -> None:
        assert cli.run(["cutnorm", "--in", "does-not-exist.json"]) == 1

    def test_budget_refusal_is_exit_2(self, graph_file: str) -> None:
        assert cli.run(["cutnorm", "--in", graph_file, "--budget", "2"]) == 2

    def test_unknown_registry_name(self, graph_file: str, capsys) -> None:
        rc = cli.run([
            "probe", "--in", graph_file, "--parameter", "nope",
            "--eps", "0.2", "--q-grid", "3", "--seed", "1",
        ])
        assert rc == 1
        assert "edge-density" in capsys.readouterr().err

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_gse_rejects_nonpositive_restarts(
        self, graph_file: str, tmp_path: Path, restarts: str, capsys
    ) -> None:
        j = CouplingArray(2, 2, 2, {1: np.eye(2), 2: -np.eye(2)})
        jf = write_json(tmp_path / "j.json", j.to_json())
        rc = cli.run([
            "gse", "--in", graph_file, "--coupling", jf, "--mode", "heuristic",
            "--restarts", restarts, "--seed", "1",
        ])
        assert rc == 1
        assert "restarts must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,restarts", [("cutnorm", "0"), ("cutnorm-p", "-3")])
    def test_cutnorm_rejects_nonpositive_restarts(
        self, graph_file: str, tmp_path: Path, command: str, restarts: str, capsys
    ) -> None:
        argv = [command, "--in", graph_file, "--mode", "heuristic",
                "--restarts", restarts, "--seed", "1"]
        if command == "cutnorm-p":
            part = {"n": 4, "r_minus_1": 1, "classes": [0, 1, 0, 1], "q": 2}
            argv += ["--partition", write_json(tmp_path / "p.json", part)]
        assert cli.run(argv) == 1
        assert "restarts must be at least 1" in capsys.readouterr().err

    def test_malformed_json_reports_line_and_column(self, tmp_path: Path, capsys) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3,\n  "r": }')
        assert cli.run(["cutnorm", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column 8" in err


class TestSeedPolicy:
    def test_stochastic_mode_requires_seed(self, graph_file: str) -> None:
        assert cli.run(["cutnorm", "--in", graph_file, "--mode", "heuristic"]) == 1

    def test_exact_mode_needs_no_seed(self, graph_file: str) -> None:
        assert cli.run(["cutnorm", "--in", graph_file, "--mode", "exact"]) == 0

    def test_density_mc_requires_seed(self, graph_file: str, tmp_path: Path) -> None:
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        assert cli.run(["density", "--pattern", f, "--in", graph_file, "--mode", "mc"]) == 1


class TestValuesAgainstModules:
    def test_cutnorm_matches_module_oracle(self, graph_file: str, capsys) -> None:
        payload = run_json(capsys, ["cutnorm", "--in", graph_file, "--mode", "exact"])
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
        expected, _ = cutnorm_exact(g.adjacency_array(1))
        assert payload["value"] == expected
        assert payload["mode"] == "exact"

    def test_tvdist_of_a_file_with_itself_is_zero(self, graphon_file: str, capsys) -> None:
        payload = run_json(capsys, ["tvdist", "--a", graphon_file, "--b", graphon_file, "--q", "3"])
        assert payload["value"] == 0.0
        assert payload["mode"] == "exact"

    def test_tvdist_graph_vs_its_embedding(self, graph_file: str, tmp_path: Path, capsys) -> None:
        # comparable after the reserved-color padding; distinct sampling
        # conventions keep the value strictly positive
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
        from hypertest.graphon import embed

        w = write_json(tmp_path / "emb.json", step_graphon_to_json(embed(g).to_step()))
        payload = run_json(capsys, ["tvdist", "--a", graph_file, "--b", w, "--q", "2"])
        assert 0.0 < payload["value"] < 1.0

    def test_gse_matches_module(self, graph_file: str, tmp_path: Path, capsys) -> None:
        j = CouplingArray(
            2, 2, 2,
            {1: np.array([[1.0, 0.2], [0.2, 0.0]]), 2: np.array([[0.0, 0.5], [0.5, 1.0]])},
        )
        jf = write_json(tmp_path / "j.json", j.to_json())
        payload = run_json(capsys, ["gse", "--in", graph_file, "--coupling", jf, "--mode", "exact"])
        g = make_hypergraph(4, 2, 2, [1, 2, 1, 1, 2, 1])
        expected, _ = gse(g, j, mode="exact")
        assert payload["value"] == pytest.approx(expected, abs=1e-12)
        assert len(payload["labels"]) == 4

    def test_density_mc_rejects_zero_trials(self, graph_file: str, tmp_path: Path) -> None:
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        out = tmp_path / "d.json"
        assert cli.run([
            "density", "--pattern", f, "--in", graph_file, "--mode", "mc",
            "--trials", "0", "--seed", "1", "--out", str(out),
        ]) == 1
        assert not out.exists()

    def test_density_mc_carries_stderr(self, graph_file: str, tmp_path: Path, capsys) -> None:
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        payload = run_json(capsys, [
            "density", "--pattern", f, "--in", graph_file,
            "--mode", "mc", "--trials", "2000", "--seed", "3",
        ])
        assert payload["mode"] == "mc"
        assert payload["stderr"] >= 0.0
        assert abs(payload["value"] - 4 / 6) < 0.1


class TestArtifacts:
    def test_same_argv_same_bytes_and_meta_holds_timestamps(
        self, graphon_file: str, tmp_path: Path
    ) -> None:
        out = tmp_path / "s.json"
        argv = ["sample", "--in", graphon_file, "--q", "5", "--seed", "11", "--out", str(out)]
        assert cli.run(argv) == 0
        first = out.read_bytes()
        meta_path = tmp_path / "s.json.meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["argv"] == argv
        assert "created_unix" in meta
        assert cli.run(argv) == 0
        assert out.read_bytes() == first
        assert "created_unix" not in out.read_text()

    def test_every_numeric_payload_has_mode(self, graph_file: str, graphon_file: str, tmp_path, capsys) -> None:
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        commands = [
            ["density", "--pattern", f, "--in", graph_file],
            ["tvdist", "--a", graph_file, "--b", graph_file, "--q", "2"],
            ["cutnorm", "--in", graph_file],
            ["regularize", "--in", graphon_file, "--eps", "0.4", "--seed", "0"],
            ["sample", "--in", graph_file, "--q", "3", "--seed", "2"],
        ]
        for argv in commands:
            payload = run_json(capsys, argv)
            assert payload["mode"] in ("exact", "heuristic", "mc", "auto"), argv

    def test_sample_is_seed_deterministic(self, graphon_file: str, capsys) -> None:
        a = run_json(capsys, ["sample", "--in", graphon_file, "--q", "6", "--seed", "4"])
        b = run_json(capsys, ["sample", "--in", graphon_file, "--q", "6", "--seed", "4"])
        c = run_json(capsys, ["sample", "--in", graphon_file, "--q", "6", "--seed", "5"])
        assert a == b
        assert c["colors"] != a["colors"]

    def test_regularize_writes_csv_trace(self, tmp_path: Path, capsys) -> None:
        w = random_step_graphon(2, 2, 6, 12, seed=13)
        wf = write_json(tmp_path / "big.json", step_graphon_to_json(w))
        trace = tmp_path / "trace.csv"
        payload = run_json(capsys, [
            "regularize", "--in", wf, "--eps", "0.2", "--t", "2",
            "--seed", "0", "--trace", str(trace),
        ])
        assert payload["classes"] <= 2 * 16
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "round,residual,classes"
        assert len(lines) >= 2


class TestPipelines:
    def test_nd_estimate_report(self, tmp_path: Path, capsys) -> None:
        g = make_hypergraph(5, 2, 2, [1, 2, 1, 1, 2, 1, 2, 1, 2, 1])
        gf = write_json(tmp_path / "g5.json", hypergraph_to_json(g))
        payload = run_json(capsys, [
            "nd-estimate", "--in", gf, "--witness", "signed-split",
            "--q", "5", "--q0", "2", "--seed", "4",
        ])
        assert payload["witness"] == "signed-split"
        assert payload["transferred_value"] <= payload["f_exact"] + 1e-12
        assert "final_tv" in payload["lift"]

    def test_nd_estimate_rejects_wrong_palette(self, graph_file: str, capsys) -> None:
        rc = cli.run([
            "nd-estimate", "--in", graph_file, "--witness", "edge-density",
            "--q", "4", "--q0", "2", "--seed", "1",
        ])
        assert rc == 1
        assert "palette" in capsys.readouterr().err

    def test_probe_grid_validation(self, graph_file: str) -> None:
        base = ["probe", "--in", graph_file, "--parameter", "edge-density",
                "--eps", "0.3", "--seed", "1"]
        assert cli.run(base + ["--q-grid", "3,oops"]) == 1
        assert cli.run(base + ["--q-grid", ""]) == 1

    def test_prop_test_trials_need_q(self, graph_file: str) -> None:
        rc = cli.run([
            "prop-test", "--in", graph_file, "--property", "complete-witness",
            "--eps", "0.3", "--seed", "1", "--trials", "5",
        ])
        assert rc == 1

    def test_prop_test_single_shot(self, tmp_path: Path, capsys) -> None:
        n = 6
        complete = make_hypergraph(n, 2, 2, [1] * (n * (n - 1) // 2))
        gf = write_json(tmp_path / "kn.json", hypergraph_to_json(complete))
        payload = run_json(capsys, [
            "prop-test", "--in", gf, "--property", "complete-witness",
            "--eps", "0.3", "--seed", "2",
        ])
        assert payload["accept"] is True
        assert payload["best_density"] == 1.0

    def test_transfer_lift_roundtrip(self, tmp_path: Path, capsys) -> None:
        from hypertest.graphon import StepGraphon, sample_graphon
        from hypertest.seeds import derive_seed
        from hypertest.transfer import embed_sample

        u = random_step_graphon(2, 2, 2, 4, seed=9)
        uf = write_json(tmp_path / "u.json", step_graphon_to_json(u))
        refined = StepGraphon(2, 4, u.partition, {
            1: u.arrays[1] * 0.5, 2: u.arrays[1] * 0.5,
            3: u.arrays[2] * 0.5, 4: u.arrays[2] * 0.5,
        })
        witness = embed_sample(sample_graphon(refined, 10, derive_seed(21, 0)))
        vf = write_json(tmp_path / "vhat.json", step_graphon_to_json(witness))
        payload = run_json(capsys, [
            "transfer", "--source", uf, "--witness", vf,
            "--q", "10", "--q0", "2", "--seed", "21",
        ])
        assert payload["graphon"]["k"] == 4
        stages = [row["stage"] for row in payload["diagnostics"]["stages"]]
        assert stages[0] == "sample" and stages[-1] == "transfer_to_source"


class TestBudgetEnv:
    def test_env_budget_refuses(self, graph_file: str, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("HYPERTEST_BUDGET", "2")
        assert cli.run(["cutnorm", "--in", graph_file]) == 2

    def test_explicit_budget_beats_env(self, graph_file: str, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("HYPERTEST_BUDGET", "2")
        assert cli.run(["cutnorm", "--in", graph_file, "--budget", "100000"]) == 0

    def test_budget_reaches_the_class_tuple_weights(self, tmp_path: Path, capsys) -> None:
        # the r = 3 orbit weights of a resolution-4 grid need a 6400-cell
        # intermediate row; --budget must refuse it as HYPERTEST_BUDGET does.
        # Cached orbits skip that enumeration, so start from empty caches.
        cutnorm._orbit_atoms.cache_clear()
        graphon.orbit_partition.cache_clear()
        w = random_step_graphon(3, 2, t=3, resolution=4, seed=5)
        wf = write_json(tmp_path / "w3.json", step_graphon_to_json(w))
        rc = cli.run(["regularize", "--in", wf, "--eps", "0.3", "--mode", "heuristic",
                      "--max-rounds", "1", "--seed", "1", "--budget", "1000"])
        assert rc == 2
        assert "class-tuple weights" in capsys.readouterr().err


class TestOracleSuite:
    def test_invokes_pytest_on_the_acceptance_file(self, monkeypatch: pytest.MonkeyPatch) -> None:
        captured = {}

        class Proc:
            returncode = 7

        def fake_run(cmd, check):
            captured["cmd"] = cmd
            return Proc()

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        assert cli.run(["oracle-suite", "--level", "desk"]) == 7
        assert captured["cmd"][1:3] == ["-m", "pytest"]
        assert captured["cmd"][3].endswith("test_acceptance.py")
