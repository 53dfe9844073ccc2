"""End-to-end checks of the command line front end.

Commands run in-process through ``cli.run`` so exit codes and stdout can
be asserted directly; values are cross-checked against the module-level
oracles the commands wrap.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypertest import budget, cli, cutnorm, graphon, testers
from hypertest.cutnorm import cutnorm_exact
from hypertest.energy import CouplingArray, gse
from hypertest.graphon import random_step_graphon, step_graphon_to_json
from hypertest.hypercore import hypergraph_to_json, make_hypergraph
from hypertest.seeds import generator

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


@pytest.fixture
def transfer_files(tmp_path: Path) -> tuple[str, str]:
    """A source graphon and the embedded 10-sample of a 4-color refinement of it."""
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
    return uf, write_json(tmp_path / "vhat.json", step_graphon_to_json(witness))


SUBCOMMANDS = [
    "density", "tvdist", "cutnorm", "cutnorm-p", "gse", "regularize", "sample",
    "transfer", "nd-estimate", "probe", "prop-test", "oracle-suite",
]


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

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_every_subcommand_has_help(self, name: str) -> None:
        assert cli.run([name, "--help"]) == 0

    @pytest.mark.parametrize("flag", ["cutnorm --in", "cutnorm-p --partition", "transfer --witness"])
    def test_flags_refuse_a_file_of_the_wrong_kind(
        self, flag: str, graph_file: str, tmp_path: Path, capsys
    ) -> None:
        coupling = CouplingArray(2, 2, 2, {1: np.eye(2), 2: -np.eye(2)}).to_json()
        argv = {
            "cutnorm --in": ["cutnorm", "--in", write_json(tmp_path / "j.json", coupling)],
            "cutnorm-p --partition": ["cutnorm-p", "--in", graph_file, "--partition", graph_file],
            "transfer --witness": [
                "transfer", "--source", graph_file, "--q", "4", "--q0", "2", "--seed", "1",
                "--witness", write_json(tmp_path / "a.json", {"array": [[0.0, 1.0], [1.0, 0.0]]}),
            ],
        }[flag]
        assert cli.run(argv) == 1
        assert "is not a" in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload", [
        ("cutnorm", {"n": 3, "r": 2, "k": 2, "colors": None}),
        ("cutnorm", {"n": 3, "r": 2, "k": 2, "colors": 5}),
        ("cutnorm-p", {"n": 3, "r_minus_1": 1, "classes": None, "q": 2}),
        # a float where an integer belongs is refused, never truncated; so is a bool
        ("cutnorm", {"n": 3.9, "r": 2, "k": 2, "colors": [1, 2, 1]}),
        ("cutnorm", {"n": 3, "r": 2, "k": 2, "colors": [1.7, 2, 1]}),
        ("cutnorm-p", {"n": 4, "r_minus_1": 1, "classes": [0, 1, 0, 1], "q": 2.0}),
        ("density", {"q": 3, "r": 2, "k": 2, "colors": [1, 2, True]}),
        ("sample", {"r": 2, "k": 2, "t": 1, "resolution": 1, "labels": [0.0],
                    "arrays": {"1": [0.5], "2": [0.5]}}),
        ("gse", {"k": True, "q": 2, "r": True, "arrays": {"1": [0.5, -0.5]}}),
    ])
    def test_malformed_field_is_exit_1_naming_the_file(
        self, command: str, payload: dict, graph_file: str, tmp_path: Path, capsys
    ) -> None:
        bad = write_json(tmp_path / "bad.json", payload)
        argv = {
            "cutnorm": ["cutnorm", "--in", bad],
            "cutnorm-p": ["cutnorm-p", "--in", graph_file, "--partition", bad],
            "density": ["density", "--in", graph_file, "--pattern", bad],
            "sample": ["sample", "--in", bad, "--q", "3", "--seed", "1"],
            "gse": ["gse", "--in", write_json(tmp_path / "g1.json", hypergraph_to_json(
                make_hypergraph(3, 1, 1, [1, 1, 1]))), "--coupling", bad, "--mode", "exact"],
        }[command]
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err

    def test_malformed_field_prints_no_traceback(self, tmp_path: Path) -> None:
        bad = write_json(tmp_path / "bad.json", {"n": 3, "r": 2, "k": 2, "colors": None})
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "hypertest.cli", "cutnorm", "--in", bad],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert bad in proc.stderr


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

    def test_tvdist_sample_size_zero_and_negative(self, graphon_file: str, capsys) -> None:
        payload = run_json(capsys, ["tvdist", "--a", graphon_file, "--b", graphon_file,
                                    "--q", "0"])
        assert payload["value"] == 0.0
        assert cli.run(["tvdist", "--a", graphon_file, "--b", graphon_file, "--q", "-1"]) == 1
        assert "q=-1" in capsys.readouterr().err

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

    def test_density_exact_on_a_step_graphon_matches_the_module(
        self, graphon_file: str, tmp_path: Path, capsys
    ) -> None:
        from hypertest.density import density_graphon

        f = make_hypergraph(3, 2, 2, [1, 2, 1])
        pf = write_json(tmp_path / "f.json", hypergraph_to_json(f))
        payload = run_json(capsys, ["density", "--pattern", pf, "--in", graphon_file,
                                    "--mode", "exact"])
        w = graphon.step_graphon_from_json(json.loads(Path(graphon_file).read_text()))
        assert payload == {"command": "density", "mode": "exact", "q": 3,
                           "value": density_graphon(f, w)}


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

    def test_every_numeric_payload_has_mode(
        self, graph_file: str, graphon_file: str, transfer_files: tuple[str, str],
        tmp_path, capsys,
    ) -> None:
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        part = write_json(tmp_path / "p.json",
                          {"n": 4, "r_minus_1": 1, "classes": [0, 1, 0, 1], "q": 2})
        j = CouplingArray(2, 2, 2, {1: np.eye(2), 2: -np.eye(2)})
        jf = write_json(tmp_path / "j.json", j.to_json())
        g5 = write_json(tmp_path / "g5.json", hypergraph_to_json(
            make_hypergraph(5, 2, 2, [1, 2, 1, 1, 2, 1, 2, 1, 2, 1])))
        uf, vf = transfer_files
        commands = [
            ["density", "--pattern", f, "--in", graph_file],
            ["tvdist", "--a", graph_file, "--b", graph_file, "--q", "2"],
            ["cutnorm", "--in", graph_file],
            ["cutnorm-p", "--in", graph_file, "--partition", part],
            ["gse", "--in", graph_file, "--coupling", jf],
            ["regularize", "--in", graphon_file, "--eps", "0.4", "--seed", "0"],
            ["sample", "--in", graph_file, "--q", "3", "--seed", "2"],
            ["transfer", "--source", uf, "--witness", vf, "--q", "10", "--q0", "2",
             "--seed", "21"],
            ["nd-estimate", "--in", g5, "--witness", "signed-split",
             "--q", "5", "--q0", "2", "--seed", "4"],
            ["probe", "--in", graph_file, "--parameter", "edge-density",
             "--eps", "0.3", "--q-grid", "3", "--trials", "4", "--seed", "1"],
            ["prop-test", "--in", graph_file, "--property", "complete-witness",
             "--eps", "0.3", "--seed", "2"],
        ]
        assert sorted(argv[0] for argv in commands) == sorted(set(SUBCOMMANDS) - {"oracle-suite"})
        for argv in commands:
            payload = run_json(capsys, argv)
            assert payload["mode"] in ("exact", "heuristic", "mc", "auto"), argv
            assert payload["command"] == argv[0]

    def test_split_timings_makes_plain_json(self) -> None:
        payload = {
            "a": np.float64(0.5), "b": np.int64(3), "c": np.bool_(True),
            "d": np.arange(3), "e": np.array(2.5), "f": (1, np.int64(2)),
            "g": [np.float32(0.25), np.arange(2), np.array([[1.5], [2.5]])],
            "h": np.arange(4).reshape(2, 2),
            "nest": [0, {"b": [{"seconds": 3.0, "y": np.float64(4.0)}]}],
            7: {"seconds": np.float64(1.5), "x": 1}, "rows": [{"seconds": 0.1}],
            "seconds": 2.0,
        }
        cleaned, timings = cli._split_timings(payload)
        assert cleaned == {
            "a": 0.5, "b": 3, "c": True, "d": [0, 1, 2], "e": 2.5, "f": [1, 2],
            "g": [0.25, [0, 1], [[1.5], [2.5]]], "h": [[0, 1], [2, 3]],
            "nest": [0, {"b": [{"y": 4.0}]}], "7": {"x": 1}, "rows": [{}],
        }
        assert [type(cleaned[key]) for key in "abce"] == [float, int, bool, float]
        assert type(cleaned["f"][1]) is int
        assert [type(x) for x in (cleaned["g"][0], cleaned["g"][1][0], cleaned["g"][2][0][0])] \
            == [float, int, float]
        assert type(cleaned["h"][1][0]) is int
        assert type(cleaned["nest"][1]["b"][0]["y"]) is float
        assert timings == {"7": 1.5, "rows[0]": 0.1, "nest[1].b[0]": 3.0, "total": 2.0}
        assert type(timings["7"]) is float

    def test_step_graphon_json_has_python_ints_and_floats(self) -> None:
        w = random_step_graphon(2, 2, 2, 4, seed=7, with_iota=True)
        d = step_graphon_to_json(w)
        assert d["labels"] == [int(x) for x in w.partition.labels.ravel()]
        assert {type(x) for x in d["labels"]} == {int}
        for c, arr in w.arrays.items():
            assert d["arrays"][str(c)] == [float(x) for x in arr.ravel()]
            assert {type(x) for x in d["arrays"][str(c)]} == {float}

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
        assert lines[0] == "round,residual,classes,mode"
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

    @pytest.mark.parametrize("command", ["regularize", "probe", "prop-test", "transfer"])
    def test_nan_proximity_is_refused_by_name(
        self, command: str, graph_file: str, graphon_file: str,
        transfer_files: tuple[str, str], capsys
    ) -> None:
        # NaN fails every comparison, so only "not x > 0" checks refuse it
        uf, vf = transfer_files
        argv, message = {
            "regularize": (["regularize", "--in", graphon_file, "--eps", "nan", "--seed", "0"],
                           "eps must be positive"),
            "probe": (["probe", "--in", graph_file, "--parameter", "edge-density",
                       "--eps", "nan", "--q-grid", "3", "--seed", "1"], "eps must be positive"),
            "prop-test": (["prop-test", "--in", graph_file, "--property", "complete-witness",
                           "--eps", "nan", "--seed", "2"], "eps must be positive"),
            "transfer": (["transfer", "--source", uf, "--witness", vf, "--q", "10",
                          "--q0", "2", "--seed", "21", "--delta", "nan"],
                         "delta must be positive"),
        }[command]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command,option,value,message", [
        ("regularize", "--eps", "inf", "eps must be finite, got inf"),
        ("probe", "--eps", "inf", "eps must be finite, got inf"),
        ("prop-test", "--eps", "inf", "eps must be finite, got inf"),
        ("transfer", "--delta", "inf", "delta must be finite, got inf"),
        ("transfer", "--reg-floor", "nan", "reg_floor must be finite and >= 0, got nan"),
        ("transfer", "--reg-floor", "-1", "reg_floor must be finite and >= 0, got -1.0"),
        # written as "transferred_bound": Infinity, 2 * k * reg_floor
        ("transfer", "--reg-floor", "1e308",
         "2 * k * reg_floor overflows, got reg_floor = 1e+308"),
    ])
    def test_non_finite_inputs_are_refused_by_name(
        self, command: str, option: str, value: str, message: str, graph_file: str,
        graphon_file: str, transfer_files: tuple[str, str], capsys
    ) -> None:
        # inf passes "x > 0", and max(delta, nan) drops a NaN floor
        uf, vf = transfer_files
        argv = {
            "regularize": ["regularize", "--in", graphon_file, "--seed", "0"],
            "probe": ["probe", "--in", graph_file, "--parameter", "edge-density",
                      "--q-grid", "3", "--seed", "1"],
            "prop-test": ["prop-test", "--in", graph_file, "--property", "complete-witness",
                          "--seed", "2"],
            "transfer": ["transfer", "--source", uf, "--witness", vf, "--q", "10",
                         "--q0", "2", "--seed", "21"],
        }[command]
        assert cli.run(argv + [option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("q0", ["40", "200"])
    def test_lift_schedule_past_the_float_range_reaches_the_budget(
        self, q0: str, transfer_files: tuple[str, str], capsys
    ) -> None:
        # (kt)^(q0^2) overflows a float; the schedule is then tiny and the
        # floor decides, until the q0-fold volume law refuses through the budget
        uf, vf = transfer_files
        assert cli.run(["transfer", "--source", uf, "--witness", vf, "--q", "10",
                        "--q0", q0, "--seed", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "budget refusal: lift stage 'refine_source_partition': product law expansion")

    def test_delta_whose_schedule_numerator_overflows_is_refused_by_name(
        self, transfer_files: tuple[str, str], capsys
    ) -> None:
        uf, vf = transfer_files
        assert cli.run(["transfer", "--source", uf, "--witness", vf, "--q", "10",
                        "--q0", "2", "--seed", "21", "--delta", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: delta * r! overflows, got delta = 1e+308\n"

    def test_huge_finite_eps_regularizes(self, graphon_file: str, capsys) -> None:
        # eps**2 overflows past 1.3e154; the round cap is 1 from eps = 1 on
        payload = run_json(capsys, ["regularize", "--in", graphon_file, "--eps", "1e308",
                                    "--seed", "0"])
        assert (payload["eps"], payload["rounds"]) == (1e308, 0)

    def test_prop_test_trials_need_q(self, graph_file: str) -> None:
        rc = cli.run([
            "prop-test", "--in", graph_file, "--property", "complete-witness",
            "--eps", "0.3", "--seed", "1", "--trials", "5",
        ])
        assert rc == 1

    def test_prop_test_refuses_negative_trials(self, graph_file: str, capsys) -> None:
        base = ["prop-test", "--in", graph_file, "--property", "complete-witness",
                "--eps", "0.3", "--seed", "2"]
        assert cli.run(base + ["--trials", "-5"]) == 1
        assert "--trials must be non-negative, got -5" in capsys.readouterr().err
        # zero trials is the single shot, as when --trials is left out
        assert run_json(capsys, base + ["--trials", "0"]) == run_json(capsys, base)

    def test_negative_round_caps_are_exit_1(
        self, graphon_file: str, transfer_files: tuple[str, str], capsys
    ) -> None:
        assert cli.run(["regularize", "--in", graphon_file, "--eps", "0.3", "--seed", "0",
                        "--max-rounds", "-1"]) == 1
        assert "max_rounds must be non-negative" in capsys.readouterr().err
        uf, vf = transfer_files
        assert cli.run(["transfer", "--source", uf, "--witness", vf, "--q", "10",
                        "--q0", "2", "--seed", "21", "--max-rounds", "-1"]) == 1
        assert "max_rounds must be non-negative" in capsys.readouterr().err

    def test_regularize_missing_its_target_is_exit_1(self, tmp_path: Path, capsys) -> None:
        w = random_step_graphon(2, 2, t=6, resolution=6, seed=1)
        wf = write_json(tmp_path / "w6.json", step_graphon_to_json(w))
        rc = cli.run(["regularize", "--in", wf, "--eps", "0.01", "--t", "1",
                      "--max-rounds", "0", "--mode", "exact"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: regularity target not met")

    def test_prop_test_rate_mode_is_byte_stable(self, graph_file: str, capsys) -> None:
        argv = ["prop-test", "--in", graph_file, "--property", "complete-witness",
                "--eps", "0.3", "--seed", "3", "--trials", "5", "--q", "4"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert set(payload) == {"command", "mode", "property", "seed", "q", "epsilon",
                                "trials", "accepted", "rate", "ci_low", "ci_high"}
        assert payload["mode"] == "mc" and payload["trials"] == 5 and payload["q"] == 4
        assert payload["rate"] == payload["accepted"] / 5
        assert payload["ci_low"] <= payload["rate"] <= payload["ci_high"]

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

    def test_transfer_lift_roundtrip(self, transfer_files: tuple[str, str], capsys) -> None:
        uf, vf = transfer_files
        payload = run_json(capsys, [
            "transfer", "--source", uf, "--witness", vf,
            "--q", "10", "--q0", "2", "--seed", "21",
        ])
        assert payload["graphon"]["k"] == 4
        stages = [row["stage"] for row in payload["diagnostics"]["stages"]]
        assert stages[0] == "sample" and stages[-1] == "transfer_to_source"


def parser_shape(parser) -> dict:
    """Every subcommand's option strings, dests, defaults and required flags."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: (sp._defaults, [(a.option_strings, a.dest, a.default, a.required)
                              for a in sp._actions])
        for name, sp in sub.choices.items()
    }


class TestParserCache:
    def test_run_reuses_one_parser_shaped_like_a_fresh_one(self) -> None:
        assert cli._parser() is cli._parser()
        fresh = cli.build_parser()
        assert fresh is not cli._parser()
        assert parser_shape(cli._parser()) == parser_shape(fresh)

    def test_cached_parser_gives_the_fresh_parser_results(
        self, graph_file: str, graphon_file: str, tmp_path: Path,
        capsys, monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        big = write_json(tmp_path / "big.json", step_graphon_to_json(
            random_step_graphon(2, 2, 6, 12, seed=13)))
        calls = [
            ["--help"],
            ["cutnorm", "--mode", "sideways"],
            ["cutnorm", "--in", graph_file, "--mode", "heuristic", "--restarts", "3",
             "--seed", "5"],
            ["cutnorm", "--in", graph_file],
            ["regularize", "--in", big, "--eps", "0.2", "--t", "2", "--seed", "0"],
            ["regularize", "--in", big, "--eps", "0.2", "--seed", "0"],
        ]

        def results() -> list:
            seen = []
            for i, argv in enumerate(calls):
                out = tmp_path / f"out{i}.json"
                out.unlink(missing_ok=True)
                rc = cli.run(argv + ["--out", str(out)] if argv[0] != "--help" else argv)
                printed = capsys.readouterr()
                seen.append((rc, printed.out, printed.err,
                             out.read_bytes() if out.exists() else None))
            return seen

        cli.run(["cutnorm", "--in", graph_file])  # the cached parser exists from here on
        capsys.readouterr()
        cached = results()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert cached == results()
        assert [rc for rc, *_ in cached] == [0, 1, 0, 0, 0, 0]
        assert "usage: hypertest" in cached[0][1]
        heuristic, exact, with_t, without_t = (json.loads(c[3]) for c in cached[2:])
        assert (heuristic["mode"], exact["mode"]) == ("heuristic", "exact")
        # --t 2 leaves the 6-class partition in round 0; the default t keeps it
        assert (with_t["classes"], without_t["classes"]) == (12, 6)


class TestBudgetEnv:
    def test_env_budget_refuses(self, graph_file: str, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("HYPERTEST_BUDGET", "2")
        assert cli.run(["cutnorm", "--in", graph_file]) == 2

    def test_explicit_budget_beats_env(self, graph_file: str, monkeypatch: pytest.MonkeyPatch) -> None:
        monkeypatch.setenv("HYPERTEST_BUDGET", "2")
        assert cli.run(["cutnorm", "--in", graph_file, "--budget", "100000"]) == 0

    def test_env_budget_is_read_once_per_call(self, graph_file: str, capsys,
                                              monkeypatch: pytest.MonkeyPatch) -> None:
        # prop-test checks the budget once per refinement candidate; the
        # call resolves HYPERTEST_BUDGET once and scopes the number
        reads = []

        class CountingEnv(dict):
            def get(self, key, default=None):
                reads.append(key)
                return super().get(key, default)

        monkeypatch.setattr(budget, "os", SimpleNamespace(
            environ=CountingEnv(HYPERTEST_BUDGET="100000")))
        payload = run_json(capsys, ["prop-test", "--in", graph_file, "--property",
                                    "complete-witness", "--eps", "0.3", "--seed", "2"])
        assert payload["command"] == "prop-test"
        assert reads == ["HYPERTEST_BUDGET"]

    def test_malformed_env_budget_fails_every_call(self, graph_file: str, capsys,
                                                   monkeypatch: pytest.MonkeyPatch) -> None:
        # sampling never checks the budget, yet the call resolves it up
        # front; an explicit --budget leaves the environment unread
        monkeypatch.setenv("HYPERTEST_BUDGET", "lots")
        assert cli.run(["sample", "--in", graph_file, "--q", "3", "--seed", "2"]) == 1
        assert "HYPERTEST_BUDGET must be an integer" in capsys.readouterr().err
        assert cli.run(["cutnorm", "--in", graph_file, "--budget", "100000"]) == 0

    def test_budget_reaches_the_class_tuple_weights(self, tmp_path: Path, capsys) -> None:
        # the r = 3 orbit weights of a resolution-4 grid need a 6400-cell
        # intermediate row; --budget must refuse it as HYPERTEST_BUDGET does.
        # Cached orbits skip that enumeration, so start from empty caches.
        # --t 1 coarsens round zero, so the residual sweep runs: on the
        # source's own partition the L1 bound certifies it without orbits.
        cutnorm._orbit_atoms.cache_clear()
        graphon.orbit_partition.cache_clear()
        w = random_step_graphon(3, 2, t=3, resolution=4, seed=5)
        wf = write_json(tmp_path / "w3.json", step_graphon_to_json(w))
        rc = cli.run(["regularize", "--in", wf, "--eps", "0.3", "--mode", "heuristic",
                      "--t", "1", "--max-rounds", "1", "--seed", "1", "--budget", "1000"])
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


# Byte goldens of the refinement-search subcommands, recorded with the
# per-candidate search: a search that scores color histograms instead
# must return the same values and the same winning colorings. Every case
# fits the default budget, so "auto" enumerates in both.
SEARCH_ARGVS = {
    "nd-estimate": ["nd-estimate", "--in", "{g6}", "--witness", "signed-split",
                    "--q", "5", "--q0", "2", "--seed", "4"],
    "prop-test": ["prop-test", "--in", "{g6}", "--property", "complete-witness",
                  "--eps", "0.3", "--seed", "2"],
    "prop-test-complete": ["prop-test", "--in", "{k6}", "--property", "complete-witness",
                           "--eps", "0.3", "--seed", "2"],
    "prop-test-trials": ["prop-test", "--in", "{g8}", "--property", "complete-witness",
                         "--eps", "0.3", "--q", "4", "--trials", "5", "--seed", "3"],
}

GOLDEN_SEARCH_ARTIFACTS = {
    "nd-estimate": "1a44a1c5fc2157c0effef11967dde44ed94754084f0eaf0843efa2db09612103",
    "prop-test": "42d7f1947ecaeb4d0ebc2917ec0476738109df01b3be2efa1baaaae1c8aa7278",
    "prop-test-complete": "4977cc19144832af305f37b1005a4760a1fa728cc06a1a505d2f4c6447881354",
    "prop-test-trials": "4a5a0d7921cf1752a470b95ada9b1e6ef90e193878f306c70e0cf666d9fa1470",
}


@pytest.mark.parametrize("name", sorted(SEARCH_ARGVS))
def test_golden_search_artifacts(name: str, tmp_path: Path) -> None:
    def random_graph(n: int, seed: int):
        colors = generator(seed).integers(1, 3, size=n * (n - 1) // 2)
        return make_hypergraph(n, 2, 2, [int(c) for c in colors])

    graphs = {"g6": random_graph(6, 61), "g8": random_graph(8, 81),
              "k6": make_hypergraph(6, 2, 2, [1] * 15)}
    paths = {key: write_json(tmp_path / f"{key}.json", hypergraph_to_json(g))
             for key, g in graphs.items()}
    out = tmp_path / "out.json"
    argv = [arg.format(**paths) for arg in SEARCH_ARGVS[name]] + ["--out", str(out)]
    assert cli.run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SEARCH_ARTIFACTS[name]


# Byte goldens of the probe subcommand, recorded with one sample_subgraph
# and one parameter call per trial: a probe that draws each q's trials as
# one batch and scores them by color histogram must write the same bytes.
PROBE_ARGVS = {
    "edge-density": ["probe", "--in", "{g30}", "--parameter", "edge-density",
                     "--eps", "0.1", "--q-grid", "6,20", "--trials", "60", "--seed", "5"],
    "signed-split": ["probe", "--in", "{s20}", "--parameter", "signed-split",
                     "--eps", "0.2", "--q-grid", "4,9,16", "--trials", "50", "--seed", "6"],
    "triple-density": ["probe", "--in", "{t12}", "--parameter", "triple-density",
                       "--eps", "0.15", "--q-grid", "3,7,12", "--trials", "40", "--seed", "7"],
}

GOLDEN_PROBE_ARTIFACTS = {
    "edge-density": "a4271cba502801cb45353b0843c5411300e93c98643265af9e90833b45d53828",
    "signed-split": "32d552e9794b00313735e6ef52a5f735dfe7fcbe2aa11bb0a4451ff921f4bfd9",
    "triple-density": "48b2572f03b5a3225e04886c8b53bd33784bcbde3db9dee94871826b6444231f",
}


@pytest.mark.parametrize("name", sorted(PROBE_ARGVS))
def test_golden_probe_artifacts(name: str, tmp_path: Path) -> None:
    def random_graph(n: int, r: int, k: int, seed: int):
        colors = generator(seed).integers(1, k + 1, size=math.comb(n, r))
        return make_hypergraph(n, r, k, [int(c) for c in colors])

    graphs = {"g30": random_graph(30, 2, 2, 301), "s20": random_graph(20, 2, 4, 201),
              "t12": random_graph(12, 3, 2, 121)}
    paths = {key: write_json(tmp_path / f"{key}.json", hypergraph_to_json(g))
             for key, g in graphs.items()}
    out = tmp_path / "out.json"
    argv = [arg.format(**paths) for arg in PROBE_ARGVS[name]] + ["--out", str(out)]
    assert cli.run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PROBE_ARTIFACTS[name]


class TestStandardJson:
    def test_out_into_a_missing_directory_is_exit_1(self, graph_file: str, tmp_path: Path,
                                                     capsys) -> None:
        out = tmp_path / "missing" / "out.json"
        assert cli.run(["cutnorm", "--in", graph_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("kind", ["array", "coupling"])
    def test_a_file_with_a_non_standard_constant_is_refused_by_name(
        self, kind: str, constant: str, graph_file: str, tmp_path: Path, capsys
    ) -> None:
        bad = tmp_path / f"{kind}.json"
        if kind == "array":
            bad.write_text(f'{{"array": [[0.0, {constant}], [0.5, 0.25]]}}')
            argv = ["cutnorm", "--in", str(bad)]
        else:
            bad.write_text(f'{{"k": 2, "q": 2, "r": 2, "arrays": '
                           f'{{"1": [{constant}, 0, 0, 0], "2": [0, 0, 0, 0]}}}}')
            argv = ["gse", "--in", graph_file, "--coupling", str(bad), "--mode", "exact"]
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad} is not standard JSON: it holds {constant}, "
                                "which standard JSON does not allow\n")

    def test_a_one_trial_density_writes_a_null_stderr(self, graph_file: str, tmp_path: Path,
                                                      capsys) -> None:
        # the standard error of one trial is undefined; it was written as Infinity
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        out = tmp_path / "d.json"
        assert cli.run(["density", "--pattern", f, "--in", graph_file, "--mode", "mc",
                        "--trials", "1", "--seed", "3", "--out", str(out)]) == 0
        assert '"stderr": null' in out.read_text()
        assert json.loads(out.read_text(), parse_constant=_refuse_constant)["stderr"] is None

    def test_a_non_finite_result_is_refused_and_writes_nothing(
        self, graph_file: str, tmp_path: Path, capsys, monkeypatch
    ) -> None:
        # the handler looks density_mc up when it runs
        monkeypatch.setattr(cli, "density_mc", lambda *args, **kwargs: (math.nan, None))
        f = write_json(tmp_path / "f.json", hypergraph_to_json(make_hypergraph(2, 2, 2, [1])))
        out = tmp_path / "d.json"
        assert cli.run(["density", "--pattern", f, "--in", graph_file, "--mode", "mc",
                        "--seed", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"
        assert not out.exists()
        assert not Path(str(out) + ".meta.json").exists()

    def test_a_refusal_past_the_int_to_str_limit_is_exit_2(
        self, transfer_files: tuple[str, str], capsys
    ) -> None:
        # the q0-fold volume law has more than 10**4300 outcomes
        uf, vf = transfer_files
        assert cli.run(["transfer", "--source", uf, "--witness", vf, "--q", "10",
                        "--q0", "5000", "--seed", "21"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "budget refusal: lift stage 'refine_source_partition': product law expansion: "
            "enumeration needs at least 2^")

    @pytest.mark.parametrize("command,eps,rc", [
        ("regularize", "5e-324", 1),  # eps**2 is 0.0: ZeroDivisionError
        ("regularize", "1e-160", 1),  # 1 / eps**2 is inf: OverflowError
        ("regularize", "1e-100", 1),  # 4 classes rebuilt for up to 1e200 rounds
        ("prop-test", "5e-324", 0),  # ln 5 / eps is inf: OverflowError
    ])
    def test_tiny_proximities_exit_with_a_code(self, command: str, eps: str, rc: int,
                                               graph_file: str, tmp_path: Path,
                                               capsys) -> None:
        w = write_json(tmp_path / "w.json", step_graphon_to_json(
            random_step_graphon(2, 2, t=4, resolution=4, seed=1)))
        argv = {
            "regularize": ["regularize", "--in", w, "--seed", "1"],
            "prop-test": ["prop-test", "--in", graph_file, "--property", "complete-witness",
                          "--seed", "2"],
        }[command]
        assert cli.run(argv + ["--eps", eps]) == rc
        if rc:
            assert capsys.readouterr().err.startswith(
                "error: regularity target not met: residual 7.80626e-18 still above target "
                f"{float(eps):.6g} after 0 refinement rounds")


def _refuse_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


# The perfbench cli fixture's argv shapes, on files built the same way.
NUMERIC_ARGVS = {
    "density-exact": ["density", "--pattern", "{pattern}", "--in", "{g8}", "--mode", "exact"],
    "density-mc": ["density", "--pattern", "{pattern}", "--in", "{w}", "--mode", "mc",
                   "--seed", "1"],
    "tvdist": ["tvdist", "--a", "{g8}", "--b", "{w}", "--q", "3"],
    "cutnorm-exact": ["cutnorm", "--in", "{g8}", "--mode", "exact"],
    "cutnorm-heuristic": ["cutnorm", "--in", "{g8}", "--mode", "heuristic", "--seed", "1"],
    "cutnorm-p-exact": ["cutnorm-p", "--in", "{g8}", "--partition", "{partition}",
                        "--mode", "exact"],
    "cutnorm-p-heuristic": ["cutnorm-p", "--in", "{g8}", "--partition", "{partition}",
                            "--mode", "heuristic", "--seed", "1"],
    "gse-exact": ["gse", "--in", "{g8}", "--coupling", "{coupling}", "--mode", "exact"],
    "gse-heuristic": ["gse", "--in", "{g6}", "--coupling", "{coupling}", "--mode", "heuristic",
                      "--restarts", "2", "--seed", "1"],
    "regularize": ["regularize", "--in", "{w}", "--eps", "0.3", "--seed", "1"],
    "sample": ["sample", "--in", "{w}", "--q", "30", "--seed", "1"],
    "transfer": ["transfer", "--source", "{source}", "--witness", "{witness}", "--q", "30",
                 "--q0", "2", "--seed", "7"],
    "nd-estimate": ["nd-estimate", "--in", "{g5}", "--witness", "signed-split", "--q", "5",
                    "--q0", "2", "--seed", "1"],
    "probe": ["probe", "--in", "{g40}", "--parameter", "edge-density", "--eps", "0.2",
              "--q-grid", "10,20", "--trials", "100", "--seed", "1"],
    "prop-test": ["prop-test", "--in", "{g8}", "--property", "complete-witness", "--eps", "0.3",
                  "--q", "4", "--trials", "50", "--seed", "1"],
}


def _numeric_options(subcommand: str) -> list[tuple[str, type]]:
    """The int and float options of a subcommand, but --budget."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[subcommand]
    return [(a.option_strings[0], a.type) for a in sub._actions
            if a.type in (int, float) and a.dest != "budget"]


NUMERIC_CASES = [(name, option, kind) for name, argv in NUMERIC_ARGVS.items()
                 for option, kind in _numeric_options(argv[0])]

# edge floats first, then ordinary ones; integers stay small, since
# sample --q and the trial counts size allocations the budget does not count
_FLOATS = (st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 5e-324, 1e-160,
                            1e-100, 1e308])
           | st.floats(min_value=1e-3, max_value=10.0))
_INTS = st.integers(min_value=-1, max_value=40)
_CASE = st.sampled_from(NUMERIC_CASES).flatmap(
    lambda case: st.tuples(st.just(case), _FLOATS if case[2] is float else _INTS))


@pytest.fixture(scope="module")
def numeric_files(tmp_path_factory: pytest.TempPathFactory) -> dict[str, str]:
    from hypertest.graphon import sample_graphon
    from hypertest.seeds import derive_seed
    from hypertest.transfer import discolor_step, embed_sample

    root = tmp_path_factory.mktemp("numeric")

    def random_graph(n: int, seed: int):
        colors = generator(seed).integers(1, 3, size=math.comb(n, 2))
        return make_hypergraph(n, 2, 2, [int(c) for c in colors])

    u0 = random_step_graphon(2, 4, t=2, resolution=4, seed=2)
    payloads = {key: hypergraph_to_json(random_graph(n, n))
                for key, n in (("g5", 5), ("g6", 6), ("g8", 8), ("g40", 40), ("pattern", 3))}
    payloads.update({
        "w": step_graphon_to_json(random_step_graphon(2, 2, t=4, resolution=4, seed=1)),
        "source": step_graphon_to_json(discolor_step(u0, 2)),
        "witness": step_graphon_to_json(embed_sample(sample_graphon(u0, 30, derive_seed(7, 0)))),
        "partition": {"n": 8, "r_minus_1": 1, "classes": [0, 1, 1, 0, 1, 0, 0, 1], "q": 2},
        "coupling": CouplingArray(2, 2, 2, {
            1: np.array([[1.0, -0.5], [-0.5, 0.25]]),
            2: np.array([[-0.25, 0.5], [0.5, -1.0]]),
        }).to_json(),
    })
    paths = {key: write_json(root / f"{key}.json", payload) for key, payload in payloads.items()}
    paths["out"] = str(root / "out.json")
    return paths


class TestNumericOptions:
    @settings(max_examples=300, deadline=None)
    @given(drawn=_CASE)
    @example(drawn=(("density-mc", "--trials", int), 1))
    @example(drawn=(("regularize", "--eps", float), 5e-324))
    @example(drawn=(("regularize", "--eps", float), 1e-160))
    @example(drawn=(("regularize", "--eps", float), 1e-100))
    @example(drawn=(("prop-test", "--eps", float), 5e-324))
    @example(drawn=(("transfer", "--reg-floor", float), 1e308))
    def test_every_numeric_option_exits_with_a_code_and_standard_json(
        self, drawn: tuple[tuple[str, str, type], float | int], numeric_files: dict[str, str]
    ) -> None:
        (name, option, _), value = drawn
        argv = [arg.format(**numeric_files) for arg in NUMERIC_ARGVS[name]]
        if option in argv:
            del argv[argv.index(option):argv.index(option) + 2]
        out = Path(numeric_files["out"])
        meta = Path(str(out) + ".meta.json")
        for path in (out, meta):
            path.unlink(missing_ok=True)
        # "--eps=-inf", since argparse reads "-inf" after "--eps" as an option
        argv += [f"{option}={value!r}", "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.run(argv)
        assert rc in (0, 1, 2)
        if rc == 0:
            for path in (out, meta):
                json.loads(path.read_text(), parse_constant=_refuse_constant)
        else:
            assert not out.exists()
            assert err.getvalue().startswith(("error: ", "budget refusal: "))
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    @pytest.mark.parametrize("name", ["regularize", "transfer", "nd-estimate", "prop-test"])
    def test_auto_mode_refuses_nonpositive_restarts(
        self, name: str, restarts: str, numeric_files: dict[str, str], capsys
    ) -> None:
        argv = [arg.format(**numeric_files) for arg in NUMERIC_ARGVS[name]]
        assert cli.run(argv + [f"--restarts={restarts}"]) == 1
        assert f"restarts must be at least 1, got {restarts}" in capsys.readouterr().err

    @pytest.mark.parametrize("q0", ["1000000", "100000000", str(10**200)])
    def test_a_huge_q0_refuses_through_the_budget_at_once(
        self, q0: str, numeric_files: dict[str, str], capsys
    ) -> None:
        # the q0-fold volume law is sized before it is counted, and the
        # lift schedule's exponent stays in the float range
        argv = [arg.format(**numeric_files) for arg in NUMERIC_ARGVS["transfer"]]
        argv[argv.index("--q0") + 1] = q0
        start = time.perf_counter()
        assert cli.run(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(
            "budget refusal: lift stage 'refine_source_partition': product law expansion: "
            "enumeration needs at least 2^")

    def test_prop_test_rate_runs_every_trial_at_the_given_restarts(
        self, numeric_files: dict[str, str], monkeypatch, capsys
    ) -> None:
        seen: list[int] = []
        tester = testers.property_tester

        def recording(*args, **kwargs):
            seen.append(kwargs["restarts"])
            return tester(*args, **kwargs)

        monkeypatch.setattr(testers, "property_tester", recording)
        argv = [arg.format(**numeric_files) for arg in NUMERIC_ARGVS["prop-test"]]
        assert cli.run(argv + ["--trials", "7", "--restarts", "3"]) == 0
        assert seen == [3] * 7
        assert json.loads(capsys.readouterr().out)["trials"] == 7

    def test_tvdist_refuses_a_sample_past_the_vertex_count(
        self, numeric_files: dict[str, str], capsys
    ) -> None:
        argv = [arg.format(**numeric_files) for arg in NUMERIC_ARGVS["tvdist"]]
        argv[argv.index("--q") + 1] = "9"
        assert cli.run(argv) == 1
        assert "sample size 9 exceeds vertex count 8" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the artifact writer against the stdlib encoder it stands in for

# repeated values, both zeros, subnormals and exponent forms
_FLOAT_POOL = [0.0, -0.0, 1e-05, 1e+16, 1e22, 5e-324, 2.2250738585072014e-308,
               1.5e-310, 0.1, -2.5, 1 / 3, 1e-07, 123456789.0]
_NON_FINITE = [math.nan, math.inf, -math.inf]
_finite = st.sampled_from(_FLOAT_POOL) | st.floats(allow_nan=False, allow_infinity=False)
_ints = st.integers() | st.sampled_from([2**64, -(2**100), 10**300])
_texts = st.text() | st.sampled_from(["", "é", "naïve ∑ 🎲", "\u2028", "tab\tquote\"\\"])


def _json_trees(floats: st.SearchStrategy) -> st.SearchStrategy:
    leaves = (floats | _ints | st.booleans() | st.none() | _texts
              | st.lists(floats) | st.lists(st.sampled_from(_FLOAT_POOL), min_size=2)
              | st.lists(_ints))
    return st.recursive(
        leaves,
        lambda children: (st.lists(children) | st.lists(children).map(tuple)
                          | st.dictionaries(_texts, children)),
        max_leaves=25,
    )


def _stdlib_text(x):
    return json.dumps(x, indent=2, sort_keys=True, allow_nan=False)


def _outcome(encode, x):
    try:
        return encode(x)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


class TestJsonText:
    @settings(max_examples=200, deadline=None)
    @given(_json_trees(_finite))
    def test_writes_the_stdlib_bytes(self, x) -> None:
        assert cli._json_text(x) == _stdlib_text(x)

    @settings(max_examples=150, deadline=None)
    @given(_json_trees(_finite | st.sampled_from(_NON_FINITE)))
    def test_refuses_what_the_stdlib_refuses_with_its_text(self, x) -> None:
        assert _outcome(cli._json_text, x) == _outcome(_stdlib_text, x)

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("place", [
        lambda v: v,
        lambda v: [1.0, 2.0, v, 1.0],
        lambda v: [1, "a", v],
        lambda v: {"b": {"c": [0.0, -0.0, v]}, "a": 1.0},
        lambda v: ([[0.5] * 3, (v,)],),
    ])
    def test_a_non_finite_float_anywhere_raises_the_stdlib_error(self, bad, place) -> None:
        with pytest.raises(ValueError) as err:
            cli._json_text(place(bad))
        assert str(err.value) == ("Out of range float values are not JSON compliant: "
                                  + repr(bad))

    @pytest.mark.parametrize("x", [
        {1: [1.5, 2.5], "2": None},  # keys the stdlib cannot sort
        {"a": [{1: 0.5, 2.5: [True, -0.0], -3: {}}]},  # non-str keys it converts
        {"a": {None: "x", False: 1e-05}},
        [1.0, object()],
        {"a": {"b": b"bytes"}},
        np.float64(0.25),
        [np.float64(1e-05), 3.0],
    ])
    def test_other_types_go_to_the_stdlib(self, x) -> None:
        assert _outcome(cli._json_text, x) == _outcome(_stdlib_text, x)
