"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graphs import grid_road, read_gr, write_gr


@pytest.fixture
def gr_file(tmp_path):
    p = tmp_path / "road.gr"
    write_gr(grid_road(12, 9, seed=3), p)
    return str(p)


class TestGenerate:
    @pytest.mark.parametrize(
        "args",
        [
            ["road", "--width", "10", "--height", "8"],
            ["rmat", "--scale", "8"],
            ["gnm", "--n", "300", "--m", "900"],
            ["mesh", "--n", "300", "--band", "12"],
            ["geo", "--n", "300", "--k", "4"],
            ["cliques", "--cliques", "4", "--clique-size", "10"],
        ],
        ids=["road", "rmat", "gnm", "mesh", "geo", "cliques"],
    )
    def test_generate_each_kind(self, tmp_path, args, capsys):
        out = str(tmp_path / "g.gr")
        assert main(["generate", args[0], out] + args[1:]) == 0
        g = read_gr(out)
        assert g.num_vertices > 0
        assert "wrote" in capsys.readouterr().out


class TestInfo:
    def test_info_prints_stats(self, gr_file, capsys):
        assert main(["info", gr_file]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "pseudo-diameter" in out
        assert "108" in out  # 12*9 vertices

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/g.gr"]) == 2
        assert "error" in capsys.readouterr().err


class TestSolve:
    def test_solve_default_adds(self, gr_file, capsys):
        assert main(["solve", gr_file]) == 0
        out = capsys.readouterr().out
        assert "reached 108/108" in out

    @pytest.mark.parametrize("alg", ["nf", "gun-bf", "cpu-ds", "dijkstra"])
    def test_solve_other_algorithms(self, gr_file, alg, capsys):
        assert main(["solve", gr_file, "-a", alg]) == 0
        assert "work" in capsys.readouterr().out

    def test_solve_with_path(self, gr_file, capsys):
        assert main(["solve", gr_file, "--path-to", "107"]) == 0
        out = capsys.readouterr().out
        assert "path to 107" in out
        assert "->" in out

    def test_solve_multi_source(self, gr_file, capsys):
        assert main(["solve", gr_file, "--sources", "0,5,9"]) == 0

    def test_solve_writes_dist_file(self, gr_file, tmp_path, capsys):
        dist = str(tmp_path / "dist")
        assert main(["solve", gr_file, "--dist-out", dist]) == 0
        from repro.validation import read_dist_file

        assert read_dist_file(dist).size == 108

    def test_solve_3090_device(self, gr_file):
        assert main(["solve", gr_file, "--device", "3090"]) == 0

    def test_solve_with_delta(self, gr_file):
        assert main(["solve", gr_file, "-a", "nf", "--delta", "500"]) == 0

    def test_solve_json_output(self, gr_file, capsys):
        assert main(["solve", gr_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["solver"] == "adds"
        assert payload["reached"] == 108
        assert payload["stats"]["kernel_launches"] == 1
        assert "dist" not in payload

    def test_solve_json_with_dist_and_path(self, gr_file, capsys):
        assert main(
            ["solve", gr_file, "--json", "--json-dist", "--path-to", "107"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["dist"]) == 108
        assert payload["dist"][0] == 0.0
        assert payload["path_to"][0] == 0
        assert payload["path_to"][-1] == 107


class TestVerify:
    def test_matching_files(self, gr_file, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["solve", gr_file, "-a", "dijkstra", "--dist-out", a])
        main(["solve", gr_file, "-a", "nf", "--dist-out", b])
        capsys.readouterr()
        assert main(["verify", a, b]) == 0
        assert "OK" in capsys.readouterr().out

    def test_mismatching_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text("0 0\n1 5\n")
        b.write_text("0 0\n1 7\n")
        assert main(["verify", str(a), str(b)]) == 1
        assert "mismatch" in capsys.readouterr().out


class TestConvert:
    def test_gr_to_dimacs_roundtrip(self, gr_file, tmp_path, capsys):
        dimacs = str(tmp_path / "g.dimacs")
        back = str(tmp_path / "back.gr")
        assert main(["convert", gr_file, dimacs]) == 0
        assert main(["convert", dimacs, back]) == 0
        import numpy as np

        a, b = read_gr(gr_file), read_gr(back)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(a.weights, b.weights)


class TestSuite:
    def test_small_suite_run(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        rc = main([
            "suite", "--solvers", "adds,nf", "--categories", "road",
            "--scale", "0.25", "--max-graphs", "2", "--out", out,
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "speedup of adds over nf" in printed
        assert (tmp_path / "results" / "adds_result").exists()

    def test_suite_json_output(self, capsys):
        rc = main([
            "suite", "--solvers", "adds,nf", "--categories", "road",
            "--scale", "0.25", "--max-graphs", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["solvers"] == ["adds", "nf"]
        rec = payload["records"][0]
        assert set(rec["results"]) == {"adds", "nf"}
        assert rec["results"]["adds"]["time_us"] > 0
        assert payload["speedup"]["baseline"] == "nf"
        assert payload["verification_failures"] == []
        assert payload["failures"] == []
        assert payload["resumed"] == 0
        assert payload["options"] == {}

    def test_suite_parallel_matches_serial(self, capsys):
        args = [
            "suite", "--solvers", "adds,nf", "--categories", "road",
            "--scale", "0.25", "--max-graphs", "2", "--json",
        ]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["records"] == parallel["records"]
        assert serial["speedup"]["values"] == parallel["speedup"]["values"]

    def test_suite_resume_store(self, tmp_path, capsys):
        store = str(tmp_path / "sweep.jsonl")
        args = [
            "suite", "--solvers", "dijkstra", "--categories", "road",
            "--scale", "0.25", "--max-graphs", "2", "--json",
            "--resume", store,
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["resumed"] == 0
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["resumed"] == 2
        assert second["records"] == first["records"]


class TestTrace:
    def test_trace_writes_artifacts(self, gr_file, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["trace", gr_file, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace events" in printed
        doc = json.loads((out / "trace.json").read_text())
        thread_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "MTB" in thread_names
        assert any(n.startswith("WTB") for n in thread_names)
        assert (out / "counters.csv").exists()
        assert (out / "summary.txt").exists()

    def test_trace_bsp_solver(self, gr_file, tmp_path):
        out = tmp_path / "tr"
        assert main(["trace", gr_file, "-a", "nf", "--out", str(out)]) == 0
        assert (out / "trace.json").exists()

    def test_trace_rejects_cpu_solver(self, gr_file):
        with pytest.raises(SystemExit):
            main(["trace", gr_file, "-a", "dijkstra"])

    def test_trace_forwards_delta(self, gr_file, tmp_path, capsys):
        out = tmp_path / "tr"
        argv = ["trace", gr_file, "-a", "nf", "--delta", "500", "--json",
                "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["delta"] == 500.0

    def test_full_size_trace_matches_solve(self, gr_file, tmp_path, capsys):
        """Both front doors price a full-size card with the stock cost
        model (the full kernel-launch cost)."""
        times = {}
        for command in ("trace", "solve"):
            argv = [command, gr_file, "-a", "nf", "--full-size", "--json"]
            if command == "trace":
                argv += ["--out", str(tmp_path / "tr")]
            assert main(argv) == 0
            times[command] = json.loads(capsys.readouterr().out)["time_us"]
        assert times["trace"] == times["solve"]

    @pytest.mark.parametrize("command", ["trace", "solve"])
    def test_delta_the_solver_lacks_is_rejected(
        self, command, gr_file, tmp_path, capsys
    ):
        """``trace`` used to drop a Δ the solver cannot take; it now
        fails the same way ``solve`` does."""
        argv = [command, gr_file, "-a", "gun-bf", "--delta", "5"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "tr")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "does not take option 'delta'" in err
        assert "nf" in err

    def test_trace_json_output(self, gr_file, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["trace", gr_file, "--json", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["solver"] == "adds"
        assert payload["trace"]["events"] > 0
        assert any(p.endswith("trace.json") for p in payload["artifacts"])


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected_by_argparse(self, gr_file):
        with pytest.raises(SystemExit):
            main(["solve", gr_file, "-a", "warp-speed"])
