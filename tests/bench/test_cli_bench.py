"""End-to-end `repro bench` CLI: emit, compare, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import WALL_NOTE
from repro.cli import main


def run_bench_cli(tmp_path, *extra, tag="cli"):
    return main([
        "bench", "--tag", tag, "--matrix", "tiny-test",
        "--repeats", "1", "--out", str(tmp_path), *extra,
    ])


def doctored(tmp_path, payload):
    path = tmp_path / "BENCH_doctored.json"
    path.write_text(json.dumps(payload))
    return path


class TestBenchCommand:
    def test_emits_schema_versioned_report(self, tiny_matrix, tmp_path, capsys):
        assert run_bench_cli(tmp_path) == 0
        payload = json.loads((tmp_path / "BENCH_cli.json").read_text())
        assert payload["bench_schema"] == 1
        assert len(payload["cells"]) == 2
        assert "BENCH_cli.json" in capsys.readouterr().out

    def test_compare_against_self_passes(self, tiny_matrix, tmp_path, capsys):
        assert run_bench_cli(tmp_path, tag="base") == 0
        code = run_bench_cli(
            tmp_path, "--compare", str(tmp_path / "BENCH_base.json"),
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_faster_baseline_is_reported_not_gated(self, tiny_matrix, tmp_path,
                                                   capsys):
        """A baseline 10x faster on every cell exits 0: wall clock is
        printed per cell with a note that it is not gated."""
        assert run_bench_cli(tmp_path, tag="base") == 0
        base = json.loads((tmp_path / "BENCH_base.json").read_text())
        for cell in base["cells"]:
            cell["wall_s"] /= 10.0
        code = run_bench_cli(tmp_path, "--compare",
                             str(doctored(tmp_path, base)))
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert any(l.startswith("matrix wall-clock: ") for l in out)
        assert sum(l.startswith("  bench-tiny-road/") for l in out) == 2
        assert WALL_NOTE in out
        assert out[-1] == "OK"

    @pytest.mark.parametrize("edit, finding", [
        (lambda c: c.update(work_count=c["work_count"] + 1), "MISMATCH"),
        (lambda c: c.update(time_us=c["time_us"] * 2), "MISMATCH"),
        (lambda c: c.update(dist_sha256="0" * 64), "MISMATCH"),
        (lambda c: c.update(solver="gone"), "MISSING"),
        (lambda c: c.pop("dist_sha256"), "MISSING"),
    ], ids=["work_count", "time_us", "dist_sha256", "missing-cell",
            "missing-field"])
    def test_simulated_divergence_exits_nonzero(self, tiny_matrix, tmp_path,
                                                capsys, edit, finding):
        assert run_bench_cli(tmp_path, tag="base") == 0
        base = json.loads((tmp_path / "BENCH_base.json").read_text())
        edit(base["cells"][0])
        code = run_bench_cli(tmp_path, "--compare",
                             str(doctored(tmp_path, base)))
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert sum(l.startswith(f"{finding}: ") for l in out) == 1
        assert out[-1] == "FAIL"

    def test_json_mode_carries_compare_verdict(self, tiny_matrix, tmp_path, capsys):
        assert run_bench_cli(tmp_path, tag="base") == 0
        capsys.readouterr()
        code = run_bench_cli(
            tmp_path, "--compare", str(tmp_path / "BENCH_base.json"), "--json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compare"]["ok"] is True
        assert payload["compare"]["mismatches"] == []
        assert "threshold_pct" not in payload["compare"]

    def test_unknown_baseline_is_a_clean_error(self, tiny_matrix, tmp_path, capsys):
        code = run_bench_cli(tmp_path, "--compare", str(tmp_path / "missing.json"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_threshold_option_is_gone(self, tiny_matrix, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_bench_cli(tmp_path, "--threshold", "10")
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
