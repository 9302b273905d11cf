"""Tests for the verify_against analog."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.common import SSSPResult
from repro.errors import ValidationError
from repro.validation import (
    MismatchReport,
    assert_results_match,
    read_dist_file,
    verify_dist_files,
    verify_results,
    write_dist_file,
)


def result(dist, name="g", solver="x", source=0):
    return SSSPResult(
        solver=solver,
        graph_name=name,
        source=source,
        dist=np.asarray(dist, dtype=np.float64),
        work_count=1,
        time_us=1.0,
    )


class TestVerifyResults:
    def test_identical_pass(self):
        a = result([0, 1, np.inf])
        b = result([0, 1, np.inf])
        assert verify_results(a, b) == []

    def test_value_mismatch_reported(self):
        m = verify_results(result([0, 1, 2]), result([0, 9, 2]))
        assert len(m) == 1
        assert m[0].vertex == 1
        assert m[0].dist_a == 1 and m[0].dist_b == 9

    def test_reachability_mismatch_reported(self):
        m = verify_results(result([0, np.inf]), result([0, 5]))
        assert len(m) == 1

    def test_atol_tolerates_nv_rounding(self):
        """The artifact: NV distances can differ by 1 on int graphs."""
        a = result([0, 1000])
        b = result([0, 1001])
        assert verify_results(a, b, atol=1.0) == []
        assert len(verify_results(a, b)) == 1

    def test_rtol(self):
        a = result([0, 1e6])
        b = result([0, 1e6 * 1.0001])
        assert verify_results(a, b, rtol=1e-3) == []

    def test_different_graphs_rejected(self):
        with pytest.raises(ValidationError, match="different graphs"):
            verify_results(result([0], name="a"), result([0], name="b"))

    def test_different_sources_rejected(self):
        with pytest.raises(ValidationError, match="sources"):
            verify_results(result([0], source=0), result([0], source=1))

    def test_different_lengths_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            verify_results(result([0]), result([0, 1]))

    def test_max_report_caps_output(self):
        a = result(list(range(100)))
        b = result([x + 1 for x in range(100)])
        assert len(verify_results(a, b, max_report=5)) == 5

    def test_assert_raises_with_listing(self):
        with pytest.raises(ValidationError, match="mismatch"):
            assert_results_match(result([0, 1]), result([0, 2]))


class TestMismatchTotal:
    """max_report truncates the listing, never the count."""

    def test_total_survives_truncation(self):
        a = result(list(range(100)))
        b = result([x + 1 for x in range(100)])
        m = verify_results(a, b, max_report=5)
        assert isinstance(m, MismatchReport)
        assert len(m) == 5
        assert m.total == 100

    def test_total_matches_len_when_untruncated(self):
        m = verify_results(result([0, 1, 2]), result([0, 9, 7]))
        assert m.total == len(m) == 2

    def test_clean_compare_has_zero_total(self):
        m = verify_results(result([0, 1]), result([0, 1]))
        assert m == [] and m.total == 0

    def test_assert_message_reports_real_total(self):
        a = result(list(range(100)))
        b = result([x + 1 for x in range(100)])
        with pytest.raises(ValidationError, match="100 mismatches"):
            assert_results_match(a, b, max_report=5)

    def test_assert_raises_even_when_listing_empty(self):
        # max_report=0 yields an empty listing, but the compare still failed
        with pytest.raises(ValidationError, match="1 mismatches"):
            assert_results_match(result([0, 1]), result([0, 2]), max_report=0)


class TestDistFiles:
    def test_roundtrip(self, tmp_path):
        r = result([0, 2.5, np.inf, 7])
        p = tmp_path / "d"
        write_dist_file(r, p)
        back = read_dist_file(p)
        assert back[0] == 0 and back[1] == 2.5 and np.isinf(back[2]) and back[3] == 7

    def test_integer_formatting(self, tmp_path):
        p = tmp_path / "d"
        write_dist_file(result([0, 7]), p)
        assert "1 7\n" in p.read_text()

    def test_verify_dist_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dist_file(result([0, 1, np.inf]), a)
        write_dist_file(result([0, 2, np.inf]), b)
        m = verify_dist_files(a, b)
        assert len(m) == 1 and m[0].vertex == 1

    def test_verify_dist_files_length_mismatch(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dist_file(result([0]), a)
        write_dist_file(result([0, 1]), b)
        with pytest.raises(ValidationError, match="vertex count"):
            verify_dist_files(a, b)

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "d"
        p.write_text("0 1 extra\n")
        with pytest.raises(ValidationError, match="bad dist line"):
            read_dist_file(p)

    def test_end_to_end_with_real_solvers(self, tmp_path, small_road):
        """The full artifact flow: run two solvers, dump, verify on disk."""
        from repro.baselines import solve_dijkstra, solve_nf

        a = solve_nf(small_road, 0)
        b = solve_dijkstra(small_road, 0)
        pa, pb = tmp_path / "nf", tmp_path / "dij"
        write_dist_file(a, pa)
        write_dist_file(b, pb)
        assert verify_dist_files(pa, pb) == []


class TestNaNIsAlwaysAMismatch:
    """A solver emitting NaN is corrupt; NaN must never pass as INF."""

    def test_nan_vs_inf_mismatch(self):
        m = verify_results(result([0, np.nan]), result([0, np.inf]))
        assert len(m) == 1 and m[0].vertex == 1

    def test_nan_vs_value_mismatch(self):
        assert len(verify_results(result([0, np.nan]), result([0, 5.0]))) == 1

    def test_nan_vs_nan_mismatch(self):
        assert len(verify_results(result([0, np.nan]), result([0, np.nan]))) == 1

    def test_nan_fails_even_with_tolerances(self):
        a, b = result([0, np.nan]), result([0, np.nan])
        assert len(verify_results(a, b, atol=1e9, rtol=1.0)) == 1

    def test_assert_results_match_raises_on_nan(self):
        with pytest.raises(ValidationError):
            assert_results_match(result([0, np.nan]), result([0, np.nan]))

    def test_dist_files_nan_mismatch(self, tmp_path):
        pa, pb = tmp_path / "a_dist", tmp_path / "b_dist"
        pa.write_text("0 0\n1 nan\n")
        pb.write_text("0 0\n1 INF\n")
        assert len(verify_dist_files(pa, pb)) == 1

    def test_dist_files_nan_vs_nan_mismatch(self, tmp_path):
        pa, pb = tmp_path / "a_dist", tmp_path / "b_dist"
        pa.write_text("0 0\n1 nan\n")
        pb.write_text("0 0\n1 nan\n")
        assert len(verify_dist_files(pa, pb, atol=10.0)) == 1
