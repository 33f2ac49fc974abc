"""Unit tests of the CI perf gate (tools/bench_delta.py).

Covers the two personalities of the tool: the *trajectory summary*
(delta rows, ``new``/``removed`` markers) and the *enforced gate*
(stable-set regressions and removals exit 2; everything else warns).
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from bench_delta import (  # noqa: E402
    STABLE_BENCHMARKS,
    TOLERANCE,
    compare,
    load_record,
    main,
)

#: an arbitrary member of the enforced set, used by the gate tests
STABLE = "server_coalescing_speedup"


def record(**results):
    """A minimal BENCH_pr.json payload with the given results section."""
    return {"schema": "repro-bench/1", "python": "3.12.0", "results": results}


class TestStableSet:
    def test_declared_set_matches_the_recorded_benchmarks(self):
        """Every stable name really is produced by the bench suite.

        The recorded names are read off the ``record_benchmark(`` call
        sites under ``benchmarks/`` — not off a ``BENCH_pr.json`` from
        an earlier bench run, which a clean checkout does not have — so
        a typo in STABLE_BENCHMARKS cannot silently gate nothing.
        """
        benchmarks = Path(__file__).resolve().parents[2] / "benchmarks"
        recorded = {
            name
            for path in benchmarks.glob("bench_*.py")
            for name in re.findall(
                r'record_benchmark\(\s*"(\w+)"',
                path.read_text(encoding="utf-8"),
            )
        }
        missing = STABLE_BENCHMARKS - recorded
        assert not missing, (
            f"stable benchmarks never recorded: {sorted(missing)}"
        )

    def test_new_benchmarks_start_outside_the_stable_set(self):
        # The one-PR probation: benches added in this PR warn only.
        assert "cluster_read_throughput" not in STABLE_BENCHMARKS

    def test_previous_pr_benchmarks_are_promoted(self):
        # ...and benches that survived their probation PR are enforced.
        assert "skewed_tail_latency" in STABLE_BENCHMARKS
        assert "overload_shedding" in STABLE_BENCHMARKS

    def test_benches_whose_subject_left_the_tree_left_the_set(self):
        # The scalar twins these two raced against were deleted (1.2);
        # dropping them was the explicit edit the gate demands.
        assert "columnar_refinement_speedup" not in STABLE_BENCHMARKS
        assert "columnar_voronoi_speedup" not in STABLE_BENCHMARKS


class TestCompare:
    def test_improvement_and_noise_are_not_regressions(self):
        previous = record(bench={"speedup": 2.0, "batch_ms": 100.0})
        current = record(bench={"speedup": 2.1, "batch_ms": 95.0})
        rows, warnings, failures = compare(previous, current)
        assert warnings == [] and failures == []
        assert all(not row[5] for row in rows)

    def test_shrinking_speedup_warns_outside_the_stable_set(self):
        previous = record(bench={"speedup": 2.0})
        current = record(bench={"speedup": 2.0 * (1 - TOLERANCE) - 0.1})
        rows, warnings, failures = compare(previous, current)
        assert len(warnings) == 1 and "regressed" in warnings[0]
        assert failures == []
        assert rows[0][5] is True

    def test_shrinking_stable_speedup_is_a_failure(self):
        previous = record(**{STABLE: {"speedup": 2.0}})
        current = record(**{STABLE: {"speedup": 1.5}})
        rows, warnings, failures = compare(previous, current)
        assert warnings == []
        assert len(failures) == 1 and "regressed" in failures[0]
        assert rows[0][5] is True

    def test_growing_stable_time_fails_lower_is_better(self):
        previous = record(**{STABLE: {"coalesced_ms": 100.0}})
        current = record(**{STABLE: {"coalesced_ms": 140.0}})
        _, warnings, failures = compare(previous, current)
        assert warnings == [] and len(failures) == 1

    def test_small_shrink_within_tolerance_passes(self):
        previous = record(**{STABLE: {"speedup": 2.0}})
        current = record(**{STABLE: {"speedup": 2.0 * (1 - TOLERANCE / 2)}})
        _, warnings, failures = compare(previous, current)
        assert warnings == [] and failures == []

    def test_context_keys_and_non_numeric_skipped(self):
        previous = record(
            bench={"threshold": 1.3, "clients": 8, "materialised": False}
        )
        current = record(
            bench={"threshold": 1.5, "clients": 4, "materialised": True}
        )
        rows, warnings, failures = compare(previous, current)
        assert rows == [] and warnings == [] and failures == []

    def test_new_benchmark_renders_explicit_new_rows(self):
        """First-appearance benchmarks are visible, never regressions."""
        previous = record(old_bench={"speedup": 1.5})
        current = record(
            new_bench={"speedup": 1.8, "threshold": 2.0},
            old_bench={"speedup": 1.55},
        )
        rows, warnings, failures = compare(previous, current)
        assert warnings == [] and failures == []
        new_rows = [row for row in rows if row[4] == "new"]
        assert new_rows == [("new_bench", "speedup", "—", 1.8, "new", False)]
        # context keys of a new benchmark stay excluded
        assert not any(row[1] == "threshold" for row in rows)

    def test_new_metric_on_existing_benchmark_is_a_new_row(self):
        previous = record(bench={"speedup": 2.0})
        current = record(bench={"speedup": 2.1, "scalar_ms": 40.0})
        rows, warnings, failures = compare(previous, current)
        assert warnings == [] and failures == []
        assert ("bench", "scalar_ms", "—", 40.0, "new", False) in rows

    def test_vanished_benchmark_renders_an_explicit_removed_row(self):
        previous = record(old_bench={"speedup": 1.5})
        current = record()
        rows, warnings, failures = compare(previous, current)
        assert rows == [
            ("old_bench", "speedup", 1.5, "—", "removed", False)
        ]
        assert len(warnings) == 1 and "disappeared" in warnings[0]
        assert failures == []  # not stable: visible but tolerated

    def test_vanished_stable_benchmark_is_a_failure(self):
        previous = record(**{STABLE: {"speedup": 2.0}})
        current = record()
        rows, warnings, failures = compare(previous, current)
        assert rows == [(STABLE, "speedup", 2.0, "—", "removed", True)]
        assert warnings == []
        assert len(failures) == 1
        assert "STABLE_BENCHMARKS" in failures[0]

    def test_vanished_context_keys_stay_silent(self):
        previous = record(bench={"clients": 8, "speedup": 2.0})
        current = record(bench={"speedup": 2.0})
        rows, warnings, failures = compare(previous, current)
        assert warnings == [] and failures == []
        assert not any(row[4] == "removed" for row in rows)

    def test_new_and_removed_rows_reach_the_rendered_table(self):
        from bench_delta import render_markdown

        previous = record(gone={"loop_ms": 9.0})
        current = record(columnar={"speedup": 5.0})
        rows, _, _ = compare(previous, current)
        table = render_markdown(rows, previous, current)
        assert "| columnar | speedup | — | 5.0 | new |" in table
        assert "| gone | loop_ms | 9.0 | — | removed | ⚠️ removed |" in table


class TestLoadRecord:
    def test_missing_and_invalid_files(self, tmp_path):
        assert load_record(str(tmp_path / "absent.json")) is None
        broken = tmp_path / "broken.json"
        broken.write_text("not json", encoding="utf-8")
        assert load_record(str(broken)) is None
        no_results = tmp_path / "odd.json"
        no_results.write_text('{"schema": "x"}', encoding="utf-8")
        assert load_record(str(no_results)) is None


class TestMain:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload), encoding="utf-8")

    def test_missing_previous_is_fine(self, tmp_path, capsys):
        current = tmp_path / "cur.json"
        self._write(current, record(bench={"speedup": 2.0}))
        assert main([str(tmp_path / "absent.json"), str(current)]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_missing_current_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
        assert "::warning::" in capsys.readouterr().out

    def test_stable_regression_exits_2_with_error_command(
        self, tmp_path, capsys
    ):
        previous = tmp_path / "prev.json"
        current = tmp_path / "cur.json"
        self._write(previous, record(**{STABLE: {"speedup": 2.0}}))
        self._write(current, record(**{STABLE: {"speedup": 1.2}}))
        assert main([str(previous), str(current)]) == 2
        out = capsys.readouterr().out
        assert "::error::" in out and "regressed" in out

    def test_warn_only_downgrades_the_gate_to_exit_0(
        self, tmp_path, capsys
    ):
        previous = tmp_path / "prev.json"
        current = tmp_path / "cur.json"
        self._write(previous, record(**{STABLE: {"speedup": 2.0}}))
        self._write(current, record(**{STABLE: {"speedup": 1.2}}))
        assert main([str(previous), str(current), "--warn-only"]) == 0
        out = capsys.readouterr().out
        assert "::error::" not in out
        assert "::warning::" in out

    def test_unstable_regression_still_exits_0(self, tmp_path, capsys):
        previous = tmp_path / "prev.json"
        current = tmp_path / "cur.json"
        self._write(previous, record(bench={"speedup": 2.0}))
        self._write(current, record(bench={"speedup": 1.2}))
        assert main([str(previous), str(current)]) == 0
        out = capsys.readouterr().out
        assert "::warning::" in out and "::error::" not in out

    def test_summary_file_receives_the_table(self, tmp_path, capsys):
        previous = tmp_path / "prev.json"
        current = tmp_path / "cur.json"
        summary = tmp_path / "summary.md"
        self._write(previous, record(bench={"speedup": 2.0, "batch_ms": 50}))
        self._write(current, record(bench={"speedup": 1.2, "batch_ms": 80}))
        assert (
            main([str(previous), str(current), "--summary", str(summary)])
            == 0
        )
        out = capsys.readouterr().out
        table = summary.read_text(encoding="utf-8")
        assert "| bench | speedup | 2.0 | 1.2 |" in table
        assert "regression" in table
        assert out.count("::warning::") == 2  # speedup down, time up


@pytest.mark.parametrize(
    "name,direction",
    [
        ("speedup", 1),
        ("loop_ms", -1),
        ("recover_s", -1),
        ("seed_walk_reuses", 1),
        ("index_rows_per_s", 1),
        ("pure_add_point_us", -1),
        ("index_bytes_per_row", -1),
        ("graph_bytes_per_row", -1),
        ("snapshot_load_s", -1),
        ("served_graph_bytes_per_row", -1),
    ],
)
def test_direction_heuristic(name, direction):
    from bench_delta import _direction

    assert _direction(name) == direction
