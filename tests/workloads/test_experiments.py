"""Unit tests for the experiment harness (small-scale smoke runs)."""

import pytest

from repro.workloads.experiments import (
    ExperimentConfig,
    main,
    make_query_trace,
    render_figure,
    render_table,
    run_data_size_sweep,
    run_query_size_sweep,
)


@pytest.fixture(scope="module")
def tiny_config():
    # Scaled down from the paper but kept dense enough (results of
    # hundreds of points) that the boundary shell is thin relative to the
    # result — the regime the paper's claims are about.
    return ExperimentConfig(
        data_sizes=(6000, 12000),
        query_sizes=(0.01, 0.04),
        fixed_query_size=0.04,
        fixed_data_size=6000,
        repetitions=3,
    )


@pytest.fixture(scope="module")
def data_rows(tiny_config):
    return run_data_size_sweep(tiny_config)


@pytest.fixture(scope="module")
def query_rows(tiny_config):
    return run_query_size_sweep(tiny_config)


class TestDataSizeSweep:
    def test_row_per_size(self, data_rows, tiny_config):
        assert [row.parameter for row in data_rows] == [6000.0, 12000.0]

    def test_repetitions_recorded(self, data_rows, tiny_config):
        assert all(
            row.repetitions == tiny_config.repetitions for row in data_rows
        )

    def test_result_grows_with_data(self, data_rows):
        assert data_rows[1].result_size > data_rows[0].result_size

    def test_candidates_exceed_results(self, data_rows):
        for row in data_rows:
            assert row.traditional_candidates >= row.result_size
            assert row.voronoi_candidates >= row.result_size

    def test_voronoi_candidate_advantage(self, data_rows):
        """The paper's core claim holds even at toy scale: fewer candidates."""
        for row in data_rows:
            assert row.voronoi_candidates < row.traditional_candidates

    def test_savings_properties(self, data_rows):
        for row in data_rows:
            assert 0.0 < row.candidate_saving < 1.0
            assert row.redundant_saving > 0.0


class TestQuerySizeSweep:
    def test_row_per_query_size(self, query_rows):
        assert [row.parameter for row in query_rows] == [0.01, 0.04]

    def test_result_grows_with_query_size(self, query_rows):
        assert query_rows[1].result_size > query_rows[0].result_size

    def test_traditional_candidates_track_mbr(self, query_rows, tiny_config):
        # Traditional candidates ≈ data_size * query_size.
        for row in query_rows:
            expected = tiny_config.fixed_data_size * row.parameter
            assert row.traditional_candidates == pytest.approx(
                expected, rel=0.35
            )

    def test_voronoi_advantage_at_larger_query(self, query_rows):
        # The advantage grows with query size; the 4 % row must show it.
        row = query_rows[-1]
        assert row.voronoi_candidates < row.traditional_candidates


class TestRendering:
    def test_table_contains_all_rows(self, query_rows):
        table = render_table(
            query_rows, parameter_label="Query size", as_query_size=True
        )
        assert "1%" in table
        assert "4%" in table
        assert "Result size" in table

    def test_figure_time(self, data_rows):
        figure = render_figure(
            data_rows, value="time", title="Fig. 4 smoke"
        )
        assert "Fig. 4 smoke" in figure
        assert figure.count(" V |") == len(data_rows)
        assert figure.count(" T |") == len(data_rows)

    def test_figure_redundant(self, query_rows):
        figure = render_figure(
            query_rows,
            value="redundant",
            title="Fig. 7 smoke",
            as_query_size=True,
        )
        assert "validations" in figure

    def test_figure_rejects_unknown_value(self, data_rows):
        with pytest.raises(ValueError):
            render_figure(data_rows, value="iops", title="x")


class TestPaperScaleConfig:
    def test_paper_scale_parameters(self):
        config = ExperimentConfig.paper_scale()
        assert config.data_sizes[0] == 100_000
        assert config.data_sizes[-1] == 1_000_000
        assert config.query_sizes == (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
        assert config.repetitions == 1000


class TestSpecTraces:
    def test_trace_shape_and_determinism(self):
        trace = make_query_trace(0.02, distinct=5, repeat=3, seed=4)
        assert len(trace) == 15
        assert len(set(trace)) == 5  # area specs are hashable: 3 hits each
        assert all(spec.kind == "area" for spec in trace)
        again = make_query_trace(0.02, distinct=5, repeat=3, seed=4)
        assert trace == again

    def test_mixed_trace_covers_all_kinds(self):
        from repro.workloads.experiments import make_mixed_trace

        trace = make_mixed_trace(0.02, distinct=8, repeat=2, seed=4)
        assert len(trace) == 16
        assert {spec.kind for spec in trace} == {
            "area",
            "window",
            "knn",
            "nearest",
        }
        assert len(set(trace)) == 8
        assert trace == make_mixed_trace(0.02, distinct=8, repeat=2, seed=4)

    def test_composite_trace_shape_and_determinism(self):
        from repro.workloads.experiments import make_composite_trace

        trace = make_composite_trace(0.002, distinct=6, seed=4, parts=4)
        assert len(trace) == 6
        assert {spec.kind for spec in trace} == {
            "union",
            "intersection",
            "difference",
        }
        assert all(len(spec.parts) == 4 for spec in trace)
        assert all(
            leaf.kind == "area" and leaf.method == "voronoi"
            for spec in trace
            for leaf in spec.iter_leaves()
        )
        assert trace == make_composite_trace(
            0.002, distinct=6, seed=4, parts=4
        )


class TestCLI:
    def test_main_table2_smoke(self, capsys):
        exit_code = main(
            [
                "table2",
                "--repetitions",
                "2",
                "--data-size",
                "800",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "32%" in out

