"""Unit tests for the experiment harness (small-scale smoke runs)."""

import pytest

from repro.workloads.experiments import (
    ExperimentConfig,
    main,
    make_query_trace,
    render_batch_table,
    render_figure,
    render_table,
    run_batch_throughput_experiment,
    run_data_size_sweep,
    run_query_size_sweep,
)


@pytest.fixture(scope="module")
def tiny_config(requires_scipy):
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


class TestBatchThroughput:
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

    @pytest.mark.usefixtures("requires_scipy")
    def test_composite_experiment_rows(self):
        from repro.workloads.experiments import (
            COMPOSITE_TRACE_STRATEGIES,
            run_composite_throughput_experiment,
        )

        rows = run_composite_throughput_experiment(
            ExperimentConfig(),
            data_size=800,
            distinct=3,
            parts=4,
            query_size=0.002,
            rounds=1,
        )
        assert [row.strategy for row in rows] == list(
            COMPOSITE_TRACE_STRATEGIES
        )
        for row in rows:
            assert row.total_ms > 0.0

    @pytest.mark.usefixtures("requires_scipy")
    def test_experiment_rows_and_rendering(self):
        rows = run_batch_throughput_experiment(
            ExperimentConfig(),
            data_size=800,
            distinct=4,
            repeat=2,
            query_size=0.04,
            rounds=1,
        )
        assert [row.strategy for row in rows] == [
            "loop/voronoi",
            "loop/traditional",
            "batch/voronoi",
            "batch/traditional",
            "batch/auto",
        ]
        assert rows[0].speedup == pytest.approx(1.0)
        for row in rows:
            assert row.total_ms > 0.0
            assert row.queries_per_second > 0.0
        table = render_batch_table(rows)
        assert "batch/auto" in table
        assert "queries/s" in table

    @pytest.mark.usefixtures("requires_scipy")
    def test_main_batch_smoke(self, capsys):
        exit_code = main(
            [
                "batch",
                "--data-size",
                "600",
                "--batch-distinct",
                "3",
                "--batch-repeat",
                "2",
                "--batch-query-size",
                "0.05",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Batch engine throughput" in out
        assert "batch/auto" in out


class TestCLI:
    @pytest.mark.usefixtures("requires_scipy")
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


class TestServeThroughput:
    def test_serve_trace_shapes(self):
        from repro.query.spec import AreaQuery, WindowQuery
        from repro.workloads.experiments import make_serve_trace

        trace = make_serve_trace(0.01, 8, 2, seed=5, cluster=4)
        assert len(trace) == 16
        assert trace[:8] == trace[8:]  # the repeat rounds
        assert trace == make_serve_trace(0.01, 8, 2, seed=5, cluster=4)
        kinds = {type(spec) for spec in trace}
        assert kinds == {WindowQuery, AreaQuery}  # mixed shape default
        # clusters are contiguous: the first four specs are jittered
        # copies of one hot tile (near-coincident anchors)
        anchors = [spec.anchor() for spec in trace[:4]]
        union = anchors[0]
        for anchor in anchors[1:]:
            union = union.union(anchor)
        assert union.area <= 1.2 * max(a.area for a in anchors)
        tiles = make_serve_trace(0.01, 6, 1, seed=5, shape="tiles")
        assert {type(spec) for spec in tiles} == {WindowQuery}
        regions = make_serve_trace(0.01, 6, 1, seed=5, shape="regions")
        assert {type(spec) for spec in regions} == {AreaQuery}
        with pytest.raises(ValueError, match="shape"):
            make_serve_trace(0.01, 6, 1, shape="spiral")

    @pytest.mark.usefixtures("requires_scipy")
    def test_serve_experiment_rows(self):
        from repro.core.database import SpatialDatabase
        from repro.workloads.experiments import (
            run_serve_throughput_experiment,
        )
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(500, seed=47), backend_kind="scipy"
        ).prepare()
        rows = run_serve_throughput_experiment(
            ExperimentConfig(seed=3),
            clients=2,
            distinct=4,
            repeat=1,
            query_size=0.02,
            rounds=1,
            cluster=2,
            database=db,
        )
        assert [row.strategy for row in rows] == [
            "serve/sequential",
            "serve/coalesced x2",
        ]
        assert rows[0].speedup == 1.0
        assert all(row.total_ms > 0.0 for row in rows)
        table = render_batch_table(rows)
        assert "serve/coalesced x2" in table

    @pytest.mark.usefixtures("requires_scipy")
    def test_main_serve_smoke(self, capsys):
        exit_code = main(
            [
                "serve",
                "--data-size",
                "500",
                "--batch-distinct",
                "4",
                "--batch-repeat",
                "1",
                "--clients",
                "2",
                "--batch-query-size",
                "0.02",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Served throughput over the NDJSON wire" in out
        assert "serve/sequential" in out


class TestProductionSessions:
    def test_structure_and_interleave(self):
        from repro.workloads.experiments import make_production_sessions

        ops = make_production_sessions(sessions=8, ops_per_session=6, seed=2)
        assert len(ops) > 0
        sessions = {op.session for op in ops}
        assert sessions == set(range(8))
        # Round-robin interleave: the first ops cycle through sessions
        # rather than draining one session at a time.
        first_eight = [op.session for op in ops[:8]]
        assert len(set(first_eight)) > 1
        kinds = {op.kind for op in ops}
        assert "window" in kinds
        assert kinds <= {
            "window",
            "area",
            "knn",
            "insert",
            "subscribe",
            "unsubscribe",
        }

    def test_deterministic_and_seed_sensitive(self):
        from repro.workloads.experiments import make_production_sessions

        a = make_production_sessions(sessions=5, ops_per_session=8, seed=3)
        b = make_production_sessions(sessions=5, ops_per_session=8, seed=3)
        c = make_production_sessions(sessions=5, ops_per_session=8, seed=4)
        assert [(o.kind, o.session) for o in a] == [
            (o.kind, o.session) for o in b
        ]
        assert [(o.kind, o.session) for o in a] != [
            (o.kind, o.session) for o in c
        ]

    def test_subscriptions_bracket_their_session(self):
        """A session that subscribes does so first and unsubscribes
        last — subscription lifetime spans the session."""
        from repro.workloads.experiments import make_production_sessions

        ops = make_production_sessions(
            sessions=30, ops_per_session=6, subscribe_fraction=1.0, seed=1
        )
        by_session = {}
        for op in ops:
            by_session.setdefault(op.session, []).append(op.kind)
        for session, kinds in by_session.items():
            assert kinds[0] == "subscribe", (session, kinds)
            assert kinds[-1] == "unsubscribe", (session, kinds)

    def test_zipf_home_tiles_concentrate_traffic(self):
        """Most sessions should live on a few hot tiles: the spread of
        distinct window anchors must be far below the session count."""
        from repro.workloads.experiments import make_production_sessions

        ops = make_production_sessions(
            sessions=64,
            ops_per_session=4,
            tiles=12,
            alpha=1.3,
            subscribe_fraction=0.0,
            write_fraction=0.0,
            knn_fraction=0.0,
            area_fraction=0.0,
            seed=0,
        )
        # Bucket window centres to their tile; Zipf should leave some
        # of the 144 tiles untouched while the hot ones dominate.
        centres = set()
        for op in ops:
            rect = op.payload.rect
            centres.add(
                (round((rect.min_x + rect.max_x) / 2, 1),
                 round((rect.min_y + rect.max_y) / 2, 1))
            )
        assert len(centres) < 64


class TestTailLatencyExperiment:
    def test_small_run_end_to_end(self):
        from repro.core.database import SpatialDatabase
        from repro.workloads.experiments import (
            render_tail_table,
            run_tail_latency_experiment,
        )
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(600, seed=11), backend_kind="pure"
        ).prepare()
        result = run_tail_latency_experiment(
            ExperimentConfig(seed=5),
            data_size=600,
            sessions=4,
            ops_per_session=5,
            rate=400.0,
            connections=2,
            database=db,
        )
        report = result.report
        assert report.answered == report.offered == 20
        kinds = result.kind_percentiles()
        assert kinds, "no per-kind percentiles measured"
        for row in kinds.values():
            assert 0.0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        wait = result.server_latency()["admission_wait"]
        assert wait["count"] > 0
        table = render_tail_table(result)
        assert "admission" in table

    def test_main_tail_smoke(self, capsys):
        exit_code = main(
            [
                "tail",
                "--data-size",
                "600",
                "--sessions",
                "4",
                "--rate",
                "400",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Tail latency under skewed bursty traffic" in out


class TestOverloadExperiment:
    @pytest.mark.usefixtures("requires_scipy")
    def test_small_run_sheds_and_bounds(self):
        from repro.core.database import SpatialDatabase
        from repro.workloads.experiments import (
            render_overload_table,
            run_overload_experiment,
        )
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(600, seed=13), backend_kind="scipy"
        ).prepare()
        result = run_overload_experiment(
            ExperimentConfig(seed=7),
            data_size=600,
            calibration_requests=120,
            overload_factor=2.0,
            duration_s=0.4,
            connections=4,
            max_queue=8,
            database=db,
        )
        assert result.capacity_rps > 0
        assert result.offered_rps == pytest.approx(
            2.0 * result.capacity_rps
        )
        assert result.admitted > 0
        assert 0.0 <= result.shed_rate < 1.0
        table = render_overload_table(result)
        assert "shed" in table

    @pytest.mark.usefixtures("requires_scipy")
    def test_main_overload_smoke(self, capsys):
        exit_code = main(
            [
                "overload",
                "--data-size",
                "600",
                "--duration",
                "0.3",
                "--max-queue",
                "8",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Overload shedding at" in out
