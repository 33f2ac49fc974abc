"""Planner recursion over composites, kNN k=None costing, calibration."""

import pytest

from repro.core.database import SpatialDatabase
from repro.engine.planner import CostModel, QueryPlanner
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.spec import (
    DifferenceQuery,
    KnnQuery,
    UnionQuery,
    WindowQuery,
)
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload

W1 = WindowQuery(Rect(0.1, 0.1, 0.4, 0.4))
W2 = WindowQuery(Rect(0.5, 0.5, 0.8, 0.8))


@pytest.fixture(scope="module")
def db():
    """A 2000-point database shared by the planner tests."""
    return SpatialDatabase.from_points(
        uniform_points(2000, seed=11), backend_kind="scipy"
    ).prepare()


class TestCompositePlanning:
    def test_plan_returns_composite(self, db):
        assert db.engine.planner.plan(UnionQuery((W1, W2))) == "composite"

    def test_estimate_sums_planned_parts(self, db):
        planner = db.engine.planner
        union = UnionQuery((W1, W2))
        total = planner.estimate_spec(union)["composite"]
        parts_cost = sum(
            planner.estimate_spec(part)[planner.plan(part)].cost
            for part in union.parts
        )
        assert total.cost == pytest.approx(parts_cost)
        assert total.method == "composite"

    def test_estimate_honours_explicit_part_methods(self, db):
        planner = db.engine.planner
        free = planner.estimate_spec(UnionQuery((W1, W2)))["composite"]
        forced = planner.estimate_spec(
            UnionQuery(
                (
                    WindowQuery(W1.rect, method="voronoi"),
                    WindowQuery(W2.rect, method="voronoi"),
                )
            )
        )["composite"]
        # the planner prefers the index for these windows, so forcing
        # voronoi parts must cost at least as much
        assert forced.cost >= free.cost

    def test_estimate_recurses_into_nested_composites(self, db):
        planner = db.engine.planner
        nested = DifferenceQuery((UnionQuery((W1, W2)), W1))
        inner = planner.estimate_spec(UnionQuery((W1, W2)))["composite"]
        leaf = planner.estimate_spec(W1)[planner.plan(W1)]
        total = planner.estimate_spec(nested)["composite"]
        assert total.cost == pytest.approx(inner.cost + leaf.cost)

    def test_explain_nests_part_explanations(self, db):
        explanation = db.explain(DifferenceQuery((UnionQuery((W1, W2)), W1)))
        assert explanation.chosen == "composite"
        assert len(explanation.parts) == 2
        assert explanation.parts[0].chosen == "composite"
        assert len(explanation.parts[0].parts) == 2
        rendered = explanation.render()
        assert "part 0" in rendered and "part 1" in rendered

    def test_explain_execute_measures_composite(self, db):
        explanation = db.explain(UnionQuery((W1, W2)), execute=True)
        assert "composite" in explanation.actual_costs
        assert explanation.prediction_correct is True
        # parts were measured too
        assert all(part.actual for part in explanation.parts)


class TestUnboundedKnnPlanning:
    def test_unbounded_knn_costed_at_database_size(self, db):
        planner = db.engine.planner
        unbounded = planner.estimate_spec(KnnQuery((0.5, 0.5), None))
        full = planner.estimate_spec(KnnQuery((0.5, 0.5), len(db)))
        assert unbounded["index"].cost == pytest.approx(full["index"].cost)

    def test_limit_caps_the_unbounded_estimate(self, db):
        planner = db.engine.planner
        capped = planner.estimate_spec(KnnQuery((0.5, 0.5), None, limit=8))
        bounded = planner.estimate_spec(KnnQuery((0.5, 0.5), 8))
        assert capped["voronoi"].cost == pytest.approx(
            bounded["voronoi"].cost
        )

    def test_plan_routes_unbounded_knn(self, db):
        assert db.engine.planner.plan(KnnQuery((0.5, 0.5), None)) in (
            "index",
            "voronoi",
        )


class TestCalibrationCoverage:
    def test_calibrate_fits_knn_expansion_factor(self, db):
        planner = QueryPlanner(db)
        default_factor = CostModel().knn_expansion_factor
        probes = QueryWorkload(query_size=0.03, seed=9).areas(4)
        model = planner.calibrate(probes)
        assert model.validation_cost > 0.0
        # fitted from measured voronoi-kNN expansions, not the default
        assert model.knn_expansion_factor > 0.0
        assert model.knn_expansion_factor != default_factor
        assert planner.model is model

    def test_estimates_use_the_fitted_factor(self, db):
        planner = QueryPlanner(db)
        spec = KnnQuery((0.5, 0.5), 10)
        before = planner.estimate_spec(spec)["voronoi"]
        planner.model = CostModel(knn_expansion_factor=12.0)
        after = planner.estimate_spec(spec)["voronoi"]
        assert after.validations == pytest.approx(1.0 + 12.0 * 10)
        assert after.validations > before.validations

    def test_explicit_probe_sequences(self, db):
        planner = QueryPlanner(db)
        probes = QueryWorkload(query_size=0.03, seed=9).areas(3)
        windows = [Rect(0.2, 0.2, 0.45, 0.45)]
        points = [(Point(0.5, 0.5), 6)]
        model = planner.calibrate(
            probes, probe_windows=windows, probe_points=points
        )
        assert model.validation_cost > 0.0

    def test_empty_probe_kinds_fall_back_to_area_fit(self, db):
        planner = QueryPlanner(db)
        probes = QueryWorkload(query_size=0.03, seed=9).areas(3)
        model = planner.calibrate(
            probes, probe_windows=(), probe_points=()
        )
        assert model.validation_cost > 0.0
        # no kNN probes ran: the expansion factor keeps its prior value
        assert model.knn_expansion_factor == CostModel().knn_expansion_factor

    def test_degenerate_probes_keep_model_object(self, db):
        planner = QueryPlanner(db)
        before = planner.model
        assert planner.calibrate([]) is before
