"""Lifetime engine accounting (``EngineTotals``) and public validation."""

import pytest

from repro.core.database import SpatialDatabase
from repro.core.exceptions import InvalidQueryAreaError
from repro.engine.batch import BatchStats, EngineTotals
from repro.geometry.polygon import Polygon
from repro.query.spec import AreaQuery, KnnQuery, UnionQuery, WindowQuery
from repro.workloads.generators import uniform_points


@pytest.fixture()
def db():
    """A fresh small database per test (totals start at zero)."""
    return SpatialDatabase.from_points(
        uniform_points(300, seed=41), backend_kind="scipy"
    ).prepare()


class TestEngineTotals:
    def test_totals_accumulate_across_batches(self, db):
        window = WindowQuery((0.2, 0.2, 0.6, 0.6))
        db.engine.run_specs([window, window, KnnQuery((0.5, 0.5), 3)])
        db.engine.run_specs([window])  # LRU cache hit now
        totals = db.engine.totals
        assert totals.batches == 2
        assert totals.total_queries == 4
        assert totals.coalesced_batches == 1
        assert totals.max_batch_size == 3
        assert totals.duplicate_hits == 1
        assert totals.cache_hits == 1
        assert totals.executed == 2
        assert totals.time_ms > 0.0

    def test_totals_track_composites(self, db):
        union = UnionQuery(
            (
                WindowQuery((0.1, 0.1, 0.3, 0.3)),
                WindowQuery((0.2, 0.2, 0.4, 0.4)),
            )
        )
        db.engine.run_specs([union])
        assert db.engine.totals.composite_queries == 1
        assert db.engine.totals.composite_leaves == 2

    def test_as_dict_is_json_ready(self, db):
        import json

        db.engine.run_specs([WindowQuery((0.1, 0.1, 0.5, 0.5))])
        payload = db.engine.totals.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["batches"] == 1

    def test_absorb_matches_batch_stats(self):
        totals = EngineTotals()
        totals.absorb(
            BatchStats(
                total_queries=5,
                cache_hits=1,
                duplicate_hits=2,
                executed=2,
                composite_leaves=3,
                time_ms=1.5,
            )
        )
        totals.absorb(BatchStats(total_queries=1, executed=1, time_ms=0.5))
        assert totals.batches == 2
        assert totals.total_queries == 6
        assert totals.coalesced_batches == 1  # only the 5-spec batch
        assert totals.composite_leaves == 3
        assert totals.time_ms == pytest.approx(2.0)

    def test_batch_stats_as_dict(self, db):
        batch = db.engine.run_specs([WindowQuery((0.1, 0.1, 0.2, 0.2))])
        payload = batch.stats.as_dict()
        assert payload["total_queries"] == 1
        assert "method_counts" in payload


class TestValidateSpec:
    def test_accepts_good_and_rejects_bad(self, db):
        db.engine.validate_spec(WindowQuery((0, 0, 1, 1)))
        with pytest.raises(TypeError, match="not a query spec"):
            db.engine.validate_spec("window")
        degenerate = Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        with pytest.raises(InvalidQueryAreaError):
            db.engine.validate_spec(AreaQuery(degenerate))

    def test_recurses_into_composites(self, db):
        degenerate = Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        bad_union = UnionQuery(
            (WindowQuery((0, 0, 1, 1)), AreaQuery(degenerate))
        )
        with pytest.raises(InvalidQueryAreaError):
            db.engine.validate_spec(bad_union)
