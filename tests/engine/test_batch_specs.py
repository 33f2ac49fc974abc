"""Heterogeneous spec batches: correctness, grouping, sharing, caching."""

import pytest

from repro import (
    AreaQuery,
    KnnQuery,
    NearestQuery,
    SpatialDatabase,
    WindowQuery,
)
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.workloads.experiments import make_mixed_trace
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload


@pytest.fixture()
def db():
    return SpatialDatabase.from_points(
        uniform_points(600, seed=21)
    ).prepare()


def _mixed_specs(seed=0, distinct=12):
    return make_mixed_trace(0.03, distinct, 1, seed=seed)


def test_heterogeneous_batch_matches_single_execution(db):
    specs = _mixed_specs()
    batch = db.query_batch(specs, use_cache=False)
    assert len(batch) == len(specs)
    for spec, result in zip(specs, batch):
        assert result.spec is spec
        assert result.ids() == db.query(spec).ids(), spec.describe()


def test_results_in_submission_order(db):
    specs = list(reversed(_mixed_specs(seed=5)))
    batch = db.query_batch(specs, use_cache=False)
    assert [r.spec for r in batch] == specs


def test_kind_and_method_accounting(db):
    specs = [
        AreaQuery(QueryWorkload(query_size=0.02, seed=1).areas(1)[0]),
        WindowQuery(Rect(0.2, 0.2, 0.5, 0.5)),
        KnnQuery(Point(0.4, 0.4), 5),
        NearestQuery(Point(0.6, 0.6)),
    ]
    batch = db.query_batch(specs, use_cache=False)
    assert batch.stats.kind_counts == {
        "area": 1,
        "window": 1,
        "knn": 1,
        "nearest": 1,
    }
    assert sum(batch.stats.method_counts.values()) == 4
    assert batch.stats.executed == 4


def test_mixed_batch_dedups_repeated_specs(db):
    specs = _mixed_specs(seed=3, distinct=8)
    trace = specs * 3
    batch = db.query_batch(trace, use_cache=False)
    assert batch.stats.executed == len(specs)
    assert batch.stats.duplicate_hits == 2 * len(specs)
    for i, result in enumerate(batch):
        assert result.ids() == batch[i % len(specs)].ids()


def test_mixed_batch_cache_round_trip(db):
    specs = _mixed_specs(seed=9, distinct=8)
    first = db.query_batch(specs)
    assert first.stats.cache_hits == 0
    second = db.query_batch(specs)
    assert second.stats.cache_hits == len(specs)
    assert second.stats.executed == 0
    assert [r.ids() for r in second] == [r.ids() for r in first]


def test_insert_invalidates_all_kinds(db):
    rect = Rect(0.45, 0.45, 0.55, 0.55)
    specs = [WindowQuery(rect), KnnQuery(Point(0.5, 0.5), 3)]
    db.query_batch(specs)
    new_id = db.insert((0.5, 0.5))
    after = db.query_batch(specs)
    assert after.stats.cache_hits == 0  # version stamp invalidated
    assert new_id in after[0].ids()
    assert new_id in after[1].ids()  # the inserted point is the new 1-NN


def test_voronoi_knn_seed_walks_reused(db):
    # A chain of nearby Voronoi kNN specs: each runs once, seeded by the
    # index like a single query.
    rng_points = [Point(0.1 + 0.08 * i, 0.5) for i in range(8)]
    specs = [KnnQuery(p, 4, method="voronoi") for p in rng_points]
    batch = db.query_batch(specs, use_cache=False)
    assert batch.stats.method_counts == {"voronoi": len(specs)}
    for spec, result in zip(specs, batch):
        assert result.ids() == db.query(spec).ids()


def test_shared_window_frontier_spans_area_and_window_specs(db):
    rect = Rect(0.30, 0.30, 0.60, 0.60)
    area = QueryWorkload(query_size=0.08, seed=13).areas(1)[0]
    # Coincident windows/areas: duplicates collapse, the rest run once.
    specs = []
    for _ in range(3):
        specs.append(WindowQuery(rect))
        specs.append(AreaQuery(area, method="traditional"))
    batch = db.query_batch(specs, use_cache=False)
    assert batch.stats.duplicate_hits == 4
    assert batch[0].ids() == db.query(WindowQuery(rect)).ids()
    assert batch[1].ids() == db.query(AreaQuery(area)).ids()


def test_window_groups_share_one_traversal(db):
    base = Rect(0.2, 0.2, 0.5, 0.5)
    nested = [
        WindowQuery(base),
        WindowQuery(Rect(0.22, 0.22, 0.5, 0.5)),
        WindowQuery(Rect(0.2, 0.2, 0.48, 0.49)),
    ]
    batch = db.query_batch(nested, use_cache=False)
    assert batch.stats.executed == len(nested)
    for spec, result in zip(nested, batch):
        brute = sorted(
            i
            for i, p in enumerate(db.points)
            if spec.rect.contains_point(p)
        )
        assert result.ids() == brute


def test_predicate_specs_execute_in_batches(db):
    keep = lambda p: p.x < 0.5  # noqa: E731 - test fixture
    specs = [
        KnnQuery(Point(0.5, 0.5), 5, predicate=keep),
        WindowQuery(Rect(0.1, 0.1, 0.9, 0.9), predicate=keep, limit=7),
    ]
    batch = db.query_batch(specs)
    assert batch.stats.executed == 2  # uncacheable, both ran
    assert all(p.x < 0.5 for p in batch[0].points())
    assert len(batch[1].ids()) == 7
    assert batch[0].ids() == db.query(specs[0]).ids()
    assert batch[1].ids() == db.query(specs[1]).ids()


def test_non_spec_input_rejected(db):
    with pytest.raises(TypeError):
        db.query_batch([Rect(0, 0, 1, 1)])


def test_empty_spec_list(db):
    batch = db.query_batch([])
    assert len(batch) == 0
    assert batch.stats.total_queries == 0
