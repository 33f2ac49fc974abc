"""Batch decomposition of composite specs: sharing, dedup, caching."""

import pytest

from repro.core.database import SpatialDatabase
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)
from repro.workloads.experiments import (
    composite_reference_ids,
    make_composite_trace,
)

W1 = WindowQuery(Rect(0.1, 0.1, 0.5, 0.5))
W2 = WindowQuery(Rect(0.4, 0.4, 0.8, 0.8))
W3 = WindowQuery(Rect(0.2, 0.3, 0.6, 0.7))
POLY = Polygon([(0.15, 0.15), (0.7, 0.2), (0.6, 0.65), (0.2, 0.55)])


@pytest.fixture
def db(uniform_1000):
    """A fresh 1000-point database per test (cache state matters here)."""
    return SpatialDatabase.from_points(uniform_1000).prepare()


def test_batch_matches_single_execution_and_reference(db):
    specs = [
        UnionQuery((W1, W2, W3)),
        W1,
        IntersectionQuery((W1, AreaQuery(POLY))),
        DifferenceQuery((AreaQuery(POLY), W2)),
        KnnQuery((0.5, 0.5), 4),
        NearestQuery((0.9, 0.1)),
    ]
    batch = db.query_batch(specs, use_cache=False)
    for spec, handle in zip(specs, batch):
        assert handle.ids() == db.query(spec).ids()
        assert handle.ids() == composite_reference_ids(db, spec)


def test_mixed_composite_trace_matches_loop(db):
    parts = 4
    trace = make_composite_trace(0.002, 9, seed=5, parts=parts)
    batch = db.query_batch(trace, use_cache=False)
    assert [h.ids() for h in batch] == [
        composite_reference_ids(db, spec) for spec in trace
    ]
    assert batch.stats.composite_leaves == len(trace) * parts


def test_decomposition_stats(db):
    specs = [
        UnionQuery((W1, W2, W3)),
        IntersectionQuery((W1, W2)),
        W1,
    ]
    stats = db.query_batch(specs, use_cache=False).stats
    assert stats.composite_queries == 2
    assert stats.composite_leaves == 5
    # W1 and W2 each execute once even though three specs mention them:
    # 5 composite leaves + 1 plain spec collapse onto 3 unique jobs
    assert stats.leaf_duplicate_hits == 3
    assert stats.kind_counts == {"union": 1, "intersection": 1, "window": 1}
    assert sum(stats.method_counts.values()) == 3


def test_identical_composites_dedup_at_spec_level(db):
    union = UnionQuery((W1, W2))
    stats = db.query_batch([union, UnionQuery((W1, W2))]).stats
    assert stats.duplicate_hits == 1
    assert stats.composite_queries == 1


def test_composite_served_from_cache_on_second_batch(db):
    union = UnionQuery((W1, W2))
    first = db.query_batch([union])
    assert first.stats.cache_hits == 0
    second = db.query_batch([union])
    assert second.stats.cache_hits == 1
    assert second[0].ids() == first[0].ids()


def test_leaves_cached_for_later_batches(db):
    # executing a composite caches its leaves ...
    db.query_batch([UnionQuery((W1, W2))])
    # ... so a later batch asking for a leaf directly hits the cache
    stats = db.query_batch([W1]).stats
    assert stats.cache_hits == 1


def test_composite_leaf_reuses_cached_plain_result(db):
    db.query_batch([W1, W2])
    stats = db.query_batch([UnionQuery((W1, W2))]).stats
    assert stats.leaf_cache_hits == 2
    assert stats.executed == 1
    assert sum(stats.method_counts.values()) == 0  # nothing hit the index


def test_insert_invalidates_composite_cache(db):
    union = UnionQuery((W1, W2))
    before = db.query_batch([union])[0].ids()
    db.insert((0.45, 0.45))  # inside both windows
    after = db.query_batch([union])
    assert after.stats.cache_hits == 0
    assert len(after[0].ids()) == len(before) + 1


def test_validation_recurses_into_composites(db):
    degenerate = Polygon([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
    with pytest.raises(InvalidQueryAreaError):
        db.query_batch([UnionQuery((W1, AreaQuery(degenerate)))])
    empty = SpatialDatabase()
    with pytest.raises(EmptyDatabaseError):
        empty.query_batch([UnionQuery((W1, AreaQuery(POLY)))])


def test_composite_stats_aggregate_leaf_work(db):
    record = db.query_batch([UnionQuery((AreaQuery(POLY), W1))], use_cache=False)[0]
    stats = record.stats
    assert stats.method == "composite"
    assert stats.result_size == len(record.ids())
    # leaf counters surface on the composite (candidates from both leaves)
    assert stats.candidates > 0
