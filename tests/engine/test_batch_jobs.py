"""One execution per batch job: what ``run_specs`` hands ``execute_spec``.

The engine answers every query on its own, as the paper does: each job
it cannot skip (cache hit, in-batch duplicate, repeated composite leaf)
runs exactly once through :func:`repro.query.executor.execute_spec`, with
the concrete method the planner chose, in the order the jobs entered the
pool.  These tests count those calls.
"""

from collections import Counter

import pytest

import repro.engine.batch as batch_module
from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
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
from repro.workloads.generators import uniform_points

W1 = WindowQuery(Rect(0.1, 0.1, 0.5, 0.5))
W2 = WindowQuery(Rect(0.4, 0.4, 0.8, 0.8))
W3 = WindowQuery(Rect(0.2, 0.3, 0.6, 0.7))
POLY = Polygon([(0.15, 0.15), (0.7, 0.2), (0.6, 0.65), (0.2, 0.55)])


@pytest.fixture
def db():
    """A fresh database per test: the result cache starts empty."""
    return SpatialDatabase.from_points(uniform_points(500, seed=31)).prepare()


@pytest.fixture
def calls(monkeypatch):
    """Every ``(spec, method)`` pair the engine executes, in call order."""
    seen = []
    real = batch_module.execute_spec

    def counting(database, spec, *, method=None):
        seen.append((spec, method))
        return real(database, spec, method=method)

    monkeypatch.setattr(batch_module, "execute_spec", counting)
    return seen


def test_each_distinct_spec_executes_once(db, calls):
    specs = [W1, W2, W1, AreaQuery(POLY), W2, KnnQuery((0.5, 0.5), 4), W1]
    batch = db.query_batch(specs)
    assert [spec for spec, _ in calls] == [W1, W2, AreaQuery(POLY),
                                           KnnQuery((0.5, 0.5), 4)]
    assert batch.stats.executed == 4
    for spec, handle in zip(specs, batch):
        assert handle.ids() == db.query(spec).ids()


def test_jobs_run_in_the_order_they_entered_the_pool(db, calls):
    far_apart = [
        WindowQuery(Rect(0.8, 0.8, 0.9, 0.9)),
        WindowQuery(Rect(0.1, 0.1, 0.2, 0.2)),
        WindowQuery(Rect(0.8, 0.1, 0.9, 0.2)),
        WindowQuery(Rect(0.1, 0.8, 0.2, 0.9)),
        WindowQuery(Rect(0.45, 0.45, 0.55, 0.55)),
    ]
    db.query_batch(far_apart, use_cache=False)
    assert [spec for spec, _ in calls] == far_apart


def test_leaf_repeated_across_composites_executes_once(db, calls):
    specs = [UnionQuery((W1, W2)), IntersectionQuery((W2, W3)),
             DifferenceQuery((W3, W1))]
    batch = db.query_batch(specs, use_cache=False)
    assert Counter(spec for spec, _ in calls) == Counter([W1, W2, W3])
    assert batch.stats.composite_leaves == 6
    assert batch.stats.leaf_duplicate_hits == 3


def test_leaf_equal_to_a_plain_spec_executes_once(db, calls):
    batch = db.query_batch([W1, UnionQuery((W1, AreaQuery(POLY)))],
                           use_cache=False)
    assert [spec for spec, _ in calls] == [W1, AreaQuery(POLY)]
    assert batch[1].ids() == sorted(set(db.query(W1).ids())
                                    | set(db.query(AreaQuery(POLY)).ids()))


def test_cache_hits_execute_nothing(db, calls):
    specs = [W1, UnionQuery((W2, W3)), NearestQuery((0.3, 0.7))]
    first = db.query_batch(specs)
    executed = len(calls)
    second = db.query_batch(specs)
    assert len(calls) == executed
    assert second.stats.cache_hits == len(specs)
    assert [h.ids() for h in second] == [h.ids() for h in first]


def test_cached_leaf_is_not_executed_by_a_later_composite(db, calls):
    db.query_batch([W1])
    calls.clear()
    batch = db.query_batch([UnionQuery((W1, W2))])
    assert [spec for spec, _ in calls] == [W2]
    assert batch.stats.leaf_cache_hits == 1


def test_without_the_cache_every_batch_executes_again(db, calls):
    specs = [W1, AreaQuery(POLY)]
    db.query_batch(specs, use_cache=False)
    db.query_batch(specs, use_cache=False)
    assert [spec for spec, _ in calls] == specs + specs


def test_uncacheable_specs_each_execute(db, calls):
    keep = lambda p: p.x < 0.5  # noqa: E731 - test fixture
    twins = [KnnQuery(Point(0.5, 0.5), 5, predicate=keep),
             KnnQuery(Point(0.5, 0.5), 5, predicate=keep)]
    batch = db.query_batch(twins)
    assert len(calls) == 2
    assert batch.stats.duplicate_hits == 0
    assert batch[0].ids() == batch[1].ids()


def test_auto_jobs_execute_with_the_planned_method(db, calls):
    specs = [W1, AreaQuery(POLY), KnnQuery((0.5, 0.5), 6),
             NearestQuery((0.2, 0.9))]
    batch = db.query_batch(specs, use_cache=False)
    assert [spec for spec, _ in calls] == specs
    for spec, method in calls:
        assert method != "auto"
        assert method == db.engine.planner.plan(spec)
    assert Counter(m for _, m in calls) == Counter(batch.stats.method_counts)


@pytest.mark.parametrize("method", ["voronoi", "traditional"])
def test_explicit_method_is_passed_through(db, calls, method):
    spec = AreaQuery(POLY, method=method)
    batch = db.query_batch([spec], use_cache=False)
    assert calls == [(spec, method)]
    assert batch.stats.method_counts == {method: 1}
    assert batch[0].ids() == db.query(AreaQuery(POLY)).ids()
