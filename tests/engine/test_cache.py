"""Result cache: spec keys, hit/miss accounting, eviction, invalidation."""

import pytest

from repro import AreaQuery, KnnQuery, SpatialDatabase
from repro.core.stats import QueryRecord, QueryStats
from repro.engine.cache import ResultCache
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload


def _result(ids):
    return QueryRecord(ids=list(ids), stats=QueryStats(method="voronoi"))


# -- spec cache keys ----------------------------------------------------------


def test_spec_keys_equal_for_equal_polygons():
    a = AreaQuery(Polygon.from_rect(Rect(0.1, 0.1, 0.3, 0.4)))
    b = AreaQuery(Polygon.from_rect(Rect(0.1, 0.1, 0.3, 0.4)))
    assert a.cache_key() == b.cache_key()
    assert hash(a.cache_key()) == hash(b.cache_key())


def test_spec_keys_distinguish_geometry():
    base = Polygon.from_rect(Rect(0.1, 0.1, 0.3, 0.4))
    shifted = base.translated(1e-9, 0.0)
    assert AreaQuery(base).cache_key() != AreaQuery(shifted).cache_key()


def test_spec_keys_distinguish_shapes():
    circle = Circle(Point(0.5, 0.5), 0.1)
    square = Polygon.from_rect(circle.mbr)
    assert AreaQuery(circle).cache_key() != AreaQuery(square).cache_key()
    assert (
        AreaQuery(circle).cache_key()
        == AreaQuery(Circle(Point(0.5, 0.5), 0.1)).cache_key()
    )


def test_spec_keys_normalise_method_and_projection():
    """Method and projection never change the result rows, so the key
    strips them — a voronoi-cached entry serves a traditional request."""
    region = Polygon.from_rect(Rect(0.1, 0.1, 0.3, 0.4))
    assert (
        AreaQuery(region, method="voronoi").cache_key()
        == AreaQuery(region, method="traditional").cache_key()
    )
    knn = KnnQuery((0.5, 0.5), 4)
    assert knn.cache_key() == knn.returning("points").cache_key()
    # limit changes the rows, so it stays in the key
    assert AreaQuery(region).cache_key() != (
        AreaQuery(region, limit=2).cache_key()
    )


def test_predicate_specs_are_uncacheable_and_always_execute():
    db = SpatialDatabase.from_points(uniform_points(300, seed=13)).prepare()
    spec = AreaQuery(
        Polygon.from_rect(Rect(0.2, 0.2, 0.6, 0.6)),
        predicate=lambda p: p.x < 0.5,
    )
    assert spec.cache_key() is None
    first = db.query_batch([spec, spec])
    # no dedup, no cache fill: both occurrences executed
    assert first.stats.executed == 2
    assert first.stats.cache_hits == 0 and first.stats.duplicate_hits == 0
    second = db.query_batch([spec])
    assert second.stats.cache_hits == 0 and second.stats.executed == 1
    assert first[0].ids() == first[1].ids() == second[0].ids()


class _OpaqueRegion:
    """A conforming QueryRegion with identity (not value) hashing."""

    def __init__(self, polygon):
        self._polygon = polygon

    def __getattr__(self, name):
        if name in ("vertices", "center", "radius"):
            raise AttributeError(name)
        return getattr(self._polygon, name)


def test_opaque_regions_cache_by_identity_only():
    """A custom region without value hashing gets identity-scoped cache
    entries: only the very same object can hit them, so two equal-geometry
    instances never serve each other's results."""
    db = SpatialDatabase.from_points(uniform_points(300, seed=13)).prepare()
    polygon = Polygon.from_rect(Rect(0.2, 0.2, 0.6, 0.6))
    first_obj = _OpaqueRegion(polygon)
    second_obj = _OpaqueRegion(polygon)
    first = db.query_batch([AreaQuery(first_obj), AreaQuery(second_obj)])
    assert first.stats.executed == 2  # distinct identities: no sharing
    again = db.query_batch([AreaQuery(first_obj)])
    assert again.stats.cache_hits == 1  # same object: served from cache
    expected = db.query(AreaQuery(polygon, method="traditional")).ids()
    assert first[0].ids() == first[1].ids() == again[0].ids() == expected


# -- cache mechanics ---------------------------------------------------------


def test_hit_and_miss_accounting():
    cache = ResultCache(capacity=4)
    assert cache.get("k", version=1) is None
    cache.put("k", 1, _result([1, 2]))
    hit = cache.get("k", version=1)
    assert hit is not None and hit.ids == [1, 2]
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_hits_return_independent_copies():
    cache = ResultCache(capacity=4)
    cache.put("k", 1, _result([1, 2]))
    first = cache.get("k", version=1)
    first.ids.append(99)
    second = cache.get("k", version=1)
    assert second.ids == [1, 2]


def test_lru_eviction_order():
    cache = ResultCache(capacity=2)
    cache.put("a", 1, _result([1]))
    cache.put("b", 1, _result([2]))
    assert cache.get("a", version=1) is not None  # refresh "a"
    cache.put("c", 1, _result([3]))  # evicts "b", the LRU entry
    assert cache.stats.evictions == 1
    assert cache.get("b", version=1) is None
    assert cache.get("a", version=1) is not None
    assert cache.get("c", version=1) is not None


def test_version_mismatch_counts_invalidation_and_drops_entry():
    cache = ResultCache(capacity=4)
    cache.put("k", 1, _result([1]))
    assert cache.get("k", version=2) is None
    assert cache.stats.invalidations == 1
    assert len(cache) == 0


def test_zero_capacity_disables_storage():
    cache = ResultCache(capacity=0)
    cache.put("k", 1, _result([1]))
    assert len(cache) == 0
    assert cache.get("k", version=1) is None


def test_clear_preserves_stats():
    cache = ResultCache(capacity=4)
    cache.put("k", 1, _result([1]))
    cache.get("k", version=1)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1


# -- database integration ----------------------------------------------------


@pytest.fixture()
def db():
    return SpatialDatabase.from_points(
        uniform_points(400, seed=9)
    ).prepare()


def area_specs(regions, method="auto"):
    return [AreaQuery(region, method=method) for region in regions]


def test_repeated_batch_is_served_from_cache(db):
    specs = area_specs(QueryWorkload(query_size=0.04, seed=31).areas(8))
    first = db.query_batch(specs)
    assert first.stats.cache_hits == 0
    second = db.query_batch(specs)
    assert second.stats.cache_hits == len(specs)
    assert second.stats.executed == 0
    assert [r.ids() for r in second] == [r.ids() for r in first]


def test_insert_invalidates_cached_results(db):
    region = Polygon.from_rect(Rect(0.4, 0.4, 0.6, 0.6))
    before = db.query_batch([AreaQuery(region)])[0].ids()
    new_id = db.insert((0.5, 0.5))
    after_batch = db.query_batch([AreaQuery(region)])
    after = after_batch[0].ids()
    assert after_batch.stats.cache_hits == 0
    assert new_id in after
    assert set(after) == set(before) | {new_id}
    assert after == db.query(AreaQuery(region, method="traditional")).ids()


def test_cache_hits_are_method_independent(db):
    """Both methods return identical ids (the paper's theorem), so a
    cached result may serve either method's request."""
    regions = QueryWorkload(query_size=0.04, seed=33).areas(4)
    db.query_batch(area_specs(regions, "traditional"))
    batch = db.query_batch(area_specs(regions, "voronoi"))
    assert batch.stats.cache_hits == len(regions)
    assert [r.ids() for r in batch] == [
        db.query(AreaQuery(region, method="voronoi")).ids() for region in regions
    ]


def test_use_cache_false_bypasses_cache(db):
    regions = QueryWorkload(query_size=0.04, seed=35).areas(3)
    db.query_batch(area_specs(regions))
    bypass = db.query_batch(area_specs(regions), use_cache=False)
    assert bypass.stats.cache_hits == 0
    assert bypass.stats.executed == len(regions)
