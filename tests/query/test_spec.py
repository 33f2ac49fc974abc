"""Query specs: construction, validation, hashing, builders, cache keys."""

import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.query.spec import (
    AreaQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    QUERY_KINDS,
    UnionQuery,
    WindowQuery,
    spec_fields,
)

POLY = Polygon([(0.1, 0.1), (0.5, 0.1), (0.5, 0.6), (0.1, 0.6)])
RECT = Rect(0.2, 0.2, 0.7, 0.8)


class TestConstruction:
    def test_kinds_registry(self):
        assert set(QUERY_KINDS) == {
            "area",
            "window",
            "knn",
            "nearest",
            "union",
            "intersection",
            "difference",
        }
        assert QUERY_KINDS["area"] is AreaQuery
        assert QUERY_KINDS["union"] is UnionQuery
        assert QUERY_KINDS["intersection"] is IntersectionQuery
        assert QUERY_KINDS["difference"] is DifferenceQuery

    def test_base_is_abstract(self):
        with pytest.raises(TypeError):
            Query()

    def test_defaults(self):
        spec = AreaQuery(POLY)
        assert spec.method == "auto"
        assert spec.limit is None
        assert spec.predicate is None
        assert spec.select == "ids"

    def test_window_accepts_bounds_sequence(self):
        spec = WindowQuery((0.2, 0.2, 0.7, 0.8))
        assert spec.rect == RECT

    def test_point_accepts_pair(self):
        spec = KnnQuery((0.25, 0.75), 3)
        assert spec.point == Point(0.25, 0.75)
        assert NearestQuery((0.0, 1.0)).point == Point(0.0, 1.0)

    def test_missing_geometry_rejected(self):
        with pytest.raises(ValueError):
            AreaQuery(None)
        with pytest.raises(ValueError):
            WindowQuery(None)
        with pytest.raises(ValueError):
            KnnQuery(None, 3)

    def test_method_validated_per_kind(self):
        with pytest.raises(ValueError):
            AreaQuery(POLY, method="index")
        with pytest.raises(ValueError):
            WindowQuery(RECT, method="traditional")
        with pytest.raises(ValueError):
            NearestQuery((0, 0), method="voronoi")
        # valid combinations construct fine
        AreaQuery(POLY, method="traditional")
        WindowQuery(RECT, method="index")
        KnnQuery((0, 0), 2, method="voronoi")

    def test_k_validated(self):
        with pytest.raises(ValueError):
            KnnQuery((0, 0), -1)
        with pytest.raises(ValueError, match="float range"):
            KnnQuery((0, 0), 10**400)  # the planner costs k as a float
        assert KnnQuery((0, 0), 0).k == 0  # legal: empty result

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            AreaQuery(POLY, limit=-1)
        with pytest.raises(ValueError):
            AreaQuery(POLY, limit=2.5)

    def test_select_validated(self):
        with pytest.raises(ValueError):
            AreaQuery(POLY, select="rows")
        # distances only make sense with a query position
        with pytest.raises(ValueError):
            AreaQuery(POLY, select="distances")
        with pytest.raises(ValueError):
            WindowQuery(RECT, select="distances")
        KnnQuery((0, 0), 2, select="distances")
        NearestQuery((0, 0), select="distances")


class TestValueSemantics:
    def test_equality_and_hash(self):
        a = AreaQuery(Polygon(list(POLY.vertices)))
        b = AreaQuery(Polygon(list(POLY.vertices)))
        assert a == b
        assert hash(a) == hash(b)
        assert a != AreaQuery(POLY.translated(0.01, 0.0))
        assert len({a, b}) == 1

    def test_kinds_never_collide(self):
        knn = KnnQuery((0.5, 0.5), 1)
        nearest = NearestQuery((0.5, 0.5))
        assert knn != nearest
        assert len({knn, nearest}) == 2

    def test_builders_return_new_specs(self):
        spec = AreaQuery(POLY)
        limited = spec.with_limit(5)
        assert limited is not spec and limited.limit == 5
        assert spec.limit is None  # original untouched
        assert spec.with_method("voronoi").method == "voronoi"
        assert spec.returning("points").select == "points"
        predicate = lambda p: p.x > 0.0  # noqa: E731 - test fixture
        assert spec.where(predicate).predicate is predicate


class TestCacheKey:
    def test_method_and_select_normalised(self):
        assert (
            AreaQuery(POLY, method="voronoi").cache_key()
            == AreaQuery(POLY, method="traditional").cache_key()
            == AreaQuery(POLY).cache_key()
        )
        knn = KnnQuery((0.1, 0.2), 4)
        assert knn.cache_key() == knn.returning("distances").cache_key()

    def test_limit_stays_in_key(self):
        assert AreaQuery(POLY).cache_key() != (
            AreaQuery(POLY, limit=1).cache_key()
        )

    def test_predicate_uncacheable(self):
        assert AreaQuery(POLY, predicate=lambda p: True).cache_key() is None

    def test_circle_regions_cacheable(self):
        spec = AreaQuery(Circle(Point(0.5, 0.5), 0.2))
        key = spec.cache_key()
        assert key == AreaQuery(Circle(Point(0.5, 0.5), 0.2)).cache_key()
        hash(key)  # must be hashable


class TestIntrospection:
    def test_describe_mentions_kind_and_options(self):
        text = AreaQuery(POLY, method="voronoi", limit=3).describe()
        assert text.startswith("area(")
        assert "method=voronoi" in text and "limit=3" in text
        assert "knn((0.5, 0.5), k=7)" in KnnQuery((0.5, 0.5), 7).describe()

    def test_spec_fields_round_trip(self):
        spec = KnnQuery((0.5, 0.5), 7, limit=3)
        fields = spec_fields(spec)
        assert fields["k"] == 7 and fields["limit"] == 3
        assert KnnQuery(**fields) == spec
