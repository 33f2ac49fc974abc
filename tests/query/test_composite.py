"""Composite specs: construction, set-semantics equivalence, round-trip.

The load-bearing property: for any leaves, the composite's id list
equals the corresponding Python set operation over brute-force leaf
results — on every execution surface (eager single query, batch, and
the streaming path), since all three must never drift.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import SpatialDatabase
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.query.serialize import dump_specs, load_specs, spec_to_dict
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)

POLY = Polygon([(0.1, 0.1), (0.6, 0.15), (0.55, 0.6), (0.15, 0.5)])
RECT = Rect(0.2, 0.2, 0.7, 0.8)
W1 = WindowQuery(Rect(0.0, 0.0, 0.5, 0.5))
W2 = WindowQuery(Rect(0.25, 0.25, 0.75, 0.75))


@pytest.fixture(scope="module")
def db(uniform_1000):
    """A 300-point database shared by the equivalence tests."""
    return SpatialDatabase.from_points(uniform_1000[:300]).prepare()


class TestConstruction:
    def test_composite_base_is_abstract(self):
        with pytest.raises(TypeError):
            CompositeQuery((W1, W2))

    def test_needs_at_least_two_parts(self):
        for cls in (UnionQuery, IntersectionQuery, DifferenceQuery):
            with pytest.raises(ValueError):
                cls((W1,))
            with pytest.raises(ValueError):
                cls(())

    def test_leaves_must_be_region_kinds(self):
        with pytest.raises(TypeError):
            UnionQuery((W1, KnnQuery((0.5, 0.5), 3)))
        with pytest.raises(TypeError):
            IntersectionQuery((NearestQuery((0.1, 0.1)), W1))
        with pytest.raises(TypeError):
            DifferenceQuery((W1, "not a spec"))

    def test_distances_projection_rejected(self):
        with pytest.raises(ValueError):
            UnionQuery((W1, W2), select="distances")

    def test_only_auto_method(self):
        with pytest.raises(ValueError):
            UnionQuery((W1, W2), method="voronoi")

    def test_nesting_and_leaf_iteration(self):
        nested = DifferenceQuery(
            (UnionQuery((W1, W2)), AreaQuery(POLY))
        )
        assert list(nested.iter_leaves()) == [W1, W2, AreaQuery(POLY)]
        # composites execute once and iterate the record, like windows
        assert not nested.streams()

    def test_cache_key_normalises_recursively(self):
        a = UnionQuery(
            (
                WindowQuery(W1.rect, method="voronoi", select="points"),
                W2,
            ),
            select="points",
        )
        b = UnionQuery((W1, W2))
        assert a.cache_key() == b.cache_key()
        # any predicate anywhere makes the composite uncacheable
        assert UnionQuery((W1, W2), predicate=lambda p: True).cache_key() is None
        filtered = WindowQuery(W1.rect, predicate=lambda p: True)
        assert UnionQuery((filtered, W2)).cache_key() is None

    def test_describe_mentions_parts(self):
        text = UnionQuery((W1, W2)).describe()
        assert text.startswith("union(")
        assert "window" in text


def brute_window(points, rect):
    return {i for i, p in enumerate(points) if rect.contains_point(p)}


def brute_region(points, region):
    return {i for i, p in enumerate(points) if region.contains_point(p)}


rect_strategy = st.builds(
    lambda x0, y0, w, h: Rect(x0, y0, x0 + w, y0 + h),
    st.floats(0.0, 0.7),
    st.floats(0.0, 0.7),
    st.floats(0.05, 0.3),
    st.floats(0.05, 0.3),
)


class TestSetSemantics:
    @settings(max_examples=25, deadline=None)
    @given(rects=st.lists(rect_strategy, min_size=2, max_size=5))
    def test_union_matches_brute_force_sets(self, db, rects):
        parts = tuple(WindowQuery(r) for r in rects)
        expected = sorted(
            set().union(*(brute_window(db.points, r) for r in rects))
        )
        assert db.query(UnionQuery(parts)).ids() == expected

    @settings(max_examples=25, deadline=None)
    @given(rects=st.lists(rect_strategy, min_size=2, max_size=5))
    def test_intersection_matches_brute_force_sets(self, db, rects):
        parts = tuple(WindowQuery(r) for r in rects)
        sets = [brute_window(db.points, r) for r in rects]
        expected = sorted(sets[0].intersection(*sets[1:]))
        assert db.query(IntersectionQuery(parts)).ids() == expected

    @settings(max_examples=25, deadline=None)
    @given(rects=st.lists(rect_strategy, min_size=2, max_size=5))
    def test_difference_matches_brute_force_sets(self, db, rects):
        parts = tuple(WindowQuery(r) for r in rects)
        sets = [brute_window(db.points, r) for r in rects]
        expected = sorted(sets[0].difference(*sets[1:]))
        assert db.query(DifferenceQuery(parts)).ids() == expected

    @settings(max_examples=15, deadline=None)
    @given(rects=st.lists(rect_strategy, min_size=2, max_size=4))
    def test_streaming_equals_eager_equals_batch(self, db, rects):
        for cls in (UnionQuery, IntersectionQuery, DifferenceQuery):
            spec = cls(tuple(WindowQuery(r) for r in rects))
            eager = db.query(spec).ids()
            streamed = list(db.query(spec).stream())
            batched = db.query_batch([spec], use_cache=False)[0].ids()
            assert streamed == eager == batched

    def test_mixed_leaf_kinds_and_nesting(self, db):
        area = AreaQuery(POLY)
        circle = AreaQuery(Circle(Point(0.4, 0.4), 0.25))
        spec = DifferenceQuery(
            (UnionQuery((W1, area)), IntersectionQuery((W2, circle)))
        )
        base = brute_window(db.points, W1.rect) | brute_region(
            db.points, POLY
        )
        minus = brute_window(db.points, W2.rect) & brute_region(
            db.points, Circle(Point(0.4, 0.4), 0.25)
        )
        assert db.query(spec).ids() == sorted(base - minus)

    def test_composite_options_apply_to_merged_rows(self, db):
        predicate = lambda p: p.x < 0.4  # noqa: E731
        spec = UnionQuery((W1, W2), predicate=predicate, limit=5)
        merged = sorted(
            brute_window(db.points, W1.rect)
            | brute_window(db.points, W2.rect)
        )
        expected = [i for i in merged if predicate(db.point(i))][:5]
        assert db.query(spec).ids() == expected
        assert list(db.query(spec).stream()) == expected

    def test_leaf_options_apply_before_merge(self, db):
        capped = WindowQuery(W1.rect, limit=3)
        expected = sorted(
            set(sorted(brute_window(db.points, W1.rect))[:3])
            | brute_window(db.points, W2.rect)
        )
        assert db.query(UnionQuery((capped, W2))).ids() == expected


class TestSerializeRoundTrip:
    def test_every_new_kind_round_trips(self):
        specs = [
            UnionQuery((W1, W2)),
            IntersectionQuery((W1, AreaQuery(POLY))),
            DifferenceQuery(
                (AreaQuery(Circle(Point(0.3, 0.3), 0.2)), W2), limit=9
            ),
            DifferenceQuery(
                (UnionQuery((W1, W2)), IntersectionQuery((W1, W2))),
                select="points",
            ),
            KnnQuery((0.25, 0.75), None),
            KnnQuery((0.25, 0.75), None, limit=12, method="voronoi"),
        ]
        assert load_specs(dump_specs(specs)) == specs

    def test_unbounded_knn_omits_k_on_the_wire(self):
        data = spec_to_dict(KnnQuery((0.1, 0.2), None))
        assert "k" not in data
        assert load_specs('{"kind": "knn", "point": [0.1, 0.2]}') == [
            KnnQuery((0.1, 0.2), None)
        ]
        assert load_specs(
            '{"kind": "knn", "point": [0.1, 0.2], "k": null}'
        ) == [KnnQuery((0.1, 0.2), None)]

    def test_composite_wire_format_nests_parts(self):
        data = spec_to_dict(UnionQuery((W1, W2)))
        assert data["kind"] == "union"
        assert [part["kind"] for part in data["parts"]] == [
            "window",
            "window",
        ]

    def test_predicate_anywhere_rejects_serialisation(self):
        filtered = WindowQuery(W1.rect, predicate=lambda p: True)
        with pytest.raises(ValueError):
            dump_specs([UnionQuery((filtered, W2))])
