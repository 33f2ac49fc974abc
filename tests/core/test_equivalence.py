"""The headline invariant: Voronoi query ≡ traditional query ≡ brute force.

This module is the load-bearing correctness argument of the reproduction:
on every workload we can generate — uniform, clustered, grid-degenerate,
duplicated, every query shape and size, both Delaunay backends, every
spatial index — the three implementations must return identical row sets.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.random_shapes import random_query_polygon
from repro.core.database import SpatialDatabase
from repro.workloads.generators import (
    clustered_points,
    grid_points,
    uniform_points,
)
from repro.query.spec import AreaQuery


def _brute_force(db, area):
    return sorted(
        i for i in range(len(db)) if area.contains_point(db.point(i))
    )


def _assert_equivalent(db, area):
    voronoi = db.query(AreaQuery(area, method="voronoi")).record
    traditional = db.query(AreaQuery(area, method="traditional")).record
    expected = _brute_force(db, area)
    assert voronoi.ids == expected, "voronoi disagrees with brute force"
    assert traditional.ids == expected, "traditional disagrees with brute force"


class TestUniformWorkloads:
    @pytest.mark.parametrize("query_size", [0.001, 0.01, 0.08, 0.32])
    def test_query_sizes(self, query_size):
        db = SpatialDatabase.from_points(uniform_points(600, seed=81)).prepare()
        rng = random.Random(83)
        for _ in range(5):
            _assert_equivalent(
                db, random_query_polygon(query_size, rng=rng)
            )

    @pytest.mark.parametrize("n_vertices", [3, 5, 10, 30])
    def test_polygon_complexity(self, n_vertices):
        db = SpatialDatabase.from_points(uniform_points(400, seed=85)).prepare()
        rng = random.Random(87)
        for _ in range(5):
            _assert_equivalent(
                db,
                random_query_polygon(0.05, n_vertices=n_vertices, rng=rng),
            )


class TestDistributions:
    def test_clustered_data(self):
        db = SpatialDatabase.from_points(
            clustered_points(500, seed=89, clusters=8)
        ).prepare()
        rng = random.Random(91)
        for _ in range(10):
            _assert_equivalent(db, random_query_polygon(0.05, rng=rng))

    def test_grid_data_degenerate(self):
        db = SpatialDatabase.from_points(grid_points(400)).prepare()
        rng = random.Random(93)
        for _ in range(10):
            _assert_equivalent(db, random_query_polygon(0.05, rng=rng))

    def test_data_with_duplicates(self):
        points = uniform_points(200, seed=95)
        points += points[:50]  # 25 % duplicates
        db = SpatialDatabase.from_points(points).prepare()
        rng = random.Random(97)
        for _ in range(10):
            _assert_equivalent(db, random_query_polygon(0.08, rng=rng))

    def test_tiny_database(self):
        db = SpatialDatabase.from_points(uniform_points(3, seed=99)).prepare()
        rng = random.Random(101)
        for _ in range(5):
            _assert_equivalent(db, random_query_polygon(0.25, rng=rng))

    def test_single_point_database(self):
        db = SpatialDatabase.from_points([Point(0.5, 0.5)]).prepare()
        inside = Polygon([(0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6)])
        outside = Polygon([(0.8, 0.8), (0.9, 0.8), (0.9, 0.9), (0.8, 0.9)])
        assert db.query(AreaQuery(inside, method="voronoi")).ids() == [0]
        assert db.query(AreaQuery(outside, method="voronoi")).ids() == []


class TestBackendsAndIndexes:
    def test_both_backend_kind_names(self):
        points = uniform_points(300, seed=103)
        rng = random.Random(105)
        areas = [random_query_polygon(0.05, rng=rng) for _ in range(5)]
        pure_db = SpatialDatabase.from_points(points, backend_kind="pure")
        scipy_db = SpatialDatabase.from_points(points, backend_kind="scipy")
        for area in areas:
            assert (
                pure_db.query(AreaQuery(area, method="voronoi")).ids() == scipy_db.query(AreaQuery(area, method="voronoi")).ids()
            )

    @pytest.mark.parametrize("index_kind", ["rtree"])
    def test_all_indexes(self, index_kind):
        db = SpatialDatabase.from_points(uniform_points(300, seed=107)).prepare()
        assert type(db.index).__name__.lower() == index_kind
        rng = random.Random(109)
        for _ in range(5):
            _assert_equivalent(db, random_query_polygon(0.05, rng=rng))


class TestQueryAreaPlacement:
    def test_area_overlapping_space_boundary(self):
        # Polygon partially outside the data extent.
        db = SpatialDatabase.from_points(uniform_points(400, seed=111)).prepare()
        shifted = Polygon(
            [(-0.2, -0.2), (0.3, -0.1), (0.4, 0.4), (-0.1, 0.3)]
        )
        _assert_equivalent(db, shifted)

    def test_area_fully_outside_data(self):
        db = SpatialDatabase.from_points(uniform_points(100, seed=113)).prepare()
        outside = Polygon([(2, 2), (3, 2), (3, 3), (2, 3)])
        assert db.query(AreaQuery(outside, method="voronoi")).ids() == []
        assert db.query(AreaQuery(outside, method="traditional")).ids() == []

    def test_area_containing_all_data(self):
        db = SpatialDatabase.from_points(uniform_points(150, seed=115)).prepare()
        everything = Polygon([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        assert db.query(AreaQuery(everything, method="voronoi")).ids() == list(range(150))

    def test_rectangle_query_area(self):
        # Shape where the traditional method has zero redundancy.
        db = SpatialDatabase.from_points(uniform_points(400, seed=117)).prepare()
        rect_area = Polygon([(0.2, 0.3), (0.7, 0.3), (0.7, 0.6), (0.2, 0.6)])
        _assert_equivalent(db, rect_area)


class TestHypothesisEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 1000),
        query_seed=st.integers(0, 1000),
        n=st.integers(5, 120),
        query_size=st.floats(min_value=0.001, max_value=0.5),
    )
    def test_random_workloads(self, data_seed, query_seed, n, query_size):
        db = SpatialDatabase.from_points(
            uniform_points(n, seed=data_seed)
        ).prepare()
        area = random_query_polygon(
            query_size, rng=random.Random(query_seed)
        )
        _assert_equivalent(db, area)

    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 1000),
        n=st.integers(5, 120),
        cx=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        cy=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        radius=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_circle_regions(self, data_seed, n, cx, cy, radius):
        from repro.geometry.circle import Circle

        db = SpatialDatabase.from_points(
            uniform_points(n, seed=data_seed)
        ).prepare()
        disc = Circle(Point(cx, cy), radius)
        voronoi = db.query(AreaQuery(disc, method="voronoi")).record
        traditional = db.query(AreaQuery(disc, method="traditional")).record
        expected = sorted(
            i for i in range(len(db)) if disc.contains_point(db.point(i))
        )
        assert voronoi.ids == expected
        assert traditional.ids == expected

    @settings(max_examples=15, deadline=None)
    @given(
        vertices=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=3,
            max_size=12,
        ),
        data_seed=st.integers(0, 100),
    )
    def test_arbitrary_simple_polygons(self, vertices, data_seed):
        from repro.geometry.polygon import convex_hull

        hull = convex_hull([Point(x, y) for x, y in vertices])
        if len(hull) < 3:
            return
        area = Polygon(hull)
        if area.area <= 1e-12:
            return
        db = SpatialDatabase.from_points(
            uniform_points(80, seed=data_seed)
        ).prepare()
        _assert_equivalent(db, area)
