"""Unit tests for Algorithm 1 (the Voronoi-diagram-based area query)."""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.rtree import RTree
from repro.delaunay.backends import PureDelaunayBackend
from repro.core.store import PointStore
from repro.core.voronoi_query import interior_position, voronoi_area_query
from repro.workloads.generators import uniform_points
from repro.geometry.random_shapes import random_query_polygon


@pytest.fixture(scope="module")
def setup_500():
    points = uniform_points(500, seed=61)
    store = PointStore()
    index = RTree()
    rows = store.extend_points(points)
    index.bulk_load(store.xs, store.ys, rows)
    backend = PureDelaunayBackend(points)
    return points, index, backend, store


class TestInteriorPosition:
    def test_centroid_of_convex(self, triangle):
        pos = interior_position(triangle)
        assert triangle.contains_point(pos)

    def test_concave_polygon(self, concave_polygon):
        pos = interior_position(concave_polygon)
        assert concave_polygon.contains_point(pos)

    def test_centroid_outside_crescent(self):
        # A horseshoe whose centroid is in the notch (outside).
        horseshoe = Polygon(
            [
                (0.0, 0.0),
                (1.0, 0.0),
                (1.0, 1.0),
                (0.0, 1.0),
                (0.0, 0.8),
                (0.8, 0.8),
                (0.8, 0.2),
                (0.0, 0.2),
            ]
        )
        pos = interior_position(horseshoe)
        assert horseshoe.contains_point(pos)

    def test_thin_sliver(self):
        sliver = Polygon([(0, 0), (1, 0.001), (1, 0.0)])
        pos = interior_position(sliver)
        assert sliver.contains_point(pos)


class TestCorrectness:
    def test_matches_brute_force(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(index, backend, store, concave_polygon)
        expected = sorted(
            i
            for i, p in enumerate(points)
            if concave_polygon.contains_point(p)
        )
        assert result.ids == expected

    def test_random_polygons(self, setup_500):
        points, index, backend, store = setup_500
        rng = random.Random(63)
        for _ in range(20):
            area = random_query_polygon(0.05, rng=rng)
            result = voronoi_area_query(index, backend, store, area)
            expected = sorted(
                i for i, p in enumerate(points) if area.contains_point(p)
            )
            assert result.ids == expected

    def test_empty_result_area_between_points(self, setup_500):
        # A tiny polygon placed in a gap: no internal points, and the
        # query must terminate with an empty (correct) result.
        points, index, backend, store = setup_500
        rng = random.Random(65)
        empties = 0
        for _ in range(50):
            area = random_query_polygon(0.00001, rng=rng)
            result = voronoi_area_query(index, backend, store, area)
            expected = sorted(
                i for i, p in enumerate(points) if area.contains_point(p)
            )
            assert result.ids == expected
            empties += not result.ids
        assert empties > 0, "expected at least one empty-result query"

    def test_area_covering_everything(self, setup_500):
        points, index, backend, store = setup_500
        big = Polygon([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        result = voronoi_area_query(index, backend, store, big)
        assert result.ids == list(range(500))

    def test_seed_position_override(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(
            index,
            backend,
            store,
            concave_polygon,
            seed_position=Point(0.2, 0.2),
        )
        expected = sorted(
            i
            for i, p in enumerate(points)
            if concave_polygon.contains_point(p)
        )
        assert result.ids == expected


class TestStats:
    def test_method_label(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(index, backend, store, concave_polygon)
        assert result.stats.method == "voronoi"

    def test_validations_equal_candidates(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(index, backend, store, concave_polygon)
        assert result.stats.validations == result.stats.candidates

    def test_redundant_accounting(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(index, backend, store, concave_polygon)
        assert (
            result.stats.redundant_validations
            == result.stats.candidates - result.stats.result_size
        )

    def test_fewer_candidates_than_traditional(self, setup_500):
        """The headline claim on a strongly concave area."""
        from repro.core.traditional_query import traditional_area_query

        points, index, backend, store = setup_500
        # The L-shape covers half its MBR, so the traditional candidate set
        # is about double the result; the Voronoi one is result + shell.
        horseshoe = Polygon(
            [
                (0.1, 0.1),
                (0.9, 0.1),
                (0.9, 0.9),
                (0.1, 0.9),
                (0.1, 0.7),
                (0.7, 0.7),
                (0.7, 0.3),
                (0.1, 0.3),
            ]
        )
        voronoi = voronoi_area_query(index, backend, store, horseshoe)
        traditional = traditional_area_query(index, store, horseshoe)
        assert voronoi.ids == traditional.ids
        assert voronoi.stats.candidates < traditional.stats.candidates

    def test_segment_tests_counted(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(index, backend, store, concave_polygon)
        assert result.stats.segment_tests > 0

    def test_seed_nn_node_accesses_recorded(self, setup_500, concave_polygon):
        points, index, backend, store = setup_500
        result = voronoi_area_query(index, backend, store, concave_polygon)
        assert result.stats.index_node_accesses > 0


class TestShellLocality:
    def test_all_candidates_near_area(self, setup_500):
        """Every redundant candidate must be Voronoi-adjacent to the area:
        its cell borders the region, so its distance to the polygon is at
        most one Voronoi-cell diameter (~sqrt(1/n) scale)."""
        points, index, backend, store = setup_500
        rng = random.Random(67)
        area = random_query_polygon(0.04, rng=rng)
        # Re-run the query and collect candidates via the contains hook.
        validated = []

        def tracking_contains(polygon, p):
            validated.append(p)
            return polygon.contains_point(p)

        voronoi_area_query(
            index, backend, store, area, contains=tracking_contains
        )
        # 500 uniform points => typical Voronoi cell diameter ~ 2/sqrt(500).
        max_shell_distance = 4.0 / (500 ** 0.5)
        for p in validated:
            if area.contains_point(p):
                continue
            distance = min(
                edge.distance_to_point(p) for edge in area.edges()
            )
            assert distance < max_shell_distance
