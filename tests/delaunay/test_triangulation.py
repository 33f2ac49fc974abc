"""Unit tests for the Bowyer–Watson Delaunay triangulation."""

import random

import pytest

from repro.geometry.point import Point
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.workloads.generators import grid_points, uniform_points


class TestSmallConfigurations:
    def test_single_point(self):
        dt = DelaunayTriangulation([Point(0.5, 0.5)])
        assert dt.neighbors(0) == ()
        assert list(dt.triangles()) == []

    def test_two_points(self):
        dt = DelaunayTriangulation([Point(0, 0), Point(1, 1)])
        assert dt.neighbors(0) == (1,)
        assert dt.neighbors(1) == (0,)

    def test_three_points(self):
        dt = DelaunayTriangulation([Point(0, 0), Point(1, 0), Point(0, 1)])
        assert set(dt.neighbors(0)) == {1, 2}
        triangles = list(dt.triangles())
        assert len(triangles) == 1
        assert sorted(triangles[0]) == [0, 1, 2]

    def test_square_two_triangles(self):
        dt = DelaunayTriangulation(
            [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        )
        assert len(list(dt.triangles())) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DelaunayTriangulation([])


class TestDelaunayInvariant:
    @pytest.mark.parametrize("n,seed", [(50, 0), (150, 1), (150, 2)])
    def test_empty_circumcircle_uniform(self, n, seed):
        points = uniform_points(n, seed=seed)
        dt = DelaunayTriangulation(points)
        dt.check_delaunay_property()

    def test_empty_circumcircle_grid(self):
        # Cocircular degeneracies everywhere: the exact predicate's ties
        # must keep a consistent (still Delaunay) triangulation.
        points = grid_points(49)
        dt = DelaunayTriangulation(points)
        dt.check_delaunay_property()

    def test_empty_circumcircle_clustered(self):
        rng = random.Random(5)
        points = [Point(0.5 + rng.gauss(0, 0.001), 0.5 + rng.gauss(0, 0.001))
                  for _ in range(80)]
        dt = DelaunayTriangulation(points)
        dt.check_delaunay_property()


class TestAdjacencyStructure:
    def test_symmetry(self, uniform_200):
        dt = DelaunayTriangulation(uniform_200)
        for i in range(len(uniform_200)):
            for j in dt.neighbors(i):
                assert i in dt.neighbors(j)

    def test_no_self_neighbors(self, uniform_200):
        dt = DelaunayTriangulation(uniform_200)
        for i in range(len(uniform_200)):
            assert i not in dt.neighbors(i)

    def test_edge_count_bound(self, uniform_200):
        # Planar graph: |E| <= 3n - 6.
        dt = DelaunayTriangulation(uniform_200)
        edges = list(dt.edges())
        n = len(uniform_200)
        assert len(edges) <= 3 * n - 6

    def test_euler_formula(self, uniform_200):
        # For a triangulation of a point set with h hull points:
        # triangles = 2n - h - 2, edges = 3n - h - 3.
        from repro.geometry.polygon import convex_hull

        dt = DelaunayTriangulation(uniform_200)
        n = len(uniform_200)
        h = len(convex_hull(uniform_200))
        assert len(list(dt.triangles())) == 2 * n - h - 2
        assert len(list(dt.edges())) == 3 * n - h - 3

    def test_triangles_ccw(self, uniform_200):
        from repro.geometry.predicates import orientation, Orientation

        dt = DelaunayTriangulation(uniform_200)
        for a, b, c in dt.triangles():
            assert (
                orientation(uniform_200[a], uniform_200[b], uniform_200[c])
                is Orientation.COUNTERCLOCKWISE
            )


class TestDegenerateInputs:
    def test_all_collinear(self):
        points = [Point(float(i), 2.0 * i) for i in range(8)]
        dt = DelaunayTriangulation(points)
        assert list(dt.triangles()) == []
        # Chain adjacency keeps the graph connected.
        assert dt.neighbors(0) == (1,)
        assert dt.neighbors(3) == (2, 4)
        assert dt.neighbors(7) == (6,)

    def test_two_identical_points(self):
        dt = DelaunayTriangulation([Point(0.5, 0.5), Point(0.5, 0.5)])
        assert dt.neighbors(0) == (1,)
        assert dt.neighbors(1) == (1,) or dt.neighbors(1) == (0,)

    def test_duplicates_alias_canonical(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 0)]
        dt = DelaunayTriangulation(points)
        assert dt.alias_of[3] == 1
        # Copies form a clique and share the spatial neighbourhood.
        assert set(dt.neighbors(3)) - {1} == set(dt.neighbors(1)) - {3}
        assert 1 in dt.neighbors(3)
        assert 3 in dt.neighbors(1)
        # Spatial neighbours see both copies.
        assert 3 in dt.neighbors(0) and 1 in dt.neighbors(0)

    def test_duplicate_of_duplicate(self):
        points = [Point(0, 0)] * 3 + [Point(1, 1)]
        dt = DelaunayTriangulation(points)
        assert dt.alias_of[1] == 0
        assert dt.alias_of[2] == 0
        assert dt.canonical_count == 2

    def test_vertical_line(self):
        points = [Point(0.5, float(i)) for i in range(6)]
        dt = DelaunayTriangulation(points)
        assert dt.neighbors(2) == (1, 3)

    def test_row_order_is_topology_neutral(self):
        # The build picks its own insertion order, so the order rows
        # arrive in (sorted input included) changes nothing but the ids.
        points = uniform_points(80, seed=10)
        reference = DelaunayTriangulation(points)
        reference.check_delaunay_property()
        by_x = sorted(range(80), key=lambda i: points[i].x)
        dt = DelaunayTriangulation([points[i] for i in by_x])
        for position, i in enumerate(by_x):
            assert {by_x[j] for j in dt.neighbors(position)} == set(
                reference.neighbors(i)
            )


class TestFromXY:
    def test_from_xy(self):
        dt = DelaunayTriangulation.from_xy([0, 1, 0], [0, 0, 1])
        assert set(dt.neighbors(0)) == {1, 2}
