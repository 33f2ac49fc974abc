"""Executable checks of the paper's Properties 1–9 (Sections II–III).

Each test cites the property it verifies.  Together they validate the
theoretical argument that makes Algorithm 1 correct, on top of the
end-to-end result equality tested elsewhere.
"""

import random

import pytest

from graph_oracle import is_connected, reachable_without
from repro.geometry.point import Point
from repro.geometry.segment import Segment
from repro.delaunay.backends import PureDelaunayBackend
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.delaunay.voronoi import VoronoiDiagram
from repro.geometry.random_shapes import random_query_polygon
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def points_300():
    return uniform_points(300, seed=121)


@pytest.fixture(scope="module")
def backend_300(points_300):
    return PureDelaunayBackend(points_300)


class TestProperty1Uniqueness:
    def test_voronoi_diagram_unique(self, points_300):
        """Property 1: V D(P) is unique — rebuilding with different
        insertion orders yields identical neighbour relations (general
        position)."""
        dt1 = DelaunayTriangulation(points_300)  # curve order
        dt2 = DelaunayTriangulation(points_300[:3])
        for p in points_300[3:]:  # row order
            dt2.add_point(p)
        for i in range(len(points_300)):
            assert set(dt1.neighbors(i)) == set(dt2.neighbors(i))


class TestProperty2NearestAmongNeighbors:
    def test_nearest_point_is_a_voronoi_neighbor(
        self, points_300, backend_300
    ):
        """Property 2: the nearest point of P to q ∈ P is among q's Voronoi
        neighbours."""
        for i in range(0, 300, 7):
            p = points_300[i]
            nearest = min(
                (j for j in range(300) if j != i),
                key=lambda j: points_300[j].squared_distance_to(p),
            )
            neighbor_best = min(
                points_300[j].squared_distance_to(p)
                for j in backend_300.neighbors(i)
            )
            assert (
                neighbor_best == points_300[nearest].squared_distance_to(p)
            )


class TestProperty3CellMembership:
    def test_nn_cell_contains_query(self, points_300):
        """Property 3: p' is nearest to q ∉ P iff q ∈ V(P, p')."""
        vd = VoronoiDiagram(points_300)
        rng = random.Random(123)
        for _ in range(60):
            q = Point(rng.random(), rng.random())
            nearest = min(
                range(300),
                key=lambda i: points_300[i].squared_distance_to(q),
            )
            assert vd.cell(nearest).contains(q)


class TestProperty4Duality:
    def test_voronoi_neighbors_are_delaunay_edges(self, points_300):
        """Property 4: the Delaunay triangulation is the dual of the Voronoi
        diagram — two generators are Voronoi neighbours iff they share a
        Delaunay edge."""
        dt = DelaunayTriangulation(points_300)
        edge_set = set(dt.edges())
        for i in range(300):
            for j in dt.neighbors(i):
                assert ((i, j) if i < j else (j, i)) in edge_set


class TestProperty5Connectivity:
    def test_delaunay_graph_connected(self, backend_300):
        """Property 5: the Delaunay graph is connected."""
        assert is_connected(backend_300)


class TestProperty6NearestNeighborGraph:
    def test_nn_graph_subset_of_delaunay(self, points_300, backend_300):
        """Property 6: the nearest-neighbour graph is a subgraph of the
        Delaunay graph."""
        for i in range(300):
            p = points_300[i]
            nearest = min(
                (j for j in range(300) if j != i),
                key=lambda j: (points_300[j].squared_distance_to(p), j),
            )
            assert nearest in backend_300.neighbors(i)


@pytest.fixture(scope="module")
def classified(points_300, backend_300):
    """The paper's three point classes for a fixed random query area."""
    area = random_query_polygon(0.15, rng=random.Random(125))
    internal = {
        i for i, p in enumerate(points_300) if area.contains_point(p)
    }
    boundary = set()
    for i, p in enumerate(points_300):
        if i in internal:
            continue
        for j in backend_300.neighbors(i):
            if j in internal or area.intersects_segment(
                Segment(p, points_300[j])
            ):
                boundary.add(i)
                break
    external = set(range(300)) - internal - boundary
    return area, internal, boundary, external


class TestProperty7InternalNeighbors:
    def test_internal_points_only_touch_internal_or_boundary(
        self, backend_300, classified
    ):
        """Property 7: every Voronoi neighbour of an internal point is
        internal or boundary."""
        _, internal, boundary, external = classified
        for i in internal:
            for j in backend_300.neighbors(i):
                assert j not in external


class TestProperty8ExternalNeighbors:
    def test_external_points_only_touch_external_or_boundary(
        self, backend_300, classified
    ):
        """Property 8: every Voronoi neighbour of an external point is
        external or boundary (never internal)."""
        _, internal, boundary, external = classified
        for i in external:
            for j in backend_300.neighbors(i):
                assert j not in internal


class TestProperty9BoundaryCrossing:
    def test_boundary_points_have_a_crossing_link(
        self, points_300, backend_300, classified
    ):
        """Property 9: every boundary point has a neighbour link that
        intersects the area (that is how the class is defined, and how
        Algorithm 1 decides to keep expanding)."""
        area, internal, boundary, _ = classified
        for i in boundary:
            has_crossing = any(
                j in internal
                or area.intersects_segment(
                    Segment(points_300[i], points_300[j])
                )
                for j in backend_300.neighbors(i)
            )
            assert has_crossing


class TestReachabilityConclusion:
    def test_internal_points_reachable_avoiding_external(
        self, points_300, backend_300, classified
    ):
        """The paper's conclusion from Properties 7–9: starting at any
        internal point, every internal point is reachable through internal
        and boundary points only — the correctness core of Algorithm 1."""
        _, internal, boundary, external = classified
        if not internal:
            pytest.skip("query area happened to contain no points")
        seed = next(iter(internal))
        reachable = reachable_without(backend_300, seed, blocked=external)
        assert internal <= reachable
