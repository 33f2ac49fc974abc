"""The graph oracles of ``tests/graph_oracle.py`` over a backend's adjacency."""

import random

import pytest

from graph_oracle import is_connected, reachable_without
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.predicates import orientation_value
from repro.geometry.segment import Segment
from repro.delaunay.backends import DelaunayBackend, PureDelaunayBackend
from repro.workloads.generators import clustered_points, uniform_points


@pytest.fixture(scope="module")
def backend():
    return PureDelaunayBackend(uniform_points(120, seed=21))


class TestConnectivity:
    def test_is_connected(self, backend):
        """Property 5: the Delaunay graph is connected."""
        assert is_connected(backend)


class TestReachability:
    def test_reachable_without_empty_block(self, backend):
        assert reachable_without(backend, 0, set()) == set(range(120))

    def test_seed_in_blocked_is_empty(self, backend):
        assert reachable_without(backend, 0, {0}) == set()

    def test_blocked_middle_splits_a_path(self):
        # A path graph: blocking the middle disconnects the ends.
        line = [Point(float(i), 0.0) for i in range(5)]
        backend = PureDelaunayBackend(line)
        reachable = reachable_without(backend, 0, blocked={2})
        assert reachable == {0, 1}


def _grid():
    # Eighths are exact in floating point: the four corners of every cell
    # are exactly cocircular, and rows and columns exactly collinear.
    points = [Point(i / 8.0, j / 8.0) for i in range(9) for j in range(9)]
    random.Random(33).shuffle(points)
    return points


def _hull_runs():
    # Distinct points on the unit square's four edges (long collinear runs
    # on the hull) among uniform interior points.
    rng = random.Random(34)
    edge = [
        point
        for t in sorted({rng.random() for _ in range(10)})
        for point in (Point(t, 0.0), Point(1.0, t), Point(1.0 - t, 1.0), Point(0.0, 1.0 - t))
    ]
    points = edge + [Point(0.0, 0.0), Point(1.0, 1.0)] + uniform_points(60, seed=35)
    rng.shuffle(points)
    return points


POINT_SETS = {
    "uniform": lambda: uniform_points(150, seed=31),
    "clustered": lambda: clustered_points(150, seed=32, clusters=5),
    "grid": _grid,
    "hull-runs": _hull_runs,
}


def _built(points):
    return DelaunayBackend(points)


def _grown(points):
    # The first half bulk-built, the rest inserted one at a time.
    backend = DelaunayBackend(points[: len(points) // 2])
    for point in points[len(points) // 2 :]:
        backend.add_point(point)
    return backend


def _adopted_then_grown(points):
    # The first half's CSR pair adopted as a snapshot would, then grown.
    half = points[: len(points) // 2]
    backend = DelaunayBackend.from_csr(*DelaunayBackend(half).neighbor_csr(), half)
    for point in points[len(points) // 2 :]:
        backend.add_point(point)
    return backend


LIFECYCLES = {
    "built": _built,
    "grown": _grown,
    "adopted-grown": _adopted_then_grown,
}


def _on_hull_count(points):
    """Points on the convex hull's boundary, collinear ones included."""
    ordered = sorted(set(points), key=lambda p: (p.x, p.y))
    chain = []
    for sweep in (ordered, ordered[::-1]):
        part = []
        for p in sweep:
            while len(part) >= 2 and orientation_value(part[-2], part[-1], p) <= 0.0:
                part.pop()
            part.append(p)
        chain.extend(part[:-1])
    edges = list(zip(chain, chain[1:] + chain[:1]))
    return sum(
        any(
            orientation_value(a, b, p) == 0.0
            and min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y)
            for a, b in edges
        )
        for p in points
    )


@pytest.mark.parametrize("lifecycle", sorted(LIFECYCLES))
@pytest.mark.parametrize("point_set", sorted(POINT_SETS))
class TestGraphAcrossLifecycles:
    """The backend's graph is the Delaunay graph whether it was bulk-built,
    grown by inserts, or adopted from a CSR pair and then grown — on
    general-position input and on exactly cocircular and collinear runs."""

    @pytest.fixture
    def case(self, point_set, lifecycle):
        points = POINT_SETS[point_set]()
        assert len(set(points)) == len(points)  # Euler's counts need distinct points
        return points, LIFECYCLES[lifecycle](points)

    def test_rows_are_symmetric_and_self_free(self, case):
        points, backend = case
        assert backend.size == len(points)
        for i in range(backend.size):
            row = backend.neighbors(i)
            assert i not in row
            assert list(row) == sorted(set(row))
            for j in row:
                assert i in backend.neighbors(j)

    def test_connected_from_every_side(self, case):
        """Property 5, checked from the first, a middle and the last row."""
        points, backend = case
        assert is_connected(backend)
        everything = set(range(len(points)))
        for seed in (len(points) // 2, len(points) - 1):
            assert reachable_without(backend, seed, set()) == everything

    def test_edge_count_is_a_full_triangulation(self, case):
        """Euler: a triangulation of n points, h of them on the hull's
        boundary, has exactly 3n - 3 - h edges — none missing, none extra."""
        points, backend = case
        edges = sum(len(backend.neighbors(i)) for i in range(backend.size)) // 2
        assert edges == 3 * len(points) - 3 - _on_hull_count(points)

    def test_triangles_tile_the_hull(self, case):
        """Euler's 2n - 2 - h triangles, each edge a graph edge, and every
        graph edge on one triangle (a hull edge) or two."""
        points, backend = case
        triangulation = backend.triangulation
        triangles = list(triangulation.triangles())
        assert len(triangles) == 2 * len(points) - 2 - _on_hull_count(points)
        sides = {}
        for a, b, c in triangles:
            assert orientation_value(points[a], points[b], points[c]) > 0.0
            for i, j in ((a, b), (b, c), (c, a)):
                assert j in backend.neighbors(i)
                key = (min(i, j), max(i, j))
                sides[key] = sides.get(key, 0) + 1
        assert set(sides) == set(triangulation.edges())
        assert set(sides.values()) <= {1, 2}

    def test_internal_points_reachable_avoiding_external(self, case):
        """Properties 7–9 over a convex area: BFS from one internal point,
        blocked at the external points, reaches every internal point."""
        points, backend = case
        area = Polygon.regular(7, points[len(points) // 3], 0.2, phase=0.3)
        internal = {i for i, p in enumerate(points) if area.contains_point(p)}
        external = {
            i
            for i, p in enumerate(points)
            if i not in internal
            and not any(
                j in internal or area.intersects_segment(Segment(p, points[j]))
                for j in backend.neighbors(i)
            )
        }
        assert len(points) // 3 in internal
        assert external
        reachable = reachable_without(backend, len(points) // 3, blocked=external)
        assert internal <= reachable
        assert not reachable & external
