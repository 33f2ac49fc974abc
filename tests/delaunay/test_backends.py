"""Unit tests for the pure and scipy Delaunay backends."""

import random

import numpy as np
import pytest

from repro.core.store import PointStore
from repro.geometry.point import Point
from repro.delaunay.backends import (
    PureDelaunayBackend,
    ScipyDelaunayBackend,
    make_backend,
)
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.workloads.generators import clustered_points, uniform_points


class TestPureBackend:
    def test_size_and_name(self, uniform_200):
        backend = PureDelaunayBackend(uniform_200)
        assert backend.size == 200
        assert backend.name == "pure"

    def test_neighbors_nonempty(self, uniform_200):
        backend = PureDelaunayBackend(uniform_200)
        for i in range(200):
            assert len(backend.neighbors(i)) > 0

    def test_neighbor_table_matches_neighbors(self, uniform_200):
        backend = PureDelaunayBackend(uniform_200)
        table = backend.neighbor_table()
        assert len(table) == 200
        for i in range(200):
            assert table[i] == backend.neighbors(i)

    def test_neighbor_table_cached(self, uniform_200):
        backend = PureDelaunayBackend(uniform_200)
        assert backend.neighbor_table() is backend.neighbor_table()


@pytest.mark.usefixtures("requires_scipy")
class TestScipyBackend:
    def test_size_and_name(self, uniform_200):
        backend = ScipyDelaunayBackend(uniform_200)
        assert backend.size == 200
        assert backend.name == "scipy"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ScipyDelaunayBackend([])

    def test_single_point(self):
        backend = ScipyDelaunayBackend([Point(0.5, 0.5)])
        assert backend.neighbors(0) == ()

    def test_two_points(self):
        backend = ScipyDelaunayBackend([Point(0, 0), Point(1, 1)])
        assert backend.neighbors(0) == (1,)
        assert backend.neighbors(1) == (0,)

    def test_collinear_chain(self):
        points = [Point(float(i), float(i)) for i in range(5)]
        backend = ScipyDelaunayBackend(points)
        assert backend.neighbors(0) == (1,)
        assert backend.neighbors(2) == (1, 3)

    def test_qhull_failure_on_a_line_takes_the_chain(self):
        # Qhull raises "initial simplex is flat"; the cross-product check
        # confirms the line, so the chain is the right answer.
        from scipy.spatial import Delaunay, QhullError

        points = [Point(0.25 * i, 0.75 * i) for i in (4, 0, 2, 1, 3)]
        with pytest.raises(QhullError):
            Delaunay([(p.x, p.y) for p in points])
        backend = ScipyDelaunayBackend(points)
        assert backend.neighbor_table() == [(4,), (3,), (3, 4), (1, 2), (0, 2)]

    def test_qhull_failure_off_a_line_is_raised(self, monkeypatch):
        # Any other Qhull failure must not be answered with a chain.
        import scipy.spatial

        def failing(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6999 injected failure")

        monkeypatch.setattr(scipy.spatial, "Delaunay", failing)
        with pytest.raises(scipy.spatial.QhullError, match="injected"):
            ScipyDelaunayBackend(uniform_points(20, seed=5))

    def test_nearly_collinear_input_is_not_chained(self):
        # Flat within Qhull's tolerance but not on one line: Qhull gives
        # up and so do we, instead of returning a graph that is wrong.
        from scipy.spatial import QhullError

        points = [Point(float(i), float(i)) for i in range(5)]
        points.append(Point(5.0, 5.0 + 2e-15))
        with pytest.raises(QhullError):
            ScipyDelaunayBackend(points)

    def test_other_errors_are_not_swallowed(self, monkeypatch):
        import scipy.spatial

        def broken(*args, **kwargs):
            raise RuntimeError("not a Qhull failure")

        monkeypatch.setattr(scipy.spatial, "Delaunay", broken)
        with pytest.raises(RuntimeError):
            ScipyDelaunayBackend([Point(i, 0.0) for i in range(4)])

    def test_duplicates(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 0)]
        backend = ScipyDelaunayBackend(points)
        # Copies are mutually adjacent and share the spatial neighbourhood.
        assert 3 in backend.neighbors(0)
        assert 0 in backend.neighbors(3)
        assert set(backend.neighbors(3)) - {0} == set(
            backend.neighbors(0)
        ) - {3}


def _with_duplicates():
    points = uniform_points(50, seed=4)
    return points + points[:10]  # 10 duplicates


def _clipped_to_boundary():
    # Many points pushed onto the unit square's edges and corners: long
    # collinear runs on the hull, and several copies of every corner.
    rng = random.Random(6)
    return [
        Point(
            min(1.0, max(0.0, rng.uniform(-0.3, 1.3))),
            min(1.0, max(0.0, rng.uniform(-0.3, 1.3))),
        )
        for _ in range(150)
    ]


AGREEMENT_INPUTS = {
    "uniform-0": lambda: uniform_points(150, seed=0),
    "uniform-1": lambda: uniform_points(150, seed=1),
    "uniform-2": lambda: uniform_points(150, seed=2),
    "clustered": lambda: clustered_points(150, seed=3, clusters=5),
    "duplicated": _with_duplicates,
    "all-copies": lambda: [Point(0.25, 0.75)] * 4,
    "collinear": lambda: [Point(i / 8.0, 0.5) for i in (3, 0, 7, 1, 5, 2)],
    "collinear-duplicated": lambda: [Point(float(i % 4), float(i % 4)) for i in range(9)],
    "clipped": _clipped_to_boundary,
    "n=1": lambda: [Point(0.5, 0.5)],
    "n=2": lambda: [Point(0.0, 0.0), Point(1.0, 1.0)],
    "n=3": lambda: [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)],
}


@pytest.mark.usefixtures("requires_scipy")
@pytest.mark.parametrize("case", sorted(AGREEMENT_INPUTS))
class TestBackendAgreement:
    """The core substitution guarantee: the array-born Qhull graph and the
    from-scratch triangulation give identical neighbour sets, so query
    traversals are identical regardless of which one built the diagram."""

    def test_same_neighbour_sets_as_from_scratch(self, case):
        points = AGREEMENT_INPUTS[case]()
        reference = DelaunayTriangulation(points)
        backend = ScipyDelaunayBackend(points)
        assert backend.size == len(points)
        for i in range(len(points)):
            assert set(backend.neighbors(i)) == set(reference.neighbors(i)), i

    def test_csr_is_the_table_row_for_row(self, case):
        backend = ScipyDelaunayBackend(AGREEMENT_INPUTS[case]())
        indptr, indices = backend.neighbor_csr()
        table = backend.neighbor_table()
        assert indptr.dtype == indices.dtype == np.int64
        assert len(indptr) == len(table) + 1
        for i, row in enumerate(table):
            assert row == tuple(sorted(row))  # ascending
            assert row == tuple(indices[indptr[i] : indptr[i + 1]].tolist())
            assert row == backend.neighbors(i)

    def test_store_view_and_point_list_build_the_same_graph(self, case):
        points = AGREEMENT_INPUTS[case]()
        store = PointStore()
        store.extend_points(points)
        from_view = ScipyDelaunayBackend(store.view())
        assert from_view.neighbor_table() == (
            ScipyDelaunayBackend(points).neighbor_table()
        )
        assert not store._materialized  # columns only: no Point was built


def _integer_grid(side):
    # Integer coordinates are exact in floating point: the four corners
    # of every cell are exactly cocircular, rows and columns collinear.
    return [Point(float(i), float(j)) for i in range(side) for j in range(side)]


def _duplicated_grid():
    grid = _integer_grid(9)
    return grid + grid[::4] + grid[::7]


DEGENERATE_INPUTS = {
    "exact-grid": lambda: _integer_grid(12),
    "duplicated-grid": _duplicated_grid,
}


def _assert_a_delaunay_triangulation_of_the_grid(points, neighbors):
    """What every valid answer shares when each cell's diagonal is a tie.

    Symmetric, self-free; copies of a location adjacent to each other and
    interchangeable; between locations, every axis edge, exactly one
    diagonal per cell, and nothing else.
    """
    side = round(max(p.x for p in points)) + 1
    rows_at = {}
    for i, p in enumerate(points):
        rows_at.setdefault((p.x, p.y), []).append(i)
    axis = diagonals = 0
    for i, p in enumerate(points):
        row = set(neighbors(i))
        assert i not in row
        assert all(i in neighbors(j) for j in row)
        copies = set(rows_at[p.x, p.y]) - {i}
        assert copies <= row
        for j in copies:
            assert row - {j} == set(neighbors(j)) - {i}
        for j in row - copies:
            dx, dy = abs(points[j].x - p.x), abs(points[j].y - p.y)
            assert (dx, dy) in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)), (i, j)
            if i == rows_at[p.x, p.y][0] and j == rows_at[points[j].x, points[j].y][0]:
                axis += dx + dy == 1.0
                diagonals += dx + dy == 2.0
    assert axis == 2 * (2 * side * (side - 1))  # each edge seen from both ends
    assert diagonals == 2 * (side - 1) ** 2


@pytest.mark.parametrize("case", sorted(DEGENERATE_INPUTS))
class TestDegenerateAgreementByInvariant:
    """Which diagonal a cocircular cell gets depends on insertion order, so
    on such input the backends are held to the invariants of a Delaunay
    triangulation, not to each other's neighbour sets."""

    def test_from_scratch(self, case):
        points = DEGENERATE_INPUTS[case]()
        triangulation = DelaunayTriangulation(points)
        triangulation.check_delaunay_property()
        _assert_a_delaunay_triangulation_of_the_grid(
            points, triangulation.neighbors
        )

    def test_incremental(self, case):
        points = DEGENERATE_INPUTS[case]()
        backend = PureDelaunayBackend(points[: len(points) // 2])
        for p in points[len(points) // 2 :]:
            backend.add_point(p)
        backend.triangulation.check_delaunay_property()
        table = backend.neighbor_table()
        _assert_a_delaunay_triangulation_of_the_grid(points, table.__getitem__)

    @pytest.mark.usefixtures("requires_scipy")
    def test_qhull(self, case):
        points = DEGENERATE_INPUTS[case]()
        _assert_a_delaunay_triangulation_of_the_grid(
            points, ScipyDelaunayBackend(points).neighbors
        )


class TestRegistry:
    @pytest.mark.usefixtures("requires_scipy")
    def test_make_backend(self, uniform_200):
        assert make_backend("pure", uniform_200).name == "pure"
        assert make_backend("scipy", uniform_200).name == "scipy"

    def test_unknown_backend(self, uniform_200):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cgal", uniform_200)
