"""Unit tests for the one Delaunay backend: build, adoption and growth.

Nothing here skips without a C compiler: the bulk build is then the
interpreted insert, which builds the same graph.
"""

import random

import numpy as np
import pytest

from oracle import brute_force, live_rows
from repro.core.database import SpatialDatabase
from repro.core.store import PointStore
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.delaunay.backends import (
    DelaunayBackend,
    PureDelaunayBackend,
    make_backend,
)
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.io.persist import load_database, save_database
from repro.query.spec import AreaQuery, KnnQuery
from repro.workloads.generators import clustered_points, uniform_points


class TestBackend:
    def test_size(self, uniform_200):
        assert DelaunayBackend(uniform_200).size == 200

    def test_neighbors_nonempty(self, uniform_200):
        backend = DelaunayBackend(uniform_200)
        for i in range(200):
            assert len(backend.neighbors(i)) > 0

    def test_neighbor_table_matches_neighbors(self, uniform_200):
        backend = DelaunayBackend(uniform_200)
        table = backend.neighbor_table()
        assert len(table) == 200
        for i in range(200):
            assert table[i] == backend.neighbors(i)
        assert table[-1] == backend.neighbors(199)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DelaunayBackend([])

    def test_single_point(self):
        assert DelaunayBackend([Point(0.5, 0.5)]).neighbors(0) == ()

    def test_two_points(self):
        backend = DelaunayBackend([Point(0, 0), Point(1, 1)])
        assert backend.neighbors(0) == (1,)
        assert backend.neighbors(1) == (0,)

    def test_a_line_is_chained(self):
        # No triangle: the insert chains the points along their line.
        points = [Point(0.25 * i, 0.75 * i) for i in (4, 0, 2, 1, 3)]
        backend = DelaunayBackend(points)
        assert backend.neighbor_table() == [(4,), (3,), (3, 4), (1, 2), (0, 2)]

    def test_duplicates(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 1), Point(0, 0)]
        backend = DelaunayBackend(points)
        # Copies are mutually adjacent and share the spatial neighbourhood.
        assert 3 in backend.neighbors(0)
        assert 0 in backend.neighbors(3)
        assert set(backend.neighbors(3)) - {0} == set(
            backend.neighbors(0)
        ) - {3}

    def test_make_backend(self, uniform_200):
        for kind in ("pure", "scipy"):
            assert type(make_backend(kind, uniform_200)) is DelaunayBackend
        assert PureDelaunayBackend is DelaunayBackend

    def test_unknown_backend(self, uniform_200):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("cgal", uniform_200)


@pytest.mark.parametrize("lift", [2e-15, 1e-13])
def test_nearly_collinear_input_answers_exactly(lift):
    """Five points on y = x and one a hair above the line (a float
    triangulator raises on the 2e-15 lift and leaves three of the five
    out on the 1e-13 one): the answer is the only triangulation the set
    has, the lifted point joined to every point of the chain."""
    points = [Point(float(i), float(i)) for i in range(5)]
    points.append(Point(5.0, 5.0 + lift))
    backend = DelaunayBackend(points)
    assert backend.neighbor_table() == [
        (1, 5), (0, 2, 5), (1, 3, 5), (2, 4, 5), (3, 5), (0, 1, 2, 3, 4)
    ]
    backend.triangulation.check_delaunay_property()
    DelaunayTriangulation(points).check_delaunay_property()


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


def _integer_grid(side):
    # Integer coordinates are exact in floating point: the four corners
    # of every cell are exactly cocircular, rows and columns collinear.
    return [Point(float(i), float(j)) for i in range(side) for j in range(side)]


def _far_outside(count, seed):
    # the unit square, and a sprinkle of points up to 1e9 away from it
    rng = random.Random(seed)
    return [
        Point(rng.random(), rng.random())
        if rng.random() < 0.95
        else Point(rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9))
        for _ in range(count)
    ]


def _shuffled(points, seed):
    points = list(points)
    random.Random(seed).shuffle(points)
    return points


#: name -> every row, build rows first; the rest arrive one write at a time
WRITE_INPUTS = {
    "uniform": lambda: uniform_points(9_000, seed=31),
    "clustered": lambda: _shuffled(clustered_points(9_000, seed=32, clusters=6), 33),
    "cocircular-grid": lambda: _shuffled(_integer_grid(95), 34),
    "far-outside": lambda: _far_outside(9_000, 35),
}


class TestBackendAgreement:
    """The one backend against the from-scratch exact triangulation, on
    every degenerate input the build meets, and after 10 000 writes."""

    @pytest.mark.parametrize("case", sorted(AGREEMENT_INPUTS))
    def test_same_neighbour_sets_as_from_scratch(self, case):
        points = AGREEMENT_INPUTS[case]()
        reference = DelaunayTriangulation(points)
        reference.check_delaunay_property()
        backend = DelaunayBackend(points)
        assert backend.size == len(points)
        for i in range(len(points)):
            assert set(backend.neighbors(i)) == set(reference.neighbors(i)), i

    @pytest.mark.parametrize("case", sorted(AGREEMENT_INPUTS))
    def test_csr_is_the_table_row_for_row(self, case):
        backend = DelaunayBackend(AGREEMENT_INPUTS[case]())
        indptr, indices = backend.neighbor_csr()
        table = backend.neighbor_table()
        assert indptr.dtype == indices.dtype == np.int32
        assert len(indptr) == len(table) + 1
        for i, row in enumerate(table):
            assert row == tuple(sorted(row))  # ascending
            assert row == tuple(indices[indptr[i] : indptr[i + 1]].tolist())
            assert row == backend.neighbors(i)

    @pytest.mark.parametrize("case", sorted(AGREEMENT_INPUTS))
    def test_store_view_and_point_list_build_the_same_graph(self, case):
        points = AGREEMENT_INPUTS[case]()
        store = PointStore()
        store.extend_points(points)
        from_view = DelaunayBackend(store.view())
        assert from_view.neighbor_table() == (
            DelaunayBackend(points).neighbor_table()
        )
        assert not store._materialized  # columns only: no Point was built

    @pytest.mark.parametrize("case", sorted(AGREEMENT_INPUTS))
    def test_every_input_takes_writes(self, case):
        points = AGREEMENT_INPUTS[case]()
        extra = [points[0], Point(0.5, 0.25), Point(-3.0, 7.0), points[-1]]
        backend = DelaunayBackend(points)
        for p in extra:
            backend.add_point(p)
        backend.triangulation.check_delaunay_property()
        reference = DelaunayTriangulation(points + extra)
        for i in range(len(points) + len(extra)):
            assert set(backend.neighbors(i)) == set(reference.neighbors(i)), i

    @pytest.mark.parametrize("start", ["built", "adopted"])
    @pytest.mark.parametrize("case", sorted(WRITE_INPUTS))
    def test_interleaved_writes_match_a_fresh_build(
        self, case, start, tmp_path, monkeypatch
    ):
        """10 000 writes — 7 000 inserts, 3 000 deletes — into a database
        whose graph was built (by the bulk insert) or adopted
        from a snapshot: the graph is then the one a fresh build of the
        same rows has, and the backend was never rebuilt.  Cocircular
        grid cells may take either diagonal, so there the graph is held to
        the Delaunay certificate instead of to the fresh build's choice."""
        import repro.core.database as database_module

        builds = []
        real = database_module.make_backend

        def counted(*args):
            builds.append(args[0])
            return real(*args)

        monkeypatch.setattr(database_module, "make_backend", counted)
        points = WRITE_INPUTS[case]()
        base, later = points[:2_000], points[2_000:]
        db = SpatialDatabase.from_arrays(
            [p.x for p in base], [p.y for p in base]
        ).prepare()
        if start == "adopted":
            db = load_database(save_database(tmp_path / "image", db))
        backend = db.backend
        rng = random.Random(36)
        deletes = 0
        for p in later:
            db.insert(p)
            if rng.random() < 0.43 and deletes < 3_000:
                row = rng.randrange(len(db.store))
                if not db.store.is_deleted(row):
                    db.delete(row)
                    deletes += 1
        assert db.backend is backend and len(builds) == 1
        assert backend.size == len(points)

        backend.triangulation.check_delaunay_property()
        if case == "cocircular-grid":
            _assert_a_delaunay_triangulation_of_the_grid(points, backend.neighbors)
        else:
            fresh = DelaunayBackend(points).neighbor_csr()
            for ours, theirs in zip(backend.neighbor_csr(), fresh):
                assert np.array_equal(ours, theirs)
        rows = live_rows(db)
        center = points[rng.randrange(len(points))]
        for spec in (
            KnnQuery(center, 25, method="voronoi"),
            AreaQuery(Circle(center, 4.0 if "grid" in case else 0.05), method="voronoi"),
        ):
            assert db.query(spec).ids() == brute_force(spec, rows), spec


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
    on such input the builds are held to the invariants of a Delaunay
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
        backend = DelaunayBackend(points[: len(points) // 2])
        for p in points[len(points) // 2 :]:
            backend.add_point(p)
        backend.triangulation.check_delaunay_property()
        table = backend.neighbor_table()
        _assert_a_delaunay_triangulation_of_the_grid(points, table.__getitem__)

    def test_bulk(self, case):
        points = DEGENERATE_INPUTS[case]()
        _assert_a_delaunay_triangulation_of_the_grid(
            points, DelaunayBackend(points).neighbors
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("axis", ["x", "y"])
class TestNonFiniteCoordinates:
    """A NaN or an infinity is refused before anything is built from it."""

    def _columns(self, bad, axis):
        xs, ys = np.random.default_rng(6).random((2, 50))
        (xs if axis == "x" else ys)[17] = bad
        return xs, ys

    def test_from_xy_refuses_it(self, bad, axis):
        with pytest.raises(ValueError, match="non-finite coordinate"):
            DelaunayTriangulation.from_xy(*self._columns(bad, axis))

    def test_the_backend_refuses_it(self, bad, axis):
        xs, ys = self._columns(bad, axis)
        points = [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        with pytest.raises(ValueError, match="non-finite coordinate"):
            DelaunayBackend(points)
