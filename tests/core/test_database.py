"""Unit tests for the SpatialDatabase facade."""

import pytest

from oracle import brute_force, live_rows
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.core.database import SpatialDatabase
from repro.core.exceptions import EmptyDatabaseError, InvalidQueryAreaError
from repro.query.spec import AreaQuery, KnnQuery, NearestQuery, WindowQuery
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db_300():
    return SpatialDatabase.from_points(uniform_points(300, seed=71)).prepare()


class TestConstruction:
    def test_from_points(self):
        db = SpatialDatabase.from_points([(0.1, 0.2), (0.3, 0.4)])
        assert len(db) == 2
        assert db.point(0) == Point(0.1, 0.2)

    def test_insert_returns_row_ids(self):
        db = SpatialDatabase()
        assert db.insert(Point(0.5, 0.5)) == 0
        assert db.insert((0.6, 0.6)) == 1
        assert len(db) == 2

    def test_extend_returns_row_ids(self):
        db = SpatialDatabase()
        ids = db.extend([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
        assert ids == [0, 1, 2]

    def test_unknown_index_kind(self):
        # one index, the R-tree: no kind is chosen, not even a known one
        for kind in ("btree", "rtree", "rstar"):
            with pytest.raises(TypeError):
                SpatialDatabase(index_kind=kind)

    def test_no_index_constructor_arguments(self):
        for build in (
            lambda: SpatialDatabase(max_entries=4),
            lambda: SpatialDatabase.from_points([(0.5, 0.5)], max_entries=4),
            lambda: SpatialDatabase.from_arrays([0.5], [0.5], max_entries=4),
        ):
            with pytest.raises(TypeError):
                build()


class TestQueries:
    def test_area_query_methods_agree(self, db_300, concave_polygon):
        voronoi = db_300.query(AreaQuery(concave_polygon, method="voronoi")).record
        traditional = db_300.query(AreaQuery(concave_polygon, method="traditional")).record
        assert voronoi.ids == traditional.ids

    def test_default_method_is_the_planners_choice(self, db_300, concave_polygon):
        spec = AreaQuery(concave_polygon)
        assert spec.method == "auto"
        assert db_300.query(spec).stats.method in ("voronoi", "traditional")

    def test_unknown_method(self, concave_polygon):
        with pytest.raises(ValueError, match="unknown method"):
            AreaQuery(concave_polygon, method="magic")

    def test_pre_spec_methods_are_gone(self):
        for name in (
            "area_query",
            "batch_area_query",
            "window_query",
            "nearest_neighbor",
            "k_nearest_neighbors",
        ):
            assert not hasattr(SpatialDatabase, name)

    def test_window_query(self, db_300):
        window = Rect(0.25, 0.25, 0.5, 0.5)
        expected = sorted(
            i
            for i in range(len(db_300))
            if window.contains_point(db_300.point(i))
        )
        assert db_300.query(WindowQuery(window, method="index")).ids() == expected

    def test_nearest_neighbor(self, db_300):
        q = Point(0.4, 0.6)
        (row,) = db_300.query(NearestQuery(q)).ids()
        best = min(
            range(len(db_300)),
            key=lambda i: db_300.point(i).squared_distance_to(q),
        )
        assert db_300.point(row).squared_distance_to(
            q
        ) == db_300.point(best).squared_distance_to(q)

    def test_k_nearest_neighbors(self, db_300):
        q = Point(0.1, 0.9)
        rows = db_300.query(KnnQuery(q, 5, method="index")).ids()
        assert len(rows) == 5
        distances = [db_300.point(i).distance_to(q) for i in rows]
        assert distances == sorted(distances)

    def test_voronoi_neighbors_symmetric(self, db_300):
        for i in range(0, 300, 30):
            for j in db_300.voronoi_neighbors(i):
                assert i in db_300.voronoi_neighbors(j)


class TestErrors:
    def test_empty_database_area_query(self, concave_polygon):
        with pytest.raises(EmptyDatabaseError):
            SpatialDatabase().query(AreaQuery(concave_polygon)).ids()

    def test_empty_database_backend(self):
        with pytest.raises(EmptyDatabaseError):
            _ = SpatialDatabase().backend

    def test_nearest_neighbor_empty(self):
        assert SpatialDatabase().query(NearestQuery(Point(0, 0))).ids() == []

    def test_zero_area_polygon_rejected(self, db_300):
        degenerate = Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        assert degenerate.area == pytest.approx(0.0)
        with pytest.raises(InvalidQueryAreaError):
            db_300.query(AreaQuery(degenerate, method="voronoi")).record


class TestBackendLifecycle:
    def test_extend_on_a_built_backend_leaves_the_point_cache_alone(self):
        """A handful of rows into a large prepared table: the batch's own
        pairs feed the incremental Delaunay, not ``Point``s read back from
        the table — neither the build nor the inserts fill the cache."""
        import numpy as np

        rng = np.random.default_rng(75)
        db = SpatialDatabase.from_arrays(rng.random(5_000), rng.random(5_000)).prepare()
        backend_before = db.backend
        rows = db.extend([(0.3 + 0.01 * i, 0.6 - 0.01 * i) for i in range(10)])
        assert rows == list(range(5_000, 5_010))
        assert db.backend is backend_before and db.backend.size == 5_010
        assert db.store._materialized == []
        spec = AreaQuery(Circle(Point(0.35, 0.55), 0.1), method="voronoi")
        ids = db.query(spec).ids()
        assert ids == brute_force(spec, live_rows(db)) and set(rows) <= set(ids)

    @pytest.mark.parametrize("kind", ["pure", "scipy"])
    def test_insert_grows_the_backend_in_place(self, kind):
        db = SpatialDatabase.from_points(
            uniform_points(50, seed=73), backend_kind=kind
        )
        backend_before = db.backend
        db.insert(Point(0.5, 0.5))
        # Either name gives the one backend, maintained, not rebuilt.
        assert db.backend is backend_before
        assert db.backend.size == 51

    def test_far_outside_insert_is_absorbed(self):
        db = SpatialDatabase.from_points(uniform_points(50, seed=73))
        backend_before = db.backend
        db.insert(Point(1e9, 1e9))
        db.insert(Point(-1e12, 0.5))
        assert db.backend is backend_before
        assert db.backend.size == 52
        db.backend.triangulation.check_delaunay_property()

    def test_unknown_backend_kind_is_refused(self):
        db = SpatialDatabase.from_points(uniform_points(10, seed=76), backend_kind="cgal")
        with pytest.raises(ValueError, match="unknown backend"):
            db.prepare()

    def test_queries_stay_correct_across_inserts(self, concave_polygon):
        db = SpatialDatabase.from_points(uniform_points(80, seed=74)).prepare()
        rng = __import__("random").Random(75)
        for _ in range(40):
            db.insert(Point(rng.random(), rng.random()))
        voronoi = db.query(AreaQuery(concave_polygon, method="voronoi")).record
        traditional = db.query(AreaQuery(concave_polygon, method="traditional")).record
        expected = sorted(
            i
            for i in range(len(db))
            if concave_polygon.contains_point(db.point(i))
        )
        assert voronoi.ids == expected
        assert traditional.ids == expected

    def test_prepare_is_idempotent(self):
        db = SpatialDatabase.from_points(uniform_points(30, seed=75))
        assert db.prepare() is db
        backend = db.backend
        db.prepare()
        assert db.backend is backend

    def test_either_backend_kind_name(self, concave_polygon):
        points = uniform_points(100, seed=77)
        pure_db = SpatialDatabase.from_points(points, backend_kind="pure")
        scipy_db = SpatialDatabase.from_points(points, backend_kind="scipy")
        assert (
            pure_db.query(AreaQuery(concave_polygon, method="voronoi")).ids()
            == scipy_db.query(AreaQuery(concave_polygon, method="voronoi")).ids()
        )


class TestExtendIntoNonEmpty:
    """A second bulk frame, on both sides of the index's repack rule,
    against the brute-force oracle."""

    @pytest.mark.parametrize("batch", [4, 400])
    @pytest.mark.parametrize("backend_built", [False, True])
    def test_matches_oracle(self, batch, backend_built, concave_polygon):
        from repro.query.spec import AreaQuery, KnnQuery, WindowQuery

        points = uniform_points(800 + batch, seed=79)
        db = SpatialDatabase.from_arrays(
            [p.x for p in points[:800]], [p.y for p in points[:800]]
        )
        if backend_built:
            db.prepare()
        db.delete(17)
        old_root = db.index._root
        assert db.extend(points[800:]) == list(range(800, 800 + batch))
        assert (db.index._root is not old_root) == (batch == 400)
        db.index.check_invariants()
        assert db.points == points
        live = [i for i in range(len(points)) if i != 17]

        window = Rect(0.2, 0.1, 0.7, 0.9)
        assert db.query(WindowQuery(window)).ids() == [
            i for i in live if window.contains_point(points[i])
        ]
        inside = [i for i in live if concave_polygon.contains_point(points[i])]
        for method in ("voronoi", "traditional"):
            spec = AreaQuery(concave_polygon, method=method)
            assert db.query(spec).ids() == inside
        q = Point(0.31, 0.64)
        nearest = sorted(
            live, key=lambda i: (points[i].squared_distance_to(q), i)
        )[:12]
        for method in ("index", "voronoi"):
            assert db.query(KnnQuery(q, 12, method=method)).ids() == nearest

    def test_rejected_batch_changes_nothing(self):
        db = SpatialDatabase.from_points(uniform_points(100, seed=83))
        version = db.version
        with pytest.raises(ValueError):
            db.extend([(0.5, 0.5), (float("nan"), 0.1)])
        assert (db.version, len(db), len(db.index)) == (version, 100, 100)


class TestClassification:
    def test_classes_partition_rows(self, db_300, concave_polygon):
        classes = db_300.classify_against(concave_polygon)
        all_rows = sorted(
            classes["internal"] + classes["boundary"] + classes["external"]
        )
        assert all_rows == list(range(300))

    def test_internal_matches_query(self, db_300, concave_polygon):
        classes = db_300.classify_against(concave_polygon)
        result = db_300.query(AreaQuery(concave_polygon, method="voronoi")).record
        assert classes["internal"] == result.ids

    def test_property7_internal_not_adjacent_to_external(
        self, db_300, concave_polygon
    ):
        """The paper's key structural conclusion: no internal point is a
        Voronoi neighbour of an external point."""
        classes = db_300.classify_against(concave_polygon)
        external = set(classes["external"])
        for row in classes["internal"]:
            assert not (set(db_300.voronoi_neighbors(row)) & external)


class TestPointsImmutability:
    """The point table is exposed as an immutable view (regression).

    ``db.points`` used to hand out the internal mutable list — a caller
    appending to it silently desynchronised ``len(db)`` and the spatial
    index.  The property now returns a read-only materialized view over
    the columnar store: mutation attempts fail loudly and nothing can
    drift.
    """

    def test_mutation_attempts_fail_and_nothing_desyncs(self):
        from repro.geometry.rectangle import Rect
        from repro.query.spec import WindowQuery

        db = SpatialDatabase.from_points(uniform_points(60, seed=8))
        everything = Rect(-1.0, -1.0, 2.0, 2.0)
        baseline = db.query(WindowQuery(everything)).ids()
        view = db.points

        with pytest.raises(AttributeError):
            view.append(Point(0.5, 0.5))  # type: ignore[attr-defined]
        with pytest.raises(AttributeError):
            view.extend([Point(0.5, 0.5)])  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            view[0] = Point(0.5, 0.5)  # type: ignore[index]
        with pytest.raises(AttributeError):
            view.pop()  # type: ignore[attr-defined]

        assert len(db) == 60
        assert len(db.points) == 60
        assert db.query(WindowQuery(everything)).ids() == baseline
        assert baseline == list(range(60))

    def test_view_tracks_legitimate_inserts(self):
        db = SpatialDatabase.from_points(uniform_points(10, seed=9))
        view = db.points
        row = db.insert(Point(0.25, 0.75))
        assert len(view) == 11
        assert view[row] == Point(0.25, 0.75)
        assert db.point(row) == Point(0.25, 0.75)

    def test_view_equality_with_lists(self):
        points = uniform_points(15, seed=10)
        db = SpatialDatabase.from_points(points)
        assert db.points == points
        assert points == db.points
