"""Round-trip tests for database persistence.

A snapshot carries its neighbour graph: the graph classes below save,
load and compare the loaded database with ``tests/oracle.py``'s
brute-force scan, write into adopted graphs, corrupt the graph members
one way at a time, and serve the committed fixture ``data/graph-300.npz``
— before and after 220 writes — in a subprocess that must never import
scipy.  The saver writes the graph as int32; the fixture holds it as
int64, as every file written before did, and loads into the same graph.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracle import brute_force, live_rows
from repro.delaunay.backends import CsrRows
from repro.delaunay.triangulation import (
    MAX_ROWS,
    DelaunayTriangulation,
    bulk_graph,
    check_row_count,
)
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, convex_hull
from repro.geometry.rectangle import Rect
from repro.core.database import SpatialDatabase
from repro.index import RTree
from repro.io import persist
from repro.io.persist import (
    load_database,
    load_points,
    save_database,
    save_points,
)
from repro.geometry.random_shapes import random_query_polygon
from repro.workloads.generators import uniform_points
from repro.query.spec import AreaQuery, KnnQuery, WindowQuery

FIXTURE = Path(__file__).parent / "data" / "graph-300.npz"


class TestPointsRoundTrip:
    def test_round_trip(self, tmp_path):
        points = uniform_points(100, seed=251)
        path = tmp_path / "points.npz"
        save_points(path, points)
        assert load_points(path) == points

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_points(path, [])
        assert load_points(path) == []

    def test_exact_float_preservation(self, tmp_path):
        points = [Point(0.1 + 0.2, 1e-300), Point(-1e300, 3.141592653589793)]
        path = tmp_path / "exact.npz"
        save_points(path, points)
        assert load_points(path) == points


class TestDatabaseRoundTrip:
    def test_row_ids_preserved(self, tmp_path):
        db = SpatialDatabase.from_points(uniform_points(200, seed=253))
        path = tmp_path / "db.npz"
        save_database(path, db)
        restored = load_database(path)
        assert len(restored) == 200
        for i in range(200):
            assert restored.point(i) == db.point(i)

    def test_config_preserved(self, tmp_path):
        db = SpatialDatabase.from_points(
            uniform_points(50, seed=255), backend_kind="scipy"
        )
        path = tmp_path / "db.npz"
        save_database(path, db)
        with np.load(path) as archive:
            config = json.loads(str(archive["config"]))
        assert config["index_kind"] == "rtree"
        restored = load_database(path)
        assert isinstance(restored.index, RTree)
        assert restored._backend_kind == "scipy"

    @pytest.mark.parametrize(
        "removed_kind", ["kdtree", "quadtree", "grid", "brute", "rstar"]
    )
    def test_removed_index_kind_loads_into_the_rtree(self, removed_kind, tmp_path):
        """The index is derived state: a file naming a kind that no longer
        exists loads into the R-tree and answers like the scan."""
        db = SpatialDatabase.from_points(uniform_points(300, seed=256))
        db.delete(7)
        path = tmp_path / "old.npz"
        np.savez(
            path,
            xy=db.store.as_xy(),
            config=np.asarray(
                json.dumps(
                    {
                        "version": 1,
                        "index_kind": removed_kind,
                        "backend_kind": "pure",
                        "count": len(db.store),
                    }
                )
            ),
            deleted=np.asarray([7], dtype=np.int64),
        )
        restored = load_database(path, prepare=True)
        assert isinstance(restored.index, RTree)
        assert live_rows(restored) == live_rows(db)
        rows = live_rows(restored)
        rng = random.Random(258)
        for _ in range(5):
            area = random_query_polygon(0.05, rng=rng)
            for method in ("voronoi", "traditional"):
                spec = AreaQuery(area, method=method)
                assert restored.query(spec).ids() == brute_force(spec, rows)

    def test_queries_identical_after_restore(self, tmp_path):
        import random

        db = SpatialDatabase.from_points(uniform_points(300, seed=257)).prepare()
        path = tmp_path / "db.npz"
        save_database(path, db)
        restored = load_database(path, prepare=True)
        rng = random.Random(259)
        for _ in range(5):
            area = random_query_polygon(0.05, rng=rng)
            assert (
                restored.query(AreaQuery(area, method="voronoi")).ids()
                == db.query(AreaQuery(area, method="voronoi")).ids()
            )
            assert (
                restored.query(AreaQuery(area, method="traditional")).ids()
                == db.query(AreaQuery(area, method="traditional")).ids()
            )

    def test_prepare_flag(self, tmp_path):
        """Only a file without the graph has anything left to prepare."""
        db = SpatialDatabase.from_points(uniform_points(30, seed=261))
        path = tmp_path / "db.npz"
        with np.load(save_database(path, db)) as archive:
            np.savez(path, xy=archive["xy"], config=archive["config"])
        lazy = load_database(path)
        assert lazy._backend is None
        eager = load_database(path, prepare=True)
        assert eager._backend is not None

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path,
            xy=np.zeros((1, 2)),
            config=np.asarray('{"version": 99, "count": 1}'),
        )
        with pytest.raises(ValueError, match="version"):
            load_database(path)

    def test_extensionless_path_round_trips(self, tmp_path):
        """Regression: save appends .npz via numpy, so loading the same
        extensionless name used to raise FileNotFoundError."""
        db = SpatialDatabase.from_points(uniform_points(40, seed=263))
        bare = tmp_path / "snapshot"
        written = save_database(bare, db)
        assert written == str(bare) + ".npz"
        for path in (bare, written):
            restored = load_database(path)
            assert [restored.point(i) for i in range(40)] == db.points

    def test_save_points_returns_written_path(self, tmp_path):
        points = uniform_points(10, seed=265)
        written = save_points(tmp_path / "pts", points)
        assert written.endswith(".npz")
        assert load_points(tmp_path / "pts") == points

    def test_missing_file_still_reports_requested_name(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_database(tmp_path / "nowhere")

    def test_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(
            path,
            xy=np.zeros((2, 2)),
            config=np.asarray(
                '{"version": 1, "index_kind": "rtree", '
                '"backend_kind": "pure", "count": 5}'
            ),
        )
        with pytest.raises(ValueError, match="corrupt"):
            load_database(path)

    def test_unknown_index_kind_is_corrupt(self, tmp_path):
        """A kind no snapshot ever named is outside input, not a removed
        kind: refused as a corrupt file."""
        path = tmp_path / "corrupt.npz"
        np.savez(
            path,
            xy=np.zeros((2, 2)),
            config=np.asarray(
                '{"version": 1, "index_kind": "btree", '
                '"backend_kind": "pure", "count": 2}'
            ),
        )
        with pytest.raises(ValueError, match="corrupt.*index kind 'btree'"):
            load_database(path)


# -- the snapshot as a serving image ------------------------------------------


def _columns(kind):
    rng = np.random.default_rng(271)
    if kind == "duplicates":  # 400 locations, about 4 rows on each
        return rng.integers(0, 20, 1500) / 20.0, rng.integers(0, 20, 1500) / 20.0
    if kind == "collinear":  # no triangle: the graph is a chain
        xs = rng.permutation(32) / 32.0  # dyadic: the line is exact in floats
        return xs, 0.25 + 0.5 * xs
    if kind.startswith("n="):
        rows = int(kind[2:])
        return np.array([0.5, 0.25, 0.75])[:rows], np.array([0.5, 0.25, 0.3])[:rows]
    return rng.random(1500), rng.random(1500)


def _graph_database(kind):
    """A scipy-kind database of ``kind`` rows, its graph not built yet."""
    xs, ys = _columns(kind)
    db = SpatialDatabase.from_arrays(xs, ys, backend_kind="scipy")
    if kind == "tombstones":
        for row in random.Random(273).sample(range(1500), 300):
            db.delete(row)
    return db


def _voronoi_specs():
    rng = random.Random(277)
    regions = [random_query_polygon(query_size=size, rng=rng) for size in (0.2, 0.02)]
    regions += [
        Polygon.from_rect(Rect(0.2, 0.2, 0.8, 0.8)),
        Circle(Point(0.5, 0.5), 0.2),
    ]
    specs = [AreaQuery(region, method="voronoi") for region in regions]
    specs += [WindowQuery(Rect(0.3, 0.3, 0.6, 0.7), method="voronoi")]
    # neighbouring kNN positions, answered in one batch
    specs += [
        KnnQuery(Point(0.3 + 0.02 * i, 0.45), 7, method="voronoi") for i in range(6)
    ]
    return specs


def _assert_answers_like_brute_force(db):
    rows = live_rows(db)
    specs = _voronoi_specs()
    for spec in specs:
        assert db.query(spec).ids() == brute_force(spec, rows), spec
    batch = db.query_batch(specs, use_cache=False)
    for spec, result in zip(specs, batch):
        assert result.ids() == brute_force(spec, rows), spec
    return specs


GRAPH_KINDS = ["plain", "tombstones", "duplicates", "collinear", "n=1", "n=2", "n=3"]


class TestGraphRoundTrip:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_loaded_graph_is_the_savers_and_answers_like_brute_force(
        self, kind, tmp_path, monkeypatch
    ):
        db = _graph_database(kind)
        assert db._backend is None  # unprepared: the saver builds the graph
        written = save_database(tmp_path / "image", db)
        with np.load(written) as archive:
            assert {"graph_indptr", "graph_indices"} <= set(archive.files)
            assert archive["graph_indptr"].dtype == np.int32
            assert archive["graph_indices"].dtype == np.int32
            assert json.loads(str(archive["config"]))["version"] == 1

        # No backend is built on the loading side, whatever prepare= says.
        def no_build(*args, **kwargs):
            raise AssertionError("the loader built a backend")

        monkeypatch.setattr("repro.core.database.make_backend", no_build)
        for prepare in (False, True):
            restored = load_database(written, prepare=prepare)
            for ours, theirs in zip(
                restored.backend.neighbor_csr(), db.backend.neighbor_csr()
            ):
                assert ours.dtype == theirs.dtype == np.int32
                assert np.array_equal(ours, theirs)
        assert live_rows(restored) == live_rows(db)
        _assert_answers_like_brute_force(restored)
        assert isinstance(restored.backend.neighbor_table(), CsrRows)

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_insert_after_adoption_is_absorbed(self, kind, tmp_path):
        written = save_database(tmp_path / "image", _graph_database(kind))
        restored = load_database(written)
        adopted = restored.backend
        rows = len(restored.store)
        new_row = restored.insert((0.31, 0.45))
        restored.insert(restored.store.coords(0))  # a copy of row 0
        assert restored.backend is adopted  # grown in place, not rebuilt
        assert restored.backend.size == rows + 2
        adopted.triangulation.check_delaunay_property()
        assert new_row in restored.query(
            KnnQuery(Point(0.31, 0.45), 7, method="voronoi")
        ).ids()
        _assert_answers_like_brute_force(restored)

    def test_snapshot_written_the_old_way_loads_and_rebuilds(self, tmp_path):
        """``xy`` + ``config`` only, compressed: every earlier snapshot."""
        db = _graph_database("tombstones")
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            xy=db.store.as_xy(),
            config=np.asarray(
                json.dumps(
                    {
                        "version": 1,
                        "index_kind": "rtree",
                        "backend_kind": "scipy",
                        "count": len(db.store),
                    }
                )
            ),
            deleted=np.asarray(sorted(db.store.deleted_rows), dtype=np.int64),
        )
        lazy = load_database(path)
        assert lazy._backend is None
        restored = load_database(path, prepare=True)
        assert restored._backend is not None
        for ours, theirs in zip(
            restored.backend.neighbor_csr(), db.backend.neighbor_csr()
        ):
            assert np.array_equal(ours, theirs)
        _assert_answers_like_brute_force(restored)


def test_pure_kind_database_saves_its_graph_and_adopts_it(tmp_path):
    db = SpatialDatabase.from_points(uniform_points(200, seed=281)).prepare()
    written = save_database(tmp_path / "pure", db)
    with np.load(written) as archive:
        assert sorted(archive.files) == ["config", "graph_indices", "graph_indptr", "xy"]
        assert json.loads(str(archive["config"]))["backend_kind"] == "pure"
    restored = load_database(written)
    assert restored._backend is not None
    for ours, theirs in zip(restored.backend.neighbor_csr(), db.backend.neighbor_csr()):
        assert np.array_equal(ours, theirs)


def test_pure_kind_snapshot_without_a_graph_loads_and_takes_inserts(tmp_path):
    """What every pure-kind snapshot was before graphs were saved for all."""
    db = SpatialDatabase.from_points(uniform_points(200, seed=282))
    db.delete(3)
    path = tmp_path / "old-pure.npz"
    np.savez(
        path,
        xy=db.store.as_xy(),
        config=np.asarray(
            json.dumps(
                {"version": 1, "index_kind": "rtree", "backend_kind": "pure", "count": 200}
            )
        ),
        deleted=np.asarray([3], dtype=np.int64),
    )
    restored = load_database(path)
    assert restored._backend is None
    rows = [restored.insert((0.5, 0.5)), restored.insert((2.0, -1.0))]
    assert rows == [200, 201]
    spec = KnnQuery(Point(0.5, 0.5), 9, method="voronoi")
    assert restored.query(spec).ids() == brute_force(spec, live_rows(restored))
    restored.insert((0.25, 0.75))  # into the graph the read built
    _assert_answers_like_brute_force(restored)


# -- corrupt graphs raise, never answer ---------------------------------------


def _truncated_indices(indptr, indices):
    return indptr, indices[:-1]


def _out_of_range_index(indptr, indices):
    indices = indices.copy()
    indices[len(indices) // 2] = len(indptr) - 1  # one past the last row
    return indptr, indices


def _negative_index(indptr, indices):
    indices = indices.copy()
    indices[0] = -1
    return indptr, indices


def _decreasing_indptr(indptr, indices):
    indptr = indptr.copy()
    indptr[10], indptr[11] = indptr[11], indptr[10]
    return indptr, indices


def _short_indptr(indptr, indices):
    return indptr[:-1], indices


def _indptr_not_from_zero(indptr, indices):
    indptr = indptr.copy()
    indptr[0] = 1
    return indptr, indices


def _float_members(indptr, indices):
    return indptr.astype(np.float64), indices.astype(np.float64)


def _float_indptr(indptr, indices):
    return indptr.astype(np.float32), indices


def _int16_indices(indptr, indices):
    return indptr, indices.astype(np.int16)  # 300 rows: every id fits


def _uint32_indices(indptr, indices):
    return indptr, indices.astype(np.uint32)


CORRUPTIONS = [
    _truncated_indices,
    _out_of_range_index,
    _negative_index,
    _decreasing_indptr,
    _short_indptr,
    _indptr_not_from_zero,
    _float_members,
    _float_indptr,
    _int16_indices,
    _uint32_indices,
]


class TestCorruptGraph:
    """Runs off the committed fixture, so also where no graph is built:
    its int64 members as an older file holds them, and cast to the int32
    the saver writes today."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32], ids=["int64", "int32"])
    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_raises_value_error(self, corrupt, dtype, tmp_path):
        with np.load(FIXTURE) as archive:
            members = {name: archive[name] for name in archive.files}
        members["graph_indptr"], members["graph_indices"] = corrupt(
            members["graph_indptr"].astype(dtype), members["graph_indices"].astype(dtype)
        )
        path = tmp_path / "corrupt.npz"
        np.savez(path, **members)
        for prepare in (False, True):
            with pytest.raises(ValueError, match="corrupt database file"):
                load_database(path, prepare=prepare)

    def test_one_member_missing(self, tmp_path):
        with np.load(FIXTURE) as archive:
            members = {name: archive[name] for name in archive.files}
        del members["graph_indices"]
        path = tmp_path / "corrupt.npz"
        np.savez(path, **members)
        with pytest.raises(ValueError, match="corrupt database file"):
            load_database(path)


# -- graph dtypes: int32 written, int64 (older files) read --------------------


def _fixture_members():
    with np.load(FIXTURE) as archive:
        return {name: archive[name] for name in archive.files}


class TestGraphDtypes:
    """A file written while the graph was int64 (the committed fixture is
    one) loads into the int32 graph the saver writes today, and the row
    limit keeps ``indptr`` inside int32."""

    def test_the_int64_fixture_loads_as_a_fresh_int32_graph(self):
        members = _fixture_members()
        assert members["graph_indptr"].dtype == members["graph_indices"].dtype == np.int64
        restored = load_database(FIXTURE)
        fresh = bulk_graph(members["xy"][:, 0], members["xy"][:, 1])
        for ours, theirs in zip(restored.backend.neighbor_csr(), fresh):
            assert ours.dtype == theirs.dtype == np.int32
            assert np.array_equal(ours, theirs)
        _assert_answers_like_brute_force(restored)

    @pytest.mark.parametrize(
        "member, at, value",
        [
            ("graph_indices", 0, 2**31),
            ("graph_indices", 7, 2**32 + 5),  # wraps to a row id in int32
            ("graph_indptr", -1, 2**31),
            ("graph_indptr", 150, 2**32 + 800),  # wraps between its neighbours
        ],
    )
    def test_an_int64_member_past_int32_is_refused(
        self, member, at, value, tmp_path
    ):
        members = _fixture_members()
        members[member] = members[member].copy()
        members[member][at] = value
        path = tmp_path / "wide.npz"
        np.savez(path, **members)
        with pytest.raises(ValueError, match="corrupt database file"):
            load_database(path)

    def test_the_row_limit_is_where_int32_edge_counts_end(self):
        assert MAX_ROWS == (2**31 - 1) // 6 == 357_913_941
        assert 6 * MAX_ROWS <= np.iinfo(np.int32).max < 6 * (MAX_ROWS + 1)
        check_row_count(MAX_ROWS)
        with pytest.raises(ValueError, match="more than a graph holds"):
            check_row_count(MAX_ROWS + 1)
        # the loader asks the same question of the file's row count
        members = _fixture_members()
        with pytest.raises(ValueError, match="more than a graph holds"):
            persist._check_graph(
                members["graph_indptr"], members["graph_indices"], MAX_ROWS + 1
            )

    @pytest.mark.parametrize("build", ["bulk_graph", "from_xy"])
    def test_a_build_past_the_row_limit_allocates_nothing(self, build):
        """Zero-stride columns of MAX_ROWS + 1 rows: a build that read or
        copied them would allocate gigabytes before it failed."""
        column = np.broadcast_to(np.float64(0.5), (MAX_ROWS + 1,))
        run = bulk_graph if build == "bulk_graph" else DelaunayTriangulation.from_xy
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than a graph holds"):
                run(column, column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# -- the fixture: format stability, and serving without scipy -----------------

_SERVE_FIXTURE = """
import json, sys
from repro.io.persist import load_database
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.query.spec import AreaQuery, KnnQuery, WindowQuery

db = load_database(sys.argv[1], prepare=True)
for op in json.loads(sys.argv[2]):
    if op[0] == "insert":
        db.insert((op[1], op[2]))
    else:
        db.delete(op[1])
answers = [
    db.query(AreaQuery(Circle(Point(0.5, 0.5), 0.3), method="voronoi")).ids(),
    db.query(KnnQuery(Point(0.4, 0.6), 12, method="voronoi")).ids(),
    db.query(WindowQuery(Rect(0.1, 0.2, 0.6, 0.9))).ids(),
    db.query(WindowQuery(Rect(0.3, 0.3, 0.7, 0.7), method="voronoi")).ids(),
    db.query(KnnQuery(Point(1.3, 0.5), 15, method="voronoi")).ids(),
    db.query(AreaQuery(Circle(Point(0.5, 0.5), 0.55), method="voronoi")).ids(),
]
print(json.dumps({"scipy": "scipy" in sys.modules, "answers": answers}))
"""

_FIXTURE_SPECS = [
    AreaQuery(Circle(Point(0.5, 0.5), 0.3), method="voronoi"),
    KnnQuery(Point(0.4, 0.6), 12, method="voronoi"),
    WindowQuery(Rect(0.1, 0.2, 0.6, 0.9)),
    WindowQuery(Rect(0.3, 0.3, 0.7, 0.7), method="voronoi"),
    KnnQuery(Point(1.3, 0.5), 15, method="voronoi"),
    AreaQuery(Circle(Point(0.5, 0.5), 0.55), method="voronoi"),
]


def _fixture_writes():
    """200 inserts into the fixture, then 20 deletes: points beyond its
    hull, copies of its rows (tombstoned ones included), points in line
    with its hull edges (on them and past their ends), and the rest
    inside."""
    db = load_database(FIXTURE)
    rng = random.Random(301)
    points = [Point(*db.store.coords(row)) for row in range(len(db.store))]
    hull = convex_hull(points)
    inserts = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        for t in (0.5, -0.25, 1.25):
            inserts.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    for row in rng.sample(range(300), 40):
        inserts.append(db.store.coords(row))
    while len(inserts) < 150:
        x, y = rng.uniform(-0.6, 1.6), rng.uniform(-0.6, 1.6)
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            inserts.append((x, y))
    while len(inserts) < 200:
        inserts.append((rng.random(), rng.random()))
    rng.shuffle(inserts)
    ops = [["insert", x, y] for x, y in inserts]
    live = [row for row in range(500) if row >= 300 or not db.store.is_deleted(row)]
    return ops + [["delete", row] for row in rng.sample(live, 20)]


class TestFixtureServesWithoutScipy:
    """``data/graph-300.npz``: ``save_database`` of a seeded 300-row scipy
    database with 20 tombstones (regenerate with ``_write_fixture``)."""

    def test_fixture_is_what_the_saver_writes_today(self, tmp_path):
        """Value for value: the fixture's graph members are int64, today's
        int32 (:class:`TestGraphDtypes`)."""
        written = _write_fixture(tmp_path / "again")
        with np.load(FIXTURE) as kept, np.load(written) as fresh:
            assert sorted(kept.files) == sorted(fresh.files)
            for name in kept.files:
                assert np.array_equal(kept[name], fresh[name]), name

    def _serve(self, ops):
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _SERVE_FIXTURE, str(FIXTURE), json.dumps(ops)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["scipy"] is False
        model = load_database(FIXTURE)
        for op in ops:
            if op[0] == "insert":
                model.insert((op[1], op[2]))
            else:
                model.delete(op[1])
        return report["answers"], live_rows(model)

    def test_served_in_a_process_that_never_imports_scipy(self):
        answers, rows = self._serve([])
        assert len(rows) == 280
        assert answers == [brute_force(spec, rows) for spec in _FIXTURE_SPECS]

    def test_takes_writes_in_a_process_that_never_imports_scipy(self):
        """The adopted graph absorbs 200 inserts — beyond the hull, onto
        existing rows, in line with hull edges — and 20 deletes, and then
        answers like the scan, all without scipy."""
        answers, rows = self._serve(_fixture_writes())
        assert len(rows) == 460
        assert answers == [brute_force(spec, rows) for spec in _FIXTURE_SPECS]


def _write_fixture(path):
    rng = np.random.default_rng(300)
    db = SpatialDatabase.from_arrays(
        rng.random(300), rng.random(300), backend_kind="scipy"
    )
    for row in random.Random(300).sample(range(300), 20):
        db.delete(row)
    return save_database(path, db)


# -- atomic writes ------------------------------------------------------------


class TestAtomicWrites:
    def _failing(self, monkeypatch, name):
        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(name, fail)

    @pytest.mark.parametrize("step", ["numpy.savez", "os.replace"])
    def test_failed_save_keeps_the_previous_file(self, step, tmp_path, monkeypatch):
        first = SpatialDatabase.from_points(uniform_points(50, seed=283))
        second = SpatialDatabase.from_points(uniform_points(80, seed=285))
        written = save_database(tmp_path / "db", first)
        before = Path(written).read_bytes()
        self._failing(monkeypatch, step)
        with pytest.raises(RuntimeError, match="injected"):
            save_database(tmp_path / "db", second)
        with pytest.raises(RuntimeError, match="injected"):
            save_points(tmp_path / "db", second.points)
        monkeypatch.undo()
        assert Path(written).read_bytes() == before
        assert os.listdir(tmp_path) == ["db.npz"]  # no temporary left behind
        assert len(load_database(written)) == 50

    def test_failed_graph_build_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        db = _graph_database("plain")
        self._failing(monkeypatch, "repro.delaunay.backends.bulk_graph")
        with pytest.raises(RuntimeError, match="injected"):
            save_database(tmp_path / "db", db)
        assert os.listdir(tmp_path) == []

    def test_truncated_write_is_never_visible(self, tmp_path, monkeypatch):
        """A writer that dies mid-archive: the name still loads the old rows."""
        first = SpatialDatabase.from_points(uniform_points(50, seed=287))
        written = save_database(tmp_path / "db", first)

        def half_written(handle, **members):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(persist.np, "savez", half_written)
        with pytest.raises(OSError, match="disk full"):
            save_database(tmp_path / "db", first)
        monkeypatch.undo()
        assert len(load_database(written)) == 50
        assert os.listdir(tmp_path) == ["db.npz"]
