"""Unit tests for the Voronoi-based kNN query."""

import random

import pytest

from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.core.knn_query import incremental_nearest, voronoi_knn_query
from repro.query.spec import KnnQuery
from repro.workloads.generators import clustered_points, uniform_points


@pytest.fixture(scope="module")
def db_400():
    return SpatialDatabase.from_points(uniform_points(400, seed=171)).prepare()


def _brute_knn(db, query, k):
    order = sorted(
        range(len(db.store)),
        key=lambda i: (db.point(i).squared_distance_to(query), i),
    )
    return order[:k]


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5, 20, 100])
    def test_matches_brute_force(self, db_400, k):
        rng = random.Random(173)
        for _ in range(10):
            q = Point(rng.random(), rng.random())
            got = voronoi_knn_query(
                db_400.index, db_400.backend, db_400.store, q, k
            )
            assert got.ids == _brute_knn(db_400, q, k)

    def test_k_exceeds_database(self, db_400):
        q = Point(0.5, 0.5)
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.store, q, 10_000
        )
        assert len(got.ids) == 400
        assert got.ids == _brute_knn(db_400, q, 400)

    def test_k_zero(self, db_400):
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.store, Point(0.5, 0.5), 0
        )
        assert got.ids == []

    def test_query_outside_data_extent(self, db_400):
        q = Point(3.0, -2.0)
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.store, q, 7
        )
        assert got.ids == _brute_knn(db_400, q, 7)

    def test_clustered_data(self):
        db = SpatialDatabase.from_points(
            clustered_points(300, seed=175, clusters=6)
        ).prepare()
        rng = random.Random(177)
        for _ in range(10):
            q = Point(rng.random(), rng.random())
            got = voronoi_knn_query(db.index, db.backend, db.store, q, 15)
            assert got.ids == _brute_knn(db, q, 15)

    def test_agrees_with_index_knn(self, db_400):
        rng = random.Random(179)
        for _ in range(10):
            q = Point(rng.random(), rng.random())
            assert (
                db_400.query(KnnQuery(q, 9, method="voronoi")).ids()
                == db_400.query(KnnQuery(q, 9, method="index")).ids()
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            KnnQuery(Point(0.5, 0.5), 3, method="magic")


class TestStats:
    def test_candidate_count_small(self, db_400):
        """Expansion locality: confirming k results should only evaluate
        O(k) candidates (~6 neighbours per confirmation), not O(n)."""
        q = Point(0.4, 0.6)
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.store, q, 10
        )
        assert got.stats.candidates < 10 * 8

    def test_method_label(self, db_400):
        got = voronoi_knn_query(
            db_400.index, db_400.backend, db_400.store, Point(0.5, 0.5), 3
        )
        # Unified method naming across the query API: the kNN kind's
        # Voronoi execution reports plain "voronoi".
        assert got.stats.method == "voronoi"


class TestFilteredWalk:
    def test_predicate_over_tombstones_matches_index_once_per_row(self):
        """A filtered walk over 50 tombstones returns the index method's
        ids and calls the predicate once per row the walk produces, in
        distance order, stopping at the kth passing row."""
        db = SpatialDatabase.from_points(uniform_points(400, seed=181)).prepare()
        for row in random.Random(183).sample(range(400), 50):
            db.delete(row)
        q = Point(0.45, 0.55)
        keep = lambda p: p.x < 0.5  # noqa: E731
        calls = []

        def predicate(point):
            calls.append(point)
            return keep(point)

        got = voronoi_knn_query(
            db.index,
            db.backend,
            db.store,
            q,
            12,
            deleted=db.store.deleted_rows,
            predicate=predicate,
        )
        expected = db.query(
            KnnQuery(q, 12, method="index", predicate=keep)
        ).ids()
        assert got.ids == expected
        assert db.query(
            KnnQuery(q, 12, method="voronoi", predicate=keep)
        ).ids() == expected
        live = [
            row
            for row in _brute_knn(db, q, len(db.store))
            if not db.store.is_deleted(row)
        ]
        produced = live[: live.index(expected[-1]) + 1]
        assert calls == [db.point(row) for row in produced]
        assert got.stats.candidates > len(produced)


class TestIncrementalNearest:
    def test_streams_in_distance_order(self, db_400):
        q = Point(0.31, 0.62)
        stream = incremental_nearest(
            db_400.index, db_400.backend, db_400.store, q
        )
        first_25 = [next(stream) for _ in range(25)]
        assert first_25 == _brute_knn(db_400, q, 25)

    def test_exhausts_database(self, db_400):
        q = Point(0.9, 0.1)
        everything = list(
            incremental_nearest(db_400.index, db_400.backend, db_400.store, q)
        )
        assert sorted(everything) == list(range(400))

    @pytest.mark.parametrize("graph", ["adopted CSR", "triangle arrays"])
    def test_a_stream_admitted_before_500_inserts_keeps_its_ranking(self, graph):
        """An unbounded kNN stream walks the graph it was admitted on: 500
        inserts around the query point (which rewrite the rows the stream
        still has to read, and re-pack the row storage) and 20 deletes
        later, it yields exactly the admission-time ranking."""
        db = SpatialDatabase.from_points(uniform_points(400, seed=175)).prepare()
        if graph == "triangle arrays":
            db.insert((0.9, 0.9))  # the first write derives them
        q = Point(0.45, 0.55)
        expected = _brute_knn(db, q, len(db))
        stream = iter(db.query(KnnQuery(q, None)))
        head = [next(stream) for _ in range(10)]
        rng = random.Random(176)
        for _ in range(500):
            db.insert((q.x + rng.gauss(0.0, 0.05), q.y + rng.gauss(0.0, 0.05)))
        for row in rng.sample(expected[10:], 20):
            db.delete(row)
        assert head + list(stream) == expected
        # a stream admitted now sees the writes
        fresh = db.query(KnnQuery(q, 30)).ids()
        assert fresh == [
            row
            for row in _brute_knn(db, q, len(db.store))
            if not db.store.is_deleted(row)
        ][:30]

    def test_empty_database(self):
        db = SpatialDatabase()
        assert (
            list(incremental_nearest(db.index, None, db.store, Point(0, 0)))
            == []
        )
