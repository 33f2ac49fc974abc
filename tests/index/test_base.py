"""Unit tests for the index base interface and the brute-force oracle."""

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import BruteForceIndex, IndexStats


class TestBruteForce:
    def test_insert_and_len(self):
        index = BruteForceIndex()
        index.insert(Point(0.5, 0.5), 1)
        index.insert(Point(0.2, 0.8), 2)
        assert len(index) == 2

    def test_window_query(self):
        index = BruteForceIndex()
        index.insert(Point(0.5, 0.5), 1)
        index.insert(Point(0.9, 0.9), 2)
        hits = index.window_query(Rect(0.0, 0.0, 0.6, 0.6))
        assert [item_id for _, item_id in hits] == [1]
        ids = index.window_ids_array(Rect(0.0, 0.0, 0.6, 0.6))
        assert ids.dtype == np.int32 and ids.tolist() == [1]

    def test_window_query_inclusive_boundary(self):
        index = BruteForceIndex()
        index.insert(Point(1.0, 1.0), 1)
        assert len(index.window_query(Rect(0, 0, 1, 1))) == 1

    def test_nearest_neighbor(self):
        index = BruteForceIndex()
        index.insert(Point(0.0, 0.0), 1)
        index.insert(Point(1.0, 1.0), 2)
        entry = index.nearest_neighbor(Point(0.9, 0.9))
        assert entry is not None and entry[1] == 2

    def test_nearest_neighbor_empty(self):
        assert BruteForceIndex().nearest_neighbor(Point(0, 0)) is None

    def test_knn_ordering(self):
        index = BruteForceIndex()
        for i in range(5):
            index.insert(Point(float(i), 0.0), i)
        got = [item_id for _, item_id in index.k_nearest_neighbors(Point(0, 0), 3)]
        assert got == [0, 1, 2]

    def test_knn_k_zero(self):
        index = BruteForceIndex()
        index.insert(Point(0, 0), 1)
        assert index.k_nearest_neighbors(Point(0, 0), 0) == []

    def test_knn_k_exceeds_size(self):
        index = BruteForceIndex()
        index.insert(Point(0, 0), 1)
        assert len(index.k_nearest_neighbors(Point(0, 0), 10)) == 1

    def test_delete(self):
        index = BruteForceIndex()
        index.insert(Point(0.5, 0.5), 1)
        assert index.delete(Point(0.5, 0.5), 1)
        assert not index.delete(Point(0.5, 0.5), 1)
        assert len(index) == 0

    def test_duplicate_locations_allowed(self):
        index = BruteForceIndex()
        index.insert(Point(0.5, 0.5), 1)
        index.insert(Point(0.5, 0.5), 2)
        hits = index.window_query(Rect(0, 0, 1, 1))
        assert sorted(item_id for _, item_id in hits) == [1, 2]

    def test_bounds(self):
        index = BruteForceIndex()
        assert index.bounds is None
        index.insert(Point(0.25, 0.5), 1)
        index.insert(Point(0.75, 0.1), 2)
        assert index.bounds == Rect(0.25, 0.1, 0.75, 0.5)

    def test_stats_counted(self):
        index = BruteForceIndex()
        index.insert(Point(0.5, 0.5), 1)
        index.stats.reset()
        index.window_query(Rect(0, 0, 1, 1))
        assert index.stats.node_accesses == 1
        assert index.stats.entry_tests == 1


class TestIndexStats:
    def test_reset(self):
        stats = IndexStats(node_accesses=5, entry_tests=10)
        stats.reset()
        assert stats.node_accesses == 0
        assert stats.entry_tests == 0

    def test_snapshot_is_independent(self):
        stats = IndexStats(node_accesses=5)
        snap = stats.snapshot()
        stats.node_accesses = 99
        assert snap.node_accesses == 5
