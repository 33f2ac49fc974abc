"""Tests for counting window queries (COUNT(*) aggregates)."""

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index import BruteForceIndex, RTree


def _random_entries(n, seed=0):
    rng = random.Random(seed)
    return [(Point(rng.random(), rng.random()), i) for i in range(n)]


def _bulk_load(index, entries):
    index.bulk_load(
        [p.x for p, _ in entries], [p.y for p, _ in entries], [i for _, i in entries]
    )


def _random_windows(count, seed=0):
    rng = random.Random(seed)
    windows = []
    for _ in range(count):
        x1, x2 = sorted((rng.random(), rng.random()))
        y1, y2 = sorted((rng.random(), rng.random()))
        windows.append(Rect(x1, y1, x2, y2))
    return windows


class TestRTreeWeightedCount:
    @pytest.mark.parametrize("cls", [RTree])
    def test_matches_window_query_dynamic(self, cls):
        index = cls(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in _random_entries(500, seed=305):
            index.insert(point, item_id)
            oracle.insert(point, item_id)
        index.check_invariants()
        for window in _random_windows(30, seed=307):
            assert index.window_count(window) == len(
                oracle.window_query(window)
            )

    def test_matches_after_bulk_load(self):
        entries = _random_entries(800, seed=309)
        index = RTree()
        _bulk_load(index, entries)
        index.check_invariants()
        for window in _random_windows(30, seed=311):
            assert index.window_count(window) == sum(
                window.contains_point(p) for p, _ in entries
            )

    def test_matches_after_deletions(self):
        entries = _random_entries(300, seed=313)
        index = RTree(max_entries=4)
        for point, item_id in entries:
            index.insert(point, item_id)
        for point, item_id in entries[:150]:
            assert index.delete(point, item_id)
        index.check_invariants()
        for window in _random_windows(20, seed=315):
            assert index.window_count(window) == len(
                index.window_query(window)
            )

    def test_full_window_counts_everything(self):
        index = RTree()
        _bulk_load(index, _random_entries(400, seed=317))
        assert index.window_count(Rect(-1, -1, 2, 2)) == 400

    def test_empty_tree(self):
        assert RTree().window_count(Rect(0, 0, 1, 1)) == 0

    def test_aggregate_visits_fewer_nodes(self):
        """Full containment prunes descent: counting a huge window must
        touch far fewer nodes than materialising the same window."""
        index = RTree(max_entries=8)
        _bulk_load(index, _random_entries(3000, seed=319))
        window = Rect(0.05, 0.05, 0.95, 0.95)

        index.stats.reset()
        count = index.window_count(window)
        count_accesses = index.stats.node_accesses

        index.stats.reset()
        materialised = index.window_query(window)
        query_accesses = index.stats.node_accesses

        assert count == len(materialised)
        assert count_accesses < query_accesses / 2
