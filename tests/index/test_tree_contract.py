"""The contract the tree meets, case by case.

Every case here builds a :class:`~repro.index.rtree.RTree` row by row
or by STR bulk load and checks it against
:class:`~repro.index.base.BruteForceIndex`: empty trees, capacity edges,
points far outside the unit square, stacked duplicates, deletion down to
nothing and windows that miss the data.  The ``tree_class`` parameter
starts each case on a fresh tree and on a recycled one, whose nodes come
off its free list (``tree_states.py``).
"""

import math
import random

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import BruteForceIndex
from repro.index.rtree import RTree
from tree_states import recycled_rtree

TREES = pytest.mark.parametrize("tree_class", [RTree, recycled_rtree])


def _random_entries(n, seed=0):
    rng = random.Random(seed)
    return [(Point(rng.random(), rng.random()), i) for i in range(n)]


def _columns(entries):
    """``(Point, id)`` entries as the ``(xs, ys, ids)`` columns ``bulk_load`` takes."""
    return (
        np.array([p.x for p, _ in entries], dtype=np.float64),
        np.array([p.y for p, _ in entries], dtype=np.float64),
        np.array([i for _, i in entries], dtype=np.int64),
    )


def _inserted(tree_class, entries, max_entries=4):
    tree = tree_class(max_entries=max_entries)
    for point, item_id in entries:
        tree.insert(point, item_id)
    return tree


def _packed(tree_class, entries, max_entries=4):
    tree = tree_class(max_entries=max_entries)
    tree.bulk_load(*_columns(entries))
    return tree


def _oracle(entries):
    oracle = BruteForceIndex()
    for point, item_id in entries:
        oracle.insert(point, item_id)
    return oracle


def _ids(entries):
    return sorted(item_id for _, item_id in entries)


@TREES
class TestEmptyTree:
    def test_every_query_answers_nothing(self, tree_class):
        tree = tree_class()
        everything = Rect(-10, -10, 10, 10)
        assert len(tree) == 0
        assert tree.window_query(everything) == []
        assert tree.window_ids_array(everything).shape == (0,)
        assert tree.nearest_neighbor(Point(0.5, 0.5)) is None
        assert tree.k_nearest_neighbors(Point(0.5, 0.5), 3) == []
        assert list(tree.items()) == []
        assert tree.bounds is None
        assert tree.height == 1

    def test_delete_finds_nothing(self, tree_class):
        tree = tree_class()
        assert not tree.delete(Point(0.5, 0.5), 1)
        assert not tree.delete(Point(5.0, 5.0), 1)
        assert len(tree) == 0

    def test_bulk_load_of_no_rows_changes_nothing(self, tree_class):
        entries = _random_entries(40, seed=1)
        tree = _inserted(tree_class, entries)
        boxes = tree._box
        tree.bulk_load(*_columns([]))
        assert tree._box is boxes
        assert len(tree) == 40
        assert sorted(tree.items(), key=lambda e: e[1]) == entries


@TREES
class TestConstruction:
    def test_capacity_validation(self, tree_class):
        with pytest.raises(ValueError):
            tree_class(max_entries=1)
        with pytest.raises(ValueError):
            tree_class(max_entries=8, min_entries=5)  # > M/2
        with pytest.raises(ValueError):
            tree_class(max_entries=8, min_entries=0)

    def test_default_minimum_fill(self, tree_class):
        assert tree_class(max_entries=10).min_entries == 4  # ceil(0.4 M)
        assert tree_class(max_entries=2).min_entries == 1

    def test_insert_count(self, tree_class):
        tree = _inserted(tree_class, _random_entries(100))
        assert len(tree) == 100
        assert _ids(tree.items()) == list(range(100))

    def test_capacity_two_splits_all_the_way_down(self, tree_class):
        # At most 2 rows a leaf and 2 children a node: 50 rows need at
        # least 25 leaves under 5 more levels.
        entries = _random_entries(50, seed=2)
        tree = _inserted(tree_class, entries, max_entries=2)
        tree.check_invariants()
        assert tree.height >= 6
        assert _ids(tree.window_query(Rect(0, 0, 1, 1))) == list(range(50))

    def test_queries_count_node_accesses(self, tree_class):
        tree = _inserted(tree_class, _random_entries(200, seed=3))
        tree.stats.reset()
        tree.window_query(Rect(0.2, 0.2, 0.4, 0.4))
        after_window = tree.stats.snapshot()
        assert after_window.node_accesses >= 2  # the root and a leaf
        assert after_window.entry_tests > 0
        tree.k_nearest_neighbors(Point(0.5, 0.5), 5)
        assert tree.stats.node_accesses > after_window.node_accesses
        tree.stats.reset()
        assert (tree.stats.node_accesses, tree.stats.entry_tests) == (0, 0)


def _scaled(entries, scale):
    return [(Point(p.x * scale, p.y * scale), i) for p, i in entries]


def _scaled_rect(rect, scale):
    return Rect(
        rect.min_x * scale, rect.min_y * scale, rect.max_x * scale, rect.max_y * scale
    )


@TREES
@pytest.mark.parametrize("build", [_inserted, _packed], ids=["inserted", "packed"])
# 1e-300: every squared distance underflows to 0, so kNN is decided by
# id alone; 1e-160: squared distances are subnormal; 1e150: they come
# within six powers of ten of overflowing.
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e-160, 1e150])
class TestAgainstTheOracle:
    ENTRIES = _random_entries(400, seed=5)

    def test_window_matches_brute_force(self, tree_class, build, scale):
        entries = _scaled(self.ENTRIES, scale)
        tree = build(tree_class, entries)
        oracle = _oracle(entries)
        for window in (
            Rect(0, 0, 1, 1),
            Rect(0.3, 0.1, 0.6, 0.4),
            Rect(0.33, 0.33, 0.34, 0.34),
            Rect(0.0, 0.9, 0.1, 1.0),
            Rect(0.99, 0.99, 1.2, 1.2),
            Rect(0.5, 0.0, 0.5, 1.0),  # zero width
            Rect(2, 2, 3, 3),  # disjoint
        ):
            window = _scaled_rect(window, scale)
            expected = _ids(oracle.window_query(window))
            assert _ids(tree.window_query(window)) == expected
            assert sorted(tree.window_ids_array(window).tolist()) == expected

    def test_random_windows_match_brute_force(self, tree_class, build, scale):
        # Windows of every size, many straddling the data's extent.
        entries = _scaled(self.ENTRIES, scale)
        tree = build(tree_class, entries)
        rng = random.Random(6)
        for _ in range(30):
            x1, x2 = sorted((rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)))
            y1, y2 = sorted((rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3)))
            window = _scaled_rect(Rect(x1, y1, x2, y2), scale)
            expected = sorted(i for p, i in entries if window.contains_point(p))
            assert _ids(tree.window_query(window)) == expected
            assert sorted(tree.window_ids_array(window).tolist()) == expected

    def test_nn_matches_brute_force_inside_and_outside(self, tree_class, build, scale):
        entries = _scaled(self.ENTRIES, scale)
        tree = build(tree_class, entries)
        oracle = _oracle(entries)
        rng = random.Random(7)
        queries = [
            Point(rng.random() * 1.5 - 0.25, rng.random() * 1.5 - 0.25)
            for _ in range(60)
        ] + [Point(10.0, -10.0), Point(-3.0, 0.5)]
        for query in queries:
            query = Point(query.x * scale, query.y * scale)
            assert tree.nearest_neighbor(query) == oracle.nearest_neighbor(query)

    def test_knn_matches_brute_force(self, tree_class, build, scale):
        entries = _scaled(self.ENTRIES, scale)
        tree = build(tree_class, entries)
        oracle = _oracle(entries)
        for query in (Point(0.5, 0.5), Point(0.2, 0.8), Point(1.4, -0.1)):
            query = Point(query.x * scale, query.y * scale)
            for k in (1, 3, 10, 150, 400, 450):
                assert tree.k_nearest_neighbors(query, k) == (
                    oracle.k_nearest_neighbors(query, k)
                )

    def test_bounds_match_brute_force(self, tree_class, build, scale):
        entries = _scaled(self.ENTRIES, scale)
        tree = build(tree_class, entries)
        tree.check_invariants()
        assert tree.bounds == _oracle(entries).bounds


@TREES
class TestBulkLoad:
    def test_packed_height_is_logarithmic(self, tree_class):
        rows, capacity = 1023, 4
        tree = _packed(tree_class, _random_entries(rows, seed=11), capacity)
        assert len(tree) == rows
        levels, count = 1, rows
        while count > capacity:
            count = math.ceil(count / capacity)
            levels += 1
        assert levels <= tree.height <= levels + 1

    def test_bulk_load_keeps_rows_already_inserted(self, tree_class):
        tree = tree_class(max_entries=4)
        tree.insert(Point(0.5, 0.5), 999)
        tree.bulk_load(*_columns(_random_entries(50, seed=13)))
        tree.check_invariants()
        assert len(tree) == 51
        assert _ids(tree.items()) == list(range(50)) + [999]
        assert tree.nearest_neighbor(Point(0.5, 0.5))[1] == 999

    @pytest.mark.parametrize("build", [_inserted, _packed])
    def test_leaves_partition_the_rows(self, tree_class, build):
        tree = build(tree_class, _random_entries(100, seed=17))
        leaves = tree._levels(tree._root)[-1]
        sizes = tree._fill[leaves].tolist()
        ids = tree._rows(leaves)[2]
        assert sum(sizes) == 100
        assert all(1 <= size <= 4 for size in sizes)
        assert sorted(ids.tolist()) == list(range(100))

    def test_one_leaf_is_a_scan(self, tree_class):
        entries = _random_entries(50, seed=19)
        tree = _packed(tree_class, entries, max_entries=64)
        assert tree.height == 1 and tree.node_count() == 1
        window = Rect(0.25, 0.25, 0.75, 0.75)
        expected = sorted(i for p, i in entries if window.contains_point(p))
        assert _ids(tree.window_query(window)) == expected
        tree.stats.reset()
        tree.window_query(window)
        assert tree.stats.node_accesses == 1
        assert tree.stats.entry_tests == 50

    def test_input_order_does_not_change_answers(self, tree_class):
        entries = _random_entries(600, seed=23)
        by_x = sorted(entries, key=lambda e: (e[0].x, e[0].y))
        shuffled = list(entries)
        random.Random(24).shuffle(shuffled)
        trees = [_packed(tree_class, rows) for rows in (by_x, shuffled)]
        window = Rect(0.1, 0.55, 0.45, 0.95)
        query = Point(0.61, 0.17)
        answers = [
            (_ids(t.window_query(window)), t.k_nearest_neighbors(query, 12))
            for t in trees
        ]
        assert answers[0] == answers[1]
        assert answers[0][0] == sorted(
            i for p, i in entries if window.contains_point(p)
        )


@TREES
class TestDeletion:
    def test_delete_reports_presence(self, tree_class):
        tree = tree_class()
        tree.insert(Point(0.5, 0.5), 1)
        assert tree.delete(Point(0.5, 0.5), 1)
        assert not tree.delete(Point(0.5, 0.5), 1)
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.bounds is None

    def test_delete_needs_the_right_place_and_id(self, tree_class):
        tree = _inserted(tree_class, _random_entries(30, seed=29))
        point, item_id = _random_entries(30, seed=29)[7]
        assert not tree.delete(Point(point.x + 1e-9, point.y), item_id)
        assert not tree.delete(point, item_id + 1)
        assert len(tree) == 30
        assert tree.delete(point, item_id)

    def test_mass_delete_keeps_queries_correct(self, tree_class):
        entries = _random_entries(200, seed=31)
        tree = _inserted(tree_class, entries)
        for point, item_id in entries[:150]:
            assert tree.delete(point, item_id)
        tree.check_invariants()
        assert len(tree) == 50
        assert _ids(tree.items()) == list(range(150, 200))
        assert len(tree.window_query(Rect(0, 0, 1, 1))) == 50
        query = Point(0.3, 0.7)
        assert tree.k_nearest_neighbors(query, 10) == (
            _oracle(entries[150:]).k_nearest_neighbors(query, 10)
        )

    def test_nearest_neighbor_skips_deleted_rows(self, tree_class):
        tree = tree_class()
        tree.insert(Point(0.5, 0.5), 1)
        tree.insert(Point(0.9, 0.9), 2)
        tree.delete(Point(0.5, 0.5), 1)
        assert tree.nearest_neighbor(Point(0.5, 0.5))[1] == 2

    def test_delete_everything_then_insert_again(self, tree_class):
        entries = _random_entries(64, seed=37)
        tree = _inserted(tree_class, entries)
        for point, item_id in reversed(entries):
            assert tree.delete(point, item_id)
        assert len(tree) == 0 and tree.bounds is None
        tree.insert(Point(2.0, 3.0), 64)
        tree.check_invariants()
        assert tree.bounds == Rect(2.0, 3.0, 2.0, 3.0)
        assert tree.nearest_neighbor(Point(0, 0))[1] == 64

    def test_deletes_shrink_a_packed_tree(self, tree_class):
        entries = _random_entries(300, seed=41)
        tree = _packed(tree_class, entries)
        height = tree.height
        rng = random.Random(42)
        doomed = rng.sample(range(300), 290)
        for item_id in doomed:
            assert tree.delete(entries[item_id][0], item_id)
        tree.check_invariants()
        assert tree.height < height
        survivors = sorted(set(range(300)) - set(doomed))
        assert _ids(tree.items()) == survivors
        assert sorted(tree.window_ids_array(Rect(0, 0, 1, 1)).tolist()) == (
            survivors
        )


@TREES
class TestDuplicates:
    def test_equal_coordinates(self, tree_class):
        tree = tree_class(max_entries=4)
        for item_id in range(10):
            tree.insert(Point(0.5, 0.5), item_id)
        spot = Rect(0.5, 0.5, 0.5, 0.5)
        assert _ids(tree.window_query(spot)) == list(range(10))
        assert sorted(tree.window_ids_array(spot).tolist()) == list(range(10))

    def test_delete_one_duplicate(self, tree_class):
        tree = tree_class(max_entries=4)
        for item_id in range(5):
            tree.insert(Point(0.5, 0.5), item_id)
        assert tree.delete(Point(0.5, 0.5), 2)
        tree.check_invariants()
        assert _ids(tree.items()) == [0, 1, 3, 4]

    def test_packed_duplicates_across_leaves(self, tree_class):
        # 40 copies of 3 locations, packed 4 to a leaf: every location
        # spans many leaves and every kNN distance ties many times.
        spots = [Point(0.25, 0.25), Point(0.75, 0.25), Point(0.5, 0.75)]
        entries = [(spots[item_id % 3], item_id) for item_id in range(120)]
        tree = _packed(tree_class, entries)
        oracle = _oracle(entries)
        for item_id in range(0, 120, 7):
            assert tree.delete(spots[item_id % 3], item_id)
            assert oracle.delete(spots[item_id % 3], item_id)
        tree.check_invariants()
        query = Point(0.5, 0.25)
        for k in (1, 9, 60, 120):
            assert tree.k_nearest_neighbors(query, k) == (
                oracle.k_nearest_neighbors(query, k)
            )
        spot = Rect(0.25, 0.25, 0.25, 0.25)
        assert sorted(tree.window_ids_array(spot).tolist()) == _ids(
            oracle.window_query(spot)
        )

    def test_shared_y_coordinate(self, tree_class):
        tree = tree_class(max_entries=4)
        for item_id in range(20):
            tree.insert(Point(item_id / 20.0, 0.5), item_id)
        window = Rect(0.0, 0.5, 0.5, 0.5)
        assert _ids(tree.window_query(window)) == list(range(11))
        assert sorted(tree.window_ids_array(window).tolist()) == list(range(11))


@TREES
class TestFarPoints:
    def test_point_outside_the_first_extent(self, tree_class):
        tree = tree_class(max_entries=4)
        tree.insert(Point(0.5, 0.5), 1)
        tree.insert(Point(2.5, 2.5), 2)
        assert len(tree) == 2
        assert _ids(tree.window_query(Rect(2, 2, 3, 3))) == [2]
        assert tree.bounds == Rect(0.5, 0.5, 2.5, 2.5)

    def test_negative_coordinates(self, tree_class):
        tree = tree_class(max_entries=4)
        tree.insert(Point(-1.0, -1.0), 1)
        tree.insert(Point(0.5, 0.5), 2)
        assert len(tree.window_query(Rect(-2, -2, 1, 1))) == 2
        assert _ids(tree.window_query(Rect(-2, -2, 0, 0))) == [1]

    def test_far_point_keeps_the_rest(self, tree_class):
        entries = _random_entries(30, seed=43)
        tree = _inserted(tree_class, entries, max_entries=2)
        tree.insert(Point(5.0, 5.0), 999)
        tree.check_invariants()
        assert _ids(tree.items()) == list(range(30)) + [999]
        assert _ids(tree.window_query(Rect(0, 0, 1, 1))) == list(range(30))

    def test_nearest_to_a_far_point(self, tree_class):
        tree = tree_class()
        tree.insert(Point(2.0, 2.0), 1)
        tree.insert(Point(0.1, 0.1), 2)
        assert tree.nearest_neighbor(Point(1.8, 1.8))[1] == 1
        assert tree.nearest_neighbor(Point(0.9, 0.9))[1] == 2

    def test_windows_that_miss_the_data(self, tree_class):
        tree = _packed(tree_class, _random_entries(200, seed=47))
        for window in (
            Rect(3, 3, 4, 4),
            Rect(-1, -1, -0.5, -0.5),
            Rect(1.01, 0.0, 2.0, 1.0),  # beside the data, same height
        ):
            assert tree.window_query(window) == []
            assert tree.window_ids_array(window).shape == (0,)

    def test_window_edges_are_closed(self, tree_class):
        corners = [Point(0.2, 0.2), Point(0.6, 0.2), Point(0.2, 0.6), Point(0.6, 0.6)]
        entries = [(p, i) for i, p in enumerate(corners)] + [
            (p, i + 4) for p, i in _random_entries(40, seed=53)
        ]
        tree = _inserted(tree_class, entries)
        window = Rect(0.2, 0.2, 0.6, 0.6)
        expected = sorted(i for p, i in entries if window.contains_point(p))
        assert {0, 1, 2, 3} <= set(expected)
        assert _ids(tree.window_query(window)) == expected
        assert sorted(tree.window_ids_array(window).tolist()) == expected
