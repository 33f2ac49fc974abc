"""Unit tests for the Guttman R-tree."""

import gc
import math
import random
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index.base import BruteForceIndex
from repro.index.rtree import _REPACK_RATIO, _TABLES, RTree, _as_entries
from tree_states import recycled_rtree


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


def _oracle(entries):
    oracle = BruteForceIndex()
    for point, item_id in entries:
        oracle.insert(point, item_id)
    return oracle


def _shape(tree, node):
    """A packed (sub)tree as nested lists of leaf entry lists."""
    if tree._leaf[node]:
        return list(_as_entries(*tree._rows([node])))
    return [_shape(tree, child) for child in tree._children([node]).tolist()]


def _python_sorted_pack(entries, capacity):
    """STR packing with Python sorts: the reference the columns must match."""

    def tile(items, x_of, y_of):
        strips = math.ceil(math.sqrt(math.ceil(len(items) / capacity)))
        by_x = sorted(items, key=lambda item: (x_of(item), y_of(item)))
        size = math.ceil(len(by_x) / strips)
        runs = []
        for i in range(0, len(by_x), size):
            strip = sorted(
                by_x[i : i + size], key=lambda item: (y_of(item), x_of(item))
            )
            runs.extend(
                strip[j : j + capacity] for j in range(0, len(strip), capacity)
            )
        return runs

    def center(node, axis):
        points = [node]
        while isinstance(points[0], list):
            points = [p for group in points for p in group]
        values = [getattr(point, axis) for point, _ in points]
        return (min(values) + max(values)) / 2.0

    level = tile(entries, lambda e: e[0].x, lambda e: e[0].y)
    while len(level) > 1:
        level = tile(
            level, lambda n: center(n, "x"), lambda n: center(n, "y")
        )
    return level[0]


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)  # > M/2
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=0)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.nearest_neighbor(Point(0, 0)) is None
        assert tree.height == 1

    def test_insertions_counted(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(100):
            tree.insert(point, item_id)
        assert len(tree) == 100

    def test_invariants_after_insertions(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(300, seed=3):
            tree.insert(point, item_id)
        tree.check_invariants()

    def test_tree_grows_in_height(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(200):
            tree.insert(point, item_id)
        assert tree.height >= 3

    def test_node_count_positive(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(50):
            tree.insert(point, item_id)
        assert tree.node_count() > 50 / 4


class TestBulkLoad:
    def test_str_pack_correctness(self):
        entries = _random_entries(500, seed=5)
        tree = RTree()
        tree.bulk_load(*_columns(entries))
        assert len(tree) == 500
        tree.check_invariants()
        oracle = _oracle(entries)
        window = Rect(0.2, 0.2, 0.7, 0.7)
        assert sorted(i for _, i in tree.window_query(window)) == sorted(
            i for _, i in oracle.window_query(window)
        )

    def test_bulk_load_empty(self):
        tree = RTree()
        tree.bulk_load(*_columns([]))
        assert len(tree) == 0

    def test_bulk_load_single(self):
        tree = RTree()
        tree.bulk_load([0.5], [0.5], [7])
        assert len(tree) == 1
        assert tree.nearest_neighbor(Point(0, 0))[1] == 7

    @pytest.mark.parametrize("batch", [3, 50])
    def test_bulk_load_on_nonempty_keeps_everything(self, batch):
        # Both sides of the repack rule: 3 rows are inserted one by one,
        # 50 rows repack the 300 + 50.
        tree = RTree(max_entries=4)
        existing = _random_entries(300, seed=1)
        tree.bulk_load(*_columns(existing))
        packs = []
        pack = tree._str_pack
        tree._str_pack = lambda *columns: packs.append(pack(*columns))
        extra = [
            (point, 300 + i)
            for point, i in _random_entries(batch, seed=2)
        ]
        tree.bulk_load(*_columns(extra))
        assert bool(packs) == (batch * _REPACK_RATIO >= 300 + batch)
        assert len(tree) == 300 + batch
        assert sorted(i for _, i in tree.items()) == list(range(300 + batch))
        tree.check_invariants()
        window = Rect(0.1, 0.3, 0.8, 0.6)
        assert sorted(tree.window_query(window), key=lambda e: e[1]) == [
            entry for entry in existing + extra if window.contains_point(entry[0])
        ]

    def test_repack_leaves_a_suspended_traversal_on_the_old_tree(self):
        tree = RTree(max_entries=4)
        existing = _random_entries(200, seed=3)
        tree.bulk_load(*_columns(existing))
        traversal = tree.items()
        seen = [next(traversal) for _ in range(10)]
        tree.bulk_load(*_columns(_random_entries(200, seed=4)))  # repacks
        seen.extend(traversal)
        assert sorted(seen, key=lambda e: e[1]) == existing
        assert len(tree) == 400

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("count, capacity", [(777, 4), (5000, 16)])
    def test_columnar_pack_is_the_python_sorted_pack(
        self, seed, count, capacity
    ):
        # Odd seeds draw from a coarse grid, so the sorts see many ties.
        rng = random.Random(seed)
        draw = (lambda: rng.randrange(40) / 40) if seed % 2 else rng.random
        entries = [(Point(draw(), draw()), i) for i in range(count)]
        tree = RTree(max_entries=capacity)
        tree.bulk_load(*_columns(entries))
        tree.check_invariants()
        assert _shape(tree, tree._root) == _python_sorted_pack(entries, capacity)

    def test_bulk_load_height_logarithmic(self):
        tree = RTree(max_entries=16)
        tree.bulk_load(*_columns(_random_entries(4096, seed=2)))
        assert tree.height <= 4


class TestWindowQuery:
    def test_matches_brute_force(self):
        entries = _random_entries(400, seed=7)
        tree = RTree(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in entries:
            tree.insert(point, item_id)
            oracle.insert(point, item_id)
        for window in (
            Rect(0, 0, 1, 1),
            Rect(0.3, 0.3, 0.4, 0.4),
            Rect(0.9, 0.9, 1.5, 1.5),
            Rect(-1, -1, -0.5, -0.5),
        ):
            assert sorted(i for _, i in tree.window_query(window)) == sorted(
                i for _, i in oracle.window_query(window)
            )

    def test_empty_window(self):
        tree = RTree()
        for point, item_id in _random_entries(50):
            tree.insert(point, item_id)
        assert tree.window_query(Rect(2, 2, 3, 3)) == []

    def test_node_accesses_less_than_full_scan(self):
        tree = RTree(max_entries=16)
        tree.bulk_load(*_columns(_random_entries(2000, seed=9)))
        tree.stats.reset()
        tree.window_query(Rect(0.4, 0.4, 0.45, 0.45))
        # A selective window must not visit every node.
        assert tree.stats.node_accesses < tree.node_count() / 2


class TestNearestNeighbor:
    def test_matches_brute_force(self):
        entries = _random_entries(300, seed=11)
        tree = RTree(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in entries:
            tree.insert(point, item_id)
            oracle.insert(point, item_id)
        rng = random.Random(99)
        for _ in range(50):
            q = Point(rng.random(), rng.random())
            expected = oracle.nearest_neighbor(q)
            got = tree.nearest_neighbor(q)
            assert got[0].distance_to(q) == expected[0].distance_to(q)

    def test_knn_matches_brute_force(self):
        entries = _random_entries(200, seed=13)
        tree = RTree(max_entries=8)
        oracle = BruteForceIndex()
        for point, item_id in entries:
            tree.insert(point, item_id)
            oracle.insert(point, item_id)
        q = Point(0.31, 0.62)
        for k in (1, 5, 20, 200, 500):
            got = [i for _, i in tree.k_nearest_neighbors(q, k)]
            expected = [i for _, i in oracle.k_nearest_neighbors(q, k)]
            assert got == expected

    def test_nn_of_exact_point(self):
        tree = RTree()
        for point, item_id in _random_entries(100):
            tree.insert(point, item_id)
        point, item_id = _random_entries(100)[42]
        assert tree.nearest_neighbor(point)[1] == item_id


class TestDeletion:
    def test_delete_returns_presence(self):
        tree = RTree(max_entries=4)
        tree.insert(Point(0.5, 0.5), 1)
        assert tree.delete(Point(0.5, 0.5), 1)
        assert not tree.delete(Point(0.5, 0.5), 1)
        assert len(tree) == 0

    def test_delete_requires_matching_id(self):
        tree = RTree()
        tree.insert(Point(0.5, 0.5), 1)
        assert not tree.delete(Point(0.5, 0.5), 2)
        assert len(tree) == 1

    def test_delete_half_preserves_queries(self):
        entries = _random_entries(200, seed=17)
        tree = RTree(max_entries=4)
        for point, item_id in entries:
            tree.insert(point, item_id)
        for point, item_id in entries[:100]:
            assert tree.delete(point, item_id)
        tree.check_invariants()
        remaining = sorted(i for _, i in tree.items())
        assert remaining == list(range(100, 200))
        window = Rect(0.1, 0.1, 0.9, 0.9)
        expected = sorted(
            i for p, i in entries[100:] if window.contains_point(p)
        )
        assert sorted(i for _, i in tree.window_query(window)) == expected

    def test_delete_all(self):
        entries = _random_entries(64, seed=19)
        tree = RTree(max_entries=4)
        for point, item_id in entries:
            tree.insert(point, item_id)
        for point, item_id in entries:
            assert tree.delete(point, item_id)
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []

    def test_reinsert_after_delete(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(50):
            tree.insert(point, item_id)
        for point, item_id in _random_entries(50)[:25]:
            tree.delete(point, item_id)
        for point, item_id in _random_entries(50, seed=23)[:25]:
            tree.insert(point, item_id)
        assert len(tree) == 50
        tree.check_invariants()


class TestDuplicates:
    def test_duplicate_points_distinct_ids(self):
        tree = RTree(max_entries=4)
        for i in range(20):
            tree.insert(Point(0.5, 0.5), i)
        hits = tree.window_query(Rect(0.5, 0.5, 0.5, 0.5))
        assert sorted(i for _, i in hits) == list(range(20))

    def test_delete_specific_duplicate(self):
        tree = RTree(max_entries=4)
        for i in range(5):
            tree.insert(Point(0.5, 0.5), i)
        assert tree.delete(Point(0.5, 0.5), 3)
        remaining = sorted(i for _, i in tree.items())
        assert remaining == [0, 1, 2, 4]


def _grown(rows=60, seed=61):
    """A tree of three or more levels grown row by row at ``M = 4``."""
    tree = RTree(max_entries=4)
    for point, item_id in _random_entries(rows, seed=seed):
        tree.insert(point, item_id)
    tree.check_invariants()
    assert tree.height >= 3
    return tree


#: Each fault :func:`_break` writes, and what ``check_invariants`` says.
_FAULTS = {
    "root-parent": "the root has a parent",
    "leaf-flag": "unbalanced leaf depths",
    "underfill": "underfull node",
    "overfill": "overfull node",
    "parent-pointer": "broken parent pointer",
    "box": "stale MBR",
    "height": r"height \d+ != \d+ levels",
    "size": r"\d+ entries, \d+ counted",
}


def _break(tree, fault):
    """Write one fault into a tree of three or more levels."""
    root = tree._root
    leaf = int(tree._levels(root)[-1][-1])  # the last leaf, two levels down
    if fault == "root-parent":
        tree._parent[root] = leaf
    elif fault == "leaf-flag":
        tree._leaf[leaf] = False
    elif fault == "underfill":
        tree._fill[leaf] = tree.min_entries - 1
    elif fault == "overfill":
        tree._fill[leaf] = tree.max_entries + 1
    elif fault == "parent-pointer":
        tree._parent[leaf] = root
    elif fault == "box":
        tree._box[leaf, 2] += 1.0
    elif fault == "height":
        tree._height += 1
    else:
        tree._size += 1


class TestInvariantChecks:
    """``check_invariants`` names each invariant a broken tree breaks."""

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_each_fault_is_named(self, fault):
        tree = _grown()
        _break(tree, fault)
        with pytest.raises(AssertionError, match=_FAULTS[fault]):
            tree.check_invariants()

    def test_a_packed_tree_may_underfill(self):
        tree = RTree(max_entries=4)
        tree.bulk_load(*_columns(_random_entries(17, seed=63)))
        leaves = tree._levels(tree._root)[-1]
        assert (tree._fill[leaves] < tree.min_entries).any()  # the last run
        tree.check_invariants()


class TestFreeList:
    """Dissolved nodes' rows are taken again before the tables grow."""

    def test_tables_grow_by_doubling(self):
        tree = RTree(max_entries=4)
        for point, item_id in _random_entries(500, seed=75):
            tree.insert(point, item_id)
        for table, used in zip(_TABLES, tree._used):
            lengths = {len(getattr(tree, name)) for name in table}
            assert len(lengths) == 1, table  # a table's columns grow together
            # 1, 3, 7, ...: each growth doubles the rows and adds one
            (length,) = lengths
            assert used <= length <= 2 * used - 1
            assert (length + 1) & length == 0

    def test_steady_churn_does_not_grow_the_tables(self):
        tree = RTree(max_entries=4)
        entries = _random_entries(200, seed=65)
        sizes = []
        for _ in range(5):
            for point, item_id in entries:
                tree.insert(point, item_id)
            tree.check_invariants()
            assert sorted(i for _, i in tree.items()) == list(range(200))
            for point, item_id in entries:
                assert tree.delete(point, item_id)
            sizes.append((list(tree._used), len(tree._box), len(tree._xs)))
        assert sizes[1:] == sizes[:-1]

    def test_a_split_takes_a_dissolved_leaf_row(self):
        tree = _grown(seed=67)
        entries = _random_entries(60, seed=67)
        for point, item_id in entries[:30]:
            assert tree.delete(point, item_id)
        freed = tree._free[True][-1]
        leaf_rows = tree._used[2]
        before = set(tree._levels(tree._root)[-1].tolist())
        rng = random.Random(69)
        for item_id in range(60, 120):
            tree.insert(Point(rng.random(), rng.random()), item_id)
            grown = set(tree._levels(tree._root)[-1].tolist()) - before
            if grown:
                break
        assert grown == {freed}
        assert tree._used[2] == leaf_rows
        tree.check_invariants()

    def test_a_shrunk_root_goes_on_the_free_list(self):
        tree = _grown(seed=71)
        entries = _random_entries(60, seed=71)
        height, root = tree.height, tree._root
        while tree.height == height:
            point, item_id = entries.pop()
            assert tree.delete(point, item_id)
        assert tree._root != root
        assert root in tree._free[False]
        tree.check_invariants()
        assert sorted(i for _, i in tree.items()) == sorted(i for _, i in entries)

    def test_a_pack_drops_the_free_lists(self):
        tree = recycled_rtree(max_entries=4)
        entries = _random_entries(100, seed=73)
        tree.bulk_load(*_columns(entries))
        assert tree._free == ([], [])
        assert len(tree._box) == tree.node_count()  # tables of exact size
        for point, item_id in entries[:40]:
            assert tree.delete(point, item_id)
        tree.insert(Point(0.5, 0.5), 100)
        tree.check_invariants()
        assert sorted(i for _, i in tree.items()) == list(range(40, 101))


@pytest.mark.parametrize("tree_class", [RTree, recycled_rtree])
class TestColumnarLeaves:
    def test_bulk_load_from_columns_builds_no_entry(self, tree_class):
        rng = np.random.default_rng(3)
        xs, ys = rng.random(3000), rng.random(3000)
        ids = np.arange(100, 3100)
        tree = tree_class(max_entries=8)
        tree.bulk_load(xs, ys, ids)
        tree.check_invariants()
        assert len(tree) == 3000
        entries = [
            (Point(x, y), i) for x, y, i in zip(xs.tolist(), ys.tolist(), ids.tolist())
        ]
        assert _shape(tree, tree._root) == _python_sorted_pack(entries, 8)
        assert tree._xs.dtype == tree._ys.dtype == np.float64
        assert tree._ids.dtype == np.int32

        # no Python object per node or row: the objects the garbage
        # collector tracks do not grow with the rows packed
        def tracked_growth(rows):
            gc.collect()
            before = len(gc.get_objects())
            tree = tree_class(max_entries=8)
            tree.bulk_load(rng.random(rows), rng.random(rows), np.arange(rows))
            gc.collect()
            return len(gc.get_objects()) - before, tree

        assert tracked_growth(300)[0] == tracked_growth(30_000)[0]

    def test_the_source_columns_are_never_written(self, tree_class):
        rng = np.random.default_rng(4)
        xs, ys = rng.random(40), rng.random(40)
        xs.flags.writeable = ys.flags.writeable = False
        tree = tree_class(max_entries=64)  # one leaf: no permutation copy
        tree.bulk_load(xs, ys, np.arange(40))
        tree.insert(Point(0.5, 0.5), 40)
        assert tree.delete(Point(float(xs[3]), float(ys[3])), 3)
        tree.check_invariants()
        assert len(tree) == 40

    def test_2000_interleaved_writes_on_a_packed_tree(self, tree_class):
        rng = random.Random(11)
        entries = _random_entries(1500, seed=12)
        tree = tree_class(max_entries=8)
        tree.bulk_load(*_columns(entries))
        oracle = _oracle(entries)
        live = dict((i, p) for p, i in entries)
        next_id = 1500
        for step in range(2000):
            if live and rng.random() < 0.5:
                item_id = rng.choice(list(live))
                point = live.pop(item_id)
                assert tree.delete(point, item_id)
                assert oracle.delete(point, item_id)
            else:
                point = Point(rng.random(), rng.random())
                tree.insert(point, next_id)
                oracle.insert(point, next_id)
                live[next_id] = point
                next_id += 1
            if step % 250 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == len(live)
        assert sorted(tree.items(), key=lambda e: e[1]) == sorted(
            oracle.items(), key=lambda e: e[1]
        )
        window = Rect(0.2, 0.1, 0.7, 0.9)
        expected = sorted(i for _, i in oracle.window_query(window))
        assert sorted(i for _, i in tree.window_query(window)) == expected
        assert sorted(tree.window_ids_array(window).tolist()) == expected
        query = Point(0.4, 0.6)
        assert [i for _, i in tree.k_nearest_neighbors(query, 25)] == [
            i for _, i in oracle.k_nearest_neighbors(query, 25)
        ]

    def test_bounds_is_the_brute_force_mbr(self, tree_class):
        tree = tree_class(max_entries=4)
        assert tree.bounds is None
        entries = _random_entries(300, seed=21)
        tree.bulk_load(*_columns(entries))
        assert tree.bounds == Rect.from_points(p for p, _ in entries)
        rng = random.Random(22)
        live = list(entries)
        for step in range(400):
            if live and step % 3:
                point, item_id = live.pop(rng.randrange(len(live)))
                assert tree.delete(point, item_id)
            else:
                entry = (Point(rng.uniform(-1, 2), rng.uniform(-1, 2)), 300 + step)
                tree.insert(*entry)
                live.append(entry)
            expected = Rect.from_points(p for p, _ in live) if live else None
            assert tree.bounds == expected
        for point, item_id in live:
            assert tree.delete(point, item_id)
        assert len(tree) == 0 and tree.bounds is None

    def test_knn_ties_break_by_id_across_leaves(self, tree_class):
        # 40 copies of 3 locations: every distance ties many times over.
        tree = tree_class(max_entries=4)
        oracle = BruteForceIndex()
        spots = [Point(0.25, 0.25), Point(0.75, 0.25), Point(0.5, 0.75)]
        for item_id in range(120):
            tree.insert(spots[item_id % 3], item_id)
            oracle.insert(spots[item_id % 3], item_id)
        query = Point(0.5, 0.25)  # equidistant from the first two spots
        for k in (1, 7, 80, 120):
            assert tree.k_nearest_neighbors(query, k) == (
                oracle.k_nearest_neighbors(query, k)
            )


@pytest.mark.parametrize("tree_class", [RTree, recycled_rtree])
class TestAwkwardInputs:
    """Far-away points, stacked duplicates, shared coordinates, misses."""

    def test_points_far_outside_the_unit_square(self, tree_class):
        tree = tree_class(max_entries=4)
        far = [(Point(-1.0, -1.0), 0), (Point(2.5, 2.5), 1), (Point(1.7, 1.9), 2)]
        entries = far + [
            (point, item_id + 3) for point, item_id in _random_entries(60, seed=25)
        ]
        for point, item_id in entries:
            tree.insert(point, item_id)
        tree.check_invariants()
        assert sorted(i for _, i in tree.window_query(Rect(1.5, 1.5, 3, 3))) == [1, 2]
        assert tree.nearest_neighbor(Point(1.8, 1.8))[1] == 2
        assert tree.nearest_neighbor(Point(-5.0, -5.0))[1] == 0
        assert len(tree.window_query(Rect(-2, -2, 1, 1))) == 61
        assert tree.bounds == Rect(-1.0, -1.0, 2.5, 2.5)

    def test_fifty_copies_of_one_location(self, tree_class):
        tree = tree_class(max_entries=4)
        for item_id in range(50):
            tree.insert(Point(0.25, 0.25), item_id)
        tree.check_invariants()
        spot = Rect(0.25, 0.25, 0.25, 0.25)
        assert sorted(tree.window_ids_array(spot).tolist()) == list(range(50))
        knn = tree.k_nearest_neighbors(Point(0.25, 0.25), 50)
        assert [i for _, i in knn] == list(range(50))
        assert tree.delete(Point(0.25, 0.25), 17)
        tree.check_invariants()
        assert sorted(i for _, i in tree.items()) == [
            i for i in range(50) if i != 17
        ]

    def test_shared_x_coordinate(self, tree_class):
        tree = tree_class(max_entries=4)
        for item_id in range(20):
            tree.insert(Point(0.5, item_id / 20.0), item_id)
        window = Rect(0.5, 0.0, 0.5, 0.5)
        assert sorted(i for _, i in tree.window_query(window)) == list(range(11))
        assert sorted(tree.window_ids_array(window).tolist()) == list(range(11))

    def test_misses_change_nothing(self, tree_class):
        tree = tree_class()
        tree.insert(Point(0.5, 0.5), 1)
        tree.insert(Point(0.9, 0.9), 2)
        assert not tree.delete(Point(0.4, 0.4), 1)  # right id, wrong place
        assert not tree.delete(Point(5.0, 5.0), 1)  # outside every node
        assert len(tree) == 2
        assert tree.window_ids_array(Rect(3, 3, 4, 4)).shape == (0,)
        assert tree.delete(Point(0.5, 0.5), 1)
        assert tree.nearest_neighbor(Point(0.5, 0.5))[1] == 2

    @pytest.mark.parametrize("bad", [2**31, -(2**31) - 1])
    def test_an_id_past_int32_is_refused_and_changes_nothing(self, tree_class, bad):
        tree = tree_class(max_entries=4)
        entries = _random_entries(30, seed=26)
        for point, item_id in entries:
            tree.insert(point, item_id)
        everything = Rect(-1, -1, 2, 2)
        before = sorted(tree.window_ids_array(everything).tolist())
        with pytest.raises(ValueError, match="int32"):
            tree.insert(Point(0.5, 0.5), bad)
        # a 1-row batch goes row by row, a 40-row one repacks the tree
        for rows in (1, 40):
            xs, ys, ids = _columns(_random_entries(rows, seed=27))
            ids[-1] = bad
            with pytest.raises(ValueError, match="int32"):
                tree.bulk_load(xs, ys, ids)
        tree.check_invariants()
        assert len(tree) == 30
        assert sorted(tree.window_ids_array(everything).tolist()) == before
        assert sorted(i for _, i in tree.items()) == before
        empty = tree_class()
        with pytest.raises(ValueError, match="int32"):
            empty.bulk_load([0.5], [0.5], [bad])
        assert len(empty) == 0 and empty.bounds is None


def test_packed_tree_fits_the_per_row_budget():
    """28 B a row is the line; measured 24.7: the leaf table's 17 slots per
    16 rows of two float64 columns and the int32 ids (21.25), then the node
    table (53 B a node) and the child table (68 B an internal node).  With
    int64 ids the leaf table was 25.5 and the whole 29.0."""
    rows = 50_000
    rng = np.random.default_rng(31)
    xs, ys, ids = rng.random(rows), rng.random(rows), np.arange(rows)
    gc.collect()
    tracemalloc.start()
    try:
        tree = RTree()
        tree.bulk_load(xs, ys, ids)
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tree) == rows
    assert traced / rows <= 28


#: ``(ids digest, node accesses, entry tests)`` per probe of
#: :func:`_probe_record`, recorded on the object-per-node tree this one
#: replaced: the array layout answers and counts exactly as it did.
_PINNED = {
    "window": [
        (2372378314, 65, 352),
        (886374107, 167, 576),
        (2474154785, 16, 128),
        (3863692156, 115, 528),
        (1049963717, 14, 144),
        (3749587870, 8, 80),
        (1088567044, 5, 32),
        (1278922993, 7, 32),
        (16295791, 9, 96),
        (2384609549, 19, 120),
        (3969647762, 11, 76),
        (3191537180, 9, 60),
        (3766692151, 17, 160),
        (1333312336, 6, 48),
        (2973533199, 20, 144),
        (3958490367, 10, 56),
        (2348861995, 8, 64),
        (2520759672, 12, 104),
        (4033568215, 33, 228),
        (2583377832, 72, 432),
    ],
    "knn": [
        (2664800670, 12, 128),
        (1451765725, 6, 48),
        (2785964402, 13, 128),
        (2614122559, 6, 32),
        (1889472946, 6, 48),
        (1846273582, 4, 16),
        (718369142, 12, 64),
        (967473936, 7, 48),
        (893306703, 7, 48),
        (2908839756, 9, 64),
        (621754830, 8, 64),
        (1408549545, 12, 128),
        (2493679471, 6, 48),
        (3174366894, 8, 48),
        (2805920551, 5, 32),
        (3731846361, 6, 32),
        (3767134419, 4, 16),
        (2835770756, 4, 16),
        (1196320351, 6, 32),
        (1078210860, 7, 32),
    ],
}


def _probe_record(tree):
    """20 windows and 20 kNN searches over ``tree``."""
    rng = np.random.default_rng(2042)
    record = {"window": [], "knn": []}
    for kind, calls in record.items():
        for _ in range(20):
            x, y = rng.random(2).tolist()
            tree.stats.reset()
            if kind == "knn":
                k = int(rng.choice((1, 10, 50)))
                got = [i for _, i in tree.k_nearest_neighbors(Point(x, y), k)]
                key = zlib.crc32(np.array(got, dtype=np.int64).tobytes())
            else:
                side = float(10 ** rng.uniform(-2, -0.4))
                window = Rect(x, y, x + side, y + side)
                ids = np.sort(tree.window_ids_array(window))
                key = zlib.crc32(ids.astype(np.int64).tobytes())
            calls.append((key, tree.stats.node_accesses, tree.stats.entry_tests))
    return record


def test_probes_answer_and_count_as_pinned():
    rng = np.random.default_rng(42)
    tree = RTree()
    tree.bulk_load(rng.random(20_000), rng.random(20_000), np.arange(20_000))
    assert _probe_record(tree) == _PINNED
