"""``window_ids_array`` — the bulk index probe — against the brute-force scan.

The R-tree must return exactly the id *set* a scan of the live
entries finds, for any window, including the structural shortcuts the
probe takes (fully-contained subtree emission, boundary-leaf masking),
points far outside the unit square and exact duplicates.
"""

import random

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index import RTree
from tree_states import recycled_rtree

WINDOWS = [
    Rect(0.1, 0.1, 0.6, 0.7),
    Rect(-1.0, -1.0, 2.0, 2.0),  # superset of everything
    Rect(0.45, 0.45, 0.55, 0.55),
    Rect(0.0, 0.0, 1.0, 1.0),
    Rect(0.5, 0.5, 0.5, 0.5),  # degenerate
    Rect(1.05, 1.05, 1.5, 1.5),  # outside the unit square
    Rect(2.0, 2.0, 3.0, 3.0),  # fully disjoint
]


def dataset(seed=7, n=2500):
    rng = random.Random(seed)
    pts = [Point(rng.random(), rng.random()) for _ in range(n)]
    # out-of-extent points and exact duplicates
    pts += [
        Point(-0.2, 0.5),
        Point(1.3, 1.2),
        Point(0.5, 0.5),
        Point(0.5, 0.5),
    ]
    return pts


#: The trees probed: a fresh R-tree and a recycled one, whose nodes come
#: off its free list (``tree_states.py``).
INDEXES = {"rtree": RTree, "recycled": recycled_rtree}


def bulk_loaded(kind, points):
    index = INDEXES[kind]()
    index.bulk_load(
        [p.x for p in points], [p.y for p in points], range(len(points))
    )
    return index


def scan(live, window):
    """The ids of ``live`` (``{id: point}``) inside ``window``, sorted."""
    return sorted(i for i, p in live.items() if window.contains_point(p))


@pytest.mark.parametrize("kind", sorted(INDEXES))
class TestWindowIdsArray:
    def test_bulk_loaded_matches_window_query(self, kind):
        points = dataset()
        index = bulk_loaded(kind, points)
        for window in WINDOWS:
            expected = scan(dict(enumerate(points)), window)
            got = index.window_ids_array(window)
            assert isinstance(got, np.ndarray)
            assert got.dtype == np.int32
            assert sorted(got.tolist()) == expected
            assert sorted(i for _, i in index.window_query(window)) == expected

    def test_incrementally_built_matches_window_query(self, kind):
        points = dataset(seed=9, n=400)
        index = INDEXES[kind]()
        for i, p in enumerate(points):
            index.insert(p, i)
        for window in WINDOWS:
            expected = scan(dict(enumerate(points)), window)
            assert sorted(index.window_ids_array(window).tolist()) == expected
            assert sorted(i for _, i in index.window_query(window)) == expected

    def test_empty_index(self, kind):
        index = INDEXES[kind]()
        got = index.window_ids_array(Rect(0.0, 0.0, 1.0, 1.0))
        assert got.shape == (0,)

    def test_after_deletions(self, kind):
        points = dataset(seed=11, n=600)
        index = bulk_loaded(kind, points)
        live = dict(enumerate(points))
        rng = random.Random(13)
        for i in rng.sample(range(600), 120):
            assert index.delete(live.pop(i), i)
        for window in WINDOWS:
            assert sorted(index.window_ids_array(window).tolist()) == scan(
                live, window
            )


def test_probe_counts_index_accesses():
    """The bulk probe reports node accesses like the entry-level query."""
    index = bulk_loaded("rtree", dataset())
    before = index.stats.node_accesses
    index.window_ids_array(Rect(0.2, 0.2, 0.8, 0.8))
    assert index.stats.node_accesses > before
