"""R-trees in the states a long-lived one reaches, for tests to start from.

A fresh :class:`~repro.index.rtree.RTree` takes every node row it grows
from the end of its tables.  One that has served inserts and deletes
takes them from its free list first: the rows of nodes that CondenseTree
dissolved, or of roots the tree shrank away.  :func:`recycled_rtree`
hands out an empty tree in that second state, with the constructor's
signature, so a test parametrized over ``[RTree, recycled_rtree]`` runs
its case on both.
"""

import random

from repro.geometry.point import Point
from repro.index.rtree import RTree

#: Rows inserted and deleted again before a recycled tree is handed out:
#: at the default 16 entries a root over 13 leaves, at 4 a tree of five
#: levels.
CHURN_ROWS = 160


def recycled_rtree(max_entries=16, min_entries=None):
    """An empty R-tree whose next nodes come off its free list.

    :data:`CHURN_ROWS` rows with negative ids are inserted, then deleted
    in shuffled order, so its tables have grown by doubling, its root is
    a reused row, and the nodes it grows next reuse dissolved nodes' rows
    until the free list runs dry.  Its counters start at zero.
    """
    tree = RTree(max_entries=max_entries, min_entries=min_entries)
    rng = random.Random(max_entries)
    rows = [
        (Point(rng.random(), rng.random()), -1 - i) for i in range(CHURN_ROWS)
    ]
    for point, item_id in rows:
        tree.insert(point, item_id)
    rng.shuffle(rows)
    for point, item_id in rows:
        assert tree.delete(point, item_id)
    assert len(tree) == 0 and tree._free[True]
    tree.stats.reset()
    return tree
