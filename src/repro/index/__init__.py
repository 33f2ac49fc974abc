"""Spatial index substrate.

The traditional area-query baseline needs a spatial index supporting
*window* (range) queries; both methods need *nearest-neighbour* queries (the
Voronoi method seeds its expansion with one).  The paper uses an R-tree for
both roles ("for fairness, the index used to provide the NN query in our
method is also R-tree"), and so does every database here:

* :class:`~repro.index.rtree.RTree` — Guttman R-tree, quadratic split,
  columnar leaves (the paper's index, the default).
* :class:`~repro.index.rstar.RStarTree` — R*-tree split/forced-reinsert
  variant on the same leaf columns (used by the index-choice ablation:
  a better-shaped tree does not shrink the MBR candidate set).
* :class:`~repro.index.base.BruteForceIndex` — linear-scan oracle for the
  index tests; not a database index kind.

Both trees count node accesses so experiments can report IO-style metrics.
"""

from repro.index.base import BruteForceIndex, IndexStats, SpatialIndex
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree

__all__ = [
    "SpatialIndex",
    "IndexStats",
    "BruteForceIndex",
    "RTree",
    "RStarTree",
]

INDEX_REGISTRY = {
    "rtree": RTree,
    "rstar": RStarTree,
}


def make_index(kind: str) -> RTree:
    """An empty index of registry name ``kind`` (see ``INDEX_REGISTRY``)."""
    try:
        cls = INDEX_REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; choose from "
            f"{sorted(INDEX_REGISTRY)}"
        ) from None
    return cls()
