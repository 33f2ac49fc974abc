"""Spatial index substrate.

The traditional area-query baseline needs a spatial index supporting
*window* (range) queries; both methods need *nearest-neighbour* queries (the
Voronoi method seeds its expansion with one).  The paper uses an R-tree for
both roles ("for fairness, the index used to provide the NN query in our
method is also R-tree"), and so does every database here:

* :class:`~repro.index.rtree.RTree` — Guttman R-tree, quadratic split,
  STR bulk load, held in numpy arrays (node boxes, child slots and leaf
  columns; no Python object per node).  It counts node accesses so
  experiments can report IO-style metrics.
* :class:`~repro.index.base.BruteForceIndex` — linear-scan oracle for the
  index tests; not a database index.
"""

from repro.index.base import BruteForceIndex, IndexStats, SpatialIndex
from repro.index.rtree import RTree

__all__ = [
    "SpatialIndex",
    "IndexStats",
    "BruteForceIndex",
    "RTree",
]
