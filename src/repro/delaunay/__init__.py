"""Delaunay triangulation and Voronoi diagram substrate.

The paper's method never materialises Voronoi *cells* during a query — it
only walks Voronoi *neighbour* relationships, which by Property 4 are the
edges of the Delaunay triangulation.  This package provides:

* :class:`~repro.delaunay.triangulation.DelaunayTriangulation` — an
  insertable Bowyer–Watson triangulation in int arrays, built from
  scratch on the robust predicates of :mod:`repro.geometry.predicates`.
* :class:`~repro.delaunay.voronoi.VoronoiDiagram` — the dual diagram:
  per-point cells (circumcentre polygons, clipped to a box) and the
  neighbour graph.
* :mod:`~repro.delaunay.backends` — the one neighbour backend the
  database reads and writes: built by the exact insert, adopted from
  snapshots, and growing in place.
* :mod:`~repro.delaunay.compiled` — the bulk build's insert loop in C,
  compiled on first use where a C compiler works (the interpreted loop
  builds the same graph where none does).
"""

from repro.delaunay.backends import (
    DelaunayBackend,
    PureDelaunayBackend,
    make_backend,
)
from repro.delaunay.triangulation import DelaunayTriangulation
from repro.delaunay.voronoi import VoronoiCell, VoronoiDiagram

__all__ = [
    "DelaunayTriangulation",
    "VoronoiDiagram",
    "VoronoiCell",
    "DelaunayBackend",
    "PureDelaunayBackend",
    "make_backend",
]
