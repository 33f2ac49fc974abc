"""The Voronoi-neighbour backend: one graph, one lifecycle.

Algorithm 1 needs one capability from the Voronoi substrate: a point's
Voronoi neighbours (``VN(P, p)`` in the paper).  :class:`DelaunayBackend`
provides it, and is the one place the graph is built, adopted and changed.
Consumers read it in two forms:

* the **CSR pair** (``indptr``, ``indices``; int32; 28 bytes a row), which
  Algorithm 1's expansion (:mod:`repro.core.voronoi_query`) gathers whole
  waves from and :meth:`SpatialDatabase.prepare
  <repro.core.database.SpatialDatabase.prepare>` builds;
* the **table** (``table[i]`` is row ``i``'s ascending tuple), which the
  walks that step one vertex at a time index — the Voronoi kNN
  (:mod:`repro.core.knn_query`, and through it ``live/delta.py``) and the
  greedy seed correction past tombstones.  It is a :class:`CsrRows` view,
  never a copy.

Lifecycle:

* **Build.**  The coordinate columns go to
  :func:`~repro.delaunay.triangulation.bulk_graph`: exact inserts in
  Hilbert-curve order, compiled on first use where a C compiler works
  (:mod:`repro.delaunay.compiled`) and interpreted where none does, the
  same graph either way.  The backend is born as the CSR pair; no
  triangle outlives the build.
* **Adoption.**  :meth:`DelaunayBackend.from_csr` takes the pair a
  snapshot carried, and builds nothing.
* **Reads.**  A database that is never written holds the CSR pair and
  nothing else.
* **Writes.**  The first :meth:`DelaunayBackend.add_point` derives the
  triangulation's int arrays from the pair and the coordinates
  (:meth:`DelaunayTriangulation.from_graph
  <repro.delaunay.triangulation.DelaunayTriangulation.from_graph>`); each
  insert then patches triangles and changed rows in O(cavity), and the
  pair is re-packed from the rows on the next :meth:`DelaunayBackend.neighbor_csr`.
  Nothing is ever rebuilt.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.delaunay.triangulation import (
    DelaunayTriangulation,
    _coordinate_columns,
    bulk_graph,
)
from repro.geometry.point import Point

#: What ``backend_kind=`` may say.  Both names give the one backend; the
#: keyword selects nothing and stays accepted for old callers and snapshots.
_KINDS = ("pure", "scipy")


class CsrRows(Sequence[Tuple[int, ...]]):
    """A neighbour graph read as a table: ``rows[i]`` is row ``i``'s tuple.

    Row ``i`` is ``flat[start[i]:stop[i]]`` — over a packed CSR pair
    (:meth:`of`, read-only views of its arrays) or a triangulation's live
    row storage.  It behaves like a list of tuples wherever the walks touch
    it (``len``, ``rows[i]``, iteration, equality with a list), and its one
    slice form, the prefix ``rows[:bound]``, **freezes** the first
    ``bound`` rows: over a CSR pair in O(1), since no write touches those
    arrays; over live rows by copying ``start`` / ``stop`` and sharing
    ``flat``, whose entries inserts never overwrite.
    """

    __slots__ = ("_start", "_stop", "_flat")

    def __init__(self, start, stop, flat) -> None:
        self._start, self._stop, self._flat = start, stop, flat

    @classmethod
    def of(cls, indptr, indices) -> "CsrRows":
        """Read-only rows over a packed CSR pair, without copying it."""
        bounds = memoryview(indptr).toreadonly()
        return cls(bounds[:-1], bounds[1:], memoryview(indices).toreadonly())

    def __len__(self) -> int:
        return len(self._start)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self._start))
            if start != 0 or step != 1:
                raise ValueError("only a prefix rows[:bound] can be sliced")
            return CsrRows(self._start[:stop], self._stop[:stop], self._flat)
        return tuple(self._flat[self._start[item] : self._stop[item]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CsrRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(row == theirs for row, theirs in zip(self, other))


class DelaunayBackend:
    """The Voronoi neighbour graph of a point table (see the module docstring).

    ``points`` is a sequence of :class:`Point` or a store view, whose
    coordinate columns are read without building a ``Point``.  Copies of a
    location form a clique that shares the location's neighbourhood.
    """

    def __init__(self, points: Sequence[Point]) -> None:
        self._csr = bulk_graph(*_coordinate_columns(points))  # ValueError if empty
        self._points = points
        self._triangulation = None

    @classmethod
    def from_csr(cls, indptr, indices, points: Sequence[Point]) -> "DelaunayBackend":
        """Adopt a pair :meth:`neighbor_csr` returned for the rows of
        ``points``, e.g. one a snapshot kept, without copying or checking
        it (:func:`repro.io.persist.load_database` validates what it read)
        and without building anything.  ``points`` is read only if
        the backend is written to."""
        backend = cls.__new__(cls)
        backend._points, backend._csr, backend._triangulation = points, (indptr, indices), None
        return backend

    @property
    def size(self) -> int:
        """Number of rows the graph covers."""
        if self._triangulation is not None:
            return len(self._triangulation)
        return len(self._csr[0]) - 1

    def neighbor_csr(self):
        """The graph as the CSR pair ``(indptr, indices)``, int32 (28 bytes
        a row): row ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]``.
        After writes it is re-packed from the rows, then cached until the next."""
        if self._csr is None:
            self._csr = self._triangulation.csr()
        return self._csr

    def neighbor_table(self) -> CsrRows:
        """The graph as a :class:`CsrRows` table, made in O(1) per call;
        its prefix ``[:bound]`` pins the graph as it is now for a reader
        that outlives later writes."""
        if self._triangulation is not None:
            return CsrRows(*self._triangulation.rows())
        return CsrRows.of(*self._csr)

    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Indices of the Voronoi neighbours of point ``index``."""
        size = self.size
        if not -size <= index < size:
            raise IndexError(f"point index {index} out of range")
        return self.neighbor_table()[index]

    @property
    def triangulation(self) -> DelaunayTriangulation:
        """The insertable triangulation, derived from the graph on first use."""
        if self._triangulation is None:
            xs, ys = _coordinate_columns(self._points)
            size = self.size
            self._triangulation = DelaunayTriangulation.from_graph(
                xs[:size], ys[:size], *self._csr
            )
            self._points = None
        return self._triangulation

    def add_point(self, point: Point) -> int:
        """Insert ``point`` as the next row; returns its index."""
        index = self.triangulation.add_point(point)
        self._csr = None
        return index


# The span target perfbench times as ``delaunay.add_point`` (ROADMAP item 8
# brings that attribution inside and lets this name go).
PureDelaunayBackend = DelaunayBackend


def make_backend(kind: str, points: Sequence[Point]) -> DelaunayBackend:
    """Build the neighbour backend over ``points``.  ``kind`` is ``"pure"``
    or ``"scipy"`` and selects nothing (there is one backend); any other
    name raises :class:`ValueError`."""
    if kind not in _KINDS:
        raise ValueError(f"unknown backend {kind!r}; choose from {sorted(_KINDS)}")
    return DelaunayBackend(points)
