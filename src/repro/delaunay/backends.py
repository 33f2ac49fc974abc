"""Voronoi-neighbour backends.

Algorithm 1 needs exactly one capability from the Voronoi substrate: given a
point index, enumerate its Voronoi neighbours' indices (``VN(P, p)`` in the
paper).  That capability is abstracted as :class:`DelaunayBackend` with two
implementations:

* :class:`PureDelaunayBackend` — our from-scratch Bowyer–Watson
  triangulation.  The default; no third-party geometry code involved, the
  reference the tests compare against, and the only backend that grows
  incrementally.
* :class:`ScipyDelaunayBackend` — ``scipy.spatial.Delaunay`` (Qhull).  An
  optional accelerator for the paper-scale datasets (1E5–1E6 points) where
  pure-Python construction would dominate the experiment wall-clock.

Consumers read the graph through two interfaces:

* the **CSR pair** (``indptr``, ``indices``; int64; 56 bytes a row) is what
  area queries read: Algorithm 1's expansion
  (:mod:`repro.core.voronoi_query`) gathers every wave's neighbours from
  it, and :meth:`SpatialDatabase.prepare
  <repro.core.database.SpatialDatabase.prepare>` builds exactly this.
* the **table** (``table[i]`` is row ``i``'s ascending neighbour tuple) is
  what the traversals that step one vertex at a time index: the Voronoi
  kNN walks (:mod:`repro.core.knn_query`, and through them
  ``live/delta.py``), and the batch engine's seed walks.

The Qhull backend holds **one** copy of the graph: it is born as the CSR
pair — from the store's coordinate columns to the graph there is no
Python-level loop over rows — or adopts a pair a snapshot carried
(:meth:`ScipyDelaunayBackend.from_csr`), and its table is :class:`CsrRows`,
a read-only row view over those same arrays that costs nothing to create
and one slice per row read.  Its build time is Qhull's plus a few array
passes (``bulk_build`` in ``benchmarks/bench_ablation_backend.py`` records
rows per second and bytes per row).  The pure backend owns a real ``list``
of tuples (about 350 bytes a row), built from its triangulation and
patched in place on every ``add_point``; its CSR is re-derived from the
list after a write.

The test suite asserts both produce identical neighbour sets, so the choice
is purely a build-speed knob; query traversals are byte-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.predicates import _ORIENT_ERR_BOUND, orientation_sign


class CsrRows(Sequence[Tuple[int, ...]]):
    """A CSR graph read as a table: ``rows[i]`` is row ``i``'s tuple.

    What :meth:`ScipyDelaunayBackend.neighbor_table` returns in place of
    a ``list`` of tuples: a read-only view over the backend's own
    ``indptr`` / ``indices`` arrays, so the graph is held once.  It
    behaves like the list wherever the row-at-a-time traversals touch it
    — ``len``, ``rows[i]`` (a tuple of ascending ints, as the arrays
    store them), iteration, equality with a list of tuples — and its one
    slice form, the prefix ``rows[:bound]``, is another view: O(1), where
    slicing the list copied ``bound`` pointers.
    """

    __slots__ = ("_bounds", "_flat")

    def __init__(self, indptr, indices) -> None:
        self._bounds = memoryview(indptr).toreadonly()
        self._flat = memoryview(indices).toreadonly()

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, item):
        bounds = self._bounds
        if isinstance(item, slice):
            start, stop, step = item.indices(len(bounds) - 1)
            if start != 0 or step != 1:
                raise ValueError("only a prefix rows[:bound] can be sliced")
            return CsrRows(bounds[: stop + 1], self._flat)
        if item < 0:
            item += len(bounds) - 1
            if item < 0:
                raise IndexError("row index out of range")
        return tuple(self._flat[bounds[item] : bounds[item + 1]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (CsrRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            row == theirs for row, theirs in zip(self, other)
        )


class DelaunayBackend(ABC):
    """Provides Voronoi-neighbour lookups over a fixed point set."""

    @abstractmethod
    def neighbors(self, index: int) -> Tuple[int, ...]:
        """Indices of the Voronoi neighbours of point ``index``."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of points the backend was built over."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Registry name of the backend."""

    def neighbor_table(self) -> Sequence[Tuple[int, ...]]:
        """Dense ``index -> neighbours`` table (made on first use, cached).

        For the traversals that visit one vertex at a time (the kNN heap
        walk, seed walks): indexing a sequence is measurably cheaper than
        a :meth:`neighbors` call per point.  A ``list`` of tuples here;
        the Qhull backend answers with a :class:`CsrRows` view of its
        CSR arrays.  Area queries read :meth:`neighbor_csr` and never
        ask for this.
        """
        cached = getattr(self, "_neighbor_table", None)
        if cached is None:
            cached = self._neighbor_table = self._build_neighbor_table()
        return cached

    def _build_neighbor_table(self) -> Sequence[Tuple[int, ...]]:
        return [self.neighbors(i) for i in range(self.size)]

    def neighbor_csr(self):
        """The neighbour table in CSR form: ``(indptr, indices)`` int64.

        Point ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]``.
        The columnar BFS (:mod:`repro.core.voronoi_query`) expands whole
        frontier waves with array gathers over these, instead of one
        Python loop iteration per (candidate, neighbour) pair, and
        :meth:`SpatialDatabase.prepare
        <repro.core.database.SpatialDatabase.prepare>` forces exactly
        this form.  Cached;
        rebuilt automatically when the backend has grown since the cache
        was taken (:meth:`PureDelaunayBackend.add_point` patches the
        dense table in place, so size is the invalidation signal).
        """
        cached = getattr(self, "_neighbor_csr", None)
        if cached is not None and cached[2] == self.size:
            return cached[0], cached[1]
        table = self.neighbor_table()
        indptr = np.zeros(len(table) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, table), dtype=np.int64, count=len(table)),
            out=indptr[1:],
        )
        indices = np.fromiter(
            chain.from_iterable(table), dtype=np.int64, count=int(indptr[-1])
        )
        self._neighbor_csr = (indptr, indices, self.size)
        return indptr, indices


class PureDelaunayBackend(DelaunayBackend):
    """Neighbour lookups from :class:`repro.delaunay.DelaunayTriangulation`.

    The only backend supporting **incremental growth**: :meth:`add_point`
    inserts one point and patches the cached neighbour table locally, so a
    live database can absorb inserts without rebuilding its Voronoi
    structure (the scipy backend must rebuild).
    """

    def __init__(self, points: Sequence[Point]) -> None:
        from repro.delaunay.triangulation import DelaunayTriangulation

        self._triangulation = DelaunayTriangulation(points)
        self._size = len(points)

    def neighbors(self, index: int) -> Tuple[int, ...]:
        return self._triangulation.neighbors(index)

    def add_point(self, point: Point) -> int:
        """Insert ``point`` incrementally; returns its new index.

        Raises :class:`ValueError` when the point falls too far outside the
        original extent for safe incremental insertion (rebuild instead).
        """
        result = self._triangulation.add_point(point)
        self._size += 1
        table = getattr(self, "_neighbor_table", None)
        if table is not None:
            table.append(())  # placeholder for the new index
            for index in result.affected:
                table[index] = self._triangulation.neighbors(index)
        return result.index

    @property
    def size(self) -> int:
        return self._size

    @property
    def name(self) -> str:
        return "pure"

    @property
    def triangulation(self):
        """The underlying :class:`DelaunayTriangulation` (for the dual)."""
        return self._triangulation


class ScipyDelaunayBackend(DelaunayBackend):
    """Neighbour lookups from ``scipy.spatial.Delaunay`` (optional).

    **Array-born**: the coordinates are read as two float64 columns
    (straight from the store when ``points`` is its view — no ``Point``
    is built), every step from there to the graph is a whole-array
    operation, and the result *is* the CSR pair :meth:`neighbor_csr`
    returns (int64, rows ascending).  :meth:`neighbors` reads a slice of
    it and :meth:`neighbor_table` is a :class:`CsrRows` view of it: the
    graph is held once.  Qhull's structures are gone before the constructor
    returns and nothing of the input's size is held across its run, so
    the build peaks at Qhull's own memory.

    Duplicate points are collapsed before triangulating (Qhull rejects
    duplicates); aliases share the canonical point's neighbourhood and are
    linked to it at distance zero, mirroring the pure backend's semantics.
    Fewer than three distinct locations, or all of them on one line, have
    no triangulation: they are chained along the line, as the pure backend
    does.  Any other Qhull failure is raised, never answered with a guess.
    """

    def __init__(self, points: Sequence[Point]) -> None:
        try:
            from scipy import sparse
        except ImportError as error:  # pragma: no cover - env without scipy
            raise ImportError(
                "the 'scipy' backend needs scipy installed; use the 'pure' "
                "backend instead"
            ) from error

        xs, ys = _coordinate_columns(points)
        self._size = size = len(xs)
        if size == 0:
            raise ValueError("backend needs at least one point")

        # Collapse duplicates: a stable sort puts the copies of a location
        # side by side, lowest row first, and that row is the canonical one.
        order = np.lexsort((ys, xs))
        sorted_xs, sorted_ys = xs[order], ys[order]
        first = np.ones(size, dtype=bool)
        first[1:] = (sorted_xs[1:] != sorted_xs[:-1]) | (
            sorted_ys[1:] != sorted_ys[:-1]
        )
        if first.all():
            # Qhull's transient is the build's memory peak: the sort's
            # columns must not sit underneath it.
            del order, sorted_xs, sorted_ys, first
            graph = _distinct_point_graph(xs, ys)
        else:
            # Qhull sees the canonical rows in ascending row order.
            lowest_copy = np.empty(size, dtype=np.int64)
            lowest_copy[order] = order[first][np.cumsum(first) - 1]
            canonical, location = np.unique(lowest_copy, return_inverse=True)
            # Same clique semantics as the pure backend: all copies of a
            # location are mutually adjacent (the identity term, minus the
            # row itself), inherit the full spatial neighbourhood, and
            # appear in their spatial neighbours' rows.
            copies = sparse.csr_matrix(
                (np.ones(size, dtype=np.int8), (np.arange(size), location))
            )
            graph = _distinct_point_graph(xs[canonical], ys[canonical])
            loops = sparse.identity(len(canonical), dtype=np.int8, format="csr")
            graph = copies @ (graph + loops) @ copies.T
            graph.setdiag(0)
            graph.eliminate_zeros()

        graph.sort_indices()
        self._neighbor_csr = (
            graph.indptr.astype(np.int64),
            graph.indices.astype(np.int64),
            size,
        )

    @classmethod
    def from_csr(cls, indptr, indices) -> "ScipyDelaunayBackend":
        """Adopt a graph this class built earlier, e.g. one a snapshot kept.

        ``indptr`` / ``indices`` are what :meth:`neighbor_csr` returned
        for the same rows (contiguous int64, rows ascending) and are
        kept, not copied.  Nothing is checked here — the caller vouches
        for them (:func:`repro.io.persist.load_database` validates what
        it read) — and neither Qhull nor scipy is touched.
        """
        backend = cls.__new__(cls)
        backend._size = len(indptr) - 1
        backend._neighbor_csr = (indptr, indices, backend._size)
        return backend

    def _build_neighbor_table(self) -> CsrRows:
        indptr, indices, _ = self._neighbor_csr
        return CsrRows(indptr, indices)

    def neighbors(self, index: int) -> Tuple[int, ...]:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"point index {index} out of range")
        indptr, indices, _ = self._neighbor_csr
        return tuple(indices[indptr[index] : indptr[index + 1]].tolist())

    @property
    def size(self) -> int:
        return self._size

    @property
    def name(self) -> str:
        return "scipy"


def _coordinate_columns(points: Sequence[Point]):
    """``points`` as two float64 columns.

    A store view (:meth:`repro.core.store.PointsView.columns`) hands over
    its columns as they are; only a plain sequence of points is read row
    by row.
    """
    columns = getattr(points, "columns", None)
    if columns is not None:
        return columns()
    count = len(points)
    return (
        np.fromiter((p.x for p in points), dtype=np.float64, count=count),
        np.fromiter((p.y for p in points), dtype=np.float64, count=count),
    )


def _distinct_point_graph(xs, ys):
    """Delaunay adjacency of distinct points, as a ``scipy.sparse`` CSR."""
    from scipy import sparse
    from scipy.spatial import Delaunay, QhullError

    count = len(xs)
    if count >= 3:
        try:
            # The Delaunay object lives no longer than this statement.
            indptr, indices = Delaunay(
                np.column_stack((xs, ys))
            ).vertex_neighbor_vertices
        except QhullError:
            if not _all_collinear(xs, ys):
                raise
        else:
            ones = np.ones(len(indices), dtype=np.int8)
            return sparse.csr_matrix(
                (ones, indices, indptr), shape=(count, count)
            )
    # No triangle exists: chain the points along their line, which is the
    # true Voronoi adjacency and the pure backend's fallback.
    order = np.lexsort((ys, xs))
    ones = np.ones(2 * (count - 1), dtype=np.int8)
    ends = (np.r_[order[:-1], order[1:]], np.r_[order[1:], order[:-1]])
    return sparse.csr_matrix((ones, ends), shape=(count, count))


def _all_collinear(xs, ys) -> bool:
    """Whether every point lies exactly on the line through the two extremes.

    One array cross product settles the common case: a value beyond the
    orientation predicate's error bound has a trustworthy non-zero sign.
    Only when every point is within the bound are they re-answered by the
    exact predicate itself.
    """
    low, high = np.lexsort((ys, xs))[[0, -1]]
    ax, ay, bx, by = (float(v) for v in (xs[low], ys[low], xs[high], ys[high]))
    left = (ax - xs) * (by - ys)
    right = (ay - ys) * (bx - xs)
    bound = _ORIENT_ERR_BOUND * (np.abs(left) + np.abs(right))
    if (np.abs(left - right) > bound).any():
        return False
    return all(
        orientation_sign(ax, ay, bx, by, x, y) == 0.0
        for x, y in zip(xs.tolist(), ys.tolist())
    )


BACKEND_REGISTRY = {
    "pure": PureDelaunayBackend,
    "scipy": ScipyDelaunayBackend,
}


def make_backend(
    kind: str, points: Sequence[Point], **kwargs
) -> DelaunayBackend:
    """Instantiate a neighbour backend by name (``pure`` or ``scipy``)."""
    try:
        cls = BACKEND_REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown backend {kind!r}; choose from {sorted(BACKEND_REGISTRY)}"
        ) from None
    return cls(points, **kwargs)
