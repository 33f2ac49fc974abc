"""The index interface, plus the brute-force oracle the trees are tested against.

An index stores ``(point, item_id)`` entries.  ``item_id`` is an opaque
integer — in :class:`repro.core.database.SpatialDatabase` it is the row id of
the point — and duplicates of the same location with different ids are
allowed.  Every implementation keeps an :class:`IndexStats` counter block so
the experiment harness can report index node accesses alongside wall time.

:data:`Entry` — the ``(Point, id)`` tuple — is the type of the *interface*:
what ``insert`` / ``delete`` take and what ``window_query``, the
nearest-neighbour searches and ``items`` hand out.  It says nothing about
storage: the R-tree (:mod:`repro.index.rtree`) keeps coordinate and id
arrays in its leaf table, is bulk-loaded from ``(xs, ys, ids)`` columns and
builds entries only on the way out.  The columnar hot paths avoid entries
altogether through :meth:`SpatialIndex.window_ids_array`.

The interface is what both paper methods and the planner read:

* :meth:`SpatialIndex.window_ids_array` — the *filter* step of the
  traditional baseline (called with the query polygon's MBR);
  :meth:`SpatialIndex.window_query` is its entry-level twin, which the
  tests' textbook filter–refine loop reads;
* :meth:`SpatialIndex.nearest_neighbor` — the Voronoi method's seed lookup
  (Property 3 of the paper);
* :meth:`SpatialIndex.k_nearest_neighbors` — the index kNN method;
* :attr:`SpatialIndex.bounds` — the data extent the planner scores by;
* ``insert`` / ``delete`` — maintenance, so the dynamic workload tests can
  exercise mixed read/write traffic.

:class:`BruteForceIndex` implements it by scanning a list; the tests in
``tests/index/`` compare the R-tree against it on identical workloads.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect

Entry = Tuple[Point, int]

#: The one row-id dtype inside a process: the R-tree's leaf ids, every
#: probe's id array, the Voronoi expansion and a held result record's ids.
#: Row ids stay far below its range (a graph holds at most ``MAX_ROWS``,
#: about 3.6E8, rows); the wire and the cluster's global maps stay int64.
ID_DTYPE = np.dtype(np.int32)
_ID_RANGE = np.iinfo(ID_DTYPE)


def check_id(item_id: int) -> None:
    """Raise :class:`ValueError` unless ``item_id`` fits :data:`ID_DTYPE`."""
    if not _ID_RANGE.min <= item_id <= _ID_RANGE.max:
        raise ValueError(f"id {item_id} is outside the int32 range of row ids")


def id_array(ids) -> np.ndarray:
    """``ids`` as an :data:`ID_DTYPE` array: an int32 array is returned
    as it is, anything else (an int sequence, a wider array) converted
    once.  An id outside the int32 range raises :class:`ValueError`; none
    is ever wrapped."""
    if isinstance(ids, np.ndarray) and ids.dtype == ID_DTYPE:
        return ids
    try:
        wide = np.asarray(ids, dtype=np.int64)
    except OverflowError as error:
        raise ValueError(f"an id is outside the int32 range of row ids: {error}") from None
    if wide.size:
        check_id(int(wide.min()))
        check_id(int(wide.max()))
    return wide.astype(ID_DTYPE)


@dataclass
class IndexStats:
    """Access counters, reset per query by the callers that care.

    ``node_accesses`` counts internal/leaf node visits (an IO proxy: in a
    disk-resident index each visit is a page read).  ``entry_tests`` counts
    point-level geometric comparisons inside visited leaves.
    """

    node_accesses: int = 0
    entry_tests: int = 0

    def reset(self) -> None:
        """Zero all counters (callers scope them per query)."""
        self.node_accesses = 0
        self.entry_tests = 0

    def snapshot(self) -> "IndexStats":
        """An independent copy of the current counter values."""
        return IndexStats(self.node_accesses, self.entry_tests)


class SpatialIndex(ABC):
    """Abstract base for point indexes with window and NN queries."""

    def __init__(self) -> None:
        self.stats = IndexStats()

    # -- maintenance -------------------------------------------------------

    @abstractmethod
    def insert(self, point: Point, item_id: int) -> None:
        """Add one entry."""

    @abstractmethod
    def delete(self, point: Point, item_id: int) -> bool:
        """Remove one entry; returns ``True`` if it was present."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    # -- queries -----------------------------------------------------------

    @abstractmethod
    def window_query(self, window: Rect) -> List[Entry]:
        """All entries whose point lies in the closed rectangle ``window``."""

    @abstractmethod
    def window_ids_array(self, window: Rect) -> np.ndarray:
        """Item ids of every entry inside ``window`` as an int32 array.

        The bulk-probe sibling of :meth:`window_query` for the columnar
        hot paths: callers gather candidate *coordinates* from the
        :class:`~repro.core.store.PointStore` columns by these row ids
        and refine with the vectorized kernels, so the ``(Point, id)``
        entry tuples never materialize.  Order is unspecified; the id
        *set* is always identical to ``window_query``'s.
        """

    @abstractmethod
    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        """The entry closest to ``query`` (``None`` on an empty index).

        This seeds the Voronoi method: by Property 3 of the paper, the NN of
        any position inside the query area is an internal or boundary point.
        """

    @abstractmethod
    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        """The ``k`` entries closest to ``query``, nearest first.

        Equidistant entries come back in ascending id order, so answers
        compare verbatim across implementations.
        """

    @abstractmethod
    def items(self) -> Iterator[Entry]:
        """Iterate over every stored entry (order unspecified)."""

    @property
    @abstractmethod
    def bounds(self) -> Optional[Rect]:
        """MBR of all stored points (``None`` when empty)."""


class BruteForceIndex(SpatialIndex):
    """Linear-scan reference implementation.

    Correct by inspection; the trees are tested for query-result equality
    against this one.
    """

    def __init__(self) -> None:
        super().__init__()
        self._entries: List[Entry] = []

    def insert(self, point: Point, item_id: int) -> None:
        self._entries.append((point, item_id))

    def delete(self, point: Point, item_id: int) -> bool:
        try:
            self._entries.remove((point, item_id))
        except ValueError:
            return False
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def window_query(self, window: Rect) -> List[Entry]:
        self.stats.node_accesses += 1
        self.stats.entry_tests += len(self._entries)
        return [
            (point, item_id)
            for point, item_id in self._entries
            if window.contains_point(point)
        ]

    def window_ids_array(self, window: Rect) -> np.ndarray:
        return np.array(
            [item_id for _, item_id in self.window_query(window)],
            dtype=ID_DTYPE,
        )

    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        results = self.k_nearest_neighbors(query, 1)
        return results[0] if results else None

    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        if k <= 0:
            return []
        self.stats.node_accesses += 1
        self.stats.entry_tests += len(self._entries)
        heap = heapq.nsmallest(
            k,
            (
                (point.squared_distance_to(query), item_id, point)
                for point, item_id in self._entries
            ),
            key=lambda t: (t[0], t[1]),
        )
        return [(point, item_id) for _, item_id, point in heap]

    def items(self) -> Iterator[Entry]:
        return iter(list(self._entries))

    @property
    def bounds(self) -> Optional[Rect]:
        if not self._entries:
            return None
        return Rect.from_points(point for point, _ in self._entries)
