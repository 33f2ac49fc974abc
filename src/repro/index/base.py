"""Common interface for all spatial indexes, plus the brute-force oracle.

An index stores ``(point, item_id)`` entries.  ``item_id`` is an opaque
integer — in :class:`repro.core.database.SpatialDatabase` it is the row id of
the point — and duplicates of the same location with different ids are
allowed.  All implementations keep an :class:`IndexStats` counter block so
the experiment harness can report index node accesses alongside wall time.

:data:`Entry` — the ``(Point, id)`` tuple — is the type of the *interface*:
what ``insert`` / ``delete`` take and what ``window_query``, the
nearest-neighbour searches and ``items`` hand out.  It says nothing about
storage.  The R-tree family keeps coordinate and id arrays in its leaves and
builds entries only on the way out (:mod:`repro.index.rtree`); its
``bulk_load`` also accepts a source offering ``columns()`` and then never
sees a ``Point``.  The k-d tree, quadtree and grid store the tuples
themselves.  The columnar hot paths avoid entries altogether through
:meth:`SpatialIndex.window_ids_array`.

The interface is the minimum both paper methods need:

* :meth:`SpatialIndex.window_query` — the *filter* step of the traditional
  baseline (called with the query polygon's MBR);
* :meth:`SpatialIndex.nearest_neighbor` — the Voronoi method's seed lookup
  (Property 3 of the paper);
* :meth:`SpatialIndex.k_nearest_neighbors` — used by the kNN ablation;
* ``insert`` / ``delete`` / ``bulk_load`` — maintenance, so the dynamic
  workload tests can exercise mixed read/write traffic.

Implementations are interchangeable: :func:`repro.index.make_index` builds
any registered kind by name, and the equality tests in ``tests/index/``
compare every implementation's query results against
:class:`BruteForceIndex` on identical workloads.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect

Entry = Tuple[Point, int]


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

    # -- construction ------------------------------------------------------

    @abstractmethod
    def insert(self, point: Point, item_id: int) -> None:
        """Add one entry."""

    def bulk_load(self, entries: Iterable[Entry]) -> None:
        """Load many entries.

        The default is repeated insertion; subclasses may override with a
        packing algorithm (see :meth:`repro.index.rtree.RTree.bulk_load`).
        ``entries`` need only iterate as ``(Point, id)`` pairs — the
        database passes its store's
        :class:`~repro.core.store.RowEntries`, which does, and which
        array-packing loaders read as columns instead.
        """
        for point, item_id in entries:
            self.insert(point, item_id)

    @abstractmethod
    def delete(self, point: Point, item_id: int) -> bool:
        """Remove one entry; returns ``True`` if it was present."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    # -- queries -----------------------------------------------------------

    @abstractmethod
    def window_query(self, window: Rect) -> List[Entry]:
        """All entries whose point lies in the closed rectangle ``window``.

        This is the *filter* step of the traditional area query: called with
        the query polygon's MBR it returns the traditional candidate set.
        """

    def window_ids_array(self, window: Rect):
        """Item ids of every entry inside ``window`` as an int64 array.

        The bulk-probe sibling of :meth:`window_query` for the columnar
        hot paths: callers gather candidate *coordinates* from the
        :class:`~repro.core.store.PointStore` columns by these row ids
        and refine with the vectorized kernels, so the ``(Point, id)``
        entry tuples never materialize.  Order is unspecified; the id
        *set* is always identical to ``window_query``'s.

        This default is the scalar fallback (one :meth:`window_query`,
        ids repacked); the tree and grid indexes override it with
        traversals that emit fully-contained subtrees/buckets without
        per-entry containment tests.
        """
        import numpy as np

        entries = self.window_query(window)
        return np.fromiter(
            (item_id for _, item_id in entries),
            dtype=np.int64,
            count=len(entries),
        )

    @abstractmethod
    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        """The entry closest to ``query`` (``None`` on an empty index).

        This seeds the Voronoi method: by Property 3 of the paper, the NN of
        any position inside the query area is an internal or boundary point.
        """

    def k_nearest_neighbors(self, query: Point, k: int) -> List[Entry]:
        """The ``k`` entries closest to ``query``, nearest first.

        Default implementation repeatedly extends a best-first search; the
        tree indexes override this with a single heap traversal.
        """
        if k <= 0:
            return []
        scored = [
            (point.squared_distance_to(query), item_id, point)
            for point, item_id in self.items()
        ]
        scored.sort(key=lambda t: (t[0], t[1]))
        return [(point, item_id) for _, item_id, point in scored[:k]]

    @abstractmethod
    def items(self) -> Iterator[Entry]:
        """Iterate over every stored entry (order unspecified)."""

    # -- conveniences ------------------------------------------------------

    def count_in_window(self, window: Rect) -> int:
        """Number of entries inside ``window``."""
        return self.window_count(window)

    def window_count(self, window: Rect) -> int:
        """Number of entries inside ``window``.

        Default implementation materialises the window query; tree indexes
        maintaining subtree weights override this with an aggregate-only
        traversal (see :meth:`repro.index.rtree.RTree.window_count`).
        """
        return len(self.window_query(window))

    @property
    def bounds(self) -> Optional[Rect]:
        """MBR of all stored points (``None`` when empty).

        This default visits every entry; an index that maintains its
        extent overrides it (:attr:`repro.index.rtree.RTree.bounds` is
        the root MBR, O(1)).
        """
        points = [point for point, _ in self.items()]
        if not points:
            return None
        return Rect.from_points(points)


class BruteForceIndex(SpatialIndex):
    """Linear-scan reference implementation.

    Correct by inspection; every other index is tested for query-result
    equality against this one.  Also usable as a no-index baseline in
    ablation benchmarks.
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

    def nearest_neighbor(self, query: Point) -> Optional[Entry]:
        self.stats.node_accesses += 1
        self.stats.entry_tests += len(self._entries)
        best: Optional[Entry] = None
        best_distance = float("inf")
        for point, item_id in self._entries:
            distance = point.squared_distance_to(query)
            if distance < best_distance:
                best_distance = distance
                best = (point, item_id)
        return best

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


def validate_entries(entries: Sequence[Entry]) -> None:
    """Raise :class:`TypeError`/:class:`ValueError` on malformed entries.

    Used by index constructors that accept user-supplied bulk loads.
    """
    for entry in entries:
        if len(entry) != 2:
            raise ValueError(f"entry must be (Point, id), got {entry!r}")
        point, item_id = entry
        if not isinstance(point, Point):
            raise TypeError(f"entry point must be a Point, got {type(point)}")
        if not isinstance(item_id, int):
            raise TypeError(f"entry id must be an int, got {type(item_id)}")
