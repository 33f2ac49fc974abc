"""Columnar point storage: the database's point table as numpy columns.

:class:`PointStore` keeps the coordinates of every stored row in two
contiguous ``float64`` arrays (``xs``/``ys``, row id = array index) with
amortized-O(1) append and bulk extension.  Everything *above* the store
speaks arrays on its hot paths — the vectorized refinement kernels
(:mod:`repro.geometry.kernels`), the bulk index probes
(:meth:`repro.index.base.SpatialIndex.window_ids_array`) and Algorithm
1's waves all gather coordinates straight from these columns by row id —
while :class:`~repro.geometry.point.Point` objects are materialized only
at API edges (:meth:`PointStore.point`, :meth:`PointStore.view`).

Design rules:

* **Append-only columns.**  Row ids are stable forever — deletes are
  *logical* (a tombstone entry in :attr:`deleted_rows`), never physical,
  so the lazily-materialized :class:`PointsView` never invalidates —
  already-built ``Point`` objects stay valid across any number of later
  inserts and deletes.
* **Version stamps.**  Every mutation (append *and* delete) bumps
  :attr:`PointStore.version`; the engine's result cache stamps entries
  with it, so mutations implicitly invalidate cached query results.
* **Zero-copy edges.**  :attr:`xs`/:attr:`ys` are read-only views of the
  filled prefix (no copy); :meth:`as_xy` hands snapshots
  (:mod:`repro.io.persist`) an ``(n, 2)`` array built with one numpy
  stack — no per-point Python conversion in either direction
  (:meth:`extend_array` is the loading mirror).
* **MVCC snapshots.**  :meth:`snapshot` captures an O(1)
  :class:`StoreSnapshot` — the admission-time row-id horizon plus a
  visibility predicate over the (append-only) tombstone map — so lazy
  readers such as the server's chunked streams keep seeing exactly the
  version that was current when they started, while writers append and
  delete underneath them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Sequence, Tuple, Union, overload

import numpy as np

from repro.geometry.point import Point

#: Initial column capacity of a store that grows from empty.
_INITIAL_CAPACITY = 64


class PointStore:
    """Contiguous ``float64`` coordinate columns with stable row ids.

    The single source of truth for the database's point table.  Rows are
    appended (never physically removed), so a row id handed out once
    stays valid for the lifetime of the store; :meth:`delete` only marks
    a row as a tombstone, keeping its coordinates addressable for the
    Delaunay graph (deleted rows stay as transit vertices) and for any
    snapshot readers admitted before the delete.
    """

    __slots__ = (
        "_xs",
        "_ys",
        "_dead",
        "_size",
        "_version",
        "_deleted_at",
        "_n_deleted",
        "_materialized",
        "_view",
    )

    def __init__(self) -> None:
        self._xs = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._ys = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._dead = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._size = 0
        self._version = 0
        #: append-only tombstone map: row id -> version at deletion
        self._deleted_at: Dict[int, int] = {}
        self._n_deleted = 0
        #: lazily-built Point objects for rows [0, len(_materialized))
        self._materialized: List[Point] = []
        self._view = PointsView(self)

    # -- capacity ----------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Grow the columns geometrically to fit ``extra`` more rows."""
        needed = self._size + extra
        capacity = self._xs.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_xs", "_ys"):
            column = getattr(self, name)
            grown = np.empty(capacity, dtype=np.float64)
            grown[: self._size] = column[: self._size]
            setattr(self, name, grown)
        dead = np.zeros(capacity, dtype=bool)
        dead[: self._size] = self._dead[: self._size]
        self._dead = dead

    # -- mutation ----------------------------------------------------------

    def append(self, x: float, y: float) -> int:
        """Add one row; returns its (stable) row id.

        Raises :class:`ValueError` on non-finite coordinates *before*
        any state changes — a rejected append leaves the store (size,
        version, columns) bit-identical.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinate ({x!r}, {y!r})")
        self._reserve(1)
        row_id = self._size
        self._xs[row_id] = x
        self._ys[row_id] = y
        self._size = row_id + 1
        self._version += 1
        return row_id

    def extend_points(self, points: Sequence[Point]) -> range:
        """Add many :class:`Point` rows; returns their row-id range.

        Validation is atomic: every coordinate is checked finite before
        the first row is committed, so a rejected batch changes nothing.
        """
        count = len(points)
        return self.extend_array(
            np.fromiter((p.x for p in points), dtype=np.float64, count=count),
            np.fromiter((p.y for p in points), dtype=np.float64, count=count),
        )

    def extend_array(
        self,
        xs: "np.ndarray",
        ys: "np.ndarray",
    ) -> range:
        """Add many rows from coordinate arrays (no Python-level loop).

        The bulk-loading mirror of :meth:`as_xy`: snapshot restores
        (``repro serve --load``) hand the persisted columns straight in,
        skipping per-point ``Point`` construction entirely.
        """
        xs = np.asarray(xs, dtype=np.float64).reshape(-1)
        ys = np.asarray(ys, dtype=np.float64).reshape(-1)
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"coordinate columns disagree: {xs.shape[0]} xs "
                f"vs {ys.shape[0]} ys"
            )
        count = xs.shape[0]
        start = self._size
        if count == 0:
            return range(start, start)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("non-finite coordinate in extend batch")
        self._reserve(count)
        self._xs[start : start + count] = xs
        self._ys[start : start + count] = ys
        self._size = start + count
        self._version += 1
        return range(start, self._size)

    def delete(self, row_id: int) -> None:
        """Tombstone one row (logical delete; the row id stays valid).

        The coordinates remain addressable — snapshot readers admitted
        before the delete still see the row, and the Delaunay graph
        keeps it as a transit vertex — but every live read path filters
        it out.  Raises :class:`IndexError` for an out-of-range id and
        :class:`ValueError` for a row that is already deleted; either
        way a rejected delete leaves the store untouched.
        """
        if not 0 <= row_id < self._size:
            raise IndexError(f"row id {row_id} out of range")
        if row_id in self._deleted_at:
            raise ValueError(f"row {row_id} is already deleted")
        self._version += 1
        self._deleted_at[row_id] = self._version
        self._dead[row_id] = True
        self._n_deleted += 1

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def version(self) -> int:
        """Monotonic data version, bumped by every mutation."""
        return self._version

    @property
    def live_count(self) -> int:
        """Rows that are not tombstoned (``len(store) - deleted_count``)."""
        return self._size - self._n_deleted

    @property
    def deleted_count(self) -> int:
        """Number of tombstoned rows."""
        return self._n_deleted

    @property
    def deleted_rows(self) -> Dict[int, int]:
        """The live tombstone map (row id -> version at deletion).

        The store owns the dict — callers must treat it as read-only.
        It is append-only (a tombstone is never cleared or rewritten),
        which is what makes O(1) snapshots sound: a
        :class:`StoreSnapshot` shares this mapping and filters it by its
        captured version instead of copying it.
        """
        return self._deleted_at

    def is_deleted(self, row_id: int) -> bool:
        """Whether ``row_id`` is tombstoned (out-of-range ids are not)."""
        return row_id in self._deleted_at

    @property
    def dead_mask(self) -> "np.ndarray":
        """Read-only boolean column: ``True`` where the row is deleted."""
        mask = self._dead[: self._size]
        mask.flags.writeable = False
        return mask

    def snapshot(self) -> "StoreSnapshot":
        """An O(1) MVCC snapshot of the store at its current version."""
        return StoreSnapshot(self)

    @property
    def xs(self) -> "np.ndarray":
        """Read-only ``float64`` view of the x column (row id = index)."""
        view = self._xs[: self._size]
        view.flags.writeable = False
        return view

    @property
    def ys(self) -> "np.ndarray":
        """Read-only ``float64`` view of the y column (row id = index)."""
        view = self._ys[: self._size]
        view.flags.writeable = False
        return view

    def as_xy(self) -> "np.ndarray":
        """The filled table as a fresh ``(n, 2)`` float64 array.

        One numpy stack, no per-point conversion — the snapshot writers
        in :mod:`repro.io.persist` persist exactly this.
        """
        return np.stack(
            (self._xs[: self._size], self._ys[: self._size]), axis=1
        )

    def coords(self, row_id: int) -> Tuple[float, float]:
        """The raw ``(x, y)`` floats of one row."""
        if row_id < 0:
            # Normalise against the *filled* size, not the capacity
            # array (the columns over-allocate past the last row).
            row_id += self._size
        if not 0 <= row_id < self._size:
            raise IndexError(f"row id {row_id} out of range")
        return (float(self._xs[row_id]), float(self._ys[row_id]))

    # -- materializing views ------------------------------------------------

    def _materialize(self, upto: int | None = None) -> List[Point]:
        """Top the Point cache up to row ``upto`` (default: everything).

        The cache is a contiguous prefix (append-only store, so built
        prefixes never invalidate); single-row lookups extend it only as
        far as the requested row instead of paying a full-table
        materialization pass on first touch.
        """
        target = self._size if upto is None else min(upto, self._size)
        built = len(self._materialized)
        if built < target:
            # One tolist() per column, then Point over the pairs: no numpy
            # scalar is boxed and no index is computed per row.
            fresh = list(
                map(
                    Point,
                    self._xs[built:target].tolist(),
                    self._ys[built:target].tolist(),
                )
            )
            # Assigned by position, from a finished list (one step under
            # the interpreter lock), not appended: the cache fills lazily,
            # so two reader threads may both find it short, and the later
            # assignment then rewrites the same rows instead of
            # duplicating them.
            self._materialized[built:target] = fresh
        return self._materialized

    def point(self, row_id: int) -> Point:
        """The row as a :class:`Point` (materialized once, then cached)."""
        return self._view[row_id]

    def view(self) -> "PointsView":
        """The store's immutable, lazily-materializing sequence view.

        This is what :attr:`SpatialDatabase.points
        <repro.core.database.SpatialDatabase.points>` returns: a live
        read-only window onto the point table.  It supports indexing,
        slicing, iteration, ``len`` and sequence equality, but offers no
        mutators — callers cannot desynchronise the table from the
        spatial index by poking at it.
        """
        return self._view


class StoreSnapshot:
    """An immutable O(1) view of a :class:`PointStore` version.

    Captures the row-id horizon (``size``), the data ``version``, and
    read-only coordinate views at snapshot time, and *shares* the
    store's append-only tombstone map instead of copying it.  A row is
    :meth:`visible` when it existed at snapshot time and was not yet
    deleted then — deletes that happen after capture carry a larger
    version stamp and are ignored, appends land beyond ``size``.  The
    coordinate views are safe against later writers because the store's
    columns are append-only: rows below ``size`` are never rewritten,
    and a capacity reallocation leaves this snapshot holding the old
    buffer.
    """

    __slots__ = ("version", "size", "xs", "ys", "_deleted_at", "_live")

    def __init__(self, store: PointStore) -> None:
        #: store version at capture time
        self.version = store.version
        #: row-id horizon: rows ``>= size`` were appended after capture
        self.size = len(store)
        #: read-only x column as of capture (length ``size``)
        self.xs = store.xs
        #: read-only y column as of capture (length ``size``)
        self.ys = store.ys
        self._deleted_at = store.deleted_rows
        self._live: Union[int, None] = None

    def visible(self, row_id: int) -> bool:
        """Whether ``row_id`` was live at the snapshot's version."""
        if not 0 <= row_id < self.size:
            return False
        when = self._deleted_at.get(row_id)
        return when is None or when > self.version

    @property
    def live_count(self) -> int:
        """Rows visible in this snapshot (computed once, then cached)."""
        if self._live is None:
            self._live = self.size - sum(
                1
                for row, when in self._deleted_at.items()
                if row < self.size and when <= self.version
            )
        return self._live

    def __repr__(self) -> str:
        return f"StoreSnapshot(version={self.version}, size={self.size})"


class PointsView(Sequence):
    """Immutable sequence view over a :class:`PointStore`.

    ``Point`` objects are built lazily on first access and cached — the
    store is append-only, so cached prefixes never invalidate.  The view
    is *live*: rows appended to the store become visible immediately,
    but there is no way to mutate the underlying table through it.
    """

    __slots__ = ("_store",)

    def __init__(self, store: PointStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    @overload
    def __getitem__(self, item: int) -> Point: ...

    @overload
    def __getitem__(self, item: slice) -> List[Point]: ...

    def __getitem__(self, item: Union[int, slice]):
        """Row lookup (negative indices and slices as for a list)."""
        size = len(self._store)
        if isinstance(item, slice):
            start, stop, step = item.indices(size)
            # Positive-step slices only need the prefix through `stop`;
            # negative steps start from their highest touched row.
            upto = stop if step > 0 else start + 1
            materialized = self._store._materialize(upto)
            return materialized[item]
        row = item
        if row < 0:
            row += size
        if not 0 <= row < size:
            raise IndexError(f"row id {item} out of range for {size} rows")
        materialized = self._store._materialized
        if row >= len(materialized):
            materialized = self._store._materialize(row + 1)
        return materialized[row]

    def __iter__(self) -> Iterator[Point]:
        return iter(self._store._materialize())

    def columns(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """The rows as the store's read-only ``(xs, ys)`` columns.

        The array-speaking way to consume the view: builders that want
        coordinates, not ``Point`` objects (the Delaunay bulk build),
        take these and materialize nothing.
        """
        return self._store.xs, self._store.ys

    def __eq__(self, other: object) -> bool:
        """Element-wise equality against any sequence of points."""
        if isinstance(other, PointsView) and other._store is self._store:
            return True
        if not isinstance(other, (PointsView, list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(a == b for a, b in zip(self, other))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mutable-underneath (live view): unhashable, like list

    def __repr__(self) -> str:
        return f"PointsView({len(self)} rows)"
