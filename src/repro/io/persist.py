"""Disk round-trips for point sets and databases.

Format: a single numpy ``.npz`` archive holding

* ``xy`` — an ``(n, 2)`` float64 array, row id = array row (so ids survive
  the round-trip exactly),
* ``deleted`` — an int64 array of tombstoned row ids (present only when
  the database has deletions; their coordinates stay in ``xy`` so that
  row ids — and the Voronoi superset graph — survive exactly), and
* ``config`` — a JSON-encoded scalar with the database configuration
  (index kind, backend kind, format version).

Design choice: we persist *data + configuration*, not the index/diagram
byte layout.  Both access structures rebuild deterministically from the
data (STR bulk load; Delaunay uniqueness up to degeneracies) and are built
from the restored columns as arrays — about 0.3 s of index and 0.9 s of
Qhull graph per 1E5 rows, against ~0.01 s to decompress them
(``bulk_build`` in ``benchmarks/bench_ablation_backend.py``;
docs/BENCHMARKS.md, "Bulk build") — and the format stays readable by plain
numpy: the same trade most point-data systems make for their bulk
snapshots.
"""

from __future__ import annotations

import json
import os
from typing import List

import numpy as np

from repro.geometry.point import Point
from repro.core.database import SpatialDatabase

_FORMAT_VERSION = 1


def _written_path(path: str | os.PathLike) -> str:
    """The path numpy actually writes: ``.npz`` appended if missing.

    ``np.savez_compressed`` silently renames ``snapshot`` to
    ``snapshot.npz``; save functions return this resolved path so
    callers (the ``serve --load`` CLI round-trip) can hand it straight
    back to the loaders.
    """
    text = os.fspath(path)
    return text if text.endswith(".npz") else text + ".npz"


def _resolve_path(path: str | os.PathLike) -> str:
    """Find the file a save function produced for ``path``.

    Accepts the exact file or the extensionless name the caller passed
    to ``save_*`` (whose ``.npz`` numpy appended) — previously
    ``load_database(p)`` failed with ``FileNotFoundError`` after a
    successful ``save_database(p)`` whenever ``p`` lacked the suffix.
    """
    text = os.fspath(path)
    if os.path.exists(text):
        return text
    fallback = _written_path(text)
    if fallback != text and os.path.exists(fallback):
        return fallback
    return text  # np.load reports the FileNotFoundError with this name


def save_points(path: str | os.PathLike, points: List[Point]) -> str:
    """Write a bare point list to ``path`` (numpy ``.npz``).

    Returns the path actually written (``.npz`` appended if missing).
    """
    xy = np.asarray([(p.x, p.y) for p in points], dtype=np.float64).reshape(
        len(points), 2
    )
    np.savez_compressed(path, xy=xy)
    return _written_path(path)


def load_points(path: str | os.PathLike) -> List[Point]:
    """Read a point list written by :func:`save_points` (or a database file).

    ``path`` may be the exact file or the extensionless name passed to
    the save function.
    """
    with np.load(_resolve_path(path), allow_pickle=False) as archive:
        xy = archive["xy"]
    return [Point(float(x), float(y)) for x, y in xy]


def save_database(path: str | os.PathLike, db: SpatialDatabase) -> str:
    """Write ``db``'s points and configuration to ``path``.

    The payload comes straight off the database's columnar
    :class:`~repro.core.store.PointStore` (one numpy stack of the
    ``xs``/``ys`` columns — no per-point Python conversion; the loading
    side mirrors this through :meth:`SpatialDatabase.from_arrays
    <repro.core.database.SpatialDatabase.from_arrays>`).  Returns the
    path actually written (numpy appends the ``.npz`` extension if
    missing), so callers can pass it straight to :func:`load_database` —
    or to ``python -m repro serve --load``.
    """
    xy = db.store.as_xy()
    config = json.dumps(
        {
            "version": _FORMAT_VERSION,
            "index_kind": db._index_kind,
            "backend_kind": db._backend_kind,
            "count": len(db.store),
        }
    )
    payload = {"xy": xy, "config": np.asarray(config)}
    deleted = db.store.deleted_rows
    if deleted:
        # Tombstoned rows keep their xy slot (ids are positional) and
        # are re-deleted on load; deletion *versions* are not persisted
        # — snapshots are an MVCC-session concept, not a disk one.
        payload["deleted"] = np.asarray(sorted(deleted), dtype=np.int64)
    np.savez_compressed(path, **payload)
    return _written_path(path)


def load_database(
    path: str | os.PathLike, *, prepare: bool = False
) -> SpatialDatabase:
    """Restore a database written by :func:`save_database`.

    Row ids are preserved exactly (row order is the id order), and
    tombstoned rows are re-deleted after the bulk load — the live point
    set, the id space, and the Voronoi superset graph all round-trip.
    The persisted columns go to :meth:`SpatialDatabase.from_arrays
    <repro.core.database.SpatialDatabase.from_arrays>` as arrays: the
    R-tree is packed from them with array sorts and keeps slices of the
    packed copies in its leaves, and the Qhull graph, when it is built,
    reads them too — neither creates a ``Point``.  ``path`` may be the
    exact file or the extensionless name the saver was given.  Pass
    ``prepare=True`` to rebuild the Voronoi backend eagerly; by default
    it stays lazy, like a freshly constructed database.
    """
    with np.load(_resolve_path(path), allow_pickle=False) as archive:
        xy = archive["xy"]
        config = json.loads(str(archive["config"]))
        deleted = (
            archive["deleted"].tolist() if "deleted" in archive else []
        )
    if config.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported database file version {config.get('version')!r}"
        )
    if int(config["count"]) != len(xy):
        raise ValueError(
            f"corrupt database file: header count {config['count']} != "
            f"payload rows {len(xy)}"
        )
    xy = xy.reshape(len(xy), 2)
    db = SpatialDatabase.from_arrays(
        xy[:, 0],
        xy[:, 1],
        index_kind=config["index_kind"],
        backend_kind=config["backend_kind"],
    )
    for row_id in deleted:  # replay tombstones; ids stay positional
        db.delete(int(row_id))
    if prepare:
        db.prepare()
    return db
