"""Disk round-trips for point sets and databases.

Format: a single uncompressed numpy ``.npz`` archive holding

* ``xy`` — an ``(n, 2)`` float64 array, row id = array row (so ids survive
  the round-trip exactly),
* ``deleted`` — an int64 array of tombstoned row ids (present only when
  the database has deletions; their coordinates stay in ``xy`` so that
  row ids — and the Voronoi superset graph — survive exactly),
* ``graph_indptr`` / ``graph_indices`` — the Delaunay neighbour graph as
  the int32 CSR pair :meth:`DelaunayBackend.neighbor_csr
  <repro.delaunay.backends.DelaunayBackend.neighbor_csr>` returns, over
  all ``n`` rows, tombstones included (present for every database with
  rows; files written before the graph went to 32 bits hold it as int64,
  which loads too), and
* ``config`` — a JSON-encoded scalar with the database configuration
  (index kind, backend kind, row count, format version).

A snapshot is a **serving image**: the paper treats the Voronoi diagram
as a precomputed structure beside the R-tree, so the saver builds the
graph (once, if the database had not built it yet) and every later boot
adopts the saved arrays — no triangulation: about 0.1 s per 1E5 rows to
read the file and pack the R-tree, instead of that plus the build's
0.25 s (compiled; several seconds interpreted)
(``snapshot_load_s`` beside the compiled build's seconds in ``bulk_build``,
``benchmarks/bench_ablation_backend.py``; docs/BENCHMARKS.md, "Bulk
build").  The R-tree is not persisted: it packs deterministically from
the columns with array sorts in under a tenth of a second, so a file
whose config names an index kind that has since been removed loads into
the R-tree with the same ids.  The triangulation behind the graph is not
persisted either: the first insert after a boot derives it from the
adopted graph and the coordinates, so an adopted image takes writes.

The graph members are optional and the format version is unchanged: a
file without them (any snapshot written before they existed) loads and
builds its graph lazily or on ``prepare=True``.  A file with them is not
trusted: :func:`load_database` checks the pair structurally (int32 or
int64, lengths against the row count, ``indptr`` starting at 0, never
decreasing and ending at ``len(indices)``, every index a row id) and
raises ``ValueError("corrupt database file: ...")`` rather than serve
from a graph that would index out of range or loop; an int64 pair that
passes is converted to int32 once.

The archive is written uncompressed: 4.4 MB per 1E5 rows (1.6 of
coordinates, 2.8 of int32 graph) in about 6 ms, fsync included.  zlib
would bring that to 3.3 MB (the graph compresses to 1.8 MB; random
float64 coordinates do not: 1.60 to 1.51 MB) for 0.5 s of saving per 1E5
rows — longer than the compiled build it sits beside — and inflating on
every boot.
Writes are atomic — a sibling temporary file renamed over
the final name — so a crash or a failed graph build never leaves a
truncated archive where ``serve --load`` will look.  The format stays
readable by plain numpy.
"""

from __future__ import annotations

import json
import os
from typing import List

import numpy as np

from repro.geometry.point import Point
from repro.core.database import SpatialDatabase
from repro.delaunay.backends import DelaunayBackend
from repro.delaunay.triangulation import check_row_count

_FORMAT_VERSION = 1
_GRAPH_MEMBERS = ("graph_indptr", "graph_indices")
#: What the graph members may hold: int32, or int64 in older files.
_GRAPH_DTYPES = {np.dtype(np.int32), np.dtype(np.int64)}


def _written_path(path: str | os.PathLike) -> str:
    """The path a save function writes: ``.npz`` appended if missing.

    The rule ``np.savez`` applies to a file name.  Save functions return
    this resolved path so callers (the ``serve --load`` CLI round-trip)
    can hand it straight back to the loaders.
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


def _write_archive(path: str | os.PathLike, members: dict) -> str:
    """Write ``members`` as the ``.npz`` at ``path``, all or nothing.

    The bytes go to a temporary file beside the target, are flushed to
    disk, and only then renamed over it: whatever fails on the way, the
    name holds either the previous archive or the complete new one.
    Returns the path written (``.npz`` appended if missing).
    """
    final = _written_path(path)
    temporary = f"{final}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as handle:
            np.savez(handle, **members)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, final)
    finally:
        if os.path.exists(temporary):  # the rename did not happen
            os.remove(temporary)
    return final


def save_points(path: str | os.PathLike, points: List[Point]) -> str:
    """Write a bare point list to ``path`` (numpy ``.npz``).

    Returns the path actually written (``.npz`` appended if missing).
    """
    xy = np.asarray([(p.x, p.y) for p in points], dtype=np.float64).reshape(
        len(points), 2
    )
    return _write_archive(path, {"xy": xy})


def load_points(path: str | os.PathLike) -> List[Point]:
    """Read a point list written by :func:`save_points` (or a database file).

    ``path`` may be the exact file or the extensionless name passed to
    the save function.
    """
    with np.load(_resolve_path(path), allow_pickle=False) as archive:
        xy = archive["xy"]
    return [Point(float(x), float(y)) for x, y in xy]


def save_database(path: str | os.PathLike, db: SpatialDatabase) -> str:
    """Write ``db``'s points, configuration and neighbour graph to ``path``.

    The payload comes straight off the database's columnar
    :class:`~repro.core.store.PointStore` (one numpy stack of the
    ``xs``/``ys`` columns — no per-point Python conversion; the loading
    side mirrors this through :meth:`SpatialDatabase.from_arrays
    <repro.core.database.SpatialDatabase.from_arrays>`).  A database with
    rows also writes its neighbour graph, building it first if it has not
    yet: the reader that matters, ``serve --load``, always wants it, so
    the graph is built once per snapshot instead of once per boot.  A
    failed build raises and writes nothing.
    Returns the path actually written (the ``.npz`` extension is
    appended if missing), so callers can pass it straight to
    :func:`load_database` — or to ``python -m repro serve --load``.
    """
    xy = db.store.as_xy()
    config = json.dumps(
        {
            "version": _FORMAT_VERSION,
            "index_kind": "rtree",
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
    if len(db.store):
        payload.update(zip(_GRAPH_MEMBERS, db.backend.neighbor_csr()))
    return _write_archive(path, payload)


def _check_graph(indptr, indices, count: int) -> None:
    """``ValueError`` unless the persisted CSR pair is a graph over ``count`` rows.

    Everything a traversal relies on without checking: int32 members (or
    int64, as files written before the graph went to 32 bits hold them),
    ``count + 1`` row bounds that start at 0, never decrease and end at
    ``len(indices)``, and indices that are all row ids.  No more rows than
    a graph holds (:func:`~repro.delaunay.triangulation.check_row_count`).
    """
    check_row_count(count)
    problem = None
    if not {indptr.dtype, indices.dtype} <= _GRAPH_DTYPES:
        problem = f"graph dtypes {indptr.dtype}/{indices.dtype} are not int32 or int64"
    elif indptr.shape != (count + 1,) or indices.ndim != 1:
        problem = (
            f"graph members have shapes {indptr.shape} and {indices.shape}, "
            f"{count} rows need ({count + 1},) and one axis"
        )
    elif indptr[0] != 0 or indptr[-1] != len(indices):
        problem = (
            f"graph row bounds span {indptr[0]}..{indptr[-1]}, "
            f"the graph holds {len(indices)} neighbours"
        )
    elif (indptr[1:] < indptr[:-1]).any():
        problem = "graph row bounds decrease"
    elif len(indices) and not 0 <= indices.min() <= indices.max() < count:
        problem = f"graph names a row outside 0..{count - 1}"
    if problem is not None:
        raise ValueError(f"corrupt database file: {problem}")


def load_database(
    path: str | os.PathLike, *, prepare: bool = False
) -> SpatialDatabase:
    """Restore a database written by :func:`save_database`.

    Row ids are preserved exactly (row order is the id order), and
    tombstoned rows are re-deleted after the bulk load — the live point
    set, the id space, and the Voronoi superset graph all round-trip.
    The persisted columns go to :meth:`SpatialDatabase.from_arrays
    <repro.core.database.SpatialDatabase.from_arrays>` as arrays: the
    R-tree is packed from them with array sorts into its leaf table — no
    ``Point`` is created.  ``path`` may be the exact file or the
    extensionless name the saver was given.

    A file that carries the neighbour graph has it checked (see the
    module docstring; ``ValueError`` if it fails), converted to int32 if
    an older file holds it as int64, and adopted as the
    database's backend (:meth:`DelaunayBackend.from_csr
    <repro.delaunay.backends.DelaunayBackend.from_csr>`), whatever
    backend kind the config names: the database comes back prepared
    whatever ``prepare`` says, and no triangulation runs.  A later ``insert`` is absorbed by the adopted backend.  For a
    file without a graph, pass ``prepare=True`` to rebuild the Voronoi
    backend eagerly; by default it stays lazy, like a freshly
    constructed database.
    """
    with np.load(_resolve_path(path), allow_pickle=False) as archive:
        xy = archive["xy"]
        config = json.loads(str(archive["config"]))
        deleted = (
            archive["deleted"].tolist() if "deleted" in archive else []
        )
        graph = [archive[name] for name in _GRAPH_MEMBERS if name in archive]
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
    index_kind = config["index_kind"]
    # the index is derived state, rebuilt on load: a removed kind loads as
    # the R-tree, a name no snapshot ever carried is not ours
    if index_kind not in ("rtree", "rstar", "kdtree", "quadtree", "grid", "brute"):
        raise ValueError(f"corrupt database file: unknown index kind {index_kind!r}")
    db = SpatialDatabase.from_arrays(
        xy[:, 0], xy[:, 1], backend_kind=config["backend_kind"]
    )
    for row_id in deleted:  # replay tombstones; ids stay positional
        db.delete(int(row_id))
    if graph:
        if len(graph) != len(_GRAPH_MEMBERS):
            raise ValueError(
                "corrupt database file: one of "
                f"{' / '.join(_GRAPH_MEMBERS)} is missing"
            )
        _check_graph(*graph, len(xy))
        graph = [member.astype(np.int32, copy=False) for member in graph]
        db._backend = DelaunayBackend.from_csr(*graph, db.store.view())
    if prepare:
        db.prepare()
    return db
