"""Shard-aware snapshot save/load for the cluster layer.

Format 1: a **snapshot directory** holding one ``manifest.json`` plus
one ``.npz`` shard file per worker.  The manifest carries the routing
state (shard map ranges, Hilbert order), the identity state
(``next_global_id`` — deleted ids stay holes so later writes continue
the original id sequence), and one entry per shard naming its file;
each shard file holds the worker's live rows as an ``(n, 2)`` float64
``xy`` array plus the parallel int64 ``gids`` array of their *global*
ids.

**Atomic saves.**  Every save writes its shard files under fresh names
(``shard-<worker>-<token>.npz``, each through a temporary file that is
flushed to disk and renamed), then swaps the new manifest in with one
``os.replace``, and only then removes the files the old manifest
named.  A save that fails at any point leaves the previous snapshot
loadable as it was.  Loading reads whatever files the manifest names,
so directories written by older checkouts (``shard-<worker>.npz``,
compressed) still load.

**Validation.**  :func:`load_cluster_state` refuses, with ``ValueError``
("corrupt cluster snapshot: ..."), an unreadable or truncated shard
file, a row count that disagrees with the manifest, a shard naming a
worker outside ``[0, workers)``, and a global id that lies outside
``[0, next_global_id)`` or appears twice; an unknown ``format`` is
refused as unsupported.

This persists *data + configuration*, not index bytes: workers rebuild
their R-trees from the rows on load, and the coordinator rebuilds its
catalog (keys recompute deterministically from coordinates).  Unlike
the single-process format (:mod:`repro.io.persist`), a shard file
carries no Voronoi graph and tombstoned coordinates are dropped — the
cluster catalog never hands a dead row to a shard, so shards reload
live-only (one ``extend`` per worker) and build fresh Voronoi supersets.

The files are plain numpy/JSON: a snapshot taken with N workers can be
inspected — or re-sharded by external tooling — without the cluster
running.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Dict, List

import numpy as np

from repro.cluster.coordinator import ClusterCoordinator
from repro.io.persist import _write_archive
from repro.query.merge import unique_ids

__all__ = ["save_cluster", "load_cluster_state", "restore_cluster"]

_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"
#: manifest entries carried verbatim between the state dict and the file
_STATE_KEYS = (
    "order",
    "workers",
    "ranges",
    "next_global_id",
    "version",
    "rebalances",
)


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt cluster snapshot: {detail}")


def _remove(directory: str, names) -> None:
    for name in names:
        path = os.path.join(directory, os.path.basename(name))
        if os.path.exists(path):
            os.remove(path)


def _replace_manifest(directory: str, manifest: Dict) -> None:
    """Swap ``manifest`` in: temporary file, fsync, ``os.replace``."""
    final = os.path.join(directory, _MANIFEST)
    temporary = f"{final}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, final)
    finally:
        if os.path.exists(temporary):  # the rename did not happen
            os.remove(temporary)


def save_cluster(
    path: str | os.PathLike, coordinator: ClusterCoordinator
) -> str:
    """Write ``coordinator``'s data to snapshot directory ``path``.

    Creates the directory if needed and writes one shard file per
    worker — including empty workers, so a restore never has to guess
    worker count from the file listing — then swaps the manifest in
    (atomically, see the module docstring).  Returns the directory.
    """
    state = coordinator.export_state()
    directory = os.fspath(path)
    os.makedirs(directory, exist_ok=True)
    try:
        with open(os.path.join(directory, _MANIFEST)) as handle:
            previous = [shard["file"] for shard in json.load(handle)["shards"]]
    except (OSError, ValueError, KeyError, TypeError):
        previous = []
    token = os.urandom(4).hex()  # not secrets: it imports hashlib, so OpenSSL
    shards: List[Dict] = []
    try:
        for worker in range(int(state["workers"])):
            mine = state["worker"] == worker
            shards.append(
                {
                    "worker": worker,
                    "file": f"shard-{worker}-{token}.npz",
                    "count": int(mine.sum()),
                }
            )
            _write_archive(
                os.path.join(directory, shards[-1]["file"]),
                {"xy": state["xy"][mine], "gids": state["gids"][mine]},
            )
        manifest = {key: state[key] for key in _STATE_KEYS}
        manifest.update(format=_FORMAT_VERSION, shards=shards)
        _replace_manifest(directory, manifest)
    except BaseException:
        _remove(directory, [shard["file"] for shard in shards])
        raise
    _remove(directory, set(previous) - {shard["file"] for shard in shards})
    return directory


def load_cluster_state(path: str | os.PathLike) -> Dict:
    """Read a snapshot directory back into a coordinator state dict.

    The returned mapping is exactly what
    :meth:`ClusterCoordinator.restore` consumes (and what
    :meth:`ClusterCoordinator.export_state` produced): live rows as the
    ``gids`` / ``xy`` / ``worker`` columns, every shard validated
    against the manifest (see the module docstring).
    """
    directory = os.fspath(path)
    manifest_path = os.path.join(directory, _MANIFEST)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported cluster snapshot format "
            f"{manifest.get('format')!r} in {manifest_path}"
        )
    state = {key: manifest[key] for key in _STATE_KEYS}
    workers, size = int(state["workers"]), int(state["next_global_id"])
    gids = [np.empty(0, dtype=np.int64)]
    xy = [np.empty((0, 2), dtype=np.float64)]
    owner = [np.empty(0, dtype=np.int64)]
    for shard in manifest["shards"]:
        worker = int(shard["worker"])
        if not 0 <= worker < workers:
            raise _corrupt(
                f"{shard['file']} names worker {worker}, outside "
                f"[0, {workers})"
            )
        try:
            with np.load(
                os.path.join(directory, shard["file"]), allow_pickle=False
            ) as archive:
                rows = archive["xy"].reshape(-1, 2).astype(np.float64)
                ids = archive["gids"].astype(np.int64)
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise _corrupt(f"cannot read {shard['file']}: {exc}") from exc
        if len(rows) != int(shard["count"]) or len(ids) != len(rows):
            raise _corrupt(
                f"{shard['file']} holds {len(rows)} rows, manifest says "
                f"{shard['count']}"
            )
        gids.append(ids)
        xy.append(rows)
        owner.append(np.full(len(ids), worker, dtype=np.int64))
    state.update(
        gids=np.concatenate(gids),
        xy=np.concatenate(xy),
        worker=np.concatenate(owner),
    )
    if len(state["gids"]) and not (
        0 <= state["gids"].min() and state["gids"].max() < size
    ):
        raise _corrupt(f"a global id lies outside [0, {size})")
    if len(unique_ids(state["gids"])) != len(state["gids"]):
        raise _corrupt("a global id appears twice")
    return state


def restore_cluster(
    path: str | os.PathLike, backends, **options
) -> ClusterCoordinator:
    """Load a snapshot directory onto empty ``backends``.

    Convenience composition of :func:`load_cluster_state` and
    :meth:`ClusterCoordinator.restore`; ``options`` pass through to the
    coordinator constructor (rebalance tuning, chunk size).
    """
    return ClusterCoordinator.restore(
        backends, load_cluster_state(path), **options
    )
