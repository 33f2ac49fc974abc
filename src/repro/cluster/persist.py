"""Shard-aware snapshot save/load for the cluster layer.

Format: a **snapshot directory** holding one ``manifest.json`` plus one
``shard-<worker>.npz`` per worker.  The manifest carries the routing
state (shard map ranges, Hilbert order), the identity state
(``next_global_id`` — deleted ids stay holes so later writes continue
the original id sequence), and one entry per shard file; each shard
file holds the worker's live rows as an ``(n, 2)`` float64 ``xy`` array
plus the parallel int64 ``gids`` array of their *global* ids.

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

__all__ = ["save_cluster", "load_cluster_state", "restore_cluster"]

_FORMAT_VERSION = 1
_MANIFEST = "manifest.json"


def _shard_filename(worker: int) -> str:
    """The per-worker payload filename inside a snapshot directory."""
    return f"shard-{worker}.npz"


def save_cluster(
    path: str | os.PathLike, coordinator: ClusterCoordinator
) -> str:
    """Write ``coordinator``'s data to snapshot directory ``path``.

    Creates the directory if needed and (over)writes the manifest and
    one shard file per worker — including empty workers, so a restore
    never has to guess worker count from the file listing.  Returns the
    directory path.
    """
    state = coordinator.export_state()
    directory = os.fspath(path)
    os.makedirs(directory, exist_ok=True)
    by_worker: Dict[int, List] = {
        worker: [] for worker in range(int(state["workers"]))
    }
    for global_id, x, y, worker in state["rows"]:
        by_worker[int(worker)].append((int(global_id), float(x), float(y)))
    shards = []
    for worker, rows in sorted(by_worker.items()):
        rows.sort()
        xy = np.asarray(
            [(x, y) for _, x, y in rows], dtype=np.float64
        ).reshape(len(rows), 2)
        gids = np.asarray([g for g, _, _ in rows], dtype=np.int64)
        filename = _shard_filename(worker)
        np.savez_compressed(
            os.path.join(directory, filename), xy=xy, gids=gids
        )
        shards.append(
            {"worker": worker, "file": filename, "count": len(rows)}
        )
    manifest = {
        "format": _FORMAT_VERSION,
        "order": state["order"],
        "workers": state["workers"],
        "ranges": state["ranges"],
        "next_global_id": state["next_global_id"],
        "version": state["version"],
        "rebalances": state["rebalances"],
        "shards": shards,
    }
    with open(os.path.join(directory, _MANIFEST), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return directory


def load_cluster_state(path: str | os.PathLike) -> Dict:
    """Read a snapshot directory back into a coordinator state dict.

    The returned mapping is exactly what
    :meth:`ClusterCoordinator.restore` consumes (and what
    :meth:`ClusterCoordinator.export_state` produced), with every shard
    file's rows validated against the manifest's counts.
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
    rows = []
    for shard in manifest["shards"]:
        shard_path = os.path.join(directory, shard["file"])
        try:
            with np.load(shard_path, allow_pickle=False) as archive:
                xy = archive["xy"].reshape(-1, 2)
                gids = archive["gids"]
        except (OSError, KeyError, zipfile.BadZipFile) as exc:
            raise ValueError(
                f"corrupt cluster snapshot: cannot read "
                f"{shard['file']}: {exc}"
            ) from exc
        if len(xy) != int(shard["count"]) or len(gids) != len(xy):
            raise ValueError(
                f"corrupt cluster snapshot: {shard['file']} holds "
                f"{len(xy)} rows, manifest says {shard['count']}"
            )
        worker = int(shard["worker"])
        for gid, (x, y) in zip(gids.tolist(), xy.tolist()):
            rows.append((int(gid), float(x), float(y), worker))
    return {
        "order": int(manifest["order"]),
        "workers": int(manifest["workers"]),
        "ranges": manifest["ranges"],
        "next_global_id": int(manifest["next_global_id"]),
        "version": int(manifest["version"]),
        "rebalances": int(manifest["rebalances"]),
        "rows": rows,
    }


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
