"""Shard-aware snapshots: directory format, atomic saves, restore, corruption."""

import json
import os

import numpy as np
import pytest

from oracle import brute_force
from repro.cluster import (
    ClusterCoordinator,
    FaultSpec,
    FaultyBackend,
    LocalShard,
)
from repro.cluster import persist
from repro.cluster.persist import (
    load_cluster_state,
    restore_cluster,
    save_cluster,
)
from repro.core.database import SpatialDatabase
from repro.query.spec import AreaQuery, KnnQuery, NearestQuery, WindowQuery
from repro.geometry.point import Point
from repro.workloads import make_query_areas, uniform_points

PROBE_SPECS = [
    WindowQuery((0.0, 0.0, 1.0, 1.0)),
    WindowQuery((0.2, 0.6, 0.7, 0.9)),
    KnnQuery(Point(0.5, 0.5), 17),
    KnnQuery(Point(0.1, 0.85), 9),
    NearestQuery(Point(0.42, 0.13)),
]


def fresh_backends(workers=3):
    return [LocalShard(SpatialDatabase()) for _ in range(workers)]


def catalog_rows(coordinator):
    """The live ``{global id: (x, y)}`` rows, read from the snapshot state."""
    state = coordinator.export_state()
    return {
        int(g): (float(x), float(y))
        for g, (x, y) in zip(state["gids"], state["xy"])
    }


def assert_same_answers(restored, original):
    rows = catalog_rows(original)
    assert catalog_rows(restored) == rows
    for spec in PROBE_SPECS:
        assert restored.query(spec) == brute_force(spec, rows)


@pytest.fixture
def coordinator():
    points = [(p.x, p.y) for p in uniform_points(250, seed=13)]
    coordinator = ClusterCoordinator(fresh_backends(), min_split=32)
    coordinator.extend(points)
    # leave holes and a forced split so the snapshot is non-trivial
    coordinator.delete(7)
    coordinator.delete(100)
    assert coordinator.rebalance_once(force=True)
    return coordinator


def read_manifest(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        return json.load(handle)


def write_manifest(directory, manifest):
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)


def rewrite_gids(directory, worker, mutate):
    """Apply ``mutate`` to one shard file's ``gids`` column in place."""
    shard = read_manifest(directory)["shards"][worker]
    path = os.path.join(directory, shard["file"])
    with np.load(path) as archive:
        xy, gids = archive["xy"], archive["gids"].copy()
    mutate(gids)
    np.savez(path, xy=xy, gids=gids)


class TestRoundTrip:
    def test_save_then_restore_preserves_results_and_ids(
        self, tmp_path, coordinator
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        restored = restore_cluster(directory, fresh_backends())

        assert restored.total_live == coordinator.total_live
        assert restored.live_counts == coordinator.live_counts
        assert restored.rebalances == coordinator.rebalances
        assert restored.shard_map.ranges == coordinator.shard_map.ranges
        for index in range(8):
            area = make_query_areas(0.04, 1, seed=40 + index)[0]
            assert restored.query(AreaQuery(area)) == coordinator.query(
                AreaQuery(area)
            )
        spec = KnnQuery(Point(0.3, 0.3), 12)
        assert restored.query(spec) == coordinator.query(spec)
        # deleted ids stay holes: the next insert continues the sequence
        assert restored.insert(0.5, 0.25) == coordinator.insert(0.5, 0.25)

    def test_manifest_lists_every_worker_even_empty(self, tmp_path):
        coordinator = ClusterCoordinator(fresh_backends(4))
        coordinator.extend([(0.01, 0.01), (0.02, 0.02)])  # one shard only
        directory = save_cluster(tmp_path / "snap", coordinator)
        manifest = read_manifest(directory)
        assert [shard["worker"] for shard in manifest["shards"]] == [
            0,
            1,
            2,
            3,
        ]
        restored = restore_cluster(directory, fresh_backends(4))
        assert restored.total_live == 2

    def test_round_trip_with_replicas_restores_mirrors(
        self, tmp_path, coordinator
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        # the restore's one extend per backend is call 1; every read
        # after it crashes, so the replicas must answer on their own
        primaries = [
            FaultyBackend(shard, FaultSpec(seed=5, crash_on_call=2))
            for shard in fresh_backends()
        ]
        restored = restore_cluster(
            directory, primaries, replicas=fresh_backends()
        )
        try:
            assert restored.replicated
            assert restored.cluster_section()["replica_dirty"] == [
                False,
                False,
                False,
            ]
            assert_same_answers(restored, coordinator)
            assert restored.cluster_section()["failovers"] > 0
        finally:
            restored.close()

    def test_snapshot_written_with_compressed_shards_still_restores(
        self, tmp_path, coordinator
    ):
        # the layout older checkouts wrote: shard-<worker>.npz through
        # np.savez_compressed, rewritten in place on every save
        directory = tmp_path / "snap"
        directory.mkdir()
        state = coordinator.export_state()
        shards = []
        for worker in range(state["workers"]):
            mine = state["worker"] == worker
            name = f"shard-{worker}.npz"
            np.savez_compressed(
                directory / name, xy=state["xy"][mine], gids=state["gids"][mine]
            )
            shards.append(
                {"worker": worker, "file": name, "count": int(mine.sum())}
            )
        manifest = {
            key: state[key]
            for key in (
                "order",
                "workers",
                "ranges",
                "next_global_id",
                "version",
                "rebalances",
            )
        }
        manifest.update(format=1, shards=shards)
        write_manifest(directory, manifest)

        assert_same_answers(
            restore_cluster(directory, fresh_backends()), coordinator
        )
        # saving over it retires the old files
        save_cluster(directory, coordinator)
        assert not any(
            (directory / shard["file"]).exists() for shard in shards
        )
        assert_same_answers(
            restore_cluster(directory, fresh_backends()), coordinator
        )


class TestAtomicSave:
    def test_resave_leaves_only_the_files_the_manifest_names(
        self, tmp_path, coordinator
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        coordinator.extend([(0.5, 0.5), (0.25, 0.75)])
        save_cluster(directory, coordinator)
        named = {shard["file"] for shard in read_manifest(directory)["shards"]}
        assert set(os.listdir(directory)) == named | {"manifest.json"}
        assert_same_answers(
            restore_cluster(directory, fresh_backends()), coordinator
        )

    def test_failed_save_keeps_the_previous_snapshot(
        self, tmp_path, coordinator, monkeypatch
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        before = catalog_rows(coordinator)
        listing = sorted(os.listdir(directory))
        coordinator.extend([(0.5, 0.5), (0.25, 0.75)])
        coordinator.delete(3)

        writes = []
        real_write = persist._write_archive

        def fail_second_shard(path, members):
            writes.append(path)
            if len(writes) == 2:
                raise OSError("injected: disk full")
            return real_write(path, members)

        monkeypatch.setattr(persist, "_write_archive", fail_second_shard)
        with pytest.raises(OSError, match="injected"):
            save_cluster(directory, coordinator)
        monkeypatch.undo()

        assert sorted(os.listdir(directory)) == listing
        restored = restore_cluster(directory, fresh_backends())
        assert catalog_rows(restored) == before
        for spec in PROBE_SPECS:
            assert restored.query(spec) == brute_force(spec, before)


class TestCorruption:
    def test_unsupported_format_rejected(self, tmp_path, coordinator):
        directory = save_cluster(tmp_path / "snap", coordinator)
        manifest = read_manifest(directory)
        manifest["format"] = 99
        write_manifest(directory, manifest)
        with pytest.raises(ValueError, match="unsupported"):
            load_cluster_state(directory)

    def test_count_mismatch_rejected(self, tmp_path, coordinator):
        directory = save_cluster(tmp_path / "snap", coordinator)
        manifest = read_manifest(directory)
        manifest["shards"][0]["count"] += 1
        write_manifest(directory, manifest)
        with pytest.raises(ValueError, match="corrupt"):
            load_cluster_state(directory)

    def test_truncated_shard_file_is_rejected(self, tmp_path, coordinator):
        directory = save_cluster(tmp_path / "snap", coordinator)
        shard = read_manifest(directory)["shards"][0]
        with open(os.path.join(directory, shard["file"]), "r+b") as handle:
            handle.truncate(16)
        with pytest.raises(ValueError, match="corrupt"):
            load_cluster_state(directory)

    @pytest.mark.parametrize("bad", [-1, "next"])
    def test_global_id_out_of_range_rejected(
        self, tmp_path, coordinator, bad
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        if bad == "next":
            bad = read_manifest(directory)["next_global_id"]

        def corrupt(gids):
            gids[0] = bad

        rewrite_gids(directory, 0, corrupt)
        with pytest.raises(ValueError, match="corrupt cluster snapshot"):
            load_cluster_state(directory)

    def test_global_id_repeated_across_shards_rejected(
        self, tmp_path, coordinator
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        with np.load(
            os.path.join(directory, read_manifest(directory)["shards"][1]["file"])
        ) as archive:
            taken = int(archive["gids"][0])

        def corrupt(gids):
            gids[0] = taken

        rewrite_gids(directory, 0, corrupt)
        with pytest.raises(ValueError, match="corrupt cluster snapshot"):
            load_cluster_state(directory)

    @pytest.mark.parametrize("worker", [-1, 3])
    def test_shard_worker_out_of_range_rejected(
        self, tmp_path, coordinator, worker
    ):
        directory = save_cluster(tmp_path / "snap", coordinator)
        manifest = read_manifest(directory)
        manifest["shards"][0]["worker"] = worker
        write_manifest(directory, manifest)
        with pytest.raises(ValueError, match="corrupt cluster snapshot"):
            load_cluster_state(directory)
