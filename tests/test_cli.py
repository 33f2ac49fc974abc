"""Smoke tests for the ``python -m repro`` command line."""

import os
import re
import shutil
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cluster import ClusterCoordinator, LocalShard
from repro.cluster.persist import save_cluster
from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.query.spec import AreaQuery, KnnQuery
from repro.server import QueryClient, RemoteError
from repro.workloads.generators import uniform_points

SRC = Path(__file__).resolve().parents[1] / "src"
COMPILER = next(
    (name for name in ("cc", "gcc", "clang") if shutil.which(name)), None
)


class TestCLI:
    def test_info(self, capsys):
        ssl = sys.modules.get("ssl")
        assert main(["info"]) == 0
        # only the entry block refuses ssl, never main() in a caller's process
        assert sys.modules.get("ssl") is ssl
        out = capsys.readouterr().out
        assert "repro" in out
        assert "Table I" in out

    def test_demo_small(self, capsys):
        assert main(["demo", "--points", "2000", "--query-size", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "candidates saved" in out

    def test_experiments_forwarding(self, capsys):
        exit_code = main(
            [
                "experiments",
                "table2",
                "--repetitions",
                "2",
                "--data-size",
                "600",
            ]
        )
        assert exit_code == 0
        assert "Table II" in capsys.readouterr().out

    def test_batch_prints_calibration_and_explain(self, capsys):
        assert main(["batch", "--points", "1500", "--query-size", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Calibrated cost model: validation" in out
        assert "Planner decision for a sample spec" in out
        assert "est. cost" in out  # the explain table

    def test_figures(self, tmp_path, capsys):
        assert main(["figures", "--output", str(tmp_path)]) == 0
        for name in ("fig2.svg", "fig3.svg"):
            document = (tmp_path / name).read_text()
            ET.fromstring(document)  # well-formed

    def test_query_spec_file(self, tmp_path, capsys):
        from repro import AreaQuery, KnnQuery, NearestQuery, WindowQuery
        from repro import dump_specs
        from repro.geometry.polygon import Polygon
        from repro.geometry.rectangle import Rect

        specs = [
            AreaQuery(Polygon([(0.2, 0.2), (0.6, 0.25), (0.4, 0.7)])),
            WindowQuery(Rect(0.1, 0.1, 0.4, 0.5)),
            KnnQuery((0.5, 0.5), 5, method="voronoi"),
            NearestQuery((0.9, 0.9)),
        ]
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(dump_specs(specs), encoding="utf-8")
        exit_code = main(
            [
                "query",
                "--spec-file",
                str(spec_file),
                "--points",
                "800",
                "--explain",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        for kind in ("area(", "window(", "knn(", "nearest("):
            assert kind in out
        assert "4 specs" in out
        assert "est. cost" in out  # --explain tables

    def test_query_spec_file_composites_and_streaming(self, tmp_path, capsys):
        from repro import KnnQuery, UnionQuery, WindowQuery, dump_specs
        from repro.geometry.rectangle import Rect

        w1 = WindowQuery(Rect(0.1, 0.1, 0.5, 0.5))
        w2 = WindowQuery(Rect(0.3, 0.3, 0.7, 0.7))
        specs = [UnionQuery((w1, w2)), KnnQuery((0.5, 0.5), None)]
        spec_file = tmp_path / "composite.json"
        spec_file.write_text(dump_specs(specs), encoding="utf-8")
        exit_code = main(
            ["query", "--spec-file", str(spec_file), "--points", "800"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "union(" in out
        assert "composite" in out  # the decomposed method column
        assert "k=unbounded" in out

    def test_query_first_streams_prefixes(self, tmp_path, capsys):
        from repro import KnnQuery, UnionQuery, WindowQuery, dump_specs
        from repro.geometry.rectangle import Rect

        specs = [
            UnionQuery(
                (
                    WindowQuery(Rect(0.1, 0.1, 0.5, 0.5)),
                    WindowQuery(Rect(0.3, 0.3, 0.7, 0.7)),
                )
            ),
            KnnQuery((0.5, 0.5), None),
        ]
        spec_file = tmp_path / "stream.json"
        spec_file.write_text(dump_specs(specs), encoding="utf-8")
        exit_code = main(
            [
                "query",
                "--spec-file",
                str(spec_file),
                "--points",
                "800",
                "--first",
                "5",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "first 5" in out

    def test_query_empty_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "empty.json"
        spec_file.write_text("[]", encoding="utf-8")
        assert main(["query", "--spec-file", str(spec_file)]) == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServerCLI:
    def test_snapshot_writes_loadable_database(self, tmp_path, capsys):
        from repro.io.persist import load_database

        out_path = tmp_path / "snap"  # extensionless on purpose
        exit_code = main(
            [
                "snapshot",
                "--points",
                "300",
                "--out",
                str(out_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "snap.npz" in out
        restored = load_database(out_path)
        assert len(restored) == 300
        edges = len(restored.backend.neighbor_csr()[1]) // 2
        assert f"Voronoi graph: 300 rows, {edges} edges" in out
        size = (tmp_path / "snap.npz").stat().st_size
        assert f"file size {size:,} bytes" in out

    def test_serve_load_plumbing(self, tmp_path, capsys):
        """`--load` restores the exact snapshot (the serve entry point
        itself blocks, so the database plumbing is tested directly)."""
        import argparse

        from repro.__main__ import _build_or_load_database
        from repro.core.database import SpatialDatabase
        from repro.io.persist import save_database
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(250, seed=3), backend_kind="scipy"
        )
        written = save_database(tmp_path / "served", db)
        args = argparse.Namespace(load=written, points=999, seed=0)
        restored = _build_or_load_database(args)
        assert len(restored) == 250  # the snapshot, not --points
        assert restored.points == db.points
        assert "graph restored from the snapshot" in capsys.readouterr().out

    def test_serve_load_says_when_it_rebuilds_the_graph(self, tmp_path, capsys):
        """A snapshot from before the graph members: same rows, one build."""
        import argparse

        import numpy as np

        from repro.__main__ import _build_or_load_database

        config = (
            '{"version": 1, "index_kind": "rtree", '
            '"backend_kind": "scipy", "count": 250}'
        )
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            xy=np.random.default_rng(5).random((250, 2)),
            config=np.asarray(config),
        )
        restored = _build_or_load_database(argparse.Namespace(load=str(path)))
        assert len(restored) == 250 and restored._backend is not None
        out = capsys.readouterr().out
        assert "graph rebuilt (snapshot carries no graph)" in out
        assert "restored from the snapshot" not in out

    def test_query_remote_round_trip(self, tmp_path, capsys):
        from repro import dump_specs
        from repro.core.database import SpatialDatabase
        from repro.geometry.rectangle import Rect
        from repro.query.spec import KnnQuery, WindowQuery
        from repro.server import ServerThread
        from repro.workloads.generators import uniform_points

        specs = [
            WindowQuery(Rect(0.2, 0.2, 0.6, 0.6)),
            KnnQuery((0.5, 0.5), 4),
        ]
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(dump_specs(specs), encoding="utf-8")
        db = SpatialDatabase.from_points(
            uniform_points(600, seed=9), backend_kind="scipy"
        ).prepare()
        with ServerThread(db) as server:
            exit_code = main(
                [
                    "query",
                    "--spec-file",
                    str(spec_file),
                    "--remote",
                    f"{server.host}:{server.port}",
                ]
            )
            assert exit_code == 0
            out = capsys.readouterr().out
            assert "Connected to" in out
            assert "coalesced batches" in out

            exit_code = main(
                [
                    "query",
                    "--spec-file",
                    str(spec_file),
                    "--remote",
                    f"{server.host}:{server.port}",
                    "--first",
                    "3",
                ]
            )
            assert exit_code == 0
            out = capsys.readouterr().out
            assert "first 3" in out
            expected = db.query(specs[1]).first(3)
            assert str(expected) in out

    def test_query_remote_bad_address(self, tmp_path):
        from repro import dump_specs
        from repro.query.spec import NearestQuery

        spec_file = tmp_path / "specs.json"
        spec_file.write_text(
            dump_specs([NearestQuery((0.5, 0.5))]), encoding="utf-8"
        )
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(
                [
                    "query",
                    "--spec-file",
                    str(spec_file),
                    "--remote",
                    "not-an-address",
                ]
            )


class TestLiveCLI:
    def test_mutate_from_file_applies_ops_in_order(self, tmp_path, capsys):
        import json

        from repro.core.database import SpatialDatabase
        from repro.server import ServerThread
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(120, seed=3), backend_kind="pure"
        ).prepare()
        ops = tmp_path / "ops.ndjson"
        ops.write_text(
            "\n".join(
                [
                    json.dumps({"op": "insert", "x": 0.31, "y": 0.62}),
                    json.dumps(
                        {"op": "extend", "points": [[0.1, 0.1], [0.9, 0.9]]}
                    ),
                    json.dumps({"op": "delete", "row": 0}),
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        with ServerThread(db) as server:
            code = main(
                [
                    "mutate",
                    "--remote",
                    f"{server.host}:{server.port}",
                    "--from-file",
                    str(ops),
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "row 120" in out  # insert got the next row id
        assert "extend 2 points" in out
        assert "delete row 0" in out
        assert "122 live points" in out
        assert len(db.store) == 123 and db.store.deleted_count == 1

    def test_mutate_from_file_rejects_bad_lines(self, tmp_path):
        ops = tmp_path / "ops.ndjson"
        ops.write_text('{"op": "warp"}\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="ops.ndjson:1"):
            main(["mutate", "--remote", "127.0.0.1:1", "--from-file", str(ops)])

    def test_subscribe_streams_notifications(self, capsys):
        import threading
        import time

        from repro.core.database import SpatialDatabase
        from repro.server import QueryClient, ServerThread
        from repro.workloads.generators import uniform_points

        db = SpatialDatabase.from_points(
            uniform_points(150, seed=5), backend_kind="pure"
        ).prepare()
        with ServerThread(db) as server:

            def write_soon():
                time.sleep(0.3)
                with QueryClient(server.host, server.port) as writer:
                    writer.insert(0.5, 0.5)

            thread = threading.Thread(target=write_soon)
            thread.start()
            code = main(
                [
                    "subscribe",
                    "--remote",
                    f"{server.host}:{server.port}",
                    "--window",
                    "0.4,0.4,0.6,0.6",
                    "--knn",
                    "0.5,0.5,3",
                    "--count",
                    "2",
                    "--duration",
                    "10",
                ]
            )
            thread.join()
        assert code == 0
        out = capsys.readouterr().out
        assert "rows at version" in out
        assert "2 notifications received" in out

    def test_subscribe_without_specs_is_an_error(self, capsys):
        assert main(["subscribe", "--remote", "127.0.0.1:1"]) == 1
        assert "nothing to do" in capsys.readouterr().out

    def test_subscribe_bad_window_rejected(self):
        with pytest.raises(SystemExit, match="X1,Y1,X2,Y2"):
            main(
                [
                    "subscribe",
                    "--remote",
                    "127.0.0.1:1",
                    "--window",
                    "0.1,0.2",
                ]
            )


_SQUARE = [(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)]
_OPENSSL = r"/lib(ssl|crypto)\.so"


def _session(leader: int) -> list:
    """The ids of the processes in the session ``leader`` started."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited meanwhile
        # after "(comm)": state, ppid, pgrp, session
        if int(stat[stat.rindex(")") + 2:].split()[3]) == leader:
            pids.append(int(entry.name))
    return pids


class TestServedProcessesLoadNoOpenSSL:
    """No process ``python -m repro`` starts to serve speaks TLS (a proxy in
    front does), so none maps OpenSSL: asyncio is left without ssl, and the
    compiled insert's library is named without hashlib."""

    @pytest.mark.parametrize(
        "command, load",
        [(["serve"], False), (["cluster", "--workers", "2"], False),
         (["cluster", "--workers", "2"], True)],
        ids=["serve", "cluster", "cluster-load"],
    )
    def test_no_served_process_maps_openssl(self, tmp_path, command, load):
        if not Path(f"/proc/{os.getpid()}/maps").exists():
            pytest.skip("no /proc/<pid>/maps to read")
        if load:  # the router imports repro.cluster.persist at start-up
            coordinator = ClusterCoordinator([LocalShard(SpatialDatabase()) for _ in range(2)])
            coordinator.extend([(p.x, p.y) for p in uniform_points(2000, seed=3)])
            command = [*command, "--load", str(save_cluster(tmp_path / "snap", coordinator))]
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        if COMPILER is not None:  # build through the compiled loader
            env["CC"] = COMPILER
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *command,
             "--points", "2000", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if "Press Ctrl-C to stop." in line:
                    break
            else:
                pytest.fail("exited before its banner:\n" + "".join(lines))
            host, port = re.search(r" on ([\d.]+):(\d+) \(", lines[-2]).groups()
            with QueryClient(host, int(port)) as client:  # every server builds its graph
                client.query(AreaQuery(Polygon(_SQUARE), method="voronoi"))
            maps = {}
            for pid in _session(process.pid):
                try:
                    maps[pid] = Path(f"/proc/{pid}/maps").read_text()
                except OSError:
                    continue  # exited meanwhile
            cluster = command[0] == "cluster"
            assert len(maps) == (3 if cluster else 1)  # a router and two workers
            openssl = {
                pid: {line.split()[-1] for line in text.splitlines() if re.search(_OPENSSL, line)}
                for pid, text in maps.items()
            }
            assert not any(openssl.values()), openssl
            if COMPILER is not None:  # the workers built, not the router
                assert sum("/repro/insert-" in t for t in maps.values()) == (2 if cluster else 1)
        finally:
            os.killpg(process.pid, signal.SIGTERM)
            process.communicate(timeout=30)


def _alive(pid: int) -> bool:
    """Whether ``pid`` names a running (not exited, not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


class TestSigtermStopsServedProcesses:
    """SIGTERM, what ``kill`` and most supervisors send, stops ``serve`` and
    ``cluster`` as Ctrl-C does: exit 0, and a router takes its workers with
    it (and still writes ``--save-on-exit``)."""

    @pytest.mark.parametrize("command", [["serve"], ["cluster", "--workers", "2"]],
                             ids=["serve", "cluster"])
    def test_sigterm_exits_0_and_leaves_no_worker(self, tmp_path, command):
        if not Path(f"/proc/{os.getpid()}/stat").exists():
            pytest.skip("no /proc/<pid>/stat to read")
        cluster = command[0] == "cluster"
        if cluster:
            command = [*command, "--save-on-exit", str(tmp_path / "snap")]
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *command, "--points", "200", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if "Press Ctrl-C to stop." in line:
                    break
            else:
                pytest.fail("exited before its banner:\n" + "".join(lines))
            workers = [pid for pid in _session(process.pid) if pid != process.pid]
            assert len(workers) == (2 if cluster else 0)
            process.send_signal(signal.SIGTERM)  # the router (or server) alone
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0, "".join(lines) + out
            assert "stopped" in out
            deadline = time.monotonic() + 2.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
            if cluster:
                assert (tmp_path / "snap" / "manifest.json").exists()
        finally:
            if process.poll() is None or _session(process.pid):
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.communicate(timeout=30)

    def test_sigkill_of_the_router_leaves_no_worker(self, tmp_path):
        """SIGKILL runs no clean-up in the router, yet its workers stop:
        each reads a stdin pipe only the router held open, and sees EOF."""
        if not Path(f"/proc/{os.getpid()}/stat").exists():
            pytest.skip("no /proc/<pid>/stat to read")
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "cluster", "--workers", "2",
             "--points", "200", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if "Press Ctrl-C to stop." in line:
                    break
            else:
                pytest.fail("exited before its banner:\n" + "".join(lines))
            workers = [pid for pid in _session(process.pid) if pid != process.pid]
            assert len(workers) == 2
            process.kill()
            process.wait(timeout=30)
            deadline = time.monotonic() + 2.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if _session(process.pid):
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.communicate(timeout=30)

    def test_sigterm_ends_an_open_stream_with_an_error_frame(self, tmp_path):
        """A stream open when ``serve`` stops reads an ``unavailable``
        error frame, not a dropped connection."""
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--points", "5000", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if "Press Ctrl-C to stop." in line:
                    break
            else:
                pytest.fail("exited before its banner:\n" + "".join(lines))
            host, port = re.search(r" on ([\d.]+):(\d+) \(", lines[-2]).groups()
            with QueryClient(host, int(port)) as client:
                stream = client.stream(KnnQuery(Point(0.5, 0.5), k=None), chunk_size=10)
                assert len([next(stream) for _ in range(10)]) == 10  # the first chunk
                process.send_signal(signal.SIGTERM)
                out, _ = process.communicate(timeout=30)
                with pytest.raises(RemoteError) as error:
                    next(stream)
            assert error.value.code == "unavailable"
            assert process.returncode == 0, "".join(lines) + out
            assert "stopped" in out
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.communicate(timeout=30)
