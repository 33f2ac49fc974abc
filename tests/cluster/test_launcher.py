"""Process tests: spawned worker replicas behind the cluster router.

One real topology — ``spawn_worker`` subprocesses on ephemeral ports,
``RemoteShard`` backends, the router thread — exercised once per
module (process spawning is the expensive part), then probed through
the unmodified client.
"""

import subprocess
import sys

import pytest

from repro.cluster import launcher
from repro.cluster.launcher import start_cluster
from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.query.spec import KnnQuery, NearestQuery, WindowQuery
from repro.server import QueryClient
from repro.workloads import uniform_points

N_POINTS = 150


@pytest.fixture(scope="module")
def points():
    return [(p.x, p.y) for p in uniform_points(N_POINTS, seed=41)]


@pytest.fixture(scope="module")
def cluster(points):
    with start_cluster(2, points=points) as handle:
        yield handle


def test_workers_run_on_distinct_ephemeral_ports(cluster):
    ports = [worker.port for worker in cluster.workers]
    assert len(set(ports)) == 2 and all(port > 0 for port in ports)
    assert all(worker.alive for worker in cluster.workers)


def test_queries_through_real_processes_match_oracle(cluster, points):
    oracle = SpatialDatabase.from_points([Point(x, y) for x, y in points])
    with QueryClient(cluster.host, cluster.port) as client:
        assert client.hello["points"] == N_POINTS
        for spec in (
            WindowQuery((0.1, 0.1, 0.8, 0.8)),
            KnnQuery(Point(0.5, 0.5), 11),
            NearestQuery(Point(0.9, 0.1)),
        ):
            assert client.query(spec).ids == oracle.query(spec).ids()
        with client.stream(KnnQuery(Point(0.3, 0.3), None)) as stream:
            got = []
            for row in stream:
                got.append(row)
                if len(got) == 12:
                    break
        assert got == oracle.query(KnnQuery(Point(0.3, 0.3), None)).first(12)


def test_writes_and_merged_stats_through_real_processes(cluster):
    with QueryClient(cluster.host, cluster.port) as client:
        before = client.stats()["cluster"]["points"]
        ack = client.insert(0.123, 0.456)
        assert ack.points == before + 1
        frame = client.stats()
        assert frame["cluster"]["workers"] == 2
        assert "latency" in frame  # real workers serve latency sections
        assert frame["server"]["writes_total"] >= 1


def test_start_cluster_rejects_bad_arguments():
    with pytest.raises(ValueError):
        start_cluster(0)
    with pytest.raises(ValueError):
        start_cluster(1, points=[(0.1, 0.2)], snapshot_state={"x": 1})


@pytest.mark.parametrize("failing", [0, 2, 3])
def test_no_worker_outlives_a_failed_start(monkeypatch, failing):
    """Two primaries and their replicas start before any banner is read;
    when the ``failing``-th exits during start-up, every process already
    started (the ones after it too) is stopped and reaped."""
    started = []

    def start_worker(*, host):
        if len(started) == failing:
            process = subprocess.Popen(
                [sys.executable, "-c", "raise SystemExit(3)"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        else:
            process = real_start(host=host)
        started.append(process)
        return process

    real_start = launcher.start_worker
    monkeypatch.setattr(launcher, "start_worker", start_worker)
    with pytest.raises(RuntimeError, match="worker exited during startup"):
        start_cluster(2, replicas=1)
    assert len(started) == 4  # all started before the first wait
    assert all(process.returncode is not None for process in started)
    assert all(process.stdout.closed for process in started)


def test_a_failed_process_start_stops_the_ones_before_it(monkeypatch):
    started = []

    def start_worker(*, host):
        if len(started) == 1:
            raise OSError("no more processes")
        started.append(real_start(host=host))
        return started[-1]

    real_start = launcher.start_worker
    monkeypatch.setattr(launcher, "start_worker", start_worker)
    with pytest.raises(OSError, match="no more processes"):
        start_cluster(2)
    assert len(started) == 1 and started[0].returncode is not None
