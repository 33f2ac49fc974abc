"""Process management: spawn worker replicas and assemble a cluster.

A worker is nothing special — it is ``python -m repro serve`` on an
ephemeral port with an empty database, exactly the process a user would
start by hand.  :func:`start_worker` launches one, :func:`await_worker`
parses the bound address from its startup banner (``serve --port 0``
prints the port it actually got) and :func:`spawn_worker` does both;
:func:`start_cluster` starts every worker before it waits for any, and
composes them with a
:class:`~repro.cluster.coordinator.ClusterCoordinator` over
:class:`~repro.cluster.backends.RemoteShard` backends, served to
clients by the v1 front end (:class:`~repro.server.app.ServerThread`
over a :class:`~repro.cluster.serving.ClusterBackend`) — the topology
behind ``python -m repro cluster --workers N``.

Data loads *through* the coordinator (bulk extend, partitioned by the
shard map), so workers never need seed files and a restored snapshot
(``--load``) replays onto whatever worker count the snapshot recorded.

Fault tolerance: ``start_cluster(..., replicas=1)`` spawns one standby
worker per primary and mirrors writes synchronously (``--replicas`` on
the CLI); ``supervise=True`` starts a :class:`ClusterSupervisor` thread
that notices dead worker processes, respawns them, and reloads their
rows from the coordinator's global catalog
(:meth:`~repro.cluster.coordinator.ClusterCoordinator.rebuild_worker` /
:meth:`~repro.cluster.coordinator.ClusterCoordinator.rebuild_replica`),
so a ``kill -9`` heals without operator action.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.backends import RemoteShard
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.serving import ClusterBackend
from repro.server.app import ServerThread

__all__ = [
    "WorkerProcess",
    "start_worker",
    "await_worker",
    "spawn_worker",
    "ClusterSupervisor",
    "ClusterHandle",
    "start_cluster",
]

#: The serve banner the launcher parses the bound address from.
_BANNER = re.compile(r"Serving [\d,]+ points on ([\w.\-]+):(\d+) ")


class WorkerProcess:
    """One spawned ``repro serve`` worker and its bound address."""

    def __init__(
        self, process: subprocess.Popen, host: str, port: int
    ) -> None:
        #: the worker's OS process
        self.process = process
        #: bound listen address (parsed from the startup banner)
        self.host, self.port = host, port

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.poll() is None

    @property
    def pid(self) -> int:
        """The worker's OS process id (chaos tests kill this)."""
        return self.process.pid

    def terminate(self, timeout: float = 5.0) -> Optional[int]:
        """Stop and reap the worker; returns its exit code.

        Terminates (then kills on timeout) a still-running worker, waits
        so the child is reaped rather than left a zombie, and closes its
        stdin and captured stdout pipes so repeated restarts cannot leak
        file descriptors.  Returns the process exit code — nonzero or
        negative (killed by signal) when the worker did not shut down
        cleanly — or ``None`` if the process could not be reaped.
        """
        return _stop(self.process, timeout)


def _stop(process: subprocess.Popen, timeout: float = 5.0) -> Optional[int]:
    """:meth:`WorkerProcess.terminate` for a process started by
    :func:`start_worker`, whether or not its banner came."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck
            process.kill()
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
    else:
        # Already exited (crashed or killed externally): reap it.
        process.wait()
    for pipe in (process.stdin, process.stdout, process.stderr):
        if pipe is not None and not pipe.closed:
            pipe.close()
    return process.returncode


def _worker_environment() -> Dict[str, str]:
    """The spawned worker's environment: this repro on the path.

    Workers must import the same library as the launcher even when it
    was never installed (the repo's ``PYTHONPATH=src`` convention), so
    the package's parent directory is prepended explicitly.
    """
    import repro

    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        source_root + os.pathsep + existing if existing else source_root
    )
    return env


def start_worker(*, host: str = "127.0.0.1") -> subprocess.Popen:
    """Start one empty ``repro serve`` worker on an ephemeral port and
    return at once; :func:`await_worker` reads its address.

    The worker starts with ``--points 0`` — data arrives through the
    coordinator's bulk load, never via per-worker seed files — and with
    ``--lifeline``: the write end of its stdin pipe is held by this
    process alone, so the worker stops when this process ends, even by
    SIGKILL, which runs no clean-up.  A respawned worker gets the same.
    """
    command = [
        sys.executable,
        "-u",  # unbuffered: the banner must arrive through the pipe
        "-m",
        "repro",
        "serve",
        "--host",
        host,
        "--port",
        "0",
        "--points",
        "0",
        "--lifeline",
    ]
    return subprocess.Popen(
        command,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_worker_environment(),
    )


def await_worker(
    process: subprocess.Popen, *, startup_timeout: float = 30.0
) -> WorkerProcess:
    """Block until a :func:`start_worker` process prints its startup
    banner, so the returned address is connectable.  ``RuntimeError`` if
    it exits first or ``startup_timeout`` passes (it is killed then).
    """
    deadline = time.monotonic() + startup_timeout
    lines: List[str] = []
    while True:
        if process.poll() is not None:
            raise RuntimeError(
                "worker exited during startup:\n" + "".join(lines)
            )
        if time.monotonic() > deadline:
            process.kill()
            raise RuntimeError(
                "worker did not print its startup banner within "
                f"{startup_timeout:g}s:\n" + "".join(lines)
            )
        line = process.stdout.readline()
        if not line:
            time.sleep(0.01)
            continue
        lines.append(line)
        match = _BANNER.search(line)
        if match:
            return WorkerProcess(
                process, match.group(1), int(match.group(2))
            )


def spawn_worker(
    *,
    host: str = "127.0.0.1",
    startup_timeout: float = 30.0,
) -> WorkerProcess:
    """Launch one empty ``repro serve`` worker on an ephemeral port and
    wait for its banner (:func:`start_worker`, then :func:`await_worker`)."""
    return await_worker(
        start_worker(host=host), startup_timeout=startup_timeout
    )


class ClusterSupervisor:
    """Respawn dead worker processes and reload their shards.

    A daemon thread polling every primary (and replica) worker process;
    when one has exited it is reaped (:meth:`WorkerProcess.terminate`
    closes its pipes and reports the exit code), a fresh empty worker
    is spawned, and the coordinator rebuilds the shard onto it from the
    global catalog —
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.rebuild_worker`
    for a primary,
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.rebuild_replica`
    for a standby.  Until the rebuild lands, reads fail over to the
    replica (or surface degraded results); afterwards the shard serves
    normally again.

    ``events`` accumulates one human-readable line per detection /
    recovery / failure, newest last; ``restarts`` counts successful
    recoveries.  Recovery failures (the respawn itself dying, the
    rebuild RPC failing) are logged and retried on the next poll tick.
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        workers: List[WorkerProcess],
        replica_workers: Optional[List[Optional[WorkerProcess]]] = None,
        *,
        poll_interval: float = 0.25,
        **spawn_options,
    ) -> None:
        self.coordinator = coordinator
        #: primary worker processes, mutated in place on respawn
        self.workers = workers
        #: replica worker processes (slot-indexed), mutated on respawn
        self.replica_workers = (
            replica_workers if replica_workers is not None else []
        )
        self.poll_interval = poll_interval
        #: :func:`spawn_worker` keywords for every replacement worker
        self._spawn_options = spawn_options
        #: recovery log, one line per event (detection, success, failure)
        self.events: List[str] = []
        #: count of completed respawn-and-rebuild recoveries
        self.restarts = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def start(self) -> None:
        """Start the poll loop (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the poll loop (idempotent; joins the thread)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._thread = None

    def _log(self, message: str) -> None:
        with self._lock:
            self.events.append(message)

    def _run(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self.check_once()

    def check_once(self) -> int:
        """One poll pass: recover every dead worker found; returns count.

        Exposed for deterministic tests (call instead of starting the
        thread); the background loop calls it every ``poll_interval``.
        """
        recovered = 0
        for role, workers, rebuild in (
            ("primary", self.workers, self.coordinator.rebuild_worker),
            ("replica", self.replica_workers, self.coordinator.rebuild_replica),
        ):
            for index, worker in enumerate(workers):
                if worker is None or worker.alive:
                    continue
                exit_code = worker.terminate()
                self._log(
                    f"{role} worker {index} exited with code {exit_code}"
                )
                recovered += self._recover(role, index, workers, rebuild)
        return recovered

    def _recover(self, role: str, index: int, workers, rebuild) -> bool:
        try:
            replacement = spawn_worker(**self._spawn_options)
            backend = RemoteShard(replacement.host, replacement.port)
            rows = rebuild(index, backend)
        except Exception as exc:
            self._log(f"{role} worker {index} recovery failed: {exc}")
            return False
        workers[index] = replacement
        with self._lock:
            self.restarts += 1
        self._log(
            f"{role} worker {index} respawned on "
            f"{replacement.host}:{replacement.port}, {rows} rows restored"
        )
        return True


class ClusterHandle:
    """A running cluster: router + workers + coordinator, one lifetime.

    Returned by :func:`start_cluster`; use as a context manager or call
    :meth:`close`.  :attr:`host`/:attr:`port` are the router's client
    address.  ``replica_workers`` holds the standby processes (empty
    when unreplicated) and ``supervisor`` the respawn thread (``None``
    unless ``supervise=True``).
    """

    def __init__(
        self,
        server_thread: ServerThread,
        coordinator: ClusterCoordinator,
        workers: List[WorkerProcess],
        replica_workers: Optional[List[WorkerProcess]] = None,
        supervisor: Optional[ClusterSupervisor] = None,
    ) -> None:
        #: the protocol-serving front end (it owns the coordinator)
        self.server_thread = server_thread
        #: the routing/merge engine (shared with the router)
        self.coordinator = coordinator
        #: the spawned primary worker processes
        self.workers = workers
        #: the spawned standby worker processes (slot-indexed)
        self.replica_workers = replica_workers or []
        #: the respawn thread, when supervision was requested
        self.supervisor = supervisor
        #: the router's client-facing address
        self.host, self.port = server_thread.host, server_thread.port

    def close(self) -> None:
        """Stop supervision, then the router, then every worker."""
        if self.supervisor is not None:
            self.supervisor.stop()
        self.server_thread.close()
        for worker in self.workers:
            worker.terminate()
        for worker in self.replica_workers:
            if worker is not None:
                worker.terminate()

    def __enter__(self) -> "ClusterHandle":
        """Context-manager entry: the cluster is already serving."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: tear the cluster down."""
        self.close()


def start_cluster(
    worker_count: int,
    *,
    points: Optional[Sequence[Tuple[float, float]]] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    snapshot_state: Optional[Dict] = None,
    replicas: int = 0,
    supervise: bool = False,
    health_interval: float = 0.0,
    **coordinator_options,
) -> ClusterHandle:
    """Spawn ``worker_count`` workers and serve them behind one router.

    Either ``points`` (bulk-loaded through the shard map) or
    ``snapshot_state`` (a :func:`repro.cluster.persist.load_cluster_state`
    mapping, restoring ids and shard assignment exactly) seeds the data;
    both ``None`` starts empty.  ``replicas=1`` spawns one standby
    worker per primary and mirrors every write synchronously (reads
    fail over when a primary dies); ``supervise=True`` starts a
    :class:`ClusterSupervisor` that respawns dead workers; a positive
    ``health_interval`` starts the coordinator's background health
    probes at that period.  ``coordinator_options`` pass through to
    :class:`ClusterCoordinator` (rebalance tuning).  Every worker and
    replica is started before the launcher waits for any banner, so their
    start-ups overlap.  On any startup failure every process already
    started is terminated before the error propagates.
    """
    if worker_count < 1:
        raise ValueError(f"need at least one worker, got {worker_count}")
    if points is not None and snapshot_state is not None:
        raise ValueError("pass points or snapshot_state, not both")
    if replicas not in (0, 1):
        raise ValueError(
            f"replicas must be 0 or 1 (per-primary standby), got {replicas}"
        )
    processes: List[subprocess.Popen] = []
    try:
        for _ in range(worker_count * (1 + replicas)):
            processes.append(start_worker(host=host))
        started = [await_worker(process) for process in processes]
        workers, replica_workers = started[:worker_count], started[worker_count:]
        backends = [
            RemoteShard(worker.host, worker.port) for worker in workers
        ]
        if replicas:
            coordinator_options["replicas"] = [
                RemoteShard(worker.host, worker.port)
                for worker in replica_workers
            ]
        if snapshot_state is not None:
            coordinator = ClusterCoordinator.restore(
                backends, snapshot_state, **coordinator_options
            )
        else:
            coordinator = ClusterCoordinator(
                backends, **coordinator_options
            )
            if points:
                coordinator.extend(points)
        if health_interval > 0:
            coordinator.start_health_monitor(health_interval)
        server_thread = ServerThread(
            backend=ClusterBackend(coordinator), host=host, port=port
        )
    except BaseException:
        for process in processes:
            _stop(process)
        raise
    supervisor: Optional[ClusterSupervisor] = None
    if supervise:
        supervisor = ClusterSupervisor(
            coordinator,
            workers,
            replica_workers if replicas else None,
            host=host,
        )
        supervisor.start()
    return ClusterHandle(
        server_thread, coordinator, workers, replica_workers, supervisor
    )
