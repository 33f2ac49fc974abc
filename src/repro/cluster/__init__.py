"""Hilbert-sharded multi-process cluster serving.

The cluster layer scales the single-process server across cores: a
**router** process partitions the unit square into contiguous
Hilbert-key ranges (:mod:`repro.cluster.shardmap`), routes and merges
queries across N **worker** replicas (:mod:`repro.cluster.coordinator`),
and speaks the same v1 NDJSON protocol to clients — through the same
:class:`~repro.server.app.QueryServer` as a single server, over a
:class:`~repro.cluster.serving.ClusterBackend` — so existing clients
work unchanged.
Workers are plain ``python -m repro serve`` processes spawned on
ephemeral ports (:mod:`repro.cluster.launcher`); snapshots persist
per-shard with a manifest (:mod:`repro.cluster.persist`); stats frames
merge histogram-wise (:mod:`repro.cluster.stats`).

Fault tolerance lives in :mod:`repro.cluster.faults` (retry policy,
health tracking, deterministic fault injection): remote RPCs run under
deadlines with bounded retries, each shard may pair with a synchronous
replica that serves failover reads, and queries that lose a shard from
both copies surface an explicit *degraded* result instead of a silent
partial answer.  See ``docs/CLUSTER.md`` for topology, routing rules,
rebalance semantics, and the replication diagram.
"""

from repro.cluster.backends import LocalShard, RemoteShard, ShardBackend
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterDegradedError,
    ClusterStream,
    ClusterWriteError,
)
from repro.cluster.faults import (
    FaultSpec,
    FaultyBackend,
    HealthTracker,
    RetryPolicy,
    ShardUnavailableError,
)
from repro.cluster.serving import ClusterBackend
from repro.cluster.shardmap import ShardMap, ShardRange, cell_cover
from repro.cluster.stats import merge_stats_frames

__all__ = [
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterDegradedError",
    "ClusterStream",
    "ClusterWriteError",
    "FaultSpec",
    "FaultyBackend",
    "HealthTracker",
    "LocalShard",
    "RemoteShard",
    "RetryPolicy",
    "ShardBackend",
    "ShardMap",
    "ShardRange",
    "ShardUnavailableError",
    "cell_cover",
    "merge_stats_frames",
]
