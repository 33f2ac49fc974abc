"""The concurrent query server: NDJSON protocol over asyncio TCP.

The network surface of the library, layered on the existing declarative
query stack (:mod:`repro.query`) and batch engine (:mod:`repro.engine`):

``repro.server.protocol``
    The versioned newline-delimited-JSON wire format: request /
    response / chunk / error / stats frames, with query specs carried in
    the exact :mod:`repro.query.serialize` form.
``repro.server.coalescer``
    Cross-client batch coalescing: specs arriving from *different*
    connections within one event-loop turn execute as **one**
    :meth:`~repro.engine.batch.BatchQueryEngine.run_specs` job pool, so
    concurrent clients share batch dedup and the LRU result cache.
``repro.server.app``
    The :class:`QueryServer` itself (``asyncio.start_server``), chunked
    result streaming with client-driven continuation (``next`` /
    ``cancel``), per-connection limits, and the ``stats`` frame; plus
    :class:`ServerThread`, which hosts it on a background thread (the
    CLI, the cluster launcher, tests and benchmarks all use it).
``repro.server.backend``
    The seam between that front end and what executes the frames: the
    local database backend here, the cluster's in
    :mod:`repro.cluster.serving`.
``repro.server.client``
    :class:`QueryClient`, a small blocking client for tests, benchmarks,
    and the ``python -m repro query --remote`` CLI path — including the
    live-query surface (:meth:`~repro.server.client.QueryClient.subscribe`
    / :meth:`~repro.server.client.QueryClient.notifications`).

The server also hosts the **live query** subsystem (:mod:`repro.live`):
clients register standing subscriptions over the same socket and the
write path pushes incremental ``notify`` deltas to every subscription
whose result a write changes.

Start a server with ``python -m repro serve`` (``--load`` serves a
persisted snapshot); see ``docs/SERVER.md`` for the protocol spec and
coalescing semantics.
"""

from repro.server.app import QueryServer, ServerThread
from repro.server.client import (
    ConnectionLost,
    Notification,
    QueryClient,
    RemoteError,
    RemoteResult,
    RemoteSubscription,
)
from repro.server.coalescer import (
    BatchCoalescer,
    CoalescerOverloaded,
    CoalescerStats,
)
from repro.server.metrics import LatencyHistogram, LatencyPanel
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)

__all__ = [
    "QueryServer",
    "ServerThread",
    "QueryClient",
    "ConnectionLost",
    "RemoteResult",
    "RemoteError",
    "RemoteSubscription",
    "Notification",
    "BatchCoalescer",
    "CoalescerOverloaded",
    "CoalescerStats",
    "LatencyHistogram",
    "LatencyPanel",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "encode_frame",
    "decode_frame",
]
