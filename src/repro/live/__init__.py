"""Live queries: standing subscriptions with incremental delta push.

The continuous-spatial-query layer over the mutable serving stack
(SINA/SCUBA-style incremental evaluation): a client *registers* a query
once and the server pushes ``added``/``removed`` row-id deltas as writes
land, instead of the client re-polling the full result.

``repro.live.registry``
    :class:`SubscriptionRegistry` — standing specs (region queries and
    kNN-of-focal-point) held as rows of float64 arrays (a region's
    bounds, a kNN's focal point and kth squared distance), and the
    per-write fan-out that runs one broadcast bounds test of every row
    against the written points and evaluates only the hits, turning one
    mutation into per-subscription deltas.  :class:`RegistryStats` carries the
    mechanism counters (evaluations ≪ writes × subscriptions is the
    pruning proof).
``repro.live.delta``
    The incremental evaluators: region membership updates from the
    write's coordinates alone; kNN k-sets repaired in place (an insert
    inside the kth radius displaces the kth member, a deleted member
    triggers one :func:`~repro.core.knn_query.incremental_nearest`
    refill) — never a full re-execution.

The server wires this into the write path (see
:mod:`repro.server.app`); ``docs/SERVER.md`` documents the
``subscribe``/``unsubscribe``/``notify`` wire frames and the delivery
semantics.
"""

from repro.live.delta import Delta
from repro.live.registry import (
    RegistryStats,
    Subscription,
    SubscriptionRegistry,
)

__all__ = [
    "Delta",
    "RegistryStats",
    "Subscription",
    "SubscriptionRegistry",
]
