"""End-to-end live queries over real sockets.

The acceptance scenario of the subscription subsystem: subscriber
connections register standing region and kNN queries, a separate writer
connection applies inserts, deletes, and moves, and every pushed
``notify`` delta must compose to exactly the brute-force re-execution
of the spec on the post-write database — in version order, per
subscription — while disconnects and unsubscribes free all server-side
state.
"""

import time

import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.polygon import Polygon
from repro.query.spec import AreaQuery, KnnQuery, UnionQuery, WindowQuery
from repro.server import QueryClient, RemoteError, ServerThread
from repro.workloads.generators import moving_object_steps, uniform_points

N_POINTS = 300


@pytest.fixture()
def db():
    """A fresh mutable database per test (pure backend: incremental)."""
    return SpatialDatabase.from_points(
        uniform_points(N_POINTS, seed=71), backend_kind="pure"
    ).prepare()


@pytest.fixture()
def server(db):
    with ServerThread(db) as thread:
        yield thread


def wait_until(predicate, timeout=5.0):
    """Poll ``predicate`` until true (or fail after ``timeout`` seconds)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached within timeout")


class _Mirror:
    """A client-side replica maintained purely from pushed deltas."""

    def __init__(self, subscription, spec):
        self.subscription = subscription
        self.spec = spec
        self.rows = set(subscription.ids)
        self.version = subscription.version
        self.notified = 0

    def apply(self, note):
        """Fold one notification in, checking order and disjointness."""
        assert note.version > self.version, "stale or reordered delta"
        assert not set(note.added) & self.rows
        assert set(note.removed) <= self.rows
        self.rows -= set(note.removed)
        self.rows |= set(note.added)
        self.version = note.version
        self.notified += 1


class TestAcceptance:
    def test_region_and_knn_subscribers_track_a_writer_exactly(
        self, db, server
    ):
        """Two subscribers (region + kNN) and one writer: every write's
        deltas, applied in arrival order, equal brute-force
        re-execution on the post-write database."""
        region_client = QueryClient(server.host, server.port)
        knn_client = QueryClient(server.host, server.port)
        writer = QueryClient(server.host, server.port)
        try:
            region_specs = [
                WindowQuery((0.25, 0.25, 0.6, 0.6)),
                AreaQuery(
                    Polygon([(0.1, 0.1), (0.85, 0.2), (0.5, 0.9)])
                ),
            ]
            knn_specs = [KnnQuery((0.5, 0.5), 6), KnnQuery((0.3, 0.7), 4)]
            mirrors = {}
            for client, specs in (
                (region_client, region_specs),
                (knn_client, knn_specs),
            ):
                for spec in specs:
                    subscription = client.subscribe(spec)
                    assert subscription.ids == writer.query(spec).ids
                    mirrors[(client, subscription.id)] = _Mirror(
                        subscription, spec
                    )

            objects = uniform_points(6, seed=73)
            rows = list(writer.extend([(p.x, p.y) for p in objects]).rows)
            writer.delete(rows[0])
            rows[0] = writer.insert(0.5001, 0.4999).rows[0]
            for index, _, new in moving_object_steps(
                objects, 20, seed=79, speed=0.15
            ):
                writer.delete(rows[index])
                rows[index] = writer.insert(*new).rows[0]
            # Targeted writes so every subscription sees >= 1 delta.
            for x, y in [(0.5, 0.5), (0.3, 0.7), (0.4, 0.4)]:
                landed = writer.insert(x, y).rows[0]
                writer.delete(landed)

            for client in (region_client, knn_client):
                for note in client.notifications(timeout=2.0):
                    mirrors[(client, note.subscription_id)].apply(note)

            for (client, _), mirror in mirrors.items():
                expected = writer.query(mirror.spec).ids
                assert mirror.rows == set(expected), (
                    f"{mirror.spec.describe()} drifted from brute force"
                )
                assert mirror.notified > 0
                assert mirror.version <= db.version
        finally:
            region_client.close()
            knn_client.close()
            writer.close()

    def test_notifications_arrive_in_version_order_per_subscription(
        self, db, server
    ):
        with QueryClient(server.host, server.port) as subscriber:
            with QueryClient(server.host, server.port) as writer:
                subscription = subscriber.subscribe(
                    WindowQuery((0.4, 0.4, 0.6, 0.6))
                )
                expected_versions = []
                for i in range(5):
                    ack = writer.insert(0.45 + i * 0.02, 0.5)
                    expected_versions.append(ack.version)
                notes = subscriber.notifications(timeout=2.0)
                got = [n.version for n in notes]
                assert got == expected_versions
                assert all(
                    n.subscription_id == subscription.id for n in notes
                )

    def test_initial_ids_atomic_with_concurrent_writes(self, db, server):
        """Every row is either in the initial ids or arrives as a delta
        — never both, never neither."""
        with QueryClient(server.host, server.port) as subscriber:
            with QueryClient(server.host, server.port) as writer:
                writer.insert(0.5, 0.5)
                subscription = subscriber.subscribe(
                    WindowQuery((0.0, 0.0, 1.0, 1.0))
                )
                writer.insert(0.51, 0.51)
                notes = subscriber.notifications(timeout=2.0)
                seen = set(subscription.ids)
                for note in notes:
                    assert not set(note.added) & seen
                    seen |= set(note.added)
                assert seen == set(
                    writer.query(WindowQuery((0.0, 0.0, 1.0, 1.0))).ids
                )


class TestLifecycle:
    def test_disconnect_frees_registry_and_routes(self, db, server):
        client = QueryClient(server.host, server.port)
        client.subscribe(WindowQuery((0.1, 0.1, 0.9, 0.9)))
        client.subscribe(KnnQuery((0.5, 0.5), 5))
        assert server.server.active_subscriptions == 2
        client.close()
        wait_until(lambda: server.server.active_subscriptions == 0)
        assert server.server.backend.registry.active == 0
        assert server.server._routes == {}
        assert server.server.metrics["subscriptions_closed"] == 2

    def test_unsubscribe_mid_notification_orders_ack_last(self, db, server):
        """Notifies already produced are delivered before the
        ``unsubscribed`` ack, and the ack's count matches them."""
        with QueryClient(server.host, server.port) as subscriber:
            with QueryClient(server.host, server.port) as writer:
                subscription = subscriber.subscribe(
                    WindowQuery((0.4, 0.4, 0.6, 0.6))
                )
                writer.insert(0.5, 0.45)
                writer.insert(0.5, 0.55)
                # Unsubscribe without draining: the pushed notifies are
                # buffered by the client while awaiting the ack.
                count = subscriber.unsubscribe(subscription)
                assert count == 2
                buffered = subscriber.notifications()
                assert len(buffered) == 2
                # After the ack, further writes push nothing.
                writer.insert(0.5, 0.5)
                assert subscriber.notifications(timeout=0.3) == []
        assert server.server.backend.registry.active == 0

    def test_reinsert_on_tombstone_is_single_added_delta(self, db, server):
        with QueryClient(server.host, server.port) as subscriber:
            with QueryClient(server.host, server.port) as writer:
                spec = WindowQuery((0.2, 0.2, 0.8, 0.8))
                subscription = subscriber.subscribe(spec)
                victim = subscription.ids[0]
                x, y = db.store.coords(victim)
                writer.delete(victim)
                reborn = writer.insert(x, y).rows[0]
                notes = subscriber.notifications(timeout=2.0)
                assert [(n.added, n.removed) for n in notes] == [
                    ([], [victim]),
                    ([reborn], []),
                ]

    def test_unsubscribing_one_keeps_the_other_live(self, db, server):
        with QueryClient(server.host, server.port) as subscriber:
            with QueryClient(server.host, server.port) as writer:
                dropped = subscriber.subscribe(
                    WindowQuery((0.4, 0.4, 0.6, 0.6))
                )
                kept = subscriber.subscribe(
                    WindowQuery((0.45, 0.45, 0.55, 0.55))
                )
                dropped.unsubscribe()
                writer.insert(0.5, 0.5)
                notes = subscriber.notifications(timeout=2.0)
                assert [n.subscription_id for n in notes] == [kept.id]


class TestErrors:
    def test_duplicate_subscription_id_rejected(self, db, server):
        with QueryClient(server.host, server.port) as client:
            subscription = client.subscribe(WindowQuery((0, 0, 0.5, 0.5)))
            from repro.query.serialize import spec_to_dict

            client._send_frame(
                {
                    "type": "subscribe",
                    "id": subscription.id,
                    "spec": spec_to_dict(WindowQuery((0, 0, 1, 1))),
                }
            )
            with pytest.raises(RemoteError) as excinfo:
                client._read_response(subscription.id)
            assert excinfo.value.code == "bad-request"

    def test_unsubscribe_unknown_id_rejected(self, db, server):
        with QueryClient(server.host, server.port) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.unsubscribe(99)
            assert excinfo.value.code == "bad-request"

    def test_non_subscribable_specs_rejected_as_bad_spec(self, db, server):
        with QueryClient(server.host, server.port) as client:
            for spec in [
                KnnQuery((0.5, 0.5), None),
                UnionQuery(
                    (
                        WindowQuery((0, 0, 0.5, 0.5)),
                        WindowQuery((0.5, 0.5, 1, 1)),
                    )
                ),
            ]:
                with pytest.raises(RemoteError) as excinfo:
                    client.subscribe(spec)
                assert excinfo.value.code == "bad-spec"
            # The connection survives rejections and can still subscribe.
            assert client.subscribe(WindowQuery((0, 0, 1, 1))).ids


class TestStats:
    def test_stats_frame_reports_subscription_counters(self, db, server):
        with QueryClient(server.host, server.port) as subscriber:
            with QueryClient(server.host, server.port) as writer:
                subscriber.subscribe(WindowQuery((0.4, 0.4, 0.6, 0.6)))
                subscriber.subscribe(KnnQuery((0.5, 0.5), 4))
                writer.insert(0.5, 0.5)
                subscriber.notifications(timeout=2.0)
                stats = subscriber.stats()
                live = stats["subscriptions"]
                assert live["active"] == 2
                assert live["registered_total"] == 2
                assert live["writes"] == 1
                assert 1 <= live["evaluations"] <= 2
                assert live["notifications"] >= 1
                coalescer = stats["coalescer"]
                assert coalescer["subscriptions"] == 2
                assert (
                    coalescer["notifications"] == live["notifications"]
                )
                assert (
                    coalescer["subscription_fanout"] == live["fanout"]
                )
                assert stats["server"]["subscriptions_opened"] == 2
