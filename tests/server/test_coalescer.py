"""Admission-queue semantics of the cross-client batch coalescer."""

import asyncio

import pytest

from repro.core.database import SpatialDatabase
from repro.core.exceptions import InvalidQueryAreaError
from repro.geometry.polygon import Polygon
from repro.query.spec import KnnQuery, WindowQuery
from repro.server.coalescer import BatchCoalescer
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db():
    """A small prepared database shared by the module's tests."""
    return SpatialDatabase.from_points(
        uniform_points(400, seed=31), backend_kind="scipy"
    ).prepare()


def window(i: int) -> WindowQuery:
    """A distinct small window per index."""
    offset = (i % 7) * 0.01
    return WindowQuery((0.2 + offset, 0.2, 0.5 + offset, 0.5))


class TestFlushTriggers:
    def test_one_turn_of_submits_forms_one_multi_client_batch(self, db):
        coalescer = BatchCoalescer(db, max_batch=100)

        async def run():
            return await asyncio.gather(
                coalescer.submit(window(0), client="a"),
                coalescer.submit(window(1), client="b"),
                coalescer.submit(window(2), client="c"),
            )

        records = asyncio.run(run())
        assert [r.ids for r in records] == [
            db.query(window(i)).ids() for i in range(3)
        ]
        stats = coalescer.stats
        assert stats.batches == 1
        assert stats.batch_sizes == {3: 1}
        assert stats.coalesced_batches == 1
        assert stats.multi_client_batches == 1
        assert stats.mean_batch_size == 3.0

    def test_a_lone_request_never_waits_on_a_timer(self, db):
        coalescer = BatchCoalescer(db)

        async def run():
            future = coalescer.enqueue(window(0), client="a")
            for _ in range(2):  # loop turns only, no sleep of any length
                if future.done():
                    break
                await asyncio.sleep(0)
            assert future.done()
            return future.result()

        record = asyncio.run(run())
        assert record.ids == db.query(window(0)).ids()
        assert coalescer.stats.batches == 1

    def test_full_queue_flushes_without_waiting(self, db):
        coalescer = BatchCoalescer(db, max_batch=2)

        async def run():
            return await asyncio.wait_for(
                asyncio.gather(
                    coalescer.submit(window(0), client="a"),
                    coalescer.submit(window(1), client="a"),
                ),
                timeout=5.0,
            )

        records = asyncio.run(run())
        assert len(records) == 2
        assert coalescer.stats.full_flushes == 1


class TestSharingAndErrors:
    def test_identical_specs_across_clients_execute_once(self, db):
        coalescer = BatchCoalescer(db)
        db.engine.cache.clear()  # isolate dedup from earlier tests' cache
        spec = window(0)

        async def run():
            return await asyncio.gather(
                coalescer.submit(spec, client="a"),
                coalescer.submit(spec, client="b"),
            )

        records = asyncio.run(run())
        assert records[0].ids == records[1].ids
        assert db.engine.last_batch_stats.duplicate_hits == 1
        assert db.engine.last_batch_stats.executed == 1

    def test_invalid_spec_rejected_at_admission(self, db):
        from repro.query.spec import AreaQuery

        coalescer = BatchCoalescer(db)
        degenerate = AreaQuery(
            Polygon([(0, 0), (1, 1), (0.5, 0.5), (0.2, 0.2)])
        )

        async def run():
            # the bad spec fails fast; the good one still gets answered
            with pytest.raises(InvalidQueryAreaError):
                await coalescer.submit(degenerate, client="a")
            return await coalescer.submit(window(0), client="b")

        record = asyncio.run(run())
        assert record.ids == db.query(window(0)).ids()
        assert coalescer.stats.requests == 1  # the rejected spec never queued

    def test_execution_failure_poisons_only_its_batch(self, db):
        coalescer = BatchCoalescer(db)
        original = db.engine.run_specs

        def explode(*args, **kwargs):
            raise RuntimeError("engine down")

        async def run():
            db.engine.run_specs = explode
            try:
                with pytest.raises(RuntimeError, match="engine down"):
                    await coalescer.submit(window(0), client="a")
            finally:
                db.engine.run_specs = original
            return await coalescer.submit(window(1), client="a")

        record = asyncio.run(run())
        assert record.ids == db.query(window(1)).ids()

    def test_non_spec_submissions_rejected(self, db):
        coalescer = BatchCoalescer(db)

        async def run():
            await coalescer.submit("not a spec")  # type: ignore[arg-type]

        with pytest.raises(TypeError, match="not a query spec"):
            asyncio.run(run())

    def test_constructor_validation(self, db):
        with pytest.raises(ValueError, match="max_batch"):
            BatchCoalescer(db, max_batch=0)

    def test_knn_and_windows_mix_in_one_batch(self, db):
        coalescer = BatchCoalescer(db)
        knn = KnnQuery((0.5, 0.5), 5)

        async def run():
            return await asyncio.gather(
                coalescer.submit(window(0), client="a"),
                coalescer.submit(knn, client="b"),
            )

        window_record, knn_record = asyncio.run(run())
        assert window_record.ids == db.query(window(0)).ids()
        assert knn_record.ids == db.query(knn).ids()
        assert coalescer.stats.batch_sizes == {2: 1}
