"""The chunked-iteration hook (``QueryResult.chunks``) on every spec shape."""

import pytest

from repro.core.database import SpatialDatabase
from repro.query.spec import KnnQuery, UnionQuery, WindowQuery
from repro.workloads.generators import uniform_points


@pytest.fixture(scope="module")
def db():
    """A small prepared database shared by the module's tests."""
    return SpatialDatabase.from_points(
        uniform_points(500, seed=17), backend_kind="scipy"
    ).prepare()


class TestChunks:
    def test_chunks_concatenate_to_the_full_result(self, db):
        spec = WindowQuery((0.1, 0.1, 0.8, 0.8))
        blocks = list(db.query(spec).chunks(7))
        assert [i for block in blocks for i in block] == db.query(spec).ids()
        assert all(len(block) == 7 for block in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= 7

    def test_streaming_spec_examines_only_consumed_chunks(self, db):
        examined = []
        spec = KnnQuery(
            (0.5, 0.5), None, predicate=lambda p: examined.append(p) or True
        )
        result = db.query(spec)
        chunks = result.chunks(12)
        first = next(chunks)
        assert len(first) == 12
        assert len(examined) == 12  # one candidate per produced row
        assert not result.executed  # nothing memoised
        chunks.close()
        assert first == db.query(KnnQuery((0.5, 0.5), 12)).ids()

    def test_abandoning_chunks_closes_the_source_stream(self, db):
        examined = []
        spec = KnnQuery(
            (0.4, 0.6), None, predicate=lambda p: examined.append(p) or True
        )
        chunks = db.query(spec).chunks(5)
        next(chunks)
        count_at_close = len(examined)
        chunks.close()
        # a closed chunk iterator pulls nothing more from the expansion
        assert len(examined) == count_at_close
        with pytest.raises(StopIteration):
            next(chunks)

    def test_composite_chunks_match_eager_ids(self, db):
        spec = UnionQuery(
            (
                WindowQuery((0.1, 0.1, 0.4, 0.4)),
                WindowQuery((0.3, 0.3, 0.6, 0.6)),
            )
        )
        blocks = list(db.query(spec).chunks(9))
        assert [i for block in blocks for i in block] == db.query(spec).ids()

    def test_exact_multiple_produces_no_empty_chunk(self, db):
        spec = KnnQuery((0.5, 0.5), 20)
        blocks = list(db.query(spec).chunks(10))
        assert [len(block) for block in blocks] == [10, 10]

    def test_projection_follows_select(self, db):
        spec = KnnQuery((0.5, 0.5), 6, select="distances")
        blocks = list(db.query(spec).chunks(4))
        assert [d for block in blocks for d in block] == (
            db.query(spec).distances()
        )

    def test_invalid_size_rejected(self, db):
        with pytest.raises(ValueError, match="chunk size"):
            db.query(WindowQuery((0, 0, 1, 1))).chunks(0)

    def test_executed_handle_chunks_the_record(self, db):
        spec = WindowQuery((0.2, 0.2, 0.7, 0.7))
        result = db.query(spec)
        eager = result.ids()  # memoises
        assert result.executed
        assert [i for block in result.chunks(8) for i in block] == eager
