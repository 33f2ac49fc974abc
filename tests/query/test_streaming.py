"""Streaming consumption: unbounded kNN, composites, shim silence.

The laziness proofs use the predicate contract (one invocation per
examined candidate): counting predicate calls counts exactly how much of
the database a streaming consumption touched.
"""

import itertools
import warnings

import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.rectangle import Rect
from repro.query.spec import (
    AreaQuery,
    KnnQuery,
    UnionQuery,
    WindowQuery,
)

W1 = WindowQuery(Rect(0.1, 0.1, 0.5, 0.5))
W2 = WindowQuery(Rect(0.4, 0.4, 0.8, 0.8))


@pytest.fixture(scope="module")
def db(uniform_1000):
    """A 1000-point database shared by the streaming tests."""
    return SpatialDatabase.from_points(uniform_1000).prepare()


class TestUnboundedKnn:
    def test_spec_validation(self):
        spec = KnnQuery((0.5, 0.5), None)
        assert spec.k is None
        assert spec.streams()
        assert not KnnQuery((0.5, 0.5), 3).streams()
        with pytest.raises(ValueError):
            KnnQuery((0.5, 0.5), -1)
        with pytest.raises(ValueError):
            KnnQuery((0.5, 0.5), 2.5)

    def test_first_examines_only_n_candidates(self, db):
        examined = []
        spec = KnnQuery(
            (0.5, 0.5), None, predicate=lambda p: examined.append(p) or True
        )
        result = db.query(spec)
        first = result.first(10)
        assert len(first) == 10
        assert len(examined) == 10
        assert not result.executed

    def test_iteration_streams_and_takewhile_stops_early(self, db):
        examined = []
        spec = KnnQuery(
            (0.5, 0.5),
            None,
            select="distances",
            predicate=lambda p: examined.append(p) or True,
        )
        anchor = db.query(KnnQuery((0.5, 0.5), 1)).distances()[0]
        result = db.query(spec)
        close = list(
            itertools.takewhile(lambda d: d <= anchor, iter(result))
        )
        assert close and not result.executed
        assert len(examined) < len(db)

    def test_stream_prefix_matches_bounded_knn(self, db):
        streamed = db.query(KnnQuery((0.3, 0.7), None)).first(25)
        assert streamed == db.query(KnnQuery((0.3, 0.7), 25)).ids()

    def test_eager_unbounded_knn_ranks_everything(self, db):
        result = db.query(KnnQuery((0.2, 0.2), None))
        ids = result.ids()
        assert result.executed
        assert sorted(ids) == list(range(len(db)))
        # limit still caps the eager form
        capped = db.query(KnnQuery((0.2, 0.2), None, limit=7)).ids()
        assert capped == ids[:7]

    def test_limit_caps_the_stream(self, db):
        spec = KnnQuery((0.6, 0.4), None, limit=4)
        assert db.query(spec).first(10) == db.query(
            KnnQuery((0.6, 0.4), 4)
        ).ids()

    def test_unbounded_knn_in_a_batch(self, db):
        batch = db.query_batch(
            [KnnQuery((0.5, 0.5), None), KnnQuery((0.1, 0.9), 5)]
        )
        assert len(batch[0].ids()) == len(db)
        assert batch[1].ids() == db.query(KnnQuery((0.1, 0.9), 5)).ids()

    def test_distances_projection_streams_sorted(self, db):
        distances = db.query(
            KnnQuery((0.5, 0.5), None, select="distances")
        ).first(20)
        assert distances == sorted(distances)


class TestStreamingComposites:
    def test_first_does_not_memoise(self, db):
        """Only an unbounded kNN streams unmemoised; ``first`` on a
        composite executes and memoises its record."""
        result = db.query(UnionQuery((W1, W2)))
        prefix = result.first(3)
        assert len(prefix) == 3
        assert result.executed
        assert prefix == db.query(UnionQuery((W1, W2))).ids()[:3]

    def test_iteration_is_lazy_and_matches_eager(self, db):
        """Iterating a composite executes it once, like a window."""
        spec = UnionQuery((W1, W2))
        result = db.query(spec)
        streamed = list(iter(result))
        assert result.executed
        assert streamed == db.query(spec).ids()

    def test_first_executes_once(self, db):
        """``first`` runs the composite's one engine batch and memoises
        it: a later ``ids()`` runs none."""
        result = db.query(UnionQuery((W1, W2)))
        prefix = result.first(3)
        assert result.executed
        batches = db.engine.totals.batches
        assert result.ids()[:3] == prefix
        assert db.engine.totals.batches == batches

    def test_projection_applies_to_stream(self, db):
        points = db.query(UnionQuery((W1, W2), select="points")).first(5)
        ids = db.query(UnionQuery((W1, W2))).first(5)
        assert points == [db.point(i) for i in ids]

    def test_len_and_stats_still_memoise(self, db):
        result = db.query(UnionQuery((W1, W2)))
        assert len(result) == len(result.ids())
        assert result.executed
        assert result.stats.method == "composite"

    def test_streaming_leaves_run_through_the_batch_engine(self, db):
        """The leaves of a streamed composite execute in one engine batch
        (cache, dedup) alongside the composite itself."""
        from repro.geometry.polygon import Polygon

        parts = tuple(
            AreaQuery(
                Polygon(
                    [
                        (0.2 + d, 0.2 + d),
                        (0.5 + d, 0.25 + d),
                        (0.4 + d, 0.55 + d),
                    ]
                ),
                method="voronoi",
            )
            for d in (0.0, 0.02, 0.04, 0.06)
        )
        db.query(UnionQuery(parts)).first(3)
        stats = db.engine.last_batch_stats
        assert stats.composite_leaves == 4  # the leaves, batched together
        assert stats.method_counts == {"voronoi": 4}


class TestNoShimNoise:
    def test_streaming_paths_emit_no_deprecation_warnings(self, db):
        """The new paths never route through the legacy shims.

        Equivalent to a ``-W error::DeprecationWarning`` run over the
        streaming and composite surfaces — the pytest ``filterwarnings``
        entries only excuse tests that *intentionally* call the shims.
        """
        from repro.geometry.polygon import Polygon

        area = AreaQuery(
            Polygon([(0.2, 0.2), (0.6, 0.25), (0.5, 0.7)])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.query(KnnQuery((0.5, 0.5), None)).first(10)
            db.query(UnionQuery((W1, W2))).first(5)
            db.query(UnionQuery((W1, area))).ids()
            db.query_batch(
                [UnionQuery((W1, W2)), KnnQuery((0.4, 0.4), None)]
            )
            db.explain(UnionQuery((W1, W2)), execute=True)
