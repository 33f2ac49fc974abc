"""A query record holds its ids in one read-only int32 array.

Both of the paper's methods end in a sorted int32 array; the record keeps
that array (4 B per id) instead of a list of Python ints (about 36), and
the result cache and the server share it.  An id past the int32 range is
refused, never wrapped.  No clock is read here: memory is counted by
``tracemalloc`` and sharing by identity.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.database import SpatialDatabase
from repro.core.stats import QueryRecord, QueryStats
from repro.engine.cache import ResultCache
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rect
from repro.query.executor import finalize_record
from repro.query.spec import AreaQuery, KnnQuery

ROWS = 10_000


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(32)
    return SpatialDatabase.from_arrays(rng.random(ROWS), rng.random(ROWS)).prepare()


def _everything(method):
    return AreaQuery(Polygon.from_rect(Rect(-1.0, -1.0, 2.0, 2.0)), method=method)


@pytest.mark.parametrize("method", ["voronoi", "traditional"])
def test_a_held_record_costs_at_most_6_bytes_an_id(db, method):
    """4 B an id plus the record and its stats; int64 ids made 8."""
    spec = _everything(method)
    db.query(spec).record  # warm every lazily built structure first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record = db.query(spec).record
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(record) == ROWS
    assert held / ROWS <= 6


def test_id_array_is_read_only(db):
    record = db.query(_everything("voronoi")).record
    assert record.id_array.dtype == np.int32
    assert not record.id_array.flags.writeable
    with pytest.raises(ValueError):
        record.id_array[0] = -1


def test_the_constructor_takes_any_int_sequence():
    record = QueryRecord(ids=(4, 2, 9))
    assert record.ids == [4, 2, 9]
    assert all(type(i) is int for i in record.ids)
    assert list(record) == [4, 2, 9]
    assert QueryRecord().ids == []


def test_an_int32_array_is_adopted_and_anything_else_converted_once():
    ids = np.arange(5, dtype=np.int32)
    assert QueryRecord(ids).id_array is ids
    for other in ([0, 1, 2, 3, 4], np.arange(5, dtype=np.int64), range(5)):
        record = QueryRecord(other)
        assert record.id_array.dtype == np.int32
        assert record.ids == [0, 1, 2, 3, 4]
    assert QueryRecord([-(2**31), 2**31 - 1]).ids == [-(2**31), 2**31 - 1]


@pytest.mark.parametrize(
    "ids",
    [
        [3, 2**31],
        [-(2**31) - 1],
        np.array([3, 2**31], dtype=np.int64),
        np.array([2**32 + 7], dtype=np.int64),  # wraps to 7 in int32
        [2**70],
    ],
    ids=["list", "list-below", "int64", "int64-wraps", "past-int64"],
)
def test_an_id_past_int32_raises_and_never_wraps(ids):
    with pytest.raises(ValueError, match="int32"):
        QueryRecord(ids)


def test_a_cache_hit_shares_the_stored_array():
    cache = ResultCache(capacity=4)
    stored = QueryRecord(np.arange(5, dtype=np.int32), QueryStats(method="voronoi"))
    cache.put("k", 1, stored)
    first = cache.get("k", version=1)
    second = cache.get("k", version=1)
    assert first.id_array is stored.id_array
    assert second.id_array is stored.id_array
    assert first.stats is not second.stats


def test_mutating_the_ids_list_changes_neither_record_nor_hit():
    cache = ResultCache(capacity=4)
    record = QueryRecord([1, 2, 3], QueryStats(method="voronoi"))
    cache.put("k", 1, record)
    ids = record.ids
    ids.append(99)
    ids[0] = -7
    hit = cache.get("k", version=1)
    hit_ids = hit.ids
    hit_ids.clear()
    assert record.ids == [1, 2, 3]
    assert cache.get("k", version=1).ids == [1, 2, 3]


def test_finalize_hands_back_an_untouched_record_and_copies_a_cut(db):
    raw = QueryRecord(np.arange(100, dtype=np.int32), QueryStats(result_size=100))
    spec = _everything("voronoi")
    assert finalize_record(db, spec, raw) is raw
    assert finalize_record(db, spec.with_limit(100), raw) is raw
    cut = finalize_record(db, spec.with_limit(10), raw)
    assert cut.ids == list(range(10)) and cut.stats.result_size == 10
    assert cut.id_array.base is None  # the prefix does not pin all 100 ids
    assert not cut.id_array.flags.writeable
    seen = []
    odd = finalize_record(
        db, spec.where(lambda p: seen.append(p) or len(seen) % 2 == 0), raw
    )
    assert len(seen) == 100
    assert odd.ids == list(range(1, 100, 2)) and odd.stats.result_size == 50


class TestMembership:
    def test_area_record(self, db):
        spec = AreaQuery(Polygon.from_rect(Rect(0.2, 0.2, 0.4, 0.5)))
        result = db.query(spec)
        ids = result.ids()
        inside = set(ids)
        absent = next(i for i in range(ROWS) if i not in inside)
        for container in (result, result.record):
            assert ids[0] in container and ids[-1] in container
            assert absent not in container

    def test_knn_record_is_nearest_first_not_ascending(self, db):
        result = db.query(KnnQuery(Point(0.5, 0.5), 12))
        ids = result.ids()
        assert ids != sorted(ids)
        absent = next(i for i in range(ROWS) if i not in set(ids))
        for container in (result, result.record):
            assert all(i in container for i in ids)
            assert absent not in container

    @pytest.mark.parametrize("item", ["3", None, 2.5, [1, 2], (3,), object()])
    def test_a_non_int_is_never_a_member(self, item):
        record = QueryRecord([1, 2, 3])
        assert (item in record) is False

    def test_numpy_ints_are_members(self):
        record = QueryRecord([7, 1, 4])
        assert np.int64(4) in record
        assert np.int32(5) not in record
