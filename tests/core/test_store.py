"""Unit tests of the columnar :class:`repro.core.store.PointStore`."""

import numpy as np
import pytest

from repro.core.store import PointStore, PointsView
from repro.geometry.point import Point


class TestPointStore:
    def test_append_returns_stable_row_ids(self):
        store = PointStore()
        assert store.append(0.1, 0.2) == 0
        assert store.append(0.3, 0.4) == 1
        assert len(store) == 2
        assert store.coords(0) == (0.1, 0.2)
        assert store.coords(1) == (0.3, 0.4)

    def test_growth_beyond_initial_capacity(self):
        store = PointStore()
        for i in range(1000):
            assert store.append(float(i), float(-i)) == i
        assert len(store) == 1000
        assert store.xs[999] == 999.0
        assert store.ys[999] == -999.0

    def test_extend_points_and_arrays(self):
        store = PointStore()
        rows = store.extend_points([Point(1.0, 2.0), Point(3.0, 4.0)])
        assert list(rows) == [0, 1]
        rows = store.extend_array(
            np.array([5.0, 6.0]), np.array([7.0, 8.0])
        )
        assert list(rows) == [2, 3]
        assert store.coords(3) == (6.0, 8.0)
        assert list(store.extend_points([])) == []
        assert len(store) == 4

    def test_extend_array_rejects_mismatched_columns(self):
        store = PointStore()
        with pytest.raises(ValueError, match="disagree"):
            store.extend_array(np.zeros(3), np.zeros(2))

    def test_version_bumps_on_every_mutation(self):
        store = PointStore()
        v0 = store.version
        store.append(0.0, 0.0)
        v1 = store.version
        store.extend_points([Point(1.0, 1.0)])
        v2 = store.version
        store.extend_array(np.array([2.0]), np.array([2.0]))
        assert v0 < v1 < v2 < store.version

    def test_column_views_are_read_only_and_live(self):
        store = PointStore()
        store.append(1.0, 2.0)
        xs = store.xs
        assert xs.shape == (1,)
        with pytest.raises(ValueError):
            xs[0] = 9.0
        store.append(3.0, 4.0)
        assert store.xs.shape == (2,)

    def test_as_xy_round_trip(self):
        store = PointStore()
        store.extend_points([Point(0.5, 0.25), Point(0.75, 0.125)])
        xy = store.as_xy()
        assert xy.shape == (2, 2)
        assert xy.dtype == np.float64
        other = PointStore()
        other.extend_array(xy[:, 0], xy[:, 1])
        assert other.view() == store.view()
        # the snapshot is a copy: mutating it cannot reach the store
        xy[0, 0] = 99.0
        assert store.coords(0) == (0.5, 0.25)

    def test_point_materialization_is_cached_and_append_safe(self):
        store = PointStore()
        store.extend_points([Point(0.0, 0.0), Point(1.0, 1.0)])
        first = store.point(0)
        assert store.point(0) is first  # cached object
        store.append(2.0, 2.0)  # append-only: cache stays valid
        assert store.point(0) is first
        assert store.point(2) == Point(2.0, 2.0)

    def test_coords_bounds(self):
        store = PointStore()
        store.append(1.0, 2.0)
        assert store.coords(-1) == (1.0, 2.0)
        with pytest.raises(IndexError):
            store.coords(1)


class TestPointsView:
    def build(self):
        store = PointStore()
        store.extend_points(
            [Point(float(i), float(i * i)) for i in range(5)]
        )
        return store, store.view()

    def test_sequence_behaviour(self):
        store, view = self.build()
        assert len(view) == 5
        assert view[0] == Point(0.0, 0.0)
        assert view[-1] == Point(4.0, 16.0)
        assert view[1:3] == [Point(1.0, 1.0), Point(2.0, 4.0)]
        assert list(view) == [Point(float(i), float(i * i)) for i in range(5)]
        with pytest.raises(IndexError):
            view[5]
        with pytest.raises(IndexError):
            view[-6]

    def test_equality_against_lists_and_views(self):
        store, view = self.build()
        materialized = [Point(float(i), float(i * i)) for i in range(5)]
        assert view == materialized
        assert materialized == view  # reflected comparison
        assert view == tuple(materialized)
        other = PointStore()
        other.extend_points(materialized)
        assert view == other.view()
        other.append(9.0, 9.0)
        assert view != other.view()

    def test_view_is_live_but_immutable(self):
        store, view = self.build()
        store.append(5.0, 25.0)
        assert len(view) == 6  # live window onto the table
        assert not hasattr(view, "append")
        with pytest.raises(TypeError):
            view[0] = Point(9.0, 9.0)  # type: ignore[index]

    def test_unhashable_like_a_list(self):
        _, view = self.build()
        with pytest.raises(TypeError):
            hash(view)

    def test_repr(self):
        _, view = self.build()
        assert "5 rows" in repr(view)

    def test_slices_are_lists_of_the_cached_points(self):
        store, view = self.build()
        rows = view[:]
        assert isinstance(rows, list)
        assert rows[3] is view[3]
        store.append(7.0, 49.0)
        assert view[:][5] == Point(7.0, 49.0)
        assert isinstance(view, PointsView)

    def test_concurrent_readers_fill_the_cache_once(self):
        """The cache fills lazily, so the first readers can be several
        threads at once; each row must still appear exactly once."""
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                store = PointStore()
                store.extend_array(np.arange(400.0), np.arange(400.0) * 2)
                barrier = threading.Barrier(8)

                def read(store=store, barrier=barrier):
                    barrier.wait(timeout=10)
                    list(store.view())

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                rows = list(store.view())
                assert len(rows) == 400
                assert rows[399] == Point(399.0, 798.0)
        finally:
            sys.setswitchinterval(interval)

