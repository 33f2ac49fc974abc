"""Index equivalence: the R-tree answers every query like the oracle.

These are the integration tests of the index substrate: the R-tree must
agree with the brute-force oracle on randomly generated workloads,
including hypothesis-driven adversarial ones.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.index import BruteForceIndex, RTree

ALL_INDEX_CLASSES = [RTree]

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_points = st.builds(Point, unit, unit)


def _build_all(entries):
    oracle = BruteForceIndex()
    indexes = [cls() for cls in ALL_INDEX_CLASSES]
    for point, item_id in entries:
        oracle.insert(point, item_id)
        for index in indexes:
            index.insert(point, item_id)
    return oracle, indexes


@pytest.fixture(scope="module")
def loaded_indexes():
    rng = random.Random(31)
    entries = [(Point(rng.random(), rng.random()), i) for i in range(800)]
    return _build_all(entries)


class TestWindowEquivalence:
    @pytest.mark.parametrize(
        "window",
        [
            Rect(0, 0, 1, 1),
            Rect(0.45, 0.45, 0.55, 0.55),
            Rect(0.0, 0.0, 0.1, 1.0),
            Rect(0.9999, 0.9999, 1.0, 1.0),
            Rect(0.3, 0.3, 0.3, 0.3),
        ],
    )
    def test_fixed_windows(self, loaded_indexes, window):
        oracle, indexes = loaded_indexes
        expected = sorted(i for _, i in oracle.window_query(window))
        for index in indexes:
            got = sorted(i for _, i in index.window_query(window))
            assert got == expected, type(index).__name__

    def test_random_windows(self, loaded_indexes):
        oracle, indexes = loaded_indexes
        rng = random.Random(33)
        for _ in range(30):
            x1, x2 = sorted((rng.random(), rng.random()))
            y1, y2 = sorted((rng.random(), rng.random()))
            window = Rect(x1, y1, x2, y2)
            expected = sorted(i for _, i in oracle.window_query(window))
            for index in indexes:
                got = sorted(i for _, i in index.window_query(window))
                assert got == expected, type(index).__name__


class TestNNEquivalence:
    def test_random_queries(self, loaded_indexes):
        oracle, indexes = loaded_indexes
        rng = random.Random(35)
        for _ in range(50):
            q = Point(rng.random(), rng.random())
            expected_distance = oracle.nearest_neighbor(q)[0].distance_to(q)
            for index in indexes:
                got = index.nearest_neighbor(q)
                assert got[0].distance_to(q) == expected_distance, type(
                    index
                ).__name__

    def test_knn_queries(self, loaded_indexes):
        oracle, indexes = loaded_indexes
        q = Point(0.41, 0.59)
        for k in (1, 2, 10, 50):
            expected = [i for _, i in oracle.k_nearest_neighbors(q, k)]
            for index in indexes:
                got = [i for _, i in index.k_nearest_neighbors(q, k)]
                assert got == expected, type(index).__name__


class TestTieBreaking:
    def test_knn_on_duplicate_locations_is_deterministic(self):
        """Equidistant entries (exact duplicates) must come back in id
        order from the tree — the contract that lets kNN answers be
        compared across implementations verbatim."""
        rng = random.Random(41)
        entries = []
        row = 0
        for _ in range(40):
            p = Point(rng.random(), rng.random())
            for _ in range(rng.randint(1, 4)):  # 1-4 copies per location
                entries.append((p, row))
                row += 1
        oracle, indexes = _build_all(entries)
        for _ in range(20):
            q = Point(rng.random(), rng.random())
            for k in (1, 5, len(entries)):
                expected = [i for _, i in oracle.k_nearest_neighbors(q, k)]
                for index in indexes:
                    got = [i for _, i in index.k_nearest_neighbors(q, k)]
                    assert got == expected, type(index).__name__

    def test_knn_from_a_duplicate_location_itself(self):
        entries = [(Point(0.5, 0.5), i) for i in range(6)] + [
            (Point(0.9, 0.9), 6)
        ]
        oracle, indexes = _build_all(entries)
        expected = [i for _, i in oracle.k_nearest_neighbors(Point(0.5, 0.5), 7)]
        assert expected == [0, 1, 2, 3, 4, 5, 6]
        for index in indexes:
            got = [i for _, i in index.k_nearest_neighbors(Point(0.5, 0.5), 7)]
            assert got == expected, type(index).__name__


class TestHypothesisEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(unit_points, st.integers(0, 10_000)),
            min_size=1,
            max_size=60,
            unique_by=lambda e: e[1],
        ),
        window_corners=st.tuples(unit, unit, unit, unit),
    )
    def test_window_query_equivalence(self, entries, window_corners):
        x1, y1, x2, y2 = window_corners
        window = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        oracle, indexes = _build_all(entries)
        expected = sorted(i for _, i in oracle.window_query(window))
        for index in indexes:
            got = sorted(i for _, i in index.window_query(window))
            assert got == expected, type(index).__name__

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(unit_points, st.integers(0, 10_000)),
            min_size=1,
            max_size=60,
            unique_by=lambda e: e[1],
        ),
        query=unit_points,
    )
    # both squared distances underflow to 0: the tie goes to the lower id
    @example(
        entries=[(Point(0.0, 2.2e-309), 1), (Point(0.0, 0.0), 0)],
        query=Point(0.0, 0.0),
    )
    def test_nn_distance_equivalence(self, entries, query):
        oracle, indexes = _build_all(entries)
        expected = oracle.nearest_neighbor(query)[0].distance_to(query)
        for index in indexes:
            got = index.nearest_neighbor(query)[0].distance_to(query)
            assert got == expected, type(index).__name__

    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(unit_points, st.integers(0, 10_000)),
            min_size=2,
            max_size=40,
            unique_by=lambda e: e[1],
        ),
        survivors=st.data(),
    )
    def test_delete_then_query(self, entries, survivors):
        keep = survivors.draw(
            st.sets(
                st.sampled_from([i for _, i in entries]),
                max_size=len(entries),
            )
        )
        oracle, indexes = _build_all(entries)
        for point, item_id in entries:
            if item_id not in keep:
                assert oracle.delete(point, item_id)
                for index in indexes:
                    assert index.delete(point, item_id), type(index).__name__
        window = Rect(0, 0, 1, 1)
        expected = sorted(i for _, i in oracle.window_query(window))
        for index in indexes:
            got = sorted(i for _, i in index.window_query(window))
            assert got == expected, type(index).__name__
