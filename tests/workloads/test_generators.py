"""Unit tests for the dataset generators."""

import pytest

from repro.geometry.rectangle import Rect
from repro.workloads.generators import (
    clustered_points,
    grid_points,
    uniform_points,
)


class TestUniform:
    def test_count(self):
        assert len(uniform_points(123)) == 123

    def test_deterministic(self):
        assert uniform_points(50, seed=5) == uniform_points(50, seed=5)

    def test_seed_changes_data(self):
        assert uniform_points(50, seed=5) != uniform_points(50, seed=6)

    def test_inside_space(self):
        space = Rect(2, 3, 4, 5)
        for p in uniform_points(100, seed=1, space=space):
            assert space.contains_point(p)

    def test_zero_points(self):
        assert uniform_points(0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniform_points(-1)

    def test_roughly_uniform_quadrants(self):
        points = uniform_points(4000, seed=9)
        quadrant_counts = [0, 0, 0, 0]
        for p in points:
            quadrant_counts[(p.x >= 0.5) + 2 * (p.y >= 0.5)] += 1
        for count in quadrant_counts:
            assert 800 < count < 1200


class TestClustered:
    def test_count(self):
        assert len(clustered_points(200, seed=1)) == 200

    def test_inside_space(self):
        space = Rect(0, 0, 1, 1)
        for p in clustered_points(300, seed=2):
            assert space.contains_point(p)

    def test_clustering_effect(self):
        # Clustered data is measurably denser locally than uniform data:
        # compare mean nearest-neighbour distance.

        uniform = uniform_points(300, seed=3)
        clustered = clustered_points(300, seed=3, clusters=5, spread=0.01)

        def mean_nn(points):
            total = 0.0
            for i, p in enumerate(points):
                total += min(
                    p.distance_to(q) for j, q in enumerate(points) if j != i
                )
            return total / len(points)

        assert mean_nn(clustered) < mean_nn(uniform) * 0.5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            clustered_points(-1)
        with pytest.raises(ValueError):
            clustered_points(10, clusters=0)


class TestGrid:
    def test_square_count(self):
        assert len(grid_points(49)) == 49  # 7x7

    def test_rounds_up(self):
        assert len(grid_points(50)) == 64  # 8x8

    def test_no_jitter_is_regular(self):
        points = grid_points(16, jitter=0.0)
        xs = sorted({p.x for p in points})
        assert len(xs) == 4

    def test_jitter_breaks_regularity(self):
        points = grid_points(16, jitter=0.3, seed=7)
        xs = {p.x for p in points}
        assert len(xs) == 16

    def test_inside_space(self):
        space = Rect(0, 0, 1, 1)
        for p in grid_points(100, jitter=0.5, seed=9):
            assert space.contains_point(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_points(0)


class TestMovingObjects:
    def _positions(self, n=15, seed=3):
        return uniform_points(n, seed=seed)

    def test_step_count_and_shape(self):
        from repro.workloads.generators import moving_object_steps

        positions = self._positions()
        steps = list(moving_object_steps(positions, 40, seed=7))
        assert len(steps) == 40
        for index, old, new in steps:
            assert 0 <= index < len(positions)
            assert old != new

    def test_deterministic_in_seed(self):
        from repro.workloads.generators import moving_object_steps

        positions = self._positions()
        assert list(moving_object_steps(positions, 30, seed=9)) == list(
            moving_object_steps(positions, 30, seed=9)
        )
        assert list(moving_object_steps(positions, 30, seed=9)) != list(
            moving_object_steps(positions, 30, seed=10)
        )

    def test_moves_stay_inside_space_and_chain(self):
        from repro.geometry.point import Point
        from repro.workloads.generators import moving_object_steps

        space = Rect(0.0, 0.0, 1.0, 1.0)
        positions = self._positions()
        current = {i: (p.x, p.y) for i, p in enumerate(positions)}
        for index, old, new in moving_object_steps(positions, 200, seed=11):
            # Each step departs from the object's current position...
            assert current[index] == old
            current[index] = new
            # ...and lands inside the space.
            assert space.contains_point(Point(*new))

    def test_step_length_bounded_by_speed(self):
        import math

        from repro.workloads.generators import moving_object_steps

        speed = 0.03
        for _, old, new in moving_object_steps(
            self._positions(), 100, seed=13, speed=speed
        ):
            assert math.hypot(new[0] - old[0], new[1] - old[1]) <= speed * 1.001

    def test_input_not_mutated(self):
        from repro.workloads.generators import moving_object_steps

        positions = self._positions()
        snapshot = list(positions)
        list(moving_object_steps(positions, 50, seed=17))
        assert positions == snapshot

    def test_validation(self):
        from repro.workloads.generators import moving_object_steps

        positions = self._positions()
        with pytest.raises(ValueError):
            list(moving_object_steps(positions, -1))
        with pytest.raises(ValueError):
            list(moving_object_steps([], 5))
        with pytest.raises(ValueError):
            list(moving_object_steps(positions, 5, speed=0.0))
        with pytest.raises(ValueError):
            list(moving_object_steps(positions, 5, hotspot_fraction=1.5))
        assert list(moving_object_steps([], 0)) == []

