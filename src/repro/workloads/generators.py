"""Seeded synthetic point datasets and update workloads.

The paper's databases are uniform random points in the solution space (the
unit square here; the paper never states units, and only ratios matter).
Clustered and grid datasets are provided beyond the paper for robustness
testing — the Voronoi method's invariants are distribution-free, and the
test suite exercises them on all three.

:func:`moving_object_steps` extends the static datasets with a *dynamic*
workload — random-waypoint object motion with hot-spot drift — whose move
steps (each a delete of the object's old position plus an insert of the
new one) drive the live-query tests.  Everything is deterministic in
its seed.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Tuple

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect


def uniform_points(
    n: int,
    seed: int = 0,
    *,
    space: Rect = Rect(0.0, 0.0, 1.0, 1.0),
) -> List[Point]:
    """``n`` points uniform in ``space`` (the paper's data distribution)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = random.Random(seed)
    return [
        Point(
            rng.uniform(space.min_x, space.max_x),
            rng.uniform(space.min_y, space.max_y),
        )
        for _ in range(n)
    ]


def clustered_points(
    n: int,
    seed: int = 0,
    *,
    clusters: int = 10,
    spread: float = 0.03,
    space: Rect = Rect(0.0, 0.0, 1.0, 1.0),
) -> List[Point]:
    """``n`` points in Gaussian clusters (city-like density variation).

    Cluster centres are uniform in ``space``; members are normal around the
    centre with standard deviation ``spread`` (clipped into the space so all
    indexes built on default bounds stay valid).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if clusters < 1:
        raise ValueError(f"clusters must be >= 1, got {clusters}")
    rng = random.Random(seed)
    centers = [
        (
            rng.uniform(space.min_x, space.max_x),
            rng.uniform(space.min_y, space.max_y),
        )
        for _ in range(clusters)
    ]
    points: List[Point] = []
    for _ in range(n):
        cx, cy = centers[rng.randrange(clusters)]
        x = min(max(rng.gauss(cx, spread), space.min_x), space.max_x)
        y = min(max(rng.gauss(cy, spread), space.min_y), space.max_y)
        points.append(Point(x, y))
    return points


def grid_points(
    n: int,
    *,
    jitter: float = 0.0,
    seed: int = 0,
    space: Rect = Rect(0.0, 0.0, 1.0, 1.0),
) -> List[Point]:
    """About ``n`` points on a regular grid, optionally jittered.

    A worst-ish case for Delaunay degeneracy (many cocircular quadruples
    when ``jitter == 0``), which is exactly why the tests use it.  Returns
    ``ceil(sqrt(n))**2`` points.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    side = math.ceil(math.sqrt(n))
    rng = random.Random(seed)
    step_x = space.width / side
    step_y = space.height / side
    points: List[Point] = []
    for i in range(side):
        for j in range(side):
            x = space.min_x + (i + 0.5) * step_x
            y = space.min_y + (j + 0.5) * step_y
            if jitter > 0.0:
                x += rng.uniform(-jitter, jitter) * step_x
                y += rng.uniform(-jitter, jitter) * step_y
            points.append(
                Point(
                    min(max(x, space.min_x), space.max_x),
                    min(max(y, space.min_y), space.max_y),
                )
            )
    return points


#: one object move: ``(object index, (old x, old y), (new x, new y))``
MoveStep = Tuple[int, Tuple[float, float], Tuple[float, float]]


def moving_object_steps(
    positions: List[Point],
    steps: int,
    seed: int = 0,
    *,
    space: Rect = Rect(0.0, 0.0, 1.0, 1.0),
    speed: float = 0.02,
    hotspot_fraction: float = 0.3,
    hotspot_spread: float = 0.05,
    hotspot_drift: float = 0.002,
) -> Iterator[MoveStep]:
    """Random-waypoint motion with hot-spot drift, as discrete move steps.

    The standard moving-objects workload: each object in ``positions``
    (its starting location — e.g. :func:`uniform_points`) heads toward a
    private waypoint at ``speed`` per step; on arrival it draws a new
    waypoint — uniform in ``space``, or, with probability
    ``hotspot_fraction``, Gaussian (``hotspot_spread``) around a shared
    *hot spot* that itself random-walks ``hotspot_drift`` per step, so
    the write load concentrates on a slowly wandering region (the
    live fan-out's non-uniform case).

    Yields ``steps`` :data:`MoveStep` tuples, one randomly chosen object
    per step.  A move maps onto the mutable store as delete(old row) +
    insert(new position) — the caller owns the object→row bookkeeping.
    The input list is not mutated; everything is deterministic in
    ``seed``.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if not positions:
        if steps:
            raise ValueError("cannot generate steps without objects")
        return
    if speed <= 0.0:
        raise ValueError(f"speed must be positive, got {speed}")
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError(
            f"hotspot_fraction must be in [0, 1], got {hotspot_fraction}"
        )
    rng = random.Random(seed)
    current = [(p.x, p.y) for p in positions]

    def clamp(x: float, y: float) -> Tuple[float, float]:
        """Clip a coordinate pair into ``space``."""
        return (
            min(max(x, space.min_x), space.max_x),
            min(max(y, space.min_y), space.max_y),
        )

    hot = (
        rng.uniform(space.min_x, space.max_x),
        rng.uniform(space.min_y, space.max_y),
    )

    def new_waypoint() -> Tuple[float, float]:
        """Draw the next waypoint (hot-spot biased or uniform)."""
        if rng.random() < hotspot_fraction:
            return clamp(
                rng.gauss(hot[0], hotspot_spread),
                rng.gauss(hot[1], hotspot_spread),
            )
        return (
            rng.uniform(space.min_x, space.max_x),
            rng.uniform(space.min_y, space.max_y),
        )

    waypoints = [new_waypoint() for _ in current]
    for _ in range(steps):
        hot = clamp(
            hot[0] + rng.uniform(-hotspot_drift, hotspot_drift),
            hot[1] + rng.uniform(-hotspot_drift, hotspot_drift),
        )
        index = rng.randrange(len(current))
        old = current[index]
        target = waypoints[index]
        dx = target[0] - old[0]
        dy = target[1] - old[1]
        distance = math.hypot(dx, dy)
        if distance <= speed:
            new = target
            waypoints[index] = new_waypoint()
        else:
            scale = speed / distance
            new = clamp(old[0] + dx * scale, old[1] + dy * scale)
        current[index] = new
        yield (index, old, new)

