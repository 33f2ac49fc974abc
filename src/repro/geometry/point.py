"""Immutable 2-D points.

The *edges* of the library speak :class:`Point`.  It is deliberately a tiny
frozen dataclass rather than a numpy array: where algorithms touch points one
at a time (hash them, compare them, compute a couple of distances), a plain
Python object with ``__slots__`` is both faster and clearer.  Bulk storage —
the database's point table — is columnar: :class:`repro.core.store.PointStore`
keeps contiguous float64 ``xs``/``ys`` arrays, the hot paths (refinement
kernels in :mod:`repro.geometry.kernels`, bulk index probes, the batch
engine's shared frontiers) operate on those arrays by row id, and ``Point``
objects are materialized only at the conversion boundary
(:meth:`repro.core.store.PointStore.view` /
:attr:`repro.core.database.SpatialDatabase.points`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the Euclidean plane.

    Supports vector arithmetic (``+``, ``-``, scalar ``*`` and ``/``),
    iteration/unpacking (``x, y = p``) and is hashable, so it can be used in
    sets and as dictionary keys — Algorithm 1 keeps its *visited* set keyed
    by point identity.
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point":
        return Point(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point":
        return Point(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def dot(self, other: "Point") -> float:
        """Dot product, treating both points as vectors from the origin."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the 3-D cross product of the two vectors."""
        return self.x * other.y - self.y * other.x

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt in hot loops)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def squared_norm(self) -> float:
        """Squared Euclidean length."""
        return self.x * self.x + self.y * self.y

    def midpoint(self, other: "Point") -> "Point":
        """The point halfway between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


def xy_array(points) -> np.ndarray:
    """``points`` as one ``(n, 2)`` float64 array: the shape a batch write takes.

    Accepts an array (a float64 one is returned as it is) or any iterable
    of ``(x, y)`` pairs or :class:`Point` rows; raises :class:`ValueError`
    for anything not shaped as pairs.
    """
    if not isinstance(points, np.ndarray):
        points = [(p.x, p.y) if isinstance(p, Point) else p for p in points]
    xy = np.asarray(points, dtype=np.float64)
    if xy.shape == (0,):
        return xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"points must be (x, y) pairs, got shape {xy.shape}")
    return xy


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    total_x = 0.0
    total_y = 0.0
    count = 0
    for p in points:
        total_x += p.x
        total_y += p.y
        count += 1
    if count == 0:
        raise ValueError("centroid of an empty point collection is undefined")
    return Point(total_x / count, total_y / count)


def collinear(a: Point, b: Point, c: Point, tolerance: float = 0.0) -> bool:
    """True if the three points lie on a common line.

    With the default zero tolerance this is an exact floating-point test of
    the doubled signed triangle area; pass a small positive ``tolerance`` to
    treat nearly-degenerate triples as collinear.
    """
    area2 = (b - a).cross(c - a)
    return abs(area2) <= tolerance
