"""Tile math for the live-query inverted index.

A :class:`TileGrid` cuts the space into ``resolution x resolution``
equal tiles, clamped at the border (the inverted index stores
*subscriptions* per tile, not points).

Clamping is what makes the tiling total: a coordinate outside the
bounds lands in the nearest border tile, and because the clamp is
monotonic the covering property below survives it.

**Covering property** (the correctness contract the registry relies
on): for any point ``p`` and any rectangle ``r`` with ``p`` inside
``r``, ``tile_of(p)`` is a member of ``tiles_for_rect(r)``.  The same
holds for circles via their bounding square.  Tiles are therefore a
*superset* filter — a write can never skip a subscription it affects,
only occasionally wake one it does not.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Tuple

from repro.geometry.rectangle import Rect

#: One tile: its ``(column, row)`` cell coordinates.
Tile = Tuple[int, int]


class TileGrid:
    """Fixed-resolution tiling keyed by clamped cell coordinates.

    Parameters
    ----------
    bounds:
        The tiled extent (positive area required).  Points outside are
        clamped into the border tiles, so any data distribution works.
    resolution:
        Tiles per axis; ``resolution**2`` tiles total.
    """

    __slots__ = ("bounds", "resolution")

    def __init__(
        self,
        bounds: Rect = Rect(0.0, 0.0, 1.0, 1.0),
        resolution: int = 64,
    ) -> None:
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        if bounds.width <= 0.0 or bounds.height <= 0.0:
            raise ValueError("tile grid bounds must have positive area")
        #: the tiled extent
        self.bounds = bounds
        #: tiles per axis
        self.resolution = int(resolution)

    def _axis_cell(self, value: float, low: float, extent: float) -> int:
        cell = int((value - low) / extent * self.resolution)
        return min(max(cell, 0), self.resolution - 1)

    def tile_of(self, x: float, y: float) -> Tile:
        """The tile containing ``(x, y)`` (clamped into the borders)."""
        return (
            self._axis_cell(x, self.bounds.min_x, self.bounds.width),
            self._axis_cell(y, self.bounds.min_y, self.bounds.height),
        )

    def tiles_for_rect(self, rect: Rect) -> FrozenSet[Tile]:
        """Every tile overlapping ``rect`` (clamped; never empty)."""
        min_cx, min_cy = self.tile_of(rect.min_x, rect.min_y)
        max_cx, max_cy = self.tile_of(rect.max_x, rect.max_y)
        return frozenset(
            (cx, cy)
            for cx in range(min_cx, max_cx + 1)
            for cy in range(min_cy, max_cy + 1)
        )

    def tiles_for_circle(
        self, cx: float, cy: float, radius_sq: float
    ) -> FrozenSet[Tile]:
        """Tiles overlapping the circle's bounding square.

        ``radius_sq`` is the *squared* radius (the kNN evaluators keep
        squared distances end to end); it must be finite.  The radius is
        inflated by one part in 10^9 before the square root so that the
        rounding of ``sqrt`` and of the caller's squared-distance sums
        can never shave the bounding square below a true member's
        coordinates — the covering property must hold bit-for-bit.
        """
        if radius_sq < 0.0 or not math.isfinite(radius_sq):
            raise ValueError(
                f"radius_sq must be finite and >= 0, got {radius_sq!r}"
            )
        radius = math.sqrt(radius_sq)
        radius += radius * 1e-9
        return self.tiles_for_rect(
            Rect(cx - radius, cy - radius, cx + radius, cy + radius)
        )
