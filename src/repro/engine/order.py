"""The Hilbert curve over the unit square, scalar and array forms.

Points are snapped to a ``2**order`` by ``2**order`` grid and keyed by
their position along the curve.  Two layers order by it: the cluster's
shard map (:mod:`repro.cluster.shardmap`) assigns key ranges to workers,
and the Delaunay bulk build inserts rows in curve order
(:func:`repro.delaunay.compiled.hilbert_order`, the same keys).

The Hilbert curve is preferred over a Z-order (Morton) curve because it has
no long jumps: consecutive curve positions are always adjacent grid cells,
so a key range is one compact area and consecutive inserts are close.
"""

from __future__ import annotations

import numpy as np

#: Hilbert-grid refinement: 2**ORDER cells per axis (65_536 cells total at
#: the default 8 — far finer than any realistic query-size granularity).
DEFAULT_ORDER = 8


def cell_index(value: float, side: int) -> int:
    """The grid cell, of ``side`` per axis, holding coordinate ``value``.

    The curve's snapping rule: clamp into ``[0, 1]``, scale, truncate,
    clamp to the last cell.  Points, cell covers and the array form all
    snap through this rule, so they agree bit for bit.
    """
    value = 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)
    return min(side - 1, int(value * side))


def cell_key(xi: int, yi: int, order: int) -> int:
    """Hilbert-curve position of grid cell ``(xi, yi)`` at ``order``.

    The classic iterative bit-twiddling formulation (Warren, *Hacker's
    Delight*): per refinement level, fold the quadrant into the running
    distance and rotate/reflect the frame.
    """
    distance = 0
    s = (1 << order) >> 1
    while s > 0:
        rx = 1 if xi & s else 0
        ry = 1 if yi & s else 0
        distance += s * s * ((3 * rx) ^ ry)
        # Rotate the lower-order bits into the sub-quadrant's frame.
        if ry == 0:
            if rx == 1:
                xi = s - 1 - xi
                yi = s - 1 - yi
            xi, yi = yi, xi
        s >>= 1
    return distance


def hilbert_index(x: float, y: float, *, order: int = DEFAULT_ORDER) -> int:
    """Hilbert-curve position of the unit-square point ``(x, y)``.

    Coordinates are snapped to a ``2**order`` by ``2**order`` grid
    (:func:`cell_index`: anything outside ``[0, 1]`` lands in a border
    cell); the returned index is in ``[0, 4**order)``.
    """
    if order <= 0:
        raise ValueError(f"order must be positive, got {order}")
    side = 1 << order
    return cell_key(cell_index(x, side), cell_index(y, side), order)


def hilbert_keys(xs, ys, *, order: int = DEFAULT_ORDER) -> np.ndarray:
    """:func:`hilbert_index` of every ``(xs[i], ys[i])``, as an int64 array.

    The array form of the same curve — same clamping, same snapping, the
    same bit loop run once per refinement level over whole columns — so
    ``hilbert_keys(xs, ys)[i] == hilbert_index(xs[i], ys[i])`` for every
    finite input.  ``order`` is at most 31 (keys must fit 63 bits).
    """
    if not 0 < order <= 31:
        raise ValueError(f"order must be in 1..31, got {order}")
    side = 1 << order
    xi = _cell_indices(xs, side)
    yi = _cell_indices(ys, side)
    keys = np.zeros(len(xi), dtype=np.int64)
    s = side >> 1
    while s > 0:
        rx = (xi & s) != 0
        ry = (yi & s) != 0
        keys += (s * s) * ((3 * rx.astype(np.int64)) ^ ry)
        flip = rx & ~ry
        xi = np.where(flip, s - 1 - xi, xi)
        yi = np.where(flip, s - 1 - yi, yi)
        xi, yi = np.where(ry, xi, yi), np.where(ry, yi, xi)
        s >>= 1
    return keys


def _cell_indices(values, side: int) -> np.ndarray:
    """:func:`cell_index` over a column."""
    clamped = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return np.minimum((clamped * side).astype(np.int64), side - 1)
