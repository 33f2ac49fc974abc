"""Vectorized geometry kernels over coordinate arrays.

The refinement test (point-in-region) is the constant-factor sink of both
area-query methods: the traditional baseline refines every MBR candidate,
Algorithm 1 refines every expansion candidate.  These kernels run the
same tests over *whole arrays* of candidate coordinates (gathered from
the columnar :class:`~repro.core.store.PointStore`) in a handful of
numpy passes per polygon edge.

**Exactness contract.**  Every kernel returns *bitwise the same* answers
as its scalar sibling (``Polygon.contains_point`` /
``Rect.contains_point`` / ``Circle.contains_point``), point for point:

* :func:`rect_contains_many` / :func:`circle_contains_many` perform the
  identical IEEE-754 comparisons the scalar tests perform, so they are
  trivially exact.
* :func:`polygon_contains_many` vectorizes the crossing-number walk with
  the same forward-error filter the robust scalar predicate
  (:func:`repro.geometry.predicates.orientation_sign`) uses: an edge
  decision is taken from the float cross product only when its
  magnitude clears Shewchuk's error bound *and* sits outside the
  denormal zone.  Points with any unclear edge decision — near-boundary
  points, exact vertex/edge touches, denormal-scale coordinates — are
  re-answered one by one by the scalar test itself, so disagreements
  are impossible by construction.  On real workloads the fallback set
  is a vanishing fraction (points within one rounding error of an
  edge), so the kernel keeps its array speed.
* :func:`crosses_boundary_many` does the same for Algorithm 1's shell
  rule (``Polygon.crosses_boundary_xy``): the four orientation signs of
  a (segment, edge) pair decide it only when all the signs it needs are
  certain; a segment with any undecided pair — an endpoint on an edge,
  collinear overlap, a zero-length segment on the boundary — is
  re-answered by the scalar test.

The kernels take bare coordinate arrays rather than ``Point`` sequences
on purpose: the hot paths gather ``xs``/``ys`` by row id from the store
and never materialize ``Point`` objects at all.

:func:`region_kernels` is how the query paths obtain a region's two
array predicates.  A region that implements only the scalar
:class:`~repro.geometry.region.QueryRegion` protocol gets them as a
per-element map of its own scalar tests, so there is one execution of
each algorithm whatever the region offers.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.predicates import _MIN_NORMAL, _ORIENT_ERR_BOUND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.geometry.circle import Circle
    from repro.geometry.polygon import Polygon
    from repro.geometry.rectangle import Rect
    from repro.geometry.region import QueryRegion


def rect_contains_many(
    rect: "Rect", xs: "np.ndarray", ys: "np.ndarray"
) -> "np.ndarray":
    """Closed-rectangle membership for every ``(xs[i], ys[i])``.

    Bitwise identical to ``rect.contains_point`` per element (the same
    four closed-bound comparisons).
    """
    return (
        (xs >= rect.min_x)
        & (xs <= rect.max_x)
        & (ys >= rect.min_y)
        & (ys <= rect.max_y)
    )


def circle_contains_many(
    circle: "Circle",
    xs: "np.ndarray",
    ys: "np.ndarray",
    *,
    boundary: bool = True,
) -> "np.ndarray":
    """Closed-disc membership for every ``(xs[i], ys[i])``.

    Performs exactly the scalar test's operations (coordinate
    differences, squared sum, one comparison against ``r*r``), so the
    results match ``circle.contains_point`` bit for bit.
    """
    dx = xs - circle.center.x
    dy = ys - circle.center.y
    squared = dx * dx + dy * dy
    limit = circle.radius * circle.radius
    if boundary:
        return squared <= limit
    return squared < limit


#: Target cells (edges x points) per broadcast block: large enough to
#: amortize numpy dispatch, small enough to stay cache-resident.
_BLOCK_CELLS = 1 << 16


def _edge_columns(polygon: "Polygon"):
    """Per-edge broadcast columns, memoised on the polygon.

    ``(ax, ay, bx, by, up, lo_x, hi_x, lo_y, hi_y)`` — each an ``(E, 1)``
    float64 (or bool) column so edge-by-point matrices broadcast
    directly.  Cached on the polygon instance (its vertex ring is
    immutable after construction, like the ``_edge_coords`` tuples the
    scalar loops use).
    """
    try:
        return polygon.__dict__["_edge_columns_memo"]
    except KeyError:
        coords = polygon._edge_coords
        count = len(coords)
        ax = np.fromiter((e[0] for e in coords), np.float64, count)
        ay = np.fromiter((e[1] for e in coords), np.float64, count)
        bx = np.fromiter((e[2] for e in coords), np.float64, count)
        by = np.fromiter((e[3] for e in coords), np.float64, count)
        columns = (
            ax[:, None],
            ay[:, None],
            bx[:, None],
            by[:, None],
            (by > ay)[:, None],
            np.minimum(ax, bx)[:, None],
            np.maximum(ax, bx)[:, None],
            np.minimum(ay, by)[:, None],
            np.maximum(ay, by)[:, None],
        )
        polygon.__dict__["_edge_columns_memo"] = columns
        return columns


def _orientation(ax, ay, bx, by, cx, cy):
    """Float orientation determinant of ``(a, b, c)`` and where to trust it.

    Element-wise over broadcast operands.  The robust scalar predicate
    trusts the raw cross product when ``|det| >= bound * (|detleft| +
    |detright|)`` outside the denormal zone; here a sign is *trusted*
    only when the inequality is strict, so a trusted determinant is
    never zero and has the sign
    :func:`~repro.geometry.predicates.orientation_sign` returns.  Callers
    defer every untrusted decision to the scalar test (an overflowed
    product compares as untrusted; they silence its warning).
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    abs_left = np.abs(detleft)
    abs_right = np.abs(detright)
    trusted = np.abs(det) > _ORIENT_ERR_BOUND * (abs_left + abs_right)
    trusted &= ~((abs_left < _MIN_NORMAL) & (abs_right < _MIN_NORMAL))
    return det, trusted


@np.errstate(over="ignore", invalid="ignore")
def polygon_contains_many(
    polygon: "Polygon",
    xs: "np.ndarray",
    ys: "np.ndarray",
    *,
    boundary: bool = True,
) -> "np.ndarray":
    """Exact point-in-polygon for every ``(xs[i], ys[i])``.

    The crossing-number walk of ``Polygon.contains_point`` over the
    whole candidate array: one (edges x block) comparison finds the
    (edge, candidate) pairs whose edge straddles the candidate's
    horizontal ray — two or three of a ring's edges per candidate — and
    only those pairs pay the orientation arithmetic.  Per pair the float
    cross product decides the crossing side only when it clears the
    robust predicate's forward error bound; candidates with any
    untrusted edge decision (possible boundary touches, catastrophic
    cancellation, denormal-zone products) are resolved by the scalar
    test itself.  The returned mask therefore equals
    ``[polygon.contains_point(Point(x, y), boundary=boundary) ...]``
    exactly, for any input.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.zeros(xs.shape[0], dtype=bool)
    if xs.shape[0] == 0:
        return out
    box = polygon.mbr
    in_box = (
        (xs >= box.min_x)
        & (xs <= box.max_x)
        & (ys >= box.min_y)
        & (ys <= box.max_y)
    )
    count = int(in_box.sum())
    if count == 0:
        return out
    if count == xs.shape[0]:
        pxs, pys = xs, ys
    else:
        pxs, pys = xs[in_box], ys[in_box]

    ax, ay, bx, by, up, lo_x, hi_x, _, _ = _edge_columns(polygon)
    edges = ax.shape[0]
    inside = np.empty(count, dtype=bool)
    unclear = np.empty(count, dtype=bool)
    # One (edges x block) broadcast per block of candidates: a handful
    # of numpy dispatches regardless of the edge count, with the block
    # width chosen so the matrices stay cache-resident.
    block = max(1, _BLOCK_CELLS // max(1, edges))
    for start in range(0, count, block):
        px = pxs[start : start + block]
        py = pys[start : start + block]
        a_above = ay > py
        b_above = by > py
        edge, point = np.nonzero(a_above != b_above)  # the straddling pairs
        # A trusted determinant is never zero (a zero would mean an
        # exact boundary hit the scalar code early-returns on).
        # Everything else is deferred to the scalar test.
        det, trusted = _orientation(
            ax[edge, 0], ay[edge, 0], bx[edge, 0], by[edge, 0], px[point], py[point]
        )
        crossing = trusted & ((det > 0.0) == up[edge, 0])
        # Even-odd rule: parity of trusted crossings over all edges.
        inside[start : start + block] = (
            np.bincount(point[crossing], minlength=px.shape[0]) & 1
        )
        pending = np.zeros(px.shape[0], dtype=bool)
        pending[point[~trusted]] = True
        # Edges entirely at or below a candidate's level can only matter
        # when the candidate touches the upper endpoint's level inside
        # the edge's x-range (vertex touch / horizontal edge) — rare,
        # and a potential boundary early-return: defer to scalar.
        level = (py == ay) | (py == by)
        if level.any():
            pending |= (
                level & ~a_above & ~b_above & (px >= lo_x) & (px <= hi_x)
            ).any(axis=0)
        unclear[start : start + block] = pending

    if unclear.any():
        contains_xy = polygon._contains_xy
        unclear_idx = np.nonzero(unclear)[0]
        for i in unclear_idx.tolist():
            inside[i] = contains_xy(float(pxs[i]), float(pys[i]), boundary)

    if count == xs.shape[0]:
        return inside
    out[in_box] = inside
    return out


@np.errstate(over="ignore", invalid="ignore")
def _crossing_decisions(polygon: "Polygon", sx, sy, ex, ey):
    """``(crossing, unclear)`` masks over segments ``(sx, sy) -> (ex, ey)``.

    ``crossing``: some edge properly crosses the segment, all four
    orientation signs certain.  ``unclear``: no such edge, but some
    (segment, edge) pair could not be decided in floats — the scalar test
    must answer.  Neither: certainly no contact.  The same rejections as
    ``Polygon.crosses_boundary_xy`` run first (segment box against the
    MBR, then against each edge's box), so only pairs the scalar loop
    would also hand to ``segments_intersect_xy`` are examined.
    """
    count = sx.shape[0]
    crossing = np.zeros(count, dtype=bool)
    unclear = np.zeros(count, dtype=bool)
    lo_x, hi_x = np.minimum(sx, ex), np.maximum(sx, ex)
    lo_y, hi_y = np.minimum(sy, ey), np.maximum(sy, ey)
    box = polygon.mbr
    near = np.flatnonzero(
        (hi_x >= box.min_x)
        & (lo_x <= box.max_x)
        & (hi_y >= box.min_y)
        & (lo_y <= box.max_y)
    )
    ax, ay, bx, by, _, edge_lo_x, edge_hi_x, edge_lo_y, edge_hi_y = (
        _edge_columns(polygon)
    )
    block = max(1, _BLOCK_CELLS // ax.shape[0])
    for start in range(0, near.shape[0], block):
        rows = near[start : start + block]
        edge, segment = np.nonzero(
            (edge_hi_x >= lo_x[rows])
            & (edge_lo_x <= hi_x[rows])
            & (edge_hi_y >= lo_y[rows])
            & (edge_lo_y <= hi_y[rows])
        )
        if not edge.shape[0]:
            continue
        segment = rows[segment]
        pax, pay, pbx, pby = ax[edge, 0], ay[edge, 0], bx[edge, 0], by[edge, 0]
        psx, psy, pex, pey = sx[segment], sy[segment], ex[segment], ey[segment]
        # segments_intersect_xy's four signs, two per call: the segment's
        # ends (rows 0, 1) against the edge's line, then the edge's ends
        # against the segment's line.
        pairs = (2, edge.shape[0])
        ends_det, ends_sure = _orientation(
            pax, pay, pbx, pby,
            np.concatenate((psx, pex)).reshape(pairs),
            np.concatenate((psy, pey)).reshape(pairs),
        )
        edge_det, edge_sure = _orientation(
            psx, psy, pex, pey,
            np.concatenate((pax, pbx)).reshape(pairs),
            np.concatenate((pay, pby)).reshape(pairs),
        )
        ends_sure = ends_sure[0] & ends_sure[1]
        edge_sure = edge_sure[0] & edge_sure[1]
        # Certainly apart: both ends strictly on one side of the other's line.
        apart = (ends_sure & ((ends_det[0] > 0.0) == (ends_det[1] > 0.0))) | (
            edge_sure & ((edge_det[0] > 0.0) == (edge_det[1] > 0.0))
        )
        certain = ends_sure & edge_sure
        crossing[segment[certain & ~apart]] = True
        unclear[segment[~certain & ~apart]] = True
    unclear &= ~crossing
    return crossing, unclear


def crosses_boundary_many(
    polygon: "Polygon",
    sx: "np.ndarray",
    sy: "np.ndarray",
    ex: "np.ndarray",
    ey: "np.ndarray",
) -> "np.ndarray":
    """Exact boundary-crossing test for every segment ``(sx, sy) -> (ex, ey)``.

    Element ``i`` equals ``polygon.crosses_boundary_xy(sx[i], sy[i],
    ex[i], ey[i])`` **exactly**, for any input: a (segment, edge) pair is
    decided from float orientation signs only where each sign it needs
    clears the robust predicate's error bound, and every segment left
    with an undecided pair is re-answered by the scalar test itself.
    This is Algorithm 1's rule for expanding from an external point,
    evaluated for a whole wave of (outside point, neighbour) segments.
    """
    sx = np.asarray(sx, dtype=np.float64)
    sy = np.asarray(sy, dtype=np.float64)
    ex = np.asarray(ex, dtype=np.float64)
    ey = np.asarray(ey, dtype=np.float64)
    crossing, unclear = _crossing_decisions(polygon, sx, sy, ex, ey)
    if unclear.any():
        crosses_xy = polygon.crosses_boundary_xy
        for i in np.flatnonzero(unclear).tolist():
            crossing[i] = crosses_xy(
                float(sx[i]), float(sy[i]), float(ex[i]), float(ey[i])
            )
    return crossing


def region_kernels(
    region: "QueryRegion",
    contains: Optional[Callable[["QueryRegion", Point], bool]] = None,
) -> Tuple[Callable, Callable]:
    """``(contains_many, crosses_boundary_many)`` of any query region.

    ``contains_many(xs, ys)`` and ``crosses_boundary_many(sx, sy, ex,
    ey)`` are the region's own array kernels where it has them
    (:class:`~repro.geometry.polygon.Polygon` both,
    :class:`~repro.geometry.circle.Circle` the first).  A missing one is
    the region's scalar ``contains_point`` / ``crosses_boundary_xy``
    mapped over the columns — one call per element, a transient
    ``Point`` per refinement — which is all a custom region has to
    provide.  ``contains`` (the refinement hook of the two area-query
    functions) replaces the refinement test the same way: it is called
    as ``contains(region, Point(x, y))`` exactly once per element.
    """
    contains_many = (
        getattr(region, "contains_many", None) if contains is None else None
    )
    if contains_many is None:
        refine = (
            region.contains_point if contains is None else partial(contains, region)
        )

        def contains_many(xs, ys):
            return np.fromiter(
                map(refine, map(Point, xs.tolist(), ys.tolist())),
                dtype=bool,
                count=xs.shape[0],
            )

    crosses_many = getattr(region, "crosses_boundary_many", None)
    if crosses_many is None:
        crosses = region.crosses_boundary_xy

        def crosses_many(sx, sy, ex, ey):
            return np.fromiter(
                map(crosses, sx.tolist(), sy.tolist(), ex.tolist(), ey.tolist()),
                dtype=bool,
                count=sx.shape[0],
            )

    return contains_many, crosses_many


def squared_distances(
    xs: "np.ndarray", ys: "np.ndarray", qx: float, qy: float
) -> "np.ndarray":
    """Squared Euclidean distance from ``(qx, qy)`` to every candidate.

    Same operation order as ``Point.squared_distance_to`` (difference,
    two squares, one sum), so each element is bitwise identical to the
    scalar value — a heap ordered by these distances ranks rows exactly
    as per-point ``squared_distance_to`` calls would.
    """
    dx = xs - qx
    dy = ys - qy
    return dx * dx + dy * dy
