"""Robust geometric predicates.

The Delaunay substrate (and through it every Voronoi-neighbour lookup the
core algorithm makes) rests on two predicates:

* ``orientation(a, b, c)`` — does ``c`` lie to the left of, to the right of,
  or on the directed line ``a -> b``?
* ``incircle(a, b, c, d)`` — does ``d`` lie inside the circumcircle of the
  (counter-clockwise) triangle ``a, b, c``?

Evaluated naively in floating point these can return the wrong *sign* when
the true value is near zero, which corrupts the triangulation topology (and
with it the correctness of the area query).  We use the standard two-stage
scheme: a fast float evaluation with a forward error bound, falling back to
exact rational arithmetic (:mod:`fractions`) only in the uncertain zone.
Python's unbounded integers make the exact stage simple and always correct;
the float fast path keeps the common case cheap.

Validity domain
---------------
As with Shewchuk's original predicates, the error-bound analysis assumes no
intermediate overflow or underflow: coordinate *differences* and their
pairwise products must stay inside the normal double range.  The
orientation test detects the underflow case explicitly — when both
products land in the denormal range (where relative rounding error is
unbounded and a product of non-zero differences can collapse to an exact
zero) it falls back to exact arithmetic, so ``orientation`` is
sign-correct at *any* coordinate scale.  The in-circle test keeps the
classical domain: coordinate magnitudes in ``[1e-75, 1e75]`` (or exact
zeros) are always safe, and anything a real spatial workload uses is far
inside that.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction

from repro.geometry.point import Point

# Machine epsilon for IEEE-754 doubles (2^-52); forward error bounds below
# follow Shewchuk's "Adaptive Precision Floating-Point Arithmetic" constants.
_EPS = 2.220446049250313e-16
_ORIENT_ERR_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_ERR_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# Smallest normal double (2^-1022).  Below it, products carry unbounded
# *relative* rounding error — they may even underflow to an exact zero —
# so the relative error-bound filter is meaningless and the orientation
# test must fall back to exact arithmetic (see orientation_sign).
_MIN_NORMAL = 2.2250738585072014e-308
# In the denormal range the subtraction of the two products is exact and
# each product carries at most half an ulp (2^-1075) of absolute error,
# so a difference larger than a few ulps of the denormal spacing has a
# trustworthy sign.
_DENORMAL_SAFE_DET = 2e-323


class Orientation(IntEnum):
    """Sign of the signed area of triangle ``(a, b, c)``."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def orientation_sign(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> float:
    """Raw-coordinate form of :func:`orientation_value`.

    The hot loops of the area-query algorithms (point-in-polygon,
    segment intersection) call this directly on floats to avoid
    :class:`Point` attribute access and wrapper overhead; the sign guarantee
    is identical.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright

    # Denormal zone: when BOTH products sit below the normal range their
    # relative rounding error is unbounded (a product of two non-zero
    # differences can even underflow to exact zero), so neither the
    # sign-based early returns nor the relative error bound below can be
    # trusted.  Products that are zero because a *difference* is exactly
    # zero are fine — those are exact.
    if -_MIN_NORMAL < detleft < _MIN_NORMAL and (
        -_MIN_NORMAL < detright < _MIN_NORMAL
    ):
        left_exact_zero = ax == cx or by == cy
        right_exact_zero = ay == cy or bx == cx
        if not (left_exact_zero and right_exact_zero) and (
            -_DENORMAL_SAFE_DET <= det <= _DENORMAL_SAFE_DET
        ):
            return _orientation_exact(ax, ay, bx, by, cx, cy)

    if detleft > 0.0:
        if detright <= 0.0:
            return det
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return det
        detsum = -detleft - detright
    else:
        return det

    # The two products have the same sign and similar magnitude: the
    # subtraction may have cancelled catastrophically.  Check the error bound
    # and fall back to exact arithmetic when the float result is untrusted.
    if abs(det) >= _ORIENT_ERR_BOUND * detsum:
        return det
    return _orientation_exact(ax, ay, bx, by, cx, cy)


def orientation_value(a: Point, b: Point, c: Point) -> float:
    """Exactly-signed doubled area of triangle ``(a, b, c)``.

    Returns a float whose *sign* is guaranteed correct: positive if the
    points turn counter-clockwise, negative if clockwise, exactly ``0.0`` if
    collinear.  The magnitude is only approximate when the exact fallback is
    taken, but callers of this module only ever use the sign.
    """
    return orientation_sign(a.x, a.y, b.x, b.y, c.x, c.y)


def _orientation_exact(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> float:
    fax, fay = Fraction(ax), Fraction(ay)
    fbx, fby = Fraction(bx), Fraction(by)
    fcx, fcy = Fraction(cx), Fraction(cy)
    det = (fax - fcx) * (fby - fcy) - (fay - fcy) * (fbx - fcx)
    if det > 0:
        return 1.0
    if det < 0:
        return -1.0
    return 0.0


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Robust orientation of the ordered triple ``(a, b, c)``."""
    value = orientation_value(a, b, c)
    if value > 0.0:
        return Orientation.COUNTERCLOCKWISE
    if value < 0.0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def signed_area_sign(ring) -> float:
    """Robust sign of the shoelace signed area of a vertex ring.

    Returns ``1.0`` for a counter-clockwise ring, ``-1.0`` for clockwise,
    and ``0.0`` for an exactly degenerate (zero-area) ring.  The naive
    float shoelace sum cancels catastrophically for thin rings — at
    extreme coordinate scales (hull areas around ``1e-146`` and below)
    even its *sign* is wrong, which silently reversed
    :class:`~repro.geometry.polygon.Polygon` rings built from valid
    counter-clockwise hulls.  As with :func:`orientation_value`, a fast
    float evaluation is trusted only outside a forward error bound;
    inside it the sum is re-evaluated in exact rational arithmetic.

    ``ring`` is a sequence of :class:`Point` (the closing edge implicit).
    """
    total = 0.0
    magnitude = 0.0
    n = len(ring)
    for i, p in enumerate(ring):
        q = ring[(i + 1) % n]
        left = p.x * q.y
        right = p.y * q.x
        total += left - right
        magnitude += abs(left) + abs(right)
    # One rounding per product plus one per addition: 3n + 2 ulps is a
    # comfortable over-estimate of the accumulated forward error.
    if abs(total) > (3.0 * n + 2.0) * _EPS * magnitude:
        return 1.0 if total > 0.0 else -1.0
    exact = Fraction(0)
    for i, p in enumerate(ring):
        q = ring[(i + 1) % n]
        exact += Fraction(p.x) * Fraction(q.y) - Fraction(p.y) * Fraction(q.x)
    if exact > 0:
        return 1.0
    if exact < 0:
        return -1.0
    return 0.0


def incircle(a: Point, b: Point, c: Point, d: Point) -> float:
    """Robustly-signed in-circle test.

    For a *counter-clockwise* triangle ``a, b, c``, the result is positive if
    ``d`` lies strictly inside the circumcircle, negative if strictly
    outside, and exactly ``0.0`` if the four points are cocircular.  (For a
    clockwise triangle the sign flips, as with the classical determinant.)
    """
    return incircle_sign(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y)


def incircle_sign(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
    dx: float,
    dy: float,
) -> float:
    """Raw-coordinate form of :func:`incircle`, with the same sign guarantee.

    What the triangulation's insert calls on the floats it keeps in its
    coordinate arrays, so no :class:`Point` is built per test.
    """
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )

    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if abs(det) >= _INCIRCLE_ERR_BOUND * permanent:
        return det
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _incircle_exact(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
    dx: float,
    dy: float,
) -> float:
    fdx, fdy = Fraction(dx), Fraction(dy)
    adx, ady = Fraction(ax) - fdx, Fraction(ay) - fdy
    bdx, bdy = Fraction(bx) - fdx, Fraction(by) - fdy
    cdx, cdy = Fraction(cx) - fdx, Fraction(cy) - fdy

    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    if det > 0:
        return 1.0
    if det < 0:
        return -1.0
    return 0.0

