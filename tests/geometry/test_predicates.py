"""Unit tests for the robust predicates."""

import math

from repro.geometry.point import Point
from repro.geometry.predicates import (
    Orientation,
    incircle,
    orientation,
    orientation_sign,
    orientation_value,
    signed_area_sign,
)

#: A counter-clockwise triangle of exact area ~1.0e-146 whose naive float
#: shoelace sum evaluates to a *negative* value (catastrophic cancellation
#: at denormal-product coordinate scales) — the ROADMAP's latent
#: convex_hull bug.  Found by randomised search against exact arithmetic.
DENORMAL_CCW_TRIANGLE = [
    Point(2.4479854537261012e-65, 5.475382532919865e-66),
    Point(3.135208606523928e-65, 4.578950069010331e-66),
    Point(3.8224317593217544e-65, 3.6825176051007995e-66),
]


class TestOrientation:
    def test_counterclockwise(self):
        assert (
            orientation(Point(0, 0), Point(1, 0), Point(0, 1))
            is Orientation.COUNTERCLOCKWISE
        )

    def test_clockwise(self):
        assert (
            orientation(Point(0, 0), Point(0, 1), Point(1, 0))
            is Orientation.CLOCKWISE
        )

    def test_collinear(self):
        assert (
            orientation(Point(0, 0), Point(1, 1), Point(2, 2))
            is Orientation.COLLINEAR
        )

    def test_antisymmetry(self):
        a, b, c = Point(0.1, 0.9), Point(0.4, 0.2), Point(0.8, 0.5)
        assert orientation(a, b, c).value == -orientation(b, a, c).value

    def test_cyclic_invariance(self):
        a, b, c = Point(0.1, 0.9), Point(0.4, 0.2), Point(0.8, 0.5)
        assert orientation(a, b, c) is orientation(b, c, a)
        assert orientation(a, b, c) is orientation(c, a, b)

    def test_nearly_collinear_resolved_exactly(self):
        # Classic robustness case: tiny offsets around a long skinny
        # triangle.  The exact fallback must make a consistent call.
        a = Point(0.0, 0.0)
        b = Point(1e17, 1e17)
        on_line = Point(0.5e17, 0.5e17)
        assert orientation(a, b, on_line) is Orientation.COLLINEAR

    def test_subulp_perturbation_detected(self):
        a = Point(0.0, 0.0)
        b = Point(1.0, 1.0)
        above = Point(0.5, 0.5 + 1e-17)  # rounds to 0.5 in float, collinear
        below = Point(0.5, math.nextafter(0.5, 1.0))  # one ulp above
        assert orientation(a, b, above) is Orientation.COLLINEAR
        assert orientation(a, b, below) is Orientation.COUNTERCLOCKWISE

    def test_orientation_sign_matches_value(self):
        a, b, c = Point(0.3, 0.2), Point(0.7, 0.9), Point(0.1, 0.5)
        assert orientation_sign(
            a.x, a.y, b.x, b.y, c.x, c.y
        ) == orientation_value(a, b, c)

    def test_degenerate_identical_points(self):
        p = Point(0.5, 0.5)
        assert orientation(p, p, p) is Orientation.COLLINEAR
        assert orientation(p, p, Point(1, 1)) is Orientation.COLLINEAR


class TestIncircle:
    def test_point_inside_circumcircle(self):
        # Unit circle through (1,0), (0,1), (-1,0); origin is inside.
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert incircle(a, b, c, Point(0, 0)) > 0.0

    def test_point_outside_circumcircle(self):
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert incircle(a, b, c, Point(2, 2)) < 0.0

    def test_cocircular_is_exactly_zero(self):
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        assert incircle(a, b, c, Point(0, -1)) == 0.0

    def test_sign_flips_for_clockwise_triangle(self):
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        inside = Point(0.1, 0.2)
        assert incircle(a, b, c, inside) > 0.0
        assert incircle(a, c, b, inside) < 0.0

    def test_near_cocircular_robust(self):
        # Four points nearly on a circle; the exact fallback must decide.
        a, b, c = Point(1, 0), Point(0, 1), Point(-1, 0)
        just_inside = Point(0.0, -math.nextafter(1.0, 0.0))
        just_outside = Point(0.0, -math.nextafter(1.0, 2.0))
        assert incircle(a, b, c, just_inside) > 0.0
        assert incircle(a, b, c, just_outside) < 0.0


class TestOrientationDenormal:
    def test_underflowed_products_still_signed(self):
        # Regression (hypothesis): both cross products underflow to an
        # exact 0.0 for this CCW triple, so the old fast path reported
        # COLLINEAR for two of the three cyclic rotations.
        a = Point(0.0, 0.0)
        b = Point(1.6360808716095311e-198, 0.0)
        c = Point(1.0, 1.6360808716095311e-198)
        assert orientation(a, b, c) is Orientation.COUNTERCLOCKWISE
        assert orientation(b, c, a) is Orientation.COUNTERCLOCKWISE
        assert orientation(c, a, b) is Orientation.COUNTERCLOCKWISE
        assert orientation(a, c, b) is Orientation.CLOCKWISE

    def test_exact_zero_factors_stay_collinear(self):
        # Degenerate triples decide via exactly-zero difference factors
        # and must not take the exact-arithmetic fallback path.
        a = Point(1e-300, 1e-300)
        b = Point(1e-300, 1e-300)
        assert orientation(a, b, Point(1.0, 2.0)) is Orientation.COLLINEAR

    def test_denormal_scale_triangle(self):
        # A well-shaped triangle entirely at denormal product scale.
        a = Point(0.0, 0.0)
        b = Point(1e-160, 0.0)
        c = Point(0.0, 1e-160)
        assert orientation(a, b, c) is Orientation.COUNTERCLOCKWISE
        assert orientation(a, c, b) is Orientation.CLOCKWISE


class TestSignedAreaSign:
    def test_ccw_square(self):
        ring = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert signed_area_sign(ring) == 1.0

    def test_cw_square(self):
        ring = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)]
        assert signed_area_sign(ring) == -1.0

    def test_degenerate_ring_is_zero(self):
        ring = [Point(0, 0), Point(1, 1), Point(2, 2)]
        assert signed_area_sign(ring) == 0.0

    def test_denormal_scale_sign_flip(self):
        # The float shoelace sum of this CCW ring is negative; the robust
        # predicate must still report counter-clockwise.
        ring = DENORMAL_CCW_TRIANGLE
        naive = sum(
            p.x * ring[(i + 1) % 3].y - p.y * ring[(i + 1) % 3].x
            for i, p in enumerate(ring)
        )
        assert naive < 0.0  # the trap the naive evaluation falls into
        assert signed_area_sign(ring) == 1.0

    def test_denormal_scale_reversed_ring(self):
        assert signed_area_sign(list(reversed(DENORMAL_CCW_TRIANGLE))) == -1.0
