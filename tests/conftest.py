"""Shared fixtures for the repro test suite.

Also registers the deterministic ``ci`` Hypothesis profile: CI exports
``HYPOTHESIS_PROFILE=ci`` so property tests run derandomised (fixed
example derivation — a failure in the CI logs reproduces exactly with
the same env var locally) and without the wall-clock deadline (shared
runners are slow and deadline flakes are not real failures).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.delaunay import compiled
from repro.geometry import Point, Polygon, Rect
from repro.workloads.generators import uniform_points

try:
    from hypothesis import settings as _hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    _hypothesis_settings = None

if _hypothesis_settings is not None:
    _hypothesis_settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        print_blob=True,
    )
    _profile = os.environ.get("HYPOTHESIS_PROFILE")
    if _profile:
        _hypothesis_settings.load_profile(_profile)


@pytest.fixture(scope="session")
def requires_compiled():
    """Skip where the compiled insert does not load (no C compiler, or
    ``CC=false``).

    Requested only by the tests that build graphs large enough that the
    interpreted insert would make them slow; everything else runs, and
    builds the same graphs, either way.
    """
    if compiled.library() is None:
        pytest.skip("the compiled insert is not available")


@pytest.fixture(scope="session")
def uniform_200():
    """200 uniform points in the unit square (session-cached)."""
    return uniform_points(200, seed=42)


@pytest.fixture(scope="session")
def uniform_1000():
    """1000 uniform points in the unit square (session-cached)."""
    return uniform_points(1000, seed=7)


@pytest.fixture
def rng():
    """A fresh seeded RNG per test."""
    return random.Random(1234)


@pytest.fixture
def unit_square():
    return Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def concave_polygon():
    """An L-shaped (concave) polygon inside the unit square."""
    return Polygon(
        [
            Point(0.1, 0.1),
            Point(0.9, 0.1),
            Point(0.9, 0.5),
            Point(0.5, 0.5),
            Point(0.5, 0.9),
            Point(0.1, 0.9),
        ]
    )


@pytest.fixture
def triangle():
    return Polygon([Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)])
