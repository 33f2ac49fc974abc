"""Seeded inputs and the numpy brute-force oracle.

Everything the program is given comes from here: point arrays, star
polygons and hand-built spec JSON (the wire form documented in
``repro.query.serialize``).  The oracle answers the same spec dicts over
the benchmark's own coordinate arrays and never calls into ``repro``.
"""

from __future__ import annotations

import math
import time

import numpy as np


def make_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform points in the unit square, row id = array index."""
    return rng.random((n, 2))


def star_polygon(rng: np.random.Generator, share: float) -> list:
    """An irregular star polygon whose MBR covers ``share`` of the space.

    10-20 vertices at jittered, increasing angles (every gap below pi,
    so the ring is simple) with radial factors U[0.35, 1]; scaled so the
    bounding box has exactly the requested area, then placed uniformly
    where it fits inside the unit square.
    """
    k = int(rng.integers(10, 21))
    angles = 2.0 * math.pi * (np.arange(k) + 0.8 * rng.random(k)) / k
    radii = rng.uniform(0.35, 1.0, k)
    ring = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    low, high = ring.min(axis=0), ring.max(axis=0)
    extent = high - low
    ring = (ring - low) * math.sqrt(share / (extent[0] * extent[1]))
    room = 1.0 - ring.max(axis=0)
    ring = ring + rng.random(2) * room
    return ring.tolist()


def window_spec(x: float, y: float, side: float, limit=None) -> dict:
    """A ``side`` x ``side`` window with its lower-left corner at (x, y)."""
    spec = {"kind": "window", "rect": [x, y, x + side, y + side]}
    if limit is not None:
        spec["limit"] = limit
    return spec


def knn_spec(x: float, y: float, k: int) -> dict:
    return {"kind": "knn", "point": [x, y], "k": k}


def area_spec(vertices: list, method: str = "auto") -> dict:
    spec = {"kind": "area", "region": {"type": "polygon", "vertices": vertices}}
    if method != "auto":
        spec["method"] = method
    return spec


# -- oracle -------------------------------------------------------------------


def _in_polygon(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd crossing test of many points against one ring."""
    inside = np.zeros(px.shape, dtype=bool)
    x0, y0 = ring[-1]
    for x1, y1 in ring:
        if y0 != y1:
            straddles = (y0 > py) != (y1 > py)
            crossing_x = (x1 - x0) * (py - y0) / (y1 - y0) + x0
            inside ^= straddles & (px < crossing_x)
        x0, y0 = x1, y1
    return inside


def expected_ids(spec: dict, xs: np.ndarray, ys: np.ndarray, live=None) -> list:
    """Brute-force answer to ``spec``: ascending ids for region kinds,
    nearest-first for kNN.  ``live`` masks deleted rows."""
    kind = spec["kind"]
    if kind == "knn":
        qx, qy = spec["point"]
        d2 = (xs - qx) ** 2 + (ys - qy) ** 2
        if live is not None:
            d2 = np.where(live, d2, np.inf)
        k = min(spec["k"], int(np.isfinite(d2).sum()))
        nearest = np.argpartition(d2, k - 1)[:k] if k < len(d2) else np.arange(len(d2))
        return nearest[np.argsort(d2[nearest], kind="stable")].tolist()
    if kind == "window":
        x0, y0, x1, y1 = spec["rect"]
        mask = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    elif kind == "area":
        ring = np.asarray(spec["region"]["vertices"], dtype=float)
        (x0, y0), (x1, y1) = ring.min(axis=0), ring.max(axis=0)
        boxed = np.flatnonzero((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1))
        mask = np.zeros(xs.shape, dtype=bool)
        mask[boxed[_in_polygon(xs[boxed], ys[boxed], ring)]] = True
    else:
        raise ValueError(f"the oracle does not answer {kind!r} specs")
    if live is not None:
        mask &= live
    ids = np.flatnonzero(mask)
    limit = spec.get("limit")
    return (ids if limit is None else ids[:limit]).tolist()


# -- summaries ----------------------------------------------------------------


def percentile(values, q: float):
    """The ``q`` percentile (0-100); ``None`` for an empty sample."""
    if len(values) == 0:
        return None
    return float(np.percentile(np.asarray(values, dtype=float), q))


def canary_ms() -> float:
    """Time a fixed numpy + pure-Python kernel: the machine-noise probe.

    Run right before and after every timed phase; if it drifts between
    two sides of a comparison, the machine changed, not the program.
    The kernel runs 40 times back to back and the median counts: the
    first few after an idle spell measure the wake-up, not the machine.
    """
    data = np.random.default_rng(0).random(120_000)
    laps = []
    for _ in range(40):
        started = time.perf_counter()
        np.sort(data)
        total = 0
        for i in range(60_000):
            total += i & 7
        laps.append(time.perf_counter() - started)
    return float(np.median(laps)) * 1000.0
