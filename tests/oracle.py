"""The reference every execution surface is compared against.

Two things, neither of which lives in ``src/``:

* :func:`brute_force` — the answer to any query spec by a linear scan
  over a ``{row id: (x, y)}`` mapping of the *live* rows.  No index, no
  graph, no arrays: the region's own scalar test per row.
* :func:`reference_voronoi` / :func:`reference_traditional` — the
  paper's two algorithms exactly as its pseudo-code states them, one
  candidate at a time over ``Point`` objects: Algorithm 1 as a FIFO
  queue over the neighbour table, filter–refine as a loop over the
  window query's entries.  They are the reference for the counters the
  paper reports (``candidates``, ``validations``,
  ``redundant_validations``); the product runs the same rules wave by
  wave over arrays (``repro.core.voronoi_query``).

Both references read a database's index, neighbour table and ``Point``
view, so a test that also asserts the product built none of those runs
the reference on a twin database.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Tuple

from repro.core.stats import QueryRecord, QueryStats
from repro.geometry.point import Point
from repro.geometry.region import interior_seed_position
from repro.geometry.segment import Segment
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    UnionQuery,
    WindowQuery,
)

Rows = Mapping[int, Tuple[float, float]]


def live_rows(db) -> Dict[int, Tuple[float, float]]:
    """``{row id: (x, y)}`` of every live row of ``db``."""
    store = db.store
    return {
        row: store.coords(row)
        for row in range(len(store))
        if not store.is_deleted(row)
    }


def ranking(point: Point, rows: Rows) -> List[int]:
    """Every row nearest-first from ``point``, ties by row id."""

    def key(row):
        x, y = rows[row]
        dx, dy = x - point.x, y - point.y
        return (dx * dx + dy * dy, row)

    return sorted(rows, key=key)


def brute_force(spec, rows: Rows) -> List[int]:
    """The ids ``spec`` must return over the live ``rows``, by scanning."""
    if isinstance(spec, CompositeQuery):
        parts = [set(brute_force(part, rows)) for part in spec.parts]
        if isinstance(spec, UnionQuery):
            ids = sorted(set().union(*parts))
        elif isinstance(spec, IntersectionQuery):
            ids = sorted(parts[0].intersection(*parts[1:]))
        else:
            assert isinstance(spec, DifferenceQuery)
            ids = sorted(parts[0].difference(*parts[1:]))
    elif isinstance(spec, AreaQuery):
        inside = spec.region.contains_point
        ids = sorted(r for r, (x, y) in rows.items() if inside(Point(x, y)))
    elif isinstance(spec, WindowQuery):
        inside = spec.rect.contains_point
        ids = sorted(r for r, (x, y) in rows.items() if inside(Point(x, y)))
    else:
        assert isinstance(spec, (KnnQuery, NearestQuery))
        ids = ranking(spec.point, rows)
    if spec.predicate is not None:
        ids = [r for r in ids if spec.predicate(Point(*rows[r]))]
    if isinstance(spec, NearestQuery):
        ids = ids[:1]
    elif isinstance(spec, KnnQuery) and spec.k is not None:
        ids = ids[: spec.k]
    if spec.limit is not None:
        ids = ids[: spec.limit]
    return ids


def brute_force_classes(db, area, rows):
    """The paper's three classes from their definitions, row by row."""
    internal = brute_force(AreaQuery(area), rows)
    inside = set(internal)
    boundary = [
        row
        for row in sorted(rows)
        if row not in inside
        and any(
            neighbor in inside
            or area.intersects_segment(
                Segment(Point(*rows[row]), db.point(neighbor))
            )
            for neighbor in db.voronoi_neighbors(row)
        )
    ]
    external = sorted(set(rows) - inside - set(boundary))
    return {"internal": internal, "boundary": boundary, "external": external}


def _graph_nearest(neighbor_table, points, start: int, x: float, y: float) -> int:
    """Greedy descent to the graph vertex nearest ``(x, y)``."""
    current = start
    best = (points[current].x - x) ** 2 + (points[current].y - y) ** 2
    improved = True
    while improved:
        improved = False
        for neighbor in neighbor_table[current]:
            q = points[neighbor]
            d = (q.x - x) ** 2 + (q.y - y) ** 2
            if d < best:
                best, current, improved = d, neighbor, True
    return current


def reference_voronoi(db, area) -> QueryRecord:
    """Algorithm 1 as the paper's queue, one candidate at a time."""
    stats = QueryStats(method="voronoi")
    position = interior_seed_position(area)
    seed_entry = db.index.nearest_neighbor(position)
    if seed_entry is None:
        return QueryRecord(ids=[], stats=stats)
    seed_id = seed_entry[1]
    points = db.points
    neighbor_table = db.backend.neighbor_table()
    tombstoned = db.store.deleted_rows
    if tombstoned:
        # The index holds live rows only; the seed must own the Voronoi
        # cell of the position over the whole graph, tombstones included.
        seed_id = _graph_nearest(
            neighbor_table, points, seed_id, position.x, position.y
        )
    queue = deque([seed_id])
    visited = bytearray(len(points))
    visited[seed_id] = 1
    results: List[int] = []
    stats.candidates = 1
    while queue:
        current = queue.popleft()
        current_point = points[current]
        stats.validations += 1
        if area.contains_point(current_point):
            if current not in tombstoned:
                results.append(current)
            for neighbor in neighbor_table[current]:
                if not visited[neighbor]:
                    visited[neighbor] = 1
                    queue.append(neighbor)
                    stats.candidates += 1
        else:
            # ``current`` is outside the closed area, so the paper's
            # Intersects(line(p, pn), A) reduces to a boundary-crossing
            # test (a segment starting outside meets the region only
            # through its boundary).
            stats.redundant_validations += 1
            cx, cy = current_point.x, current_point.y
            for neighbor in neighbor_table[current]:
                if not visited[neighbor]:
                    stats.segment_tests += 1
                    q = points[neighbor]
                    if area.crosses_boundary_xy(cx, cy, q.x, q.y):
                        visited[neighbor] = 1
                        queue.append(neighbor)
                        stats.candidates += 1
    stats.result_size = len(results)
    return QueryRecord(ids=sorted(results), stats=stats)


def reference_traditional(db, area) -> QueryRecord:
    """Filter–refine as a loop over the window query's entries."""
    stats = QueryStats(method="traditional")
    candidates = db.index.window_query(area.mbr)
    stats.candidates = len(candidates)
    results: List[int] = []
    for point, item_id in candidates:
        stats.validations += 1
        if area.contains_point(point):
            results.append(item_id)
        else:
            stats.redundant_validations += 1
    stats.result_size = len(results)
    return QueryRecord(ids=sorted(results), stats=stats)


def reference_area(db, spec: AreaQuery) -> QueryRecord:
    """The reference execution of ``spec`` by its explicit method."""
    if spec.method == "voronoi":
        return reference_voronoi(db, spec.region)
    assert spec.method == "traditional", spec.method
    return reference_traditional(db, spec.region)


PAPER_COUNTERS = ("candidates", "validations", "redundant_validations")


def assert_paper_counters(got: QueryStats, expected: QueryStats, context=None):
    """The counters the paper reports agree (``segment_tests`` is
    visit-order-dependent and not compared)."""
    for counter in PAPER_COUNTERS:
        assert getattr(got, counter) == getattr(expected, counter), (
            context,
            counter,
        )


class ProtocolOnlyRegion:
    """A region offering the ``QueryRegion`` protocol and nothing more.

    Wraps a polygon or circle and forwards exactly the protocol's
    members — no ``contains_many``, no ``crosses_boundary_many``, no
    vertices — so the query paths must serve it from the scalar tests.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def area(self) -> float:
        return self._inner.area

    @property
    def mbr(self):
        return self._inner.mbr

    @property
    def centroid(self) -> Point:
        return self._inner.centroid

    def contains_point(self, p: Point, *, boundary: bool = True) -> bool:
        return self._inner.contains_point(p, boundary=boundary)

    def point_on_boundary(self, p: Point) -> bool:
        return self._inner.point_on_boundary(p)

    def crosses_boundary_xy(self, sx, sy, ex, ey) -> bool:
        return self._inner.crosses_boundary_xy(sx, sy, ex, ey)

    def intersects_segment(self, segment) -> bool:
        return self._inner.intersects_segment(segment)
