"""repro — Voronoi-diagram-based area queries.

A full reproduction of *"Area Queries Based on Voronoi Diagrams"* (Yang Li,
ICDE 2020): a spatial database answering polygon area queries either the
traditional way (R-tree window filter + point-in-polygon refine) or with the
paper's contribution, an incremental candidate expansion over Voronoi
neighbours that touches only the points inside the polygon plus a thin
boundary shell.

Queries are declarative spec objects; the database is one entry point::

    import random
    from repro import AreaQuery, KnnQuery, SpatialDatabase, random_query_polygon
    from repro.geometry import Point

    rng = random.Random(0)
    db = SpatialDatabase.from_points(
        Point(rng.random(), rng.random()) for _ in range(100_000)
    ).prepare()
    area = random_query_polygon(query_size=0.01, rng=rng)

    result = db.query(AreaQuery(area))            # planner-routed ("auto")
    voronoi = db.query(AreaQuery(area, method="voronoi"))
    baseline = db.query(AreaQuery(area, method="traditional"))
    assert voronoi.ids() == baseline.ids()
    print(f"candidates: {voronoi.stats.candidates} (voronoi) "
          f"vs {baseline.stats.candidates} (traditional)")
    print(result.explain().render())              # the planner's decision
    nearest = db.query(KnnQuery((0.5, 0.5), 8)).points()

Packages
--------
``repro.geometry``
    From-scratch planar geometry kernel (points, robust predicates,
    segments, rectangles, simple polygons, random polygon workloads).
``repro.index``
    The paper's R-tree, held in numpy arrays, plus the brute-force
    oracle it is tested against.
``repro.delaunay``
    Bowyer–Watson Delaunay triangulation, the Voronoi dual (cells +
    neighbour graph), and pluggable neighbour backends.
``repro.core``
    The two area-query algorithms, the :class:`SpatialDatabase` facade, and
    per-query statistics.
``repro.query``
    The declarative query API: immutable spec objects
    (:class:`AreaQuery`, :class:`WindowQuery`, :class:`KnnQuery`,
    :class:`NearestQuery`), the composite algebra over them
    (:class:`UnionQuery`, :class:`IntersectionQuery`,
    :class:`DifferenceQuery`) with set-semantics merging, streaming
    consumption (``KnnQuery(k=None)``, ``result.first(n)``), the lazy
    result handle, and exact JSON (de)serialisation of specs.
``repro.engine``
    The serving layer: heterogeneous batch execution with cross-query
    sharing, a cost-based planner routing every query kind
    (``method="auto"``), and a spec-keyed LRU result cache.
``repro.server``
    The network surface: an asyncio NDJSON query server with
    cross-client batch coalescing and chunked result streaming, plus a
    small blocking client (``python -m repro serve`` /
    ``repro query --remote``).
``repro.workloads``
    Seeded dataset/query generators and the experiment harness regenerating
    every table and figure of the paper.
"""

from repro.core import (
    EmptyDatabaseError,
    InvalidQueryAreaError,
    PointStore,
    QueryRecord,
    QueryStats,
    ReproError,
    SpatialDatabase,
    traditional_area_query,
    voronoi_area_query,
)
from repro.geometry import (
    Point,
    Polygon,
    Rect,
    Segment,
    random_query_polygon,
    random_simple_polygon,
    random_star_polygon,
)
from repro.query import (
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    QueryResult,
    UnionQuery,
    WindowQuery,
    dump_specs,
    load_specs,
)

__version__ = "1.2.0"

__all__ = [
    "SpatialDatabase",
    "PointStore",
    "Query",
    "AreaQuery",
    "WindowQuery",
    "KnnQuery",
    "NearestQuery",
    "CompositeQuery",
    "UnionQuery",
    "IntersectionQuery",
    "DifferenceQuery",
    "QueryResult",
    "QueryRecord",
    "QueryStats",
    "dump_specs",
    "load_specs",
    "traditional_area_query",
    "voronoi_area_query",
    "ReproError",
    "EmptyDatabaseError",
    "InvalidQueryAreaError",
    "Point",
    "Polygon",
    "Rect",
    "Segment",
    "random_query_polygon",
    "random_simple_polygon",
    "random_star_polygon",
    "__version__",
]
