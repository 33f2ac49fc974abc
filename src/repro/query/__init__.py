"""The declarative query API: specs in, lazy results out.

One logical query, many execution strategies — that is the paper's frame
(traditional filter–refine vs Voronoi expansion are *interchangeable*
answers to the same question), and this package makes it the shape of
the public API:

* :mod:`repro.query.spec` — immutable, hashable spec objects
  (:class:`AreaQuery`, :class:`WindowQuery`, :class:`KnnQuery`,
  :class:`NearestQuery`) with composable options (``limit``,
  ``predicate``, ``select`` projection), plus the composite algebra
  (:class:`UnionQuery`, :class:`IntersectionQuery`,
  :class:`DifferenceQuery`) and the unbounded streaming
  ``KnnQuery(k=None)``;
* :mod:`repro.query.merge` — :func:`merge_ids`, the set-semantics merge
  of composite parts' sorted id arrays;
* :mod:`repro.query.result` — the lazy :class:`QueryResult` handle
  (deferred execution, streaming iteration, ``.ids()`` / ``.points()`` /
  ``.distances()`` materialisation, per-query ``stats``, planner
  ``.explain()``) and :class:`BatchQueryResults`;
* :mod:`repro.query.executor` — the one execution path every surface
  shares (:func:`execute_spec`);
* :mod:`repro.query.serialize` — exact JSON round-trip of specs for the
  experiment harness and ``python -m repro query --spec-file``.

Entry points::

    from repro import SpatialDatabase, AreaQuery, KnnQuery

    db = SpatialDatabase.from_points(points)
    rows = db.query(AreaQuery(polygon)).ids()          # planner-routed
    near = db.query(KnnQuery((0.5, 0.5), 8)).points()  # k nearest
    batch = db.query_batch(specs)                      # heterogeneous
"""

from repro.query.executor import execute_spec, resolve_method, stream_spec
from repro.query.merge import merge_ids
from repro.query.result import BatchQueryResults, QueryResult
from repro.query.serialize import (
    dump_specs,
    load_specs,
    region_from_dict,
    region_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.query.spec import (
    PROJECTIONS,
    QUERY_KINDS,
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    UnionQuery,
    WindowQuery,
    spec_fields,
)

__all__ = [
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
    "BatchQueryResults",
    "QUERY_KINDS",
    "PROJECTIONS",
    "execute_spec",
    "stream_spec",
    "merge_ids",
    "resolve_method",
    "spec_fields",
    "spec_to_dict",
    "spec_from_dict",
    "region_to_dict",
    "region_from_dict",
    "dump_specs",
    "load_specs",
]
