"""The span targets: every wrapped public callable, listed once.

Each entry is ``(span name, "module:dotted.attribute", size argument)``.
The span name's prefix is the layer (this repo's module names).  The
size argument is the positional index (``self`` counts) of a sized
argument to record with the span — points tested, ids packed — or
``None``.  Only synchronous callables belong here: a wrapped coroutine
function would time the creation of the coroutine, not its work.

A target that no longer resolves is reported under ``unresolved_spans``
and its metrics are not measured; it never fails a run, so a later
refactor cannot brick the benchmark.
"""

from __future__ import annotations

LAYERS = (
    "geometry",
    "index",
    "delaunay",
    "core",
    "query",
    "engine",
    "live",
    "server",
    "cluster",
    "io",
)

SPANS = (
    ("geometry.contains_many", "repro.geometry.polygon:Polygon.contains_many", 1),
    ("index.bulk_load", "repro.index.rtree:RTree.bulk_load", None),
    ("index.window_ids_array", "repro.index.rtree:RTree.window_ids_array", None),
    ("index.nearest_neighbor", "repro.index.rtree:RTree.nearest_neighbor", None),
    ("index.k_nearest_neighbors", "repro.index.rtree:RTree.k_nearest_neighbors", None),
    ("index.insert", "repro.index.rtree:RTree.insert", None),
    ("index.delete", "repro.index.rtree:RTree.delete", None),
    ("delaunay.make_backend", "repro.delaunay.backends:make_backend", None),
    ("delaunay.neighbor_table", "repro.delaunay.backends:DelaunayBackend.neighbor_table", None),
    ("delaunay.neighbor_csr", "repro.delaunay.backends:DelaunayBackend.neighbor_csr", None),
    ("delaunay.add_point", "repro.delaunay.backends:PureDelaunayBackend.add_point", None),
    ("core.voronoi_area_query", "repro.core.voronoi_query:voronoi_area_query", None),
    ("core.traditional_area_query", "repro.core.traditional_query:traditional_area_query", None),
    ("core.voronoi_knn_query", "repro.core.knn_query:voronoi_knn_query", None),
    ("core.graph_nearest", "repro.core.voronoi_query:graph_nearest", None),
    ("core.store_append", "repro.core.store:PointStore.append", None),
    ("core.store_extend_array", "repro.core.store:PointStore.extend_array", None),
    ("core.store_delete", "repro.core.store:PointStore.delete", None),
    ("core.store_snapshot", "repro.core.store:PointStore.snapshot", None),
    ("query.execute_spec", "repro.query.executor:execute_spec", None),
    ("query.spec_from_dict", "repro.query.serialize:spec_from_dict", None),
    ("engine.plan", "repro.engine.planner:QueryPlanner.plan", None),
    ("engine.run_specs", "repro.engine.batch:BatchQueryEngine.run_specs", 1),
    ("live.register", "repro.live.registry:SubscriptionRegistry.register", None),
    ("live.apply_write", "repro.live.registry:SubscriptionRegistry.apply_write", None),
    ("server.decode_frame", "repro.server.protocol:decode_frame", None),
    ("server.encode_frame", "repro.server.protocol:encode_frame", None),
    ("server.pack_ids", "repro.server.protocol:pack_ids", 0),
    ("server.enqueue", "repro.server.coalescer:BatchCoalescer.enqueue", None),
    ("server.apply_write", "repro.server.coalescer:BatchCoalescer.apply_write", None),
    ("cluster.workers_for_bounds", "repro.cluster.shardmap:ShardMap.workers_for_bounds", None),
    ("cluster.workers_for_circle", "repro.cluster.shardmap:ShardMap.workers_for_circle", None),
    ("cluster.coordinator_query", "repro.cluster.coordinator:ClusterCoordinator.query", None),
    ("cluster.shard_query_ids", "repro.cluster.backends:RemoteShard.query_ids", None),
    ("io.load_database", "repro.io.persist:load_database", None),
)
