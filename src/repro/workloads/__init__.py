"""Workload generation and the paper's experiment harness.

* :mod:`repro.workloads.generators` — seeded synthetic point datasets
  (uniform, the paper's workload; clustered and grid variants for
  robustness testing) and the moving-objects update workload
  (random-waypoint motion with hot-spot drift) feeding the live-query
  tests.
* :mod:`repro.workloads.queries` — query-area workloads (the paper's random
  10-vertex polygons at a given query size, plus convex/rectangle variants
  for the ablation).
* :mod:`repro.workloads.experiments` — the sweeps regenerating Tables I–II
  and Figures 4–7, with ASCII renderings matching the paper's table layout,
  and the spec traces the batch-engine tests draw from.  Also runnable as
  a module: ``python -m repro.workloads.experiments``.  Served and
  clustered throughput is measured by ``perfbench/``.
"""

from repro.workloads.generators import (
    clustered_points,
    grid_points,
    moving_object_steps,
    uniform_points,
)
from repro.workloads.queries import QueryWorkload, make_query_areas
from repro.workloads.experiments import (
    ExperimentConfig,
    SweepRow,
    run_data_size_sweep,
    run_query_size_sweep,
    render_table,
)

__all__ = [
    "uniform_points",
    "clustered_points",
    "grid_points",
    "moving_object_steps",
    "QueryWorkload",
    "make_query_areas",
    "ExperimentConfig",
    "SweepRow",
    "run_data_size_sweep",
    "run_query_size_sweep",
    "render_table",
]
