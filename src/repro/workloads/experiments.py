"""The paper's experiment harness: Tables I–II and Figures 4–7.

Two sweeps, exactly as in Section IV of the paper:

* **data-size sweep** (Table I; Figs. 4 and 5): query size fixed at 1 %,
  database size swept (paper: 1E5 … 1E6 in steps of 1E5);
* **query-size sweep** (Table II; Figs. 6 and 7): database size fixed at
  1E5, query size doubling 1 % … 32 %.

Each cell averages ``repetitions`` random 10-vertex query polygons (the
paper averages 1000).  Every repetition asserts that both methods return
identical result sets, so the harness doubles as a large-scale correctness
check.

Scale defaults are laptop-friendly (paper-scale runs take tens of minutes in
pure Python — pass ``--paper-scale`` or a custom config to reproduce the
full 1E6 sweep).  The figures are the same series as the tables plotted
against the sweep parameter; :func:`render_figure` prints them as aligned
series so the trend/crossover shapes can be read off directly.

Run from the command line::

    python -m repro.workloads.experiments table1
    python -m repro.workloads.experiments all --repetitions 20
    python -m repro.workloads.experiments table2 --paper-scale

The module also builds the spec traces the batch-engine tests and
``python -m repro batch`` draw from: repeated area regions
(:func:`make_query_trace`), all four leaf kinds mixed
(:func:`make_mixed_trace`) and clustered composites
(:func:`make_composite_trace`), with :func:`composite_reference_ids` as
the leaf-by-leaf reference answer.  Served and clustered throughput is
measured by ``perfbench/`` (``serve_hot``, ``serve_rw_live``,
``cluster_scatter``), not here.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.database import SpatialDatabase
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.random_shapes import random_query_polygon
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    DifferenceQuery,
    IntersectionQuery,
    KnnQuery,
    NearestQuery,
    Query,
    UnionQuery,
    WindowQuery,
)
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload

#: The paper's sweep values.
PAPER_DATA_SIZES = tuple(100_000 * i for i in range(1, 11))
PAPER_QUERY_SIZES = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
PAPER_REPETITIONS = 1000

#: Laptop-scale defaults: same *structure* (10 data-size steps, 6 doubling
#: query sizes), an order of magnitude fewer points and repetitions.
DEFAULT_DATA_SIZES = tuple(10_000 * i for i in range(1, 11))
DEFAULT_QUERY_SIZES = PAPER_QUERY_SIZES
DEFAULT_REPETITIONS = 15


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the two sweeps."""

    data_sizes: Tuple[int, ...] = DEFAULT_DATA_SIZES
    query_sizes: Tuple[float, ...] = DEFAULT_QUERY_SIZES
    #: query size used by the data-size sweep (paper: 1 %)
    fixed_query_size: float = 0.01
    #: data size used by the query-size sweep (paper: 1E5)
    fixed_data_size: int = 100_000
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 0

    @staticmethod
    def paper_scale() -> "ExperimentConfig":
        """The full configuration of the paper's Section IV."""
        return ExperimentConfig(
            data_sizes=PAPER_DATA_SIZES,
            query_sizes=PAPER_QUERY_SIZES,
            fixed_data_size=100_000,
            repetitions=PAPER_REPETITIONS,
        )


@dataclass
class SweepRow:
    """One averaged cell of a sweep (one row of Table I or Table II)."""

    parameter: float  # data size, or query size fraction
    result_size: float
    traditional_candidates: float
    traditional_time_ms: float
    traditional_redundant: float
    voronoi_candidates: float
    voronoi_time_ms: float
    voronoi_redundant: float
    repetitions: int = 0

    @property
    def candidate_saving(self) -> float:
        """Fraction of candidates removed by the Voronoi method.

        The paper's "number of candidates saved": at 1E5/1 % it reports
        ``1 - 648.47/999.2 = 35.1 %``, i.e. the ratio of the *full*
        candidate sets.
        """
        if self.traditional_candidates == 0:
            return 0.0
        return 1.0 - self.voronoi_candidates / self.traditional_candidates

    @property
    def redundant_saving(self) -> float:
        """Fraction of redundant validations removed (Figs. 5 and 7 series)."""
        if self.traditional_redundant == 0:
            return 0.0
        return 1.0 - self.voronoi_redundant / self.traditional_redundant

    @property
    def time_saving(self) -> float:
        """Fraction of query time removed: ``1 - t_voronoi / t_traditional``."""
        if self.traditional_time_ms == 0:
            return 0.0
        return 1.0 - self.voronoi_time_ms / self.traditional_time_ms


def _measure_cell(
    db: SpatialDatabase,
    query_size: float,
    repetitions: int,
    seed: int,
    parameter: float,
) -> SweepRow:
    """Average both methods over ``repetitions`` random query polygons."""
    workload = QueryWorkload(query_size=query_size, seed=seed)
    areas = workload.areas(repetitions)
    totals = {
        "result": 0.0,
        "t_cand": 0.0,
        "t_time": 0.0,
        "t_red": 0.0,
        "v_cand": 0.0,
        "v_time": 0.0,
        "v_red": 0.0,
    }
    for area in areas:
        voronoi = db.query(AreaQuery(area, method="voronoi")).record
        traditional = db.query(AreaQuery(area, method="traditional")).record
        if not np.array_equal(voronoi.id_array, traditional.id_array):
            raise AssertionError(
                "methods disagree: the harness found a correctness bug "
                f"(|voronoi|={len(voronoi)}, "
                f"|traditional|={len(traditional)})"
            )
        totals["result"] += voronoi.stats.result_size
        totals["t_cand"] += traditional.stats.candidates
        totals["t_time"] += traditional.stats.time_ms
        totals["t_red"] += traditional.stats.redundant_validations
        totals["v_cand"] += voronoi.stats.candidates
        totals["v_time"] += voronoi.stats.time_ms
        totals["v_red"] += voronoi.stats.redundant_validations
    n = float(len(areas))
    return SweepRow(
        parameter=parameter,
        result_size=totals["result"] / n,
        traditional_candidates=totals["t_cand"] / n,
        traditional_time_ms=totals["t_time"] / n,
        traditional_redundant=totals["t_red"] / n,
        voronoi_candidates=totals["v_cand"] / n,
        voronoi_time_ms=totals["v_time"] / n,
        voronoi_redundant=totals["v_red"] / n,
        repetitions=int(n),
    )


def _build_database(
    n: int, config: ExperimentConfig
) -> SpatialDatabase:
    points = uniform_points(n, seed=config.seed)
    return SpatialDatabase.from_points(points).prepare()


def run_data_size_sweep(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> List[SweepRow]:
    """Table I / Fig. 4 / Fig. 5: vary data size at fixed 1 % query size."""
    rows: List[SweepRow] = []
    for n in config.data_sizes:
        if progress is not None:
            progress(f"data size {n:,}: building database...")
        db = _build_database(n, config)
        row = _measure_cell(
            db,
            config.fixed_query_size,
            config.repetitions,
            seed=config.seed + n,
            parameter=float(n),
        )
        rows.append(row)
        if progress is not None:
            progress(
                f"data size {n:,}: voronoi {row.voronoi_time_ms:.1f} ms vs "
                f"traditional {row.traditional_time_ms:.1f} ms"
            )
    return rows


def run_query_size_sweep(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> List[SweepRow]:
    """Table II / Fig. 6 / Fig. 7: vary query size at fixed data size."""
    if progress is not None:
        progress(
            f"building database of {config.fixed_data_size:,} points..."
        )
    db = _build_database(config.fixed_data_size, config)
    rows: List[SweepRow] = []
    for query_size in config.query_sizes:
        row = _measure_cell(
            db,
            query_size,
            config.repetitions,
            seed=config.seed + int(query_size * 10_000),
            parameter=query_size,
        )
        rows.append(row)
        if progress is not None:
            progress(
                f"query size {query_size:.0%}: voronoi "
                f"{row.voronoi_time_ms:.1f} ms vs traditional "
                f"{row.traditional_time_ms:.1f} ms"
            )
    return rows


# -- spec traces ---------------------------------------------------------------


def make_query_trace(
    query_size: float,
    distinct: int,
    repeat: int,
    seed: int = 0,
) -> List[AreaQuery]:
    """A production-style trace: ``distinct`` area specs, each hit
    ``repeat`` times, shuffled deterministically.

    Real area-query traffic repeats itself (hot map tiles, dashboards,
    geofence monitors); ``repeat`` controls how hot the trace is.
    ``repeat=1`` gives an all-distinct trace.
    """
    areas = QueryWorkload(query_size=query_size, seed=seed).areas(distinct)
    specs = [AreaQuery(area) for area in areas]
    trace = [spec for spec in specs for _ in range(repeat)]
    random.Random(seed + 1).shuffle(trace)
    return trace


def make_mixed_trace(
    query_size: float,
    distinct: int,
    repeat: int,
    seed: int = 0,
    max_k: int = 16,
) -> List[Query]:
    """A heterogeneous trace cycling through all four query kinds.

    ``distinct`` specs are generated round-robin — area (a random query
    polygon), window (a same-scale rectangle), kNN (random position,
    random ``k`` up to ``max_k``), nearest — then each is repeated
    ``repeat`` times and the whole trace deterministically shuffled.
    This is the acceptance workload for heterogeneous batching: the
    engine must group the kinds back together to share work.
    """
    rng = random.Random(seed)
    areas = QueryWorkload(query_size=query_size, seed=seed).areas(distinct)
    specs: List[Query] = []
    for i, area in enumerate(areas):
        variant = i % 4
        if variant == 0:
            specs.append(AreaQuery(area))
        elif variant == 1:
            specs.append(WindowQuery(area.mbr))
        elif variant == 2:
            specs.append(
                KnnQuery(
                    Point(rng.random(), rng.random()),
                    1 + rng.randrange(max_k),
                )
            )
        else:
            specs.append(NearestQuery(Point(rng.random(), rng.random())))
    trace = [spec for spec in specs for _ in range(repeat)]
    random.Random(seed + 1).shuffle(trace)
    return trace


def make_composite_trace(
    query_size: float,
    distinct: int,
    seed: int = 0,
    parts: int = 4,
    method: str = "voronoi",
    kinds: Tuple[type, ...] = (
        UnionQuery,
        IntersectionQuery,
        DifferenceQuery,
    ),
) -> List[CompositeQuery]:
    """``distinct`` composite specs, each over ``parts`` sibling regions.

    Each composite models a hot-spot dashboard panel: ``parts`` random
    query polygons (each of ``query_size`` area fraction) clustered
    around a random centre — jittered by ~10 % of their side so siblings
    overlap heavily — combined round-robin over ``kinds``.  Leaves take
    ``method`` (the paper's ``"voronoi"`` by default); the engine runs
    each distinct leaf once and merges the siblings' id lists.
    """
    rng = random.Random(seed)
    specs: List[CompositeQuery] = []
    for i in range(distinct):
        cx = rng.uniform(0.15, 0.85)
        cy = rng.uniform(0.15, 0.85)
        leaves = []
        for _ in range(parts):
            polygon = random_query_polygon(query_size, rng=rng)
            mbr = polygon.mbr
            side = max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y)
            dx = (
                cx
                - (mbr.min_x + mbr.max_x) / 2.0
                + rng.uniform(-0.1, 0.1) * side
            )
            dy = (
                cy
                - (mbr.min_y + mbr.max_y) / 2.0
                + rng.uniform(-0.1, 0.1) * side
            )
            leaves.append(
                AreaQuery(
                    Polygon(
                        [
                            Point(p.x + dx, p.y + dy)
                            for p in polygon.vertices
                        ]
                    ),
                    method=method,
                )
            )
        specs.append(kinds[i % len(kinds)](tuple(leaves)))
    return specs


def composite_reference_ids(
    db: SpatialDatabase, spec: Query
) -> List[int]:
    """Answer ``spec`` by executing every leaf *independently*.

    The no-sharing reference for the engine's decomposition: each leaf
    runs as its own :meth:`SpatialDatabase.query`, the id sets merge
    with Python set operations, and the composite's own options apply on
    top — semantically identical to the engine's decomposition, without
    any cross-leaf sharing.  Non-composite specs fall through to a
    plain single query.
    """
    if not isinstance(spec, CompositeQuery):
        return db.query(spec).ids()
    part_ids = [composite_reference_ids(db, part) for part in spec.parts]
    if isinstance(spec, UnionQuery):
        merged = set().union(*part_ids)
    elif isinstance(spec, IntersectionQuery):
        merged = set(part_ids[0]).intersection(*part_ids[1:])
    else:
        merged = set(part_ids[0]).difference(*part_ids[1:])
    ids = sorted(merged)
    if spec.predicate is not None:
        predicate = spec.predicate
        point = db.point
        ids = [i for i in ids if predicate(point(i))]
    if spec.limit is not None:
        ids = ids[: spec.limit]
    return ids


# -- rendering ----------------------------------------------------------------


def _format_parameter(value: float, as_query_size: bool) -> str:
    if as_query_size:
        return f"{value:.0%}"
    return f"{value:,.0f}"


def render_table(
    rows: Sequence[SweepRow],
    *,
    parameter_label: str,
    as_query_size: bool = False,
) -> str:
    """Render a sweep in the layout of the paper's Tables I and II."""
    header = (
        f"{parameter_label:>12} | {'Result size':>11} | "
        f"{'Trad. cand':>10} {'Trad. ms':>9} | "
        f"{'Vor. cand':>10} {'Vor. ms':>9} | "
        f"{'cand. saved':>11} {'time saved':>10}"
    )
    separator = "-" * len(header)
    lines = [header, separator]
    for row in rows:
        lines.append(
            f"{_format_parameter(row.parameter, as_query_size):>12} | "
            f"{row.result_size:>11.2f} | "
            f"{row.traditional_candidates:>10.2f} "
            f"{row.traditional_time_ms:>9.3f} | "
            f"{row.voronoi_candidates:>10.2f} "
            f"{row.voronoi_time_ms:>9.3f} | "
            f"{row.candidate_saving:>10.1%} "
            f"{row.time_saving:>10.1%}"
        )
    return "\n".join(lines)


def render_figure(
    rows: Sequence[SweepRow],
    *,
    value: str,
    title: str,
    as_query_size: bool = False,
    width: int = 60,
) -> str:
    """ASCII rendering of one of the paper's figures.

    ``value`` selects the y-series: ``"time"`` (Figs. 4 and 6) or
    ``"redundant"`` (Figs. 5 and 7).  Both methods are drawn as horizontal
    bars per sweep point, so the gap and its growth are visible in a
    terminal.
    """
    if value == "time":
        series = [
            (row.voronoi_time_ms, row.traditional_time_ms) for row in rows
        ]
        unit = "ms"
    elif value == "redundant":
        series = [
            (row.voronoi_redundant, row.traditional_redundant) for row in rows
        ]
        unit = "validations"
    else:
        raise ValueError(
            f"value must be 'time' or 'redundant', got {value!r}"
        )
    peak = max(max(pair) for pair in series) or 1.0
    lines = [title, f"(bar unit: {unit}; V = Voronoi method, T = traditional)"]
    for row, (v_value, t_value) in zip(rows, series):
        label = _format_parameter(row.parameter, as_query_size)
        v_bar = "#" * max(1, int(round(v_value / peak * width)))
        t_bar = "#" * max(1, int(round(t_value / peak * width)))
        lines.append(f"{label:>12} V |{v_bar:<{width}}| {v_value:,.1f}")
        lines.append(f"{'':>12} T |{t_bar:<{width}}| {t_value:,.1f}")
    return "\n".join(lines)


# -- command line ---------------------------------------------------------------

_TARGETS = (
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "all",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line driver: regenerate the requested tables/figures."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("target", choices=_TARGETS)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full parameters (1E5..1E6 points, 1000 reps); "
        "slow in pure Python",
    )
    parser.add_argument(
        "--repetitions", type=int, default=None, help="override repetitions"
    )
    parser.add_argument(
        "--data-size",
        type=int,
        default=None,
        help="fixed data size for the query-size sweep",
    )
    args = parser.parse_args(argv)

    config = (
        ExperimentConfig.paper_scale()
        if args.paper_scale
        else ExperimentConfig()
    )
    if args.repetitions is not None:
        config = replace(config, repetitions=args.repetitions)
    if args.data_size is not None:
        config = replace(config, fixed_data_size=args.data_size)

    def progress(message: str) -> None:
        print(f"  [{message}]", file=sys.stderr)

    need_data = args.target in ("table1", "fig4", "fig5", "all")
    need_query = args.target in ("table2", "fig6", "fig7", "all")

    data_rows = (
        run_data_size_sweep(config, progress=progress) if need_data else []
    )
    query_rows = (
        run_query_size_sweep(config, progress=progress) if need_query else []
    )

    if args.target in ("table1", "all"):
        print("\nTable I — data-size sweep "
              f"(query size {config.fixed_query_size:.0%}):")
        print(render_table(data_rows, parameter_label="Data size"))
    if args.target in ("fig4", "all"):
        print()
        print(
            render_figure(
                data_rows, value="time", title="Fig. 4 — time vs data size"
            )
        )
    if args.target in ("fig5", "all"):
        print()
        print(
            render_figure(
                data_rows,
                value="redundant",
                title="Fig. 5 — redundant validations vs data size",
            )
        )
    if args.target in ("table2", "all"):
        print(f"\nTable II — query-size sweep "
              f"(data size {config.fixed_data_size:,}):")
        print(
            render_table(
                query_rows, parameter_label="Query size", as_query_size=True
            )
        )
    if args.target in ("fig6", "all"):
        print()
        print(
            render_figure(
                query_rows,
                value="time",
                title="Fig. 6 — time vs query size",
                as_query_size=True,
            )
        )
    if args.target in ("fig7", "all"):
        print()
        print(
            render_figure(
                query_rows,
                value="redundant",
                title="Fig. 7 — redundant validations vs query size",
                as_query_size=True,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
