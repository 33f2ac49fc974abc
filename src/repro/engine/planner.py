"""Cost-based query planning for every query kind.

The paper's two area-query methods have complementary cost profiles (its
Section IV, and our ``benchmarks/bench_ablation_iocost.py``):

* the **traditional** filter–refine baseline pays one index *window* query
  plus one refinement per point in the query MBR — cost grows with
  ``density * area(MBR)``, i.e. it is punished by irregular polygons whose
  MBR is much larger than the polygon;
* the **Voronoi** expansion pays one index *NN* descent plus one refinement
  per internal point and per shell cell — cost grows with
  ``density * area(polygon) + perimeter * sqrt(density)``, i.e. it is
  punished by skinny high-perimeter polygons over sparse data, where the
  boundary shell dwarfs the interior.

The same trade-off recurs for the other query kinds: a **window** query
can run natively on the index or as a Voronoi expansion over the
rectangle-as-polygon, and a **kNN** query can descend the index
best-first or expand incrementally over the Voronoi neighbour graph
(cost ~``6k`` neighbour inspections, independent of the database size).

:class:`QueryPlanner` turns those formulas into per-query I/O estimates
(validations as record fetches, index node accesses as page reads — the
counters of :mod:`repro.core.stats`), weighs them with a
:class:`CostModel`, and picks the cheapest method.  Every
``method="auto"`` spec routes through :meth:`QueryPlanner.plan`, and
:meth:`QueryPlanner.explain_spec` (or ``.explain()`` on a lazy
:class:`~repro.query.result.QueryResult`) exposes the whole decision —
predicted and, optionally, measured costs.

Composite specs (:mod:`repro.query.spec` union/intersection/difference)
are planned by **recursion**: each part is estimated with the method the
planner would run it with, the counters sum, and the explanation nests
one :class:`PlanExplanation` per part — mirroring exactly how the batch
engine decomposes the composite into a heterogeneous leaf batch.
:meth:`QueryPlanner.calibrate` fits the cost weights from measured probe
queries of **every** kind (area, window, and kNN — composite routing
leans on the window/kNN estimates, so they are no longer extrapolated
from area-only fits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import QueryStats
from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.geometry.region import QueryRegion
from repro.query.spec import (
    AreaQuery,
    CompositeQuery,
    KnnQuery,
    NearestQuery,
    Query,
    WindowQuery,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SpatialDatabase

#: The two executable area-query methods, in the order estimates are
#: reported (window and kNN kinds report ``"index"``/``"voronoi"``).
PLANNABLE_METHODS = ("traditional", "voronoi")


@dataclass(frozen=True)
class CostModel:
    """Weights converting :class:`QueryStats` counters into one cost number.

    The unit is arbitrary (only ratios matter for planning); calibration
    rescales the weights so the unit becomes approximately one millisecond
    on the measured database.  Defaults reflect the in-memory relative
    costs observed on the seed benchmarks: a refinement (10-vertex
    point-in-polygon test) is the unit, an index node visit costs about a
    third of it, a segment-crossing test about a quarter.
    """

    #: cost of one exact refinement test (the paper's record validation)
    validation_cost: float = 1.0
    #: cost of one index node access (page read in the paper's setting)
    node_access_cost: float = 0.35
    #: cost of one segment-vs-boundary test (Voronoi expansion only)
    segment_test_cost: float = 0.25
    #: expected boundary-shell cells per unit of ``perimeter * sqrt(density)``
    shell_width_factor: float = 1.0
    #: distance evaluations per confirmed Voronoi-kNN result (~ the mean
    #: Voronoi degree; :meth:`QueryPlanner.calibrate` fits it from
    #: measured kNN probes)
    knn_expansion_factor: float = 6.0

    def cost_of(self, stats: QueryStats) -> float:
        """Apply the weights to *measured* counters of one query."""
        return (
            self.validation_cost * stats.validations
            + self.node_access_cost * stats.index_node_accesses
            + self.segment_test_cost * stats.segment_tests
        )


@dataclass(frozen=True)
class CostEstimate:
    """Predicted work for running one region with one method."""

    method: str
    validations: float
    node_accesses: float
    segment_tests: float
    #: scalar cost under the planner's :class:`CostModel`
    cost: float


@dataclass
class PlanExplanation:
    """The planner's full decision record for one region.

    ``estimates`` always holds both methods' predictions; ``actual`` is
    populated only by :meth:`QueryPlanner.explain` with ``execute=True``,
    in which case ``prediction_correct`` says whether the predicted winner
    also won under measured counters.  For a composite spec, ``chosen``
    is ``"composite"`` (execution is always decomposition), the single
    estimate is the sum over the parts' planned leaf estimates, and
    ``parts`` holds one nested explanation per part — the full recursive
    decomposition the executor will run.
    """

    chosen: str
    estimates: Dict[str, CostEstimate]
    actual: Dict[str, QueryStats] = field(default_factory=dict)
    actual_costs: Dict[str, float] = field(default_factory=dict)
    #: nested per-part explanations (composite specs only)
    parts: List["PlanExplanation"] = field(default_factory=list)

    @property
    def predicted_cost(self) -> float:
        """Cost predicted for the chosen method."""
        return self.estimates[self.chosen].cost

    @property
    def prediction_correct(self) -> Optional[bool]:
        """Did the predicted winner measure cheapest?  None before execute."""
        if not self.actual_costs:
            return None
        measured_winner = min(self.actual_costs, key=self.actual_costs.get)
        return measured_winner == self.chosen

    def render(self) -> str:
        """A small aligned table (used by ``python -m repro batch``).

        Rows come from whatever methods the spec's kind can execute
        (``traditional``/``voronoi`` for areas, ``index``/``voronoi``
        for windows and kNN, ``index`` alone for 1-NN); measured columns
        appear for the methods that have actually run.
        """
        lines = [
            f"{'method':>12} | {'est. valid.':>11} {'est. nodes':>10} "
            f"{'est. cost':>10}"
            + ("" if not self.actual_costs else f" | {'meas. cost':>10}")
        ]
        for method, estimate in self.estimates.items():
            marker = "*" if method == self.chosen else " "
            line = (
                f"{marker}{method:>11} | {estimate.validations:>11.1f} "
                f"{estimate.node_accesses:>10.1f} {estimate.cost:>10.2f}"
            )
            if self.actual_costs:
                measured = self.actual_costs.get(method)
                line += (
                    f" | {measured:>10.2f}"
                    if measured is not None
                    else f" | {'-':>10}"
                )
            lines.append(line)
        for position, part in enumerate(self.parts):
            lines.append(f"  part {position}:")
            lines.extend(
                "  " + part_line for part_line in part.render().splitlines()
            )
        return "\n".join(lines)


class QueryPlanner:
    """Predicts per-method costs for a database and picks the cheaper one.

    Parameters
    ----------
    database:
        The :class:`~repro.core.database.SpatialDatabase` whose size,
        extent, and index fanout parameterise the estimates.
    model:
        Initial :class:`CostModel`; replaced by :meth:`calibrate`.
    """

    def __init__(
        self,
        database: "SpatialDatabase",
        model: Optional[CostModel] = None,
    ) -> None:
        self._db = database
        # Plan memo: (cache_key, db version) -> chosen method.  A plan
        # depends only on the spec's geometry/kind, the database summary
        # statistics (keyed by version), and the cost model (assigning a
        # new model — calibrate() — clears the memo via the setter), so
        # repeated specs — hot tiles, every batch round of a benchmark,
        # the server's coalesced traffic — skip re-estimating.  Bounded.
        self._plan_memo: Dict[object, str] = {}
        self.model = model or CostModel()

    @property
    def model(self) -> CostModel:
        """The active :class:`CostModel` (assignment clears the plan memo)."""
        return self._model

    @model.setter
    def model(self, value: CostModel) -> None:
        self._model = value
        self._plan_memo.clear()

    # -- database summary --------------------------------------------------

    def _space(self) -> Rect:
        # The R-tree's root MBR (O(1)); the unit square while degenerate.
        bounds = self._db.index.bounds
        if bounds is None or bounds.area <= 0.0:
            return Rect(0.0, 0.0, 1.0, 1.0)
        return bounds

    def density(self) -> float:
        """Points per unit of space area (the estimates' scale factor)."""
        space = self._space()
        return len(self._db) / space.area if space.area else float(len(self._db))

    def _fanout(self) -> int:
        return self._db.index.max_entries

    def _depth(self) -> float:
        n = max(2, len(self._db))
        return max(1.0, math.log(n, self._fanout()))

    # -- estimation --------------------------------------------------------

    def estimate(self, region: QueryRegion) -> Dict[str, CostEstimate]:
        """Predicted :class:`CostEstimate` for both methods on ``region``."""
        n = len(self._db)
        density = self.density()
        fanout = self._fanout()
        depth = self._depth()
        mbr_area = min(region.mbr.area, self._space().area)
        region_area = min(region.area, mbr_area)
        perimeter = float(getattr(region, "perimeter", 4.0 * math.sqrt(mbr_area)))

        # Traditional: one window descent + every MBR resident refined.
        candidates = min(float(n), density * mbr_area)
        window_leaves = candidates / fanout
        traditional_nodes = depth + 2.0 * window_leaves
        traditional = CostEstimate(
            method="traditional",
            validations=candidates,
            node_accesses=traditional_nodes,
            segment_tests=0.0,
            cost=(
                self.model.validation_cost * candidates
                + self.model.node_access_cost * traditional_nodes
            ),
        )

        # Voronoi: one NN descent + internal points + a one-cell-thick
        # boundary shell (mean Voronoi cell diameter ~ 1/sqrt(density)).
        internal = min(float(n), density * region_area)
        shell = (
            self.model.shell_width_factor * perimeter * math.sqrt(density)
            if density > 0
            else 0.0
        )
        shell = min(float(n), shell)
        validations = min(float(n), internal + shell)
        segment_tests = 4.0 * shell  # ~6 neighbours/cell, some pre-visited
        voronoi_nodes = depth + 3.0
        voronoi = CostEstimate(
            method="voronoi",
            validations=validations,
            node_accesses=voronoi_nodes,
            segment_tests=segment_tests,
            cost=(
                self.model.validation_cost * validations
                + self.model.node_access_cost * voronoi_nodes
                + self.model.segment_test_cost * segment_tests
            ),
        )
        return {"traditional": traditional, "voronoi": voronoi}

    def choose(self, region: QueryRegion) -> str:
        """The predicted-cheaper method for ``region`` (ties: voronoi)."""
        estimates = self.estimate(region)
        if estimates["traditional"].cost < estimates["voronoi"].cost:
            return "traditional"
        return "voronoi"

    def explain(
        self, region: QueryRegion, *, execute: bool = False
    ) -> PlanExplanation:
        """The decision record for ``region``.

        With ``execute=True`` both methods are actually run and their
        measured stats/costs recorded next to the predictions — the
        ``EXPLAIN ANALYZE`` of this engine.  Equivalent to
        :meth:`explain_spec` on ``AreaQuery(region)``.
        """
        return self.explain_spec(AreaQuery(region), execute=execute)

    # -- spec-level planning (all query kinds) ------------------------------

    def estimate_spec(self, spec: Query) -> Dict[str, CostEstimate]:
        """Predicted :class:`CostEstimate` per executable method of ``spec``.

        Keys are the concrete methods of the spec's kind (``"auto"`` never
        appears); insertion order is the reporting order of
        :meth:`PlanExplanation.render` and the tie-break order of
        :meth:`plan`.
        """
        if isinstance(spec, AreaQuery):
            return self.estimate(spec.region)
        if isinstance(spec, WindowQuery):
            return self._estimate_window(spec.rect)
        if isinstance(spec, KnnQuery):
            return self._estimate_knn(spec)
        if isinstance(spec, NearestQuery):
            return {"index": self._estimate_point_descent("index", 1.0)}
        if isinstance(spec, CompositeQuery):
            return {"composite": self._estimate_composite(spec)}
        raise TypeError(f"not a query spec: {spec!r}")

    def _estimate_composite(self, spec: CompositeQuery) -> CostEstimate:
        """Predicted cost of decomposing ``spec`` into leaf plans.

        Recurses into every part, takes the estimate of the method the
        planner would actually run it with (:meth:`plan` — explicit part
        methods are honoured), and sums the counters.  The batch engine
        runs a leaf repeated across parts once, which makes this an upper
        bound; it is what composite routing decisions and ``explain``
        report.
        """
        validations = node_accesses = segment_tests = cost = 0.0
        for part in spec.parts:
            chosen = self.estimate_spec(part)[self.plan(part)]
            validations += chosen.validations
            node_accesses += chosen.node_accesses
            segment_tests += chosen.segment_tests
            cost += chosen.cost
        return CostEstimate(
            method="composite",
            validations=validations,
            node_accesses=node_accesses,
            segment_tests=segment_tests,
            cost=cost,
        )

    def _estimate_window(self, window: Rect) -> Dict[str, CostEstimate]:
        """Window estimates: native index query vs Voronoi expansion.

        Reuses :meth:`estimate` — a :class:`Rect` exposes the same
        ``mbr``/``area``/``perimeter`` surface the area formulas read, and
        for a rectangle the MBR *is* the region, so the traditional
        estimate degenerates to the native index path with *free*
        refinement (rectangle containment is two comparisons, not a
        point-in-polygon walk) and the Voronoi estimate is exactly the
        expansion over the rectangle-as-polygon.
        """
        base = self.estimate(window)
        traditional = base["traditional"]
        index = CostEstimate(
            method="index",
            validations=0.0,
            node_accesses=traditional.node_accesses,
            segment_tests=0.0,
            cost=self.model.node_access_cost * traditional.node_accesses,
        )
        return {"index": index, "voronoi": base["voronoi"]}

    def _estimate_point_descent(
        self, method: str, k: float
    ) -> CostEstimate:
        """Cost of a best-first index descent returning ``k`` entries."""
        fanout = self._fanout()
        depth = self._depth()
        # One root-to-leaf descent plus ~2 extra leaves per fanout-full
        # page of results; each visited leaf scores its entries.
        nodes = depth + 2.0 * (k / fanout)
        validations = fanout * depth + k
        return CostEstimate(
            method=method,
            validations=validations,
            node_accesses=nodes,
            segment_tests=0.0,
            cost=(
                self.model.validation_cost * validations
                + self.model.node_access_cost * nodes
            ),
        )

    def _estimate_knn(self, spec: KnnQuery) -> Dict[str, CostEstimate]:
        """kNN estimates: best-first index descent vs Voronoi expansion.

        The Voronoi expansion pays one index NN descent for the seed and
        then ``knn_expansion_factor`` (~6, calibratable) neighbour
        distance evaluations per confirmed result, independent of the
        database size — it wins for small ``k``; the index path
        amortises better as ``k`` approaches a leaf-page multiple.  An
        unbounded spec (``k=None``) is costed at its ``limit`` if set,
        else at the full database size (the eager materialisation cost —
        streaming consumption stops wherever the consumer does).
        """
        if spec.k is None:
            k = float(
                spec.limit
                if spec.limit is not None
                else max(1, len(self._db))
            )
        else:
            k = float(max(0, spec.k))
        index = self._estimate_point_descent("index", k)
        depth = self._depth()
        validations = 1.0 + self.model.knn_expansion_factor * k
        voronoi_nodes = depth + 1.0
        voronoi = CostEstimate(
            method="voronoi",
            validations=validations,
            node_accesses=voronoi_nodes,
            segment_tests=0.0,
            cost=(
                self.model.validation_cost * validations
                + self.model.node_access_cost * voronoi_nodes
            ),
        )
        return {"index": index, "voronoi": voronoi}

    def plan(self, spec: Query) -> str:
        """The concrete execution method for ``spec``.

        Explicit spec methods are honoured as-is; ``"auto"`` picks the
        cheapest estimate.  Guard rails where the cost model has no say:
        an empty database and degenerate (zero-area) windows always route
        point/window kinds to the index, which handles both gracefully;
        area kinds keep the legacy tie-break (voronoi).
        """
        if spec.method != "auto":
            return spec.method
        if isinstance(spec, CompositeQuery):
            return "composite"  # always decomposition; parts plan per leaf
        key = spec.cache_key()
        memo_key = None
        if key is not None:
            memo_key = (key, self._db.version)
            cached = self._plan_memo.get(memo_key)
            if cached is not None:
                return cached
        choice = self._plan_uncached(spec)
        if memo_key is not None:
            if len(self._plan_memo) >= 1024:
                self._plan_memo.clear()
            self._plan_memo[memo_key] = choice
        return choice

    def _plan_uncached(self, spec: Query) -> str:
        """The actual decision behind :meth:`plan`'s memo."""
        if isinstance(spec, AreaQuery):
            return self.choose(spec.region)
        if isinstance(spec, NearestQuery):
            return "index"
        if len(self._db) == 0:
            return "index"
        if isinstance(spec, WindowQuery) and spec.rect.area <= 0.0:
            return "index"
        estimates = self.estimate_spec(spec)
        return min(estimates, key=lambda method: estimates[method].cost)

    def explain_spec(
        self, spec: Query, *, execute: bool = False
    ) -> PlanExplanation:
        """The decision record for ``spec`` (any query kind).

        With ``execute=True`` every executable method of the kind is run
        and its measured stats/costs recorded next to the predictions —
        the ``EXPLAIN ANALYZE`` of this engine.  Methods that the spec's
        current state cannot execute (a Voronoi expansion over a
        degenerate window, any method on a spec the database rejects) are
        skipped rather than raised: their row simply shows no measured
        cost, matching the guard rails :meth:`plan` applies when routing.
        """
        estimates = self.estimate_spec(spec)
        explanation = PlanExplanation(
            chosen=self.plan(spec), estimates=estimates
        )
        if isinstance(spec, CompositeQuery):
            explanation.parts = [
                self.explain_spec(part, execute=execute)
                for part in spec.parts
            ]
        if execute:
            from repro.core.exceptions import (
                EmptyDatabaseError,
                InvalidQueryAreaError,
            )
            from repro.query.executor import execute_spec

            for method in estimates:
                try:
                    result = execute_spec(self._db, spec, method=method)
                except (EmptyDatabaseError, InvalidQueryAreaError):
                    continue  # not executable in this state: no measurement
                explanation.actual[method] = result.stats
                explanation.actual_costs[method] = self.model.cost_of(
                    result.stats
                )
        return explanation

    # -- calibration -------------------------------------------------------

    def calibrate(
        self,
        probe_regions: Sequence[QueryRegion],
        *,
        probe_windows: Optional[Sequence[Rect]] = None,
        probe_points: Optional[Sequence[Tuple[Point, int]]] = None,
    ) -> CostModel:
        """Fit the cost weights to measured wall time on this database.

        Probes every executable method of every kind — area
        (``probe_regions``, both paper methods), window
        (``probe_windows``, index and Voronoi), and kNN
        (``probe_points`` as ``(position, k)`` pairs, index and Voronoi)
        — then solves the 2x2 least-squares system ``time ~ v * f +
        a * node_accesses`` jointly over all samples, where the
        per-record feature ``f = max(validations, candidates) + r *
        segment_tests`` (``candidates`` stands in for the point-kind and
        native-window executions, which count their per-record work —
        distance evaluations, rectangle scans — there rather than as
        refinements; ``r`` is the fixed segment/validation cost ratio of
        the current model).  So the window and kNN cost formulas are now
        fitted on their own measurements, not just reused area weights.

        ``probe_windows`` / ``probe_points`` default to probes *derived*
        from the regions (their MBRs; MBR centres with alternating small
        ``k``), so any existing region-only call fits every kind; pass
        explicit empty sequences to restrict the fit.

        The measured Voronoi-kNN expansion additionally fits
        :attr:`CostModel.knn_expansion_factor` — the mean number of
        distance evaluations per confirmed neighbour that the kNN
        formula multiplies by ``k``.

        Falls back to the current model if the system is degenerate
        (e.g. no probes, all-zero counters, or near-collinear samples).
        The fitted model is installed on the planner and returned; its
        cost unit is then milliseconds.
        """
        ratio = (
            self.model.segment_test_cost / self.model.validation_cost
            if self.model.validation_cost
            else 0.25
        )
        from repro.query.executor import execute_spec

        probe_regions = list(probe_regions)
        if probe_windows is None:
            probe_windows = [region.mbr for region in probe_regions]
        if probe_points is None:
            probe_points = [
                (
                    Point(
                        (region.mbr.min_x + region.mbr.max_x) / 2.0,
                        (region.mbr.min_y + region.mbr.max_y) / 2.0,
                    ),
                    4 if position % 2 == 0 else 16,
                )
                for position, region in enumerate(probe_regions)
            ]

        samples: List[QueryStats] = []
        expansion_ratios: List[float] = []
        for region in probe_regions:
            for method in PLANNABLE_METHODS:
                samples.append(
                    execute_spec(
                        self._db, AreaQuery(region), method=method
                    ).stats
                )
        for window in probe_windows:
            for method in ("index", "voronoi"):
                if method == "voronoi" and window.area <= 0.0:
                    continue  # degenerate windows route to the index
                samples.append(
                    execute_spec(
                        self._db, WindowQuery(window), method=method
                    ).stats
                )
        for position, k in probe_points:
            if k <= 0:
                continue
            for method in ("index", "voronoi"):
                stats = execute_spec(
                    self._db, KnnQuery(position, k), method=method
                ).stats
                samples.append(stats)
                if method == "voronoi" and stats.result_size:
                    expansion_ratios.append(
                        stats.candidates / stats.result_size
                    )

        # Joint least squares over features (per-record work, node accesses).
        s_ff = s_fg = s_gg = s_ft = s_gt = 0.0
        for stats in samples:
            f = (
                float(max(stats.validations, stats.candidates))
                + ratio * stats.segment_tests
            )
            g = float(stats.index_node_accesses)
            t = stats.time_ms
            s_ff += f * f
            s_fg += f * g
            s_gg += g * g
            s_ft += f * t
            s_gt += g * t
        determinant = s_ff * s_gg - s_fg * s_fg
        knn_factor = (
            sum(expansion_ratios) / len(expansion_ratios)
            if expansion_ratios
            else self.model.knn_expansion_factor
        )
        if determinant <= 1e-12:
            return self.model
        v = (s_ft * s_gg - s_gt * s_fg) / determinant
        a = (s_gt * s_ff - s_ft * s_fg) / determinant
        if v <= 0.0:
            return self.model
        a = max(0.0, a)
        self.model = CostModel(
            validation_cost=v,
            node_access_cost=a,
            segment_test_cost=ratio * v,
            shell_width_factor=self.model.shell_width_factor,
            knn_expansion_factor=knn_factor,
        )
        return self.model
