"""Declarative, immutable query specifications.

A *query spec* is a small frozen value object describing **what** to ask
the database, separated from **how** it is executed: the execution
method is just another field (``method="auto"`` delegates the choice to
the cost-based planner in :mod:`repro.engine.planner`).  The same spec
value drives every execution path — :meth:`SpatialDatabase.query
<repro.core.database.SpatialDatabase.query>`, the heterogeneous batch
engine, the result cache (specs are hashable and serve directly as cache
keys), the CLI (``python -m repro query --spec-file``), and the
experiment harness — so behaviour cannot drift between paths.

The four leaf query kinds of the library:

===================  ====================================================
:class:`AreaQuery`   all points inside a closed region (the paper's query)
:class:`WindowQuery` all points inside an axis-aligned rectangle
:class:`KnnQuery`    the ``k`` points nearest a position, nearest first
:class:`NearestQuery` the single nearest point to a position
===================  ====================================================

plus the **composite algebra** over region kinds — specs whose parts are
other specs, combined with set semantics on the result rows:

=========================  ==============================================
:class:`UnionQuery`        rows matching *any* part
:class:`IntersectionQuery` rows matching *every* part
:class:`DifferenceQuery`   rows of the first part matching no other part
=========================  ==============================================

Composites nest arbitrarily; their leaves must be region kinds
(:class:`AreaQuery` / :class:`WindowQuery`), whose sorted id arrays
merge with set semantics (:func:`repro.query.merge.merge_ids`).  A
:class:`KnnQuery` built with ``k=None`` is the *streaming* form: the
result is the full distance-ranked stream, consumed incrementally
(``result.first(n)``, ``itertools.takewhile``) without ever choosing
``k`` up front.

Composable options shared by every kind:

* ``limit`` — cap the number of returned rows (kNN order for point
  queries, ascending row-id order for region queries);
* ``predicate`` — an arbitrary Python filter on the candidate
  :class:`~repro.geometry.point.Point` (specs with a predicate are
  executed but never cached, since a closure's behaviour cannot be
  fingerprinted);
* ``select`` — the default projection of iteration: ``"ids"`` (row ids),
  ``"points"`` (the stored points), or ``"distances"`` (distance to the
  query position; point queries only).

Specs are plain frozen dataclasses: build variants with the fluent
helpers (:meth:`Query.with_limit`, :meth:`Query.where`,
:meth:`Query.returning`) or with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, ClassVar, Iterator, Optional, Tuple

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.geometry.region import QueryRegion

#: Valid values of the ``select`` projection option.
PROJECTIONS = ("ids", "points", "distances")


@dataclass(frozen=True)
class Query:
    """Options common to every query kind (the abstract spec base).

    Concrete specs add their geometry as positional fields; the options
    here are keyword-only, so ``AreaQuery(region, method="voronoi")``
    and ``KnnQuery(point, 5, limit=3)`` both read naturally.
    """

    #: query-kind tag, also used by the JSON wire format
    kind: ClassVar[str] = ""
    #: execution methods this kind accepts (``"auto"`` plus real ones)
    methods: ClassVar[Tuple[str, ...]] = ("auto",)
    #: does ``select="distances"`` make sense for this kind?
    has_distances: ClassVar[bool] = False

    #: execution method; ``"auto"`` lets the planner decide per query
    method: str = field(default="auto", kw_only=True)
    #: maximum number of rows returned (``None`` = unbounded)
    limit: Optional[int] = field(default=None, kw_only=True)
    #: extra filter applied to candidate points (disables caching)
    predicate: Optional[Callable[[Point], bool]] = field(
        default=None, kw_only=True
    )
    #: default projection of iteration: ``"ids"``/``"points"``/``"distances"``
    select: str = field(default="ids", kw_only=True)

    def __post_init__(self) -> None:
        """Coerce geometry fields, then validate the common options."""
        self._coerce()
        cls = type(self)
        if cls is Query:
            raise TypeError(
                "Query is abstract; build an AreaQuery, WindowQuery, "
                "KnnQuery, or NearestQuery"
            )
        if self.method not in cls.methods:
            raise ValueError(
                f"unknown method {self.method!r} for {cls.kind} queries; "
                f"choose from {cls.methods}"
            )
        if self.limit is not None and (
            not isinstance(self.limit, int) or self.limit < 0
        ):
            raise ValueError(
                f"limit must be None or a non-negative int, got {self.limit!r}"
            )
        if self.select not in PROJECTIONS:
            raise ValueError(
                f"unknown projection {self.select!r}; choose from {PROJECTIONS}"
            )
        if self.select == "distances" and not cls.has_distances:
            raise ValueError(
                f"{cls.kind} queries have no query position, so "
                "select='distances' is undefined"
            )

    def _coerce(self) -> None:
        """Hook for subclasses to normalise geometry inputs in-place."""

    # -- fluent builders ---------------------------------------------------

    def with_method(self, method: str) -> "Query":
        """A copy of this spec executed with ``method``."""
        return replace(self, method=method)

    def with_limit(self, limit: Optional[int]) -> "Query":
        """A copy of this spec returning at most ``limit`` rows."""
        return replace(self, limit=limit)

    def where(
        self, predicate: Optional[Callable[[Point], bool]]
    ) -> "Query":
        """A copy of this spec filtered by ``predicate`` on the points.

        The predicate runs after the exact geometric test, so it only
        ever sees points that already satisfy the query geometry.  Specs
        carrying a predicate are executed normally but are never cached
        (see :meth:`cache_key`).
        """
        return replace(self, predicate=predicate)

    def returning(self, select: str) -> "Query":
        """A copy of this spec projecting iteration to ``select``."""
        return replace(self, select=select)

    # -- identity ----------------------------------------------------------

    def cache_key(self) -> Optional["Query"]:
        """The spec itself, normalised for use as a result-cache key.

        Both paper methods return identical ids for the same geometry
        (the paper's central theorem), and the projection never changes
        the underlying rows, so ``method`` and ``select`` are normalised
        out of the key: a voronoi-executed result may serve a later
        traditional request for the same geometry.  Returns ``None``
        (*uncacheable*) when the spec carries a ``predicate`` — a
        closure's behaviour cannot be fingerprinted — or when its
        geometry is not hashable (custom :class:`QueryRegion`
        implementations without value hashing).

        Specs are immutable, so the key is computed once and memoised on
        the instance — the batch engine probes it on every submission
        (spec- and leaf-level dedup), and rebuilding a composite's
        normalised tree each time would dominate small batches.
        """
        try:
            return self.__dict__["_cache_key_memo"]
        except KeyError:
            pass
        key = self._compute_cache_key()
        object.__setattr__(self, "_cache_key_memo", key)
        return key

    def _compute_cache_key(self) -> Optional["Query"]:
        """Uncached :meth:`cache_key` computation (subclass hook)."""
        if self.predicate is not None:
            return None
        key = replace(self, method="auto", select="ids")
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def streams(self) -> bool:
        """Can this spec's result be consumed lazily, row by row?

        ``True`` only for unbounded kNN (``KnnQuery(k=None)``), whose
        full materialisation ranks the whole database while the
        distance ranking is produced incrementally.  The lazy result
        handle streams iteration/:meth:`~repro.query.result.QueryResult.first`
        for such specs instead of executing an eager record.
        """
        return False

    def describe(self) -> str:
        """A one-line human-readable summary (CLI and explain output)."""
        options = []
        if self.method != "auto":
            options.append(f"method={self.method}")
        if self.limit is not None:
            options.append(f"limit={self.limit}")
        if self.predicate is not None:
            options.append("predicate=<callable>")
        if self.select != "ids":
            options.append(f"select={self.select}")
        suffix = f" [{', '.join(options)}]" if options else ""
        return f"{self.kind}({self._describe_geometry()}){suffix}"

    def _describe_geometry(self) -> str:
        """Subclass hook: the geometry part of :meth:`describe`."""
        raise NotImplementedError  # pragma: no cover - overridden per kind


def _as_point(value) -> Point:
    """Coerce a ``Point`` or ``(x, y)`` pair into a :class:`Point`."""
    if isinstance(value, Point):
        return value
    x, y = value
    return Point(float(x), float(y))


@dataclass(frozen=True)
class AreaQuery(Query):
    """All points inside a closed region — the paper's area query.

    ``region`` is any :class:`~repro.geometry.region.QueryRegion`
    (:class:`~repro.geometry.polygon.Polygon` or
    :class:`~repro.geometry.circle.Circle`).  ``method`` selects the
    filter–refine baseline (``"traditional"``), the paper's Voronoi
    expansion (``"voronoi"``), or the planner's per-query choice
    (``"auto"``, the default).  Results are row ids in ascending order.
    """

    kind: ClassVar[str] = "area"
    methods: ClassVar[Tuple[str, ...]] = ("auto", "traditional", "voronoi")

    #: the query region (closed; must have positive area at execution)
    region: QueryRegion = None  # type: ignore[assignment]

    def _coerce(self) -> None:
        if self.region is None:
            raise ValueError("AreaQuery requires a region")

    def _describe_geometry(self) -> str:
        return repr(self.region)


@dataclass(frozen=True)
class WindowQuery(Query):
    """All points inside a closed axis-aligned rectangle.

    ``rect`` accepts a :class:`~repro.geometry.rectangle.Rect` or a
    ``(min_x, min_y, max_x, max_y)`` sequence.  ``method="index"`` runs
    the spatial index's native window query; ``method="voronoi"`` runs
    the paper's expansion over the rectangle-as-polygon (identical ids,
    different access pattern); ``"auto"`` asks the planner.  Results are
    row ids in ascending order.  Degenerate (zero-area) rectangles are
    legal and always route to the index.
    """

    kind: ClassVar[str] = "window"
    methods: ClassVar[Tuple[str, ...]] = ("auto", "index", "voronoi")

    #: the closed query rectangle
    rect: Rect = None  # type: ignore[assignment]

    def _coerce(self) -> None:
        if self.rect is None:
            raise ValueError("WindowQuery requires a rect")
        if not isinstance(self.rect, Rect):
            object.__setattr__(self, "rect", Rect.from_bounds(self.rect))

    def _describe_geometry(self) -> str:
        r = self.rect
        return (
            f"[{r.min_x:.6g}, {r.min_y:.6g}, {r.max_x:.6g}, {r.max_y:.6g}]"
        )


@dataclass(frozen=True)
class KnnQuery(Query):
    """The ``k`` points nearest to a position, nearest first.

    ``point`` accepts a :class:`~repro.geometry.point.Point` or an
    ``(x, y)`` pair.  ``method="index"`` runs the index's best-first
    search; ``method="voronoi"`` runs the incremental expansion over the
    Voronoi neighbour graph (see :mod:`repro.core.knn_query`); both
    return the same ids (ties broken by row id).  ``k=0`` is legal and
    returns an empty result.

    ``k=None`` is the **unbounded, streaming** form: the result is the
    whole database ranked by distance.  Consume it lazily —
    ``result.first(n)``, ``iter(result)`` with ``takewhile`` — and only
    as many neighbours are ever produced as you read (the incremental
    Voronoi expansion of :func:`repro.core.knn_query.incremental_nearest`
    underneath); eager materialisation (``.ids()``) is still legal but
    ranks every row.
    """

    kind: ClassVar[str] = "knn"
    methods: ClassVar[Tuple[str, ...]] = ("auto", "index", "voronoi")
    has_distances: ClassVar[bool] = True

    #: the query position
    point: Point = None  # type: ignore[assignment]
    #: how many neighbours to return (``None`` = unbounded / streaming)
    k: Optional[int] = 1

    def _coerce(self) -> None:
        if self.point is None:
            raise ValueError("KnnQuery requires a point")
        object.__setattr__(self, "point", _as_point(self.point))
        if self.k is not None and (
            not isinstance(self.k, int) or self.k < 0
        ):
            raise ValueError(
                f"k must be None (unbounded) or a non-negative int, "
                f"got {self.k!r}"
            )
        if self.k is not None and self.k > sys.float_info.max:
            # the planner costs k as a float
            raise ValueError(
                f"k must be within float range, got a "
                f"{self.k.bit_length()}-bit int"
            )

    def streams(self) -> bool:
        """Unbounded kNN (``k=None``) streams; bounded kNN does not."""
        return self.k is None

    def _describe_geometry(self) -> str:
        k_text = "unbounded" if self.k is None else str(self.k)
        return f"({self.point.x:.6g}, {self.point.y:.6g}), k={k_text}"


@dataclass(frozen=True)
class NearestQuery(Query):
    """The single nearest point to a position (1-NN).

    Always executed with the index's best-first search — the Voronoi
    method's own seed lookup *is* an index 1-NN search, so no alternative
    access path can beat it.  Returns zero or one row id.
    """

    kind: ClassVar[str] = "nearest"
    methods: ClassVar[Tuple[str, ...]] = ("auto", "index")
    has_distances: ClassVar[bool] = True

    #: the query position
    point: Point = None  # type: ignore[assignment]

    def _coerce(self) -> None:
        if self.point is None:
            raise ValueError("NearestQuery requires a point")
        object.__setattr__(self, "point", _as_point(self.point))

    def _describe_geometry(self) -> str:
        return f"({self.point.x:.6g}, {self.point.y:.6g})"


@dataclass(frozen=True)
class CompositeQuery(Query):
    """Set-algebra combination of region queries (the abstract base).

    ``parts`` are other specs — :class:`AreaQuery` / :class:`WindowQuery`
    leaves or nested composites (point kinds have no set semantics over
    row ids and are rejected).  The composite's own ``predicate`` and
    ``limit`` apply to the *merged* rows, after each part has applied its
    own options; ``method`` is always ``"auto"`` — execution is always
    decomposition into leaf plans, each routed by the planner, with the
    batch engine treating the leaves of one composite as jobs of one
    batch (a leaf repeated across composites runs once).  Results are
    row ids in ascending order, like every region kind.
    """

    methods: ClassVar[Tuple[str, ...]] = ("auto",)
    #: the combined sub-queries (leaves must be region kinds)
    parts: Tuple[Query, ...] = ()

    def _coerce(self) -> None:
        if type(self) is CompositeQuery:
            raise TypeError(
                "CompositeQuery is abstract; build a UnionQuery, "
                "IntersectionQuery, or DifferenceQuery"
            )
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 2:
            raise ValueError(
                f"{self.kind} queries need at least two parts, "
                f"got {len(self.parts)}"
            )
        for part in self.parts:
            if not isinstance(part, (AreaQuery, WindowQuery, CompositeQuery)):
                raise TypeError(
                    "composite parts must be region queries (AreaQuery / "
                    f"WindowQuery) or nested composites, got {part!r}"
                )

    def _compute_cache_key(self) -> Optional["Query"]:
        """The composite normalised recursively for result caching.

        Every part is replaced by its own :meth:`Query.cache_key` (method
        and projection normalised away at every level); any uncacheable
        part — or a predicate on the composite itself — makes the whole
        composite uncacheable.  Memoised by :meth:`Query.cache_key` like
        every spec.
        """
        if self.predicate is not None:
            return None
        normalized = []
        for part in self.parts:
            part_key = part.cache_key()
            if part_key is None:
                return None
            normalized.append(part_key)
        return replace(
            self, method="auto", select="ids", parts=tuple(normalized)
        )

    def iter_leaves(self) -> Iterator[Query]:
        """Yield the non-composite leaf specs, left to right, recursively."""
        for part in self.parts:
            if isinstance(part, CompositeQuery):
                yield from part.iter_leaves()
            else:
                yield part

    def _describe_geometry(self) -> str:
        return ", ".join(part.describe() for part in self.parts)


@dataclass(frozen=True)
class UnionQuery(CompositeQuery):
    """Rows matching *any* part — the set union of the part results."""

    kind: ClassVar[str] = "union"


@dataclass(frozen=True)
class IntersectionQuery(CompositeQuery):
    """Rows matching *every* part — the set intersection of the results."""

    kind: ClassVar[str] = "intersection"


@dataclass(frozen=True)
class DifferenceQuery(CompositeQuery):
    """Rows of the first part matching no later part (set difference)."""

    kind: ClassVar[str] = "difference"


#: Every concrete spec class, keyed by its ``kind`` tag (wire format,
#: CLI, and planner dispatch all use this) — the four leaf kinds plus
#: the three composite kinds.
QUERY_KINDS = {
    cls.kind: cls
    for cls in (
        AreaQuery,
        WindowQuery,
        KnnQuery,
        NearestQuery,
        UnionQuery,
        IntersectionQuery,
        DifferenceQuery,
    )
}


def spec_fields(spec: Query) -> dict:
    """Field name/value mapping of ``spec`` (excluding class-level tags).

    Thin wrapper over :func:`dataclasses.fields` used by the serialiser;
    exposed for tooling that wants to introspect specs generically.
    """
    return {f.name: getattr(spec, f.name) for f in fields(spec)}
