"""Per-query statistics.

The paper's evaluation reports, per query: result size, candidate-set size,
redundant validations (candidates that fail refinement — Figs. 5 and 7 call
these "times of redundant validations"), and wall time (Figs. 4 and 6).
:class:`QueryStats` captures those plus the secondary counters our
implementation can observe (index node accesses, segment-intersection
tests), and :class:`QueryRecord` bundles the stats with the result ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class QueryStats:
    """Counters for one area query execution."""

    method: str = ""
    #: candidates generated by the filter step / the Voronoi expansion
    candidates: int = 0
    #: exact point-in-polygon refinements performed
    validations: int = 0
    #: candidates that failed refinement (the paper's "redundant validations")
    redundant_validations: int = 0
    #: segment-vs-polygon intersection tests (Voronoi method only)
    segment_tests: int = 0
    #: index nodes visited (window query and/or NN search)
    index_node_accesses: int = 0
    #: points returned
    result_size: int = 0
    #: wall-clock time of the query in milliseconds
    time_ms: float = 0.0

    def copy(self) -> "QueryStats":
        """An independent copy of all counters.

        A direct constructor call — several times cheaper than the
        generic ``dataclasses.replace`` on the cache/dedup hot paths,
        where every hit hands out an isolated stats block.
        """
        return QueryStats(
            method=self.method,
            candidates=self.candidates,
            validations=self.validations,
            redundant_validations=self.redundant_validations,
            segment_tests=self.segment_tests,
            index_node_accesses=self.index_node_accesses,
            result_size=self.result_size,
            time_ms=self.time_ms,
        )

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Sum all counters (used when averaging repeated experiments)."""
        return QueryStats(
            method=self.method or other.method,
            candidates=self.candidates + other.candidates,
            validations=self.validations + other.validations,
            redundant_validations=(
                self.redundant_validations + other.redundant_validations
            ),
            segment_tests=self.segment_tests + other.segment_tests,
            index_node_accesses=(
                self.index_node_accesses + other.index_node_accesses
            ),
            result_size=self.result_size + other.result_size,
            time_ms=self.time_ms + other.time_ms,
        )

    def scaled(self, factor: float) -> "QueryStats":
        """All counters multiplied by ``factor`` (for averaging)."""
        return QueryStats(
            method=self.method,
            candidates=int(round(self.candidates * factor)),
            validations=int(round(self.validations * factor)),
            redundant_validations=int(
                round(self.redundant_validations * factor)
            ),
            segment_tests=int(round(self.segment_tests * factor)),
            index_node_accesses=int(round(self.index_node_accesses * factor)),
            result_size=int(round(self.result_size * factor)),
            time_ms=self.time_ms * factor,
        )


@dataclass
class QueryRecord:
    """Result ids plus the statistics of the query that produced them.

    ``ids`` are database row ids in ascending order, so two methods'
    results compare with ``==``.
    """

    ids: List[int] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __contains__(self, item_id: int) -> bool:
        return item_id in set(self.ids)
