"""Per-query statistics.

The paper's evaluation reports, per query: result size, candidate-set size,
redundant validations (candidates that fail refinement — Figs. 5 and 7 call
these "times of redundant validations"), and wall time (Figs. 4 and 6).
:class:`QueryStats` captures those plus the secondary counters our
implementation can observe (index node accesses, segment-intersection
tests), and :class:`QueryRecord` bundles the stats with the result ids.

A record keeps its ids the way both methods produce them: one read-only
int32 array (4 B per id, where a list of Python ints costs about 36),
the row-id dtype of the whole process (:data:`repro.index.base.ID_DTYPE`).
The array travels unchanged from the query kernel through the result
cache to the server, whose packed wire field widens it to int64; a
Python list is built only where one is the output
(:attr:`QueryRecord.ids`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import numpy as np

from repro.index.base import id_array


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
    #: wall-clock time of the query in milliseconds; both area methods
    #: stop the clock right after the final sort of their result ids
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


class QueryRecord:
    """Result ids plus the statistics of the query that produced them.

    The ids live in :attr:`id_array`, one read-only int32 array: database
    row ids in ascending order for region kinds (so two methods' results
    compare equal), nearest-first for point kinds.  The constructor takes
    any int sequence; an int32 ndarray is adopted without a copy and
    flagged read-only, so its producer hands it over.  Anything else is
    converted once, and an id outside the int32 range raises
    :class:`ValueError` instead of wrapping.
    """

    __slots__ = ("id_array", "stats")

    def __init__(
        self, ids: Iterable[int] = (), stats: Optional[QueryStats] = None
    ) -> None:
        array = id_array(ids)
        array.flags.writeable = False
        #: the result ids, one read-only int32 array
        self.id_array: np.ndarray = array
        #: the counters of the execution that produced the ids
        self.stats: QueryStats = stats if stats is not None else QueryStats()

    @property
    def ids(self) -> List[int]:
        """The result ids as a fresh list of Python ints.

        Built on every read, so mutating the list changes neither the
        record nor anyone sharing its array; read :attr:`id_array`
        where an array will do.
        """
        return self.id_array.tolist()

    def __len__(self) -> int:
        return self.id_array.shape[0]

    def __iter__(self) -> Iterator[int]:
        return iter(self.id_array.tolist())

    def __contains__(self, item_id) -> bool:
        # One vectorised compare: kNN records are nearest-first, not
        # ascending, so no binary search; a non-int is never a row id.
        try:
            item_id = operator.index(item_id)
        except TypeError:
            return False
        return bool((self.id_array == item_id).any())

    def __repr__(self) -> str:
        return f"QueryRecord(ids={self.ids!r}, stats={self.stats!r})"
