"""LRU result cache keyed by query-spec objects.

Production query traffic repeats itself: hot map tiles, popular
geofences, dashboards re-issuing the same polygon every refresh.  The
batch engine therefore memoises :class:`~repro.core.stats.QueryRecord`
records behind the *spec objects themselves*:
:meth:`repro.query.spec.Query.cache_key` returns the spec normalised for
caching (execution method and projection stripped — they never change
the result rows) or ``None`` for uncacheable specs (those carrying a
``predicate`` closure).  Specs are frozen, hashable dataclasses whose
equality delegates to their geometry's value equality
(:class:`~repro.geometry.polygon.Polygon` compares vertex rings,
:class:`~repro.geometry.circle.Circle` centre and radius), so equal keys
imply identical geometry and therefore identical results.  A custom
:class:`~repro.geometry.region.QueryRegion` without value hashing falls
back to identity semantics: only a query holding the *same object* can
hit its entry (mutating such an object in place after querying is
undefined, exactly as for any dict key).

Correctness guarantees:

* **Method-independence** — the paper's central theorem is that both query
  methods return the same id set for the same region, so a cached result
  may be served regardless of which method would have produced it (the
  cache key normalises the method away for precisely this reason).
* **Invalidation** — every entry is stamped with the database *version*
  (bumped by :meth:`~repro.core.database.SpatialDatabase.insert` /
  ``extend``); a stale stamp is treated as a miss and the entry dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.core.stats import QueryRecord

#: Default number of distinct specs remembered by the engine's cache.
#: Note the bound is an *entry count*, not bytes: each entry retains its
#: full result id array (8 B per id), so workloads whose queries return very large
#: results (e.g. 30 %-of-space queries over paper-scale databases) should
#: size ``BatchQueryEngine(cache_capacity=...)`` down accordingly.
#: It also caps the hit share: replaying perfbench ``serve_hot``'s key
#: stream (16 x 16 tiles x 8 repeatable specs = 2 048 keys, Zipf 1.1,
#: 15 % never-repeating reads, 30 000 requests) through an LRU hits
#: 0.51 at 256 entries, 0.69 at 1 024 and 0.79 at 4 096, so the
#: workload's measured 0.51 is this capacity's ceiling, not lost hits.
DEFAULT_CAPACITY = 256


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: misses caused by a version-stamp mismatch (entry existed but the
    #: database had changed since it was stored)
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    version: int
    result: QueryRecord


@dataclass
class ResultCache:
    """A bounded LRU mapping spec cache keys to query results.

    Entries are stamped with the database version at store time;
    :meth:`get` treats a stamp mismatch as a miss (and drops the entry),
    which makes ``insert``-after-query correct without any explicit
    invalidation hook.  ``capacity <= 0`` disables caching entirely.
    """

    capacity: int = DEFAULT_CAPACITY
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, version: int) -> Optional[QueryRecord]:
        """The cached result for ``key`` at database ``version``, or None.

        A hit returns a new record that shares the stored read-only id
        array (nothing is copied; :attr:`QueryRecord.ids
        <repro.core.stats.QueryRecord.ids>` hands callers a fresh list)
        with its own copy of the stats, and refreshes the entry's recency.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.version != version:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        result = entry.result
        return QueryRecord(result.id_array, result.stats.copy())

    def put(self, key: Hashable, version: int, result: QueryRecord) -> None:
        """Store ``result`` for ``key`` at ``version`` (evicting LRU).

        The entry shares ``result``'s read-only id array and keeps its
        own copy of the stats (eight scalars), so a caller of
        ``run_specs`` that edits the counters it was handed cannot poison
        later cache hits, and no caller can edit the ids.
        """
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = _Entry(
            version=version,
            result=QueryRecord(result.id_array, result.stats.copy()),
        )
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._entries.clear()
