"""Latency observability: compact log2 histograms and per-kind panels.

Production serving is judged by its *tail*, not its mean: one slow
query in a hundred is what a dashboard user actually feels, and a mean
hides it completely.  This module gives the server a recording path
cheap enough to sit on every request — one integer increment per
observation — while still answering p50/p95/p99 questions and shipping
over the ``stats`` wire frame as a few dozen JSON numbers.

:class:`LatencyHistogram` uses **fixed log2 buckets**: an observation of
``t`` milliseconds lands in the bucket whose upper edge is the smallest
power-of-two number of *microseconds* at or above ``t``.  Bucket ``i``
therefore covers ``(2^(i-1), 2^i]`` microseconds — about 40 buckets span
1 microsecond to several days, resolution is a constant factor of 2
everywhere on the scale (exactly what latency distributions need: you
care whether p99 is 4 ms or 8 ms, never whether it is 4.0 or 4.1), and
the whole histogram is a short integer array that never allocates after
construction.  Quantiles are read back as the upper edge of the bucket
holding the requested rank — a deterministic, conservative (never
under-reporting) estimate.

:class:`LatencyPanel` keys histograms by *query kind* (``window``,
``area``, ``knn``, ``stream``, ``write``, …) so the server can expose
per-kind tails: a p99 blowup in ``knn`` stays visible instead of being
averaged away under a flood of cheap window hits.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Tuple

__all__ = ["LatencyHistogram", "LatencyPanel"]

#: Number of log2 buckets: covers 1 us (bucket 0) up to ``2**39`` us
#: (~6.4 days) in the last regular bucket; anything beyond clamps there.
BUCKET_COUNT = 40


class LatencyHistogram:
    """Fixed-bucket log2 latency histogram with O(1) recording.

    Records observations in milliseconds; internally buckets by the
    ``bit_length`` of the integer microsecond value, so ``record_ms`` is
    a handful of integer operations with no allocation.  Exact ``count``,
    ``sum`` and ``max`` ride alongside the buckets, so the mean and the
    true maximum are not quantized.
    """

    __slots__ = ("_buckets", "count", "sum_ms", "max_ms")

    def __init__(self) -> None:
        self._buckets: List[int] = [0] * BUCKET_COUNT
        #: observations recorded
        self.count: int = 0
        #: exact sum of recorded milliseconds (for the mean)
        self.sum_ms: float = 0.0
        #: exact largest observation in milliseconds
        self.max_ms: float = 0.0

    @staticmethod
    def bucket_index(ms: float) -> int:
        """Bucket index for an observation of ``ms`` milliseconds."""
        us = int(ms * 1000.0)
        if us <= 0:
            return 0
        return min(us.bit_length(), BUCKET_COUNT - 1)

    @staticmethod
    def bucket_upper_ms(index: int) -> float:
        """Upper edge (inclusive) of bucket ``index``, in milliseconds."""
        return (1 << index) / 1000.0

    def record_ms(self, ms: float) -> None:
        """Record one observation of ``ms`` milliseconds."""
        self._buckets[self.bucket_index(ms)] += 1
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    @property
    def mean_ms(self) -> float:
        """Exact mean of recorded observations (0.0 when empty)."""
        if not self.count:
            return 0.0
        return self.sum_ms / self.count

    def percentile_ms(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile in milliseconds.

        Walks the cumulative bucket counts to the first bucket whose
        cumulative share reaches ``q`` and returns that bucket's upper
        edge — so the estimate errs high by at most a factor of 2, never
        low.  ``q`` is a fraction in ``[0, 1]``; an empty histogram
        reports ``0.0``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        rank = q * self.count  # <= count, the last cumulative total
        index = next(
            index
            for index, cumulative in enumerate(accumulate(self._buckets))
            if cumulative >= rank and cumulative > 0
        )
        return min(self.bucket_upper_ms(index), self.max_ms)

    @property
    def p50_ms(self) -> float:
        """Median latency upper-bound estimate."""
        return self.percentile_ms(0.50)

    @property
    def p95_ms(self) -> float:
        """95th-percentile latency upper-bound estimate."""
        return self.percentile_ms(0.95)

    @property
    def p99_ms(self) -> float:
        """99th-percentile latency upper-bound estimate."""
        return self.percentile_ms(0.99)

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_edge_ms, count)`` for every non-empty bucket."""
        return [
            (self.bucket_upper_ms(index), count)
            for index, count in enumerate(self._buckets)
            if count
        ]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready summary for the ``stats`` wire frame.

        ``buckets`` maps each non-empty bucket's upper edge (str
        milliseconds, the JSON key) to its count — compact on the wire
        because an idle kind serializes to a handful of fields.
        """
        return {
            "count": self.count,
            "mean_ms": round(self.mean_ms, 3),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "buckets": {
                f"{upper:g}": count
                for upper, count in self.nonzero_buckets()
            },
        }


class LatencyPanel:
    """A family of :class:`LatencyHistogram` keyed by query kind.

    Kinds materialize lazily on first record, so the panel never needs
    a registry of spec kinds and composite kinds show up automatically.
    """

    __slots__ = ("_kinds",)

    def __init__(self) -> None:
        self._kinds: Dict[str, LatencyHistogram] = {}

    def histogram(self, kind: str) -> LatencyHistogram:
        """The histogram for ``kind``, created empty on first use."""
        hist = self._kinds.get(kind)
        if hist is None:
            hist = self._kinds[kind] = LatencyHistogram()
        return hist

    def record_ms(self, kind: str, ms: float) -> None:
        """Record one ``ms`` observation under ``kind``."""
        self.histogram(kind).record_ms(ms)

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Kinds recorded so far, sorted."""
        return tuple(sorted(self._kinds))

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Kind -> histogram summary, for the ``stats`` wire frame."""
        return {
            kind: self._kinds[kind].as_dict()
            for kind in sorted(self._kinds)
        }
