"""Unit tests for QueryStats / QueryRecord."""

from repro.core.stats import QueryRecord, QueryStats


class TestQueryStats:
    def test_defaults(self):
        stats = QueryStats()
        assert stats.candidates == 0
        assert stats.time_ms == 0.0

    def test_merge_sums_counters(self):
        a = QueryStats(method="voronoi", candidates=10, validations=8,
                       redundant_validations=2, time_ms=1.5)
        b = QueryStats(candidates=5, validations=4, redundant_validations=1,
                       time_ms=0.5)
        merged = a.merge(b)
        assert merged.method == "voronoi"
        assert merged.candidates == 15
        assert merged.validations == 12
        assert merged.redundant_validations == 3
        assert merged.time_ms == 2.0

    def test_merge_keeps_other_method_when_unset(self):
        merged = QueryStats().merge(QueryStats(method="traditional"))
        assert merged.method == "traditional"

    def test_scaled(self):
        stats = QueryStats(candidates=10, validations=10, time_ms=4.0)
        half = stats.scaled(0.5)
        assert half.candidates == 5
        assert half.time_ms == 2.0

    def test_scaled_rounds(self):
        assert QueryStats(candidates=3).scaled(0.5).candidates == 2


class TestQueryResult:
    def test_len_and_iter(self):
        result = QueryRecord(ids=[3, 1, 2])
        assert len(result) == 3
        assert list(result) == [3, 1, 2]

    def test_contains(self):
        result = QueryRecord(ids=[1, 2, 3])
        assert 2 in result
        assert 9 not in result

    def test_default_empty(self):
        result = QueryRecord()
        assert len(result) == 0
        assert result.stats.candidates == 0
