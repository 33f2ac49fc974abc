"""Shared infrastructure for the paper-reproduction benchmarks.

Every bench in this directory regenerates one table or figure of the
paper's Section IV (see DESIGN.md's experiment index).  Databases are
built once per data size and cached for the whole benchmark session —
matching the paper, where the R-tree and the Voronoi diagram are
pre-existing database structures and only query time is measured.

Scale
-----
Default sizes are laptop-friendly (10k–100k points, the paper's lower
decade).  Set ``REPRO_BENCH_SCALE=paper`` to run the full 1E5–1E6 sweep of
the paper (slow: pure-Python experiments at 1E6 points).
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.core.database import SpatialDatabase
from repro.geometry.polygon import Polygon
from repro.workloads.generators import uniform_points
from repro.workloads.queries import QueryWorkload
from repro.query.spec import AreaQuery

PAPER_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper"

#: Collected ``record_benchmark`` entries of this pytest session.
BENCH_RECORDS: Dict[str, Dict[str, object]] = {}


def record_benchmark(name: str, **values) -> None:
    """Record one benchmark's outcome for the terminal summary.

    The benches call this with their measured ratios and counts;
    :func:`pytest_terminal_summary` prints every record under the pytest
    summary, one line apiece.
    """
    BENCH_RECORDS[name] = values


def _session_records() -> Dict[str, Dict[str, object]]:
    """Everything recorded this session.

    Note on module identity: pytest loads this conftest under its own
    module name while the bench files import ``benchmarks.conftest``
    directly, so two instances of :data:`BENCH_RECORDS` can exist in one
    process; both are merged.
    """
    records = dict(BENCH_RECORDS)
    try:
        from benchmarks.conftest import BENCH_RECORDS as imported_records

        records.update(imported_records)
    except ImportError:  # pragma: no cover - benchmarks/ always importable
        pass
    return records


def pytest_terminal_summary(terminalreporter) -> None:
    """Print each recorded benchmark's scalar metrics, one line apiece."""
    for name, values in sorted(_session_records().items()):
        scalars = " ".join(
            f"{key}={value}"
            for key, value in sorted(values.items())
            if isinstance(value, (int, float, str))
        )
        terminalreporter.write_line(f"{name}: {scalars}")


#: Data sizes of the Table I / Figs. 4–5 sweep.
DATA_SIZES: Tuple[int, ...] = (
    tuple(100_000 * i for i in range(1, 11))
    if PAPER_SCALE
    else tuple(10_000 * i for i in range(1, 11))
)
#: Query sizes of the Table II / Figs. 6–7 sweep (the paper's exact values).
QUERY_SIZES: Tuple[float, ...] = (0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
#: Fixed parameters of each sweep.
FIXED_QUERY_SIZE = 0.01
FIXED_DATA_SIZE = DATA_SIZES[-1] if not PAPER_SCALE else 100_000
#: Query polygons averaged per measurement (the paper uses 1000).
N_QUERY_AREAS = 100 if PAPER_SCALE else 30

_DB_CACHE: Dict[int, SpatialDatabase] = {}


def get_database(n: int) -> SpatialDatabase:
    """Session-cached database of ``n`` uniform points, fully prepared."""
    if n not in _DB_CACHE:
        db = SpatialDatabase.from_points(
            uniform_points(n, seed=2020)
        )
        _DB_CACHE[n] = db.prepare()
    return _DB_CACHE[n]


def get_query_areas(query_size: float, count: int = N_QUERY_AREAS) -> List[Polygon]:
    """The paper's query workload at one query size (deterministic)."""
    return QueryWorkload(
        query_size=query_size, seed=int(query_size * 1_000_000)
    ).areas(count)


def run_batch(db: SpatialDatabase, areas: List[Polygon], method: str):
    """Run one batch of area queries; returns the list of QueryRecords."""
    return [db.query(AreaQuery(area, method=method)).record for area in areas]


def summarize(results) -> Dict[str, float]:
    """Average the stats of a batch (the paper reports per-query means)."""
    n = len(results)
    return {
        "result_size": sum(r.stats.result_size for r in results) / n,
        "candidates": sum(r.stats.candidates for r in results) / n,
        "redundant": sum(r.stats.redundant_validations for r in results) / n,
        "time_ms": sum(r.stats.time_ms for r in results) / n,
    }


@pytest.fixture(scope="session")
def fixed_size_db() -> SpatialDatabase:
    """The query-size sweep's database (paper: 1E5 points)."""
    return get_database(FIXED_DATA_SIZE)
