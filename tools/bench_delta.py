"""Perf gate: comparison of two ``BENCH_pr.json`` records.

CI records every run's benchmark outcomes as a ``BENCH_pr.json``
artifact (see ``benchmarks/conftest.py``).  This tool compares the
previous run's record against the current one and renders a markdown
delta table for the workflow step summary, so the speedup trajectory of
the acceptance benchmarks is visible per commit instead of only living
in pass/fail asserts.

The comparison is an **enforced gate** for the declared
:data:`STABLE_BENCHMARKS` set: a metric of a stable benchmark that
shrinks by more than :data:`TOLERANCE` in its better-direction emits a
``::error::`` workflow command and the tool exits 2, failing the CI
job.  A stable benchmark that *vanishes* from the current record is
treated the same way — deleting a benchmark must be an explicit edit
to the stable set here, never a silent drop.  Benchmarks outside the
stable set (typically ones that landed in the current PR) only warn:
they get one PR of trajectory data before being promoted, because a
brand-new benchmark has no history to distinguish regression from
run-to-run noise.  ``--warn-only`` downgrades every failure to a
warning (exit 0) for local runs and forks without artifact history.

Usage::

    python tools/bench_delta.py PREVIOUS.json CURRENT.json \
        [--summary $GITHUB_STEP_SUMMARY] [--warn-only]

Either file may be missing (first run on a branch, expired artifact):
the tool says so and exits 0.  Exit 1 means the *current* record is
unreadable JSON — the pipeline itself broke; exit 2 means the gate
caught a stable-set regression or removal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: Relative shrink tolerated before a numeric metric is flagged.
TOLERANCE = 0.10

#: The enforced benchmark set: regressions beyond :data:`TOLERANCE` (or
#: outright removal) of any of these **fail CI**.  A benchmark enters
#: this set one PR after it lands — its first run has no previous
#: record to compare against, and its second confirms the numbers are
#: stable on the runner — by adding its ``record_benchmark`` name here.
STABLE_BENCHMARKS = frozenset(
    {
        "batch_speedup_on_trace",
        "composite_union_speedup",
        "heterogeneous_batch_speedup",
        "live_subscriptions",
        "mutable_server_mix",
        "overload_shedding",
        "server_coalescing_mechanism",
        "server_coalescing_speedup",
        "server_streamed_knn",
        "skewed_tail_latency",
        "unbounded_knn_streaming",
    }
)

#: Keys that describe configuration, not performance — never compared.
_CONTEXT_KEYS = {
    "threshold",
    "clients",
    "requests",
    "data_size",
    "query_size",
    "composites",
    "parts",
    "first_n",
    "chunk_size",
    "distinct",
    "limit",
    "n_vertices",
    "reads",
    "writes",
    "write_fraction",
    "subscriptions",
    "windows",
    "knn",
    "objects",
    "moves",
    "fanout_mean",
    "prune_ratio",
    "sessions",
    "connections",
    "rate",
    "max_queue",
    "duration_s",
    "offered",
    "workers",
    "shards",
    "cpus",
    "mode",
    "modeled",
    "replicas",
    "faults_injected",
    "rows",
}

#: Metrics where *larger is worse* (times, and memory per row);
#: everything else numeric is treated as larger-is-better (speedups,
#: hit/reuse counters, and rates: ``rows_per_s`` ends in ``_s`` but is a
#: throughput).
_LOWER_IS_BETTER_SUFFIXES = ("_us", "_ms", "_s", "_bytes_per_row")


def _direction(name: str) -> int:
    """+1 when larger is better for ``name``, -1 when smaller is."""
    is_cost = name.endswith(_LOWER_IS_BETTER_SUFFIXES)
    return -1 if is_cost and not name.endswith("_per_s") else 1


def load_record(path: str) -> Optional[Dict]:
    """Read one ``BENCH_pr.json``; ``None`` when absent/unreadable."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or "results" not in data:
        return None
    return data


def compare(
    previous: Dict, current: Dict
) -> Tuple[
    List[Tuple[str, str, object, object, str, bool]],
    List[str],
    List[str],
]:
    """Row-by-row delta of two records' numeric metrics.

    Returns ``(rows, warnings, failures)``: each row is ``(benchmark,
    metric, previous value, current value, delta text, flagged?)`` for
    every numeric metric present in either record.  A regression
    (shrink beyond :data:`TOLERANCE` in the metric's better-direction)
    or a removal lands one message in ``failures`` when the benchmark
    is in :data:`STABLE_BENCHMARKS`, in ``warnings`` otherwise.

    Metrics (or whole benchmarks) appearing for the **first time** —
    no previous value, numeric current value — are rendered as explicit
    ``new`` rows; ones that **vanish** are rendered as explicit
    ``removed`` rows.  Neither is silently skipped, so the trajectory
    summary shows coverage growth and shrinkage the moment it happens.
    """
    rows: List[Tuple[str, str, object, object, str, bool]] = []
    warnings: List[str] = []
    failures: List[str] = []
    prev_results = previous.get("results", {})
    curr_results = current.get("results", {})
    for bench in sorted(set(prev_results) | set(curr_results)):
        prev_bench = prev_results.get(bench, {})
        curr_bench = curr_results.get(bench, {})
        stable = bench in STABLE_BENCHMARKS
        sink = failures if stable else warnings
        for metric in sorted(set(prev_bench) | set(curr_bench)):
            if metric in _CONTEXT_KEYS:
                continue
            before = prev_bench.get(metric)
            after = curr_bench.get(metric)
            after_numeric = isinstance(
                after, (int, float)
            ) and not isinstance(after, bool)
            before_numeric = isinstance(
                before, (int, float)
            ) and not isinstance(before, bool)
            if before is None and after_numeric:
                rows.append((bench, metric, "—", after, "new", False))
                continue
            if before_numeric and metric not in curr_bench:
                rows.append(
                    (bench, metric, before, "—", "removed", stable)
                )
                sink.append(
                    f"{bench}.{metric} disappeared from the current "
                    "record"
                    + (
                        " (stable benchmark — removing it requires "
                        "editing STABLE_BENCHMARKS)"
                        if stable
                        else ""
                    )
                )
                continue
            if not (before_numeric and after_numeric):
                continue
            if before:
                change = (after - before) / abs(before)
                delta = f"{change:+.1%}"
            else:
                change = 0.0 if after == before else float("inf")
                delta = "n/a" if after != before else "±0%"
            regressed = (
                change != float("inf")
                and change * _direction(metric) < -TOLERANCE
            )
            if regressed:
                sink.append(
                    f"{bench}.{metric} regressed "
                    f"{before} -> {after} ({delta})"
                )
            rows.append((bench, metric, before, after, delta, regressed))
    return rows, warnings, failures


def render_markdown(
    rows: List[Tuple[str, str, object, object, str, bool]],
    previous_meta: Dict,
    current_meta: Dict,
) -> str:
    """The step-summary markdown: header plus one table row per metric."""
    lines = [
        "### Benchmark trajectory vs previous run",
        "",
        f"previous: python {previous_meta.get('python', '?')}, "
        f"current: python {current_meta.get('python', '?')} "
        f"(tolerance ±{TOLERANCE:.0%}; stable-set regressions fail, "
        "new benchmarks warn)",
        "",
        "| benchmark | metric | previous | current | delta | |",
        "|---|---|---:|---:|---:|---|",
    ]
    for bench, metric, before, after, delta, flagged in rows:
        if flagged:
            flag = (
                "❌ removed" if delta == "removed" else "❌ regression"
            )
        elif delta == "removed":
            flag = "⚠️ removed"
        else:
            flag = ""
        lines.append(
            f"| {bench} | {metric} | {before} | {after} | {delta} | {flag} |"
        )
    if not rows:
        lines.append("| _no comparable numeric metrics_ | | | | | |")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI driver; exit 0 ok, 1 broken current record, 2 gate failure."""
    parser = argparse.ArgumentParser(
        description="Render a markdown delta of two BENCH_pr.json "
        "records and enforce the stable-set perf gate."
    )
    parser.add_argument("previous", help="previous run's BENCH_pr.json")
    parser.add_argument("current", help="this run's BENCH_pr.json")
    parser.add_argument(
        "--summary",
        default=None,
        help="file to append the markdown table to "
        "(e.g. $GITHUB_STEP_SUMMARY); stdout is always written",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="downgrade stable-set failures to warnings (exit 0) — "
        "for local runs and forks without artifact history",
    )
    args = parser.parse_args(argv)

    current = load_record(args.current)
    if current is None:
        print(
            f"::warning::current benchmark record {args.current!r} is "
            "missing or unreadable — did bench-smoke run?"
        )
        return 1
    previous = load_record(args.previous)
    if previous is None:
        text = (
            "### Benchmark trajectory vs previous run\n\n"
            f"no previous record at `{args.previous}` "
            "(first run, or the artifact expired) — nothing to compare.\n"
        )
        print(text)
        if args.summary:
            with open(args.summary, "a", encoding="utf-8") as handle:
                handle.write(text)
        return 0

    rows, warnings, failures = compare(previous, current)
    text = render_markdown(rows, previous, current)
    print(text)
    for message in warnings:
        print(f"::warning::{message}")
    failure_command = "::warning::" if args.warn_only else "::error::"
    for message in failures:
        print(f"{failure_command}{message}")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(text)
    if failures and not args.warn_only:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
