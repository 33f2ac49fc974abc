"""Smoke test of the benchmark, collected by the tier-1 ``pytest`` run.

Runs all four workloads at ``--smoke`` sizes (traced runs: each also has
an untraced half that yields the end-to-end metrics), so a change that
breaks a surface the benchmark depends on learns it from ``pytest`` and
not from the perf pipeline.  Numbers are never compared here.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import catalog  # noqa: E402
from perfbench.layers import LAYERS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in MANIFEST["workloads"]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """workload -> (record, last stdout line); the four run side by side
    (most of a run is waiting on a subprocess or a timer)."""
    out = tmp_path_factory.mktemp("perfbench")
    started = {
        workload: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--smoke",
             "--seconds", "2", "--trace", "1", "--seed", "5",
             "--out", str(out / f"{workload}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=str(ROOT),
        )
        for workload in WORKLOADS
    }
    results = {}
    for workload, process in started.items():
        output, _ = process.communicate(timeout=170)
        assert process.returncode == 0, output
        record = json.loads((out / f"{workload}.json").read_text())
        results[workload] = (record, json.loads(output.strip().splitlines()[-1]))
    return results


def test_manifest_is_what_the_benchmark_lists():
    listed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--list"],
        capture_output=True, text=True, check=True, cwd=str(ROOT),
    )
    assert json.loads(listed.stdout) == MANIFEST
    assert MANIFEST["paths"] == ["perfbench"]


#: Metrics that rightly read 0 (or below) at the seed commit.
MAY_BE_ZERO = {
    "failed_share", "delaunay.rebuilds", "engine.cache_hit_share", "engine.duplicate_hit_share",
    "engine.shared_window_share", "engine.seed_walk_share", "engine.voronoi_plan_share",
    "server.multi_client_batch_share", "server.window_flush_share", "server.shed_share",
    "cluster.router_overhead_ms_p50", "cluster.degraded_share", "cluster.failovers",
    "gen.held_share", "gen.backlog_end", "gen.saturated", "trace.overhead_share",
    "trace.unresolved_spans",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_measured_on_the_workloads_the_catalog_lists(runs, workload):
    record, _ = runs[workload]
    assert record["failed"] == 0 and record["correct"]
    assert record["metrics"]["failed_share"]["value"] == 0.0
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    for name, workloads in catalog.MEASURED_ON.items():
        if workload in workloads:
            assert name in record["metrics"], f"{name} was not measured"
            entry = record["metrics"][name]
            assert math.isfinite(entry["value"]) and entry["unit"] == units[name]
            assert entry["value"] > 0 or name in MAY_BE_ZERO, name
    assert set(record["metrics"]) <= set(units)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_is_the_contract(runs, workload):
    _, last = runs[workload]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == [metric["name"] for metric in MANIFEST["per_layer"]]
    for metric in MANIFEST["per_layer"]:
        entry = last["metrics"][metric["name"]]
        assert math.isfinite(entry["value"]) and entry["unit"] == metric["unit"]


def test_the_traced_runs_cover_every_layer(runs):
    seen = set()
    for record, _ in runs.values():
        assert record["unresolved_spans"] == []
        seen.update(record["layers_seen"])
    assert seen == set(LAYERS)
