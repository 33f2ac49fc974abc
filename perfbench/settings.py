"""Frozen workload sizes and rates.

Calibrated once on the seed commit (2 cores) and then frozen, so that a
parent commit and a change always run identical settings.  ``SMOKE``
shrinks every workload for ``perfbench/test_smoke.py``; smoke numbers are
never compared.  How the rates were chosen is in perfbench/README.md.
"""

from __future__ import annotations

#: Share of ``--seconds`` spent in the closed-loop phase of a served
#: workload; the rest is the open-loop phase.
CLOSED_SHARE = 0.4

#: Every n-th recorded (request, ids) pair is checked against the oracle.
ORACLE_EVERY = 20

#: A request with no response after this long counts as failed.
TIMEOUT_S = 5.0

FULL = {
    "paper_area": {
        "points": 200_000,
        # (MBR share of the unit square, polygons): a 50 / 35 / 15 mix
        "classes": (
            ("small", 0.0005, 125),
            ("medium", 0.01, 88),
            ("large", 0.16, 37),
        ),
    },
    "serve_hot": {
        "points": 100_000,
        "tiles": 16,  # 16 x 16 home tiles
        "page": 64,  # ``limit`` of the paginated viewports (a window holds about 40 points)
        "zipf": 1.1,
        "connections": 2,
        "in_flight": 8,  # per connection, closed loop
        "rate": 1000.0,  # open loop, requests per second
        "warmup_s": 0.5,
    },
    "serve_rw_live": {
        "points": 10_000,
        "window_subscriptions": 1000,
        "knn_subscriptions": 50,
        "in_flight": 8,
        "rate": 300.0,
        "warmup_s": 0.5,
        "fresh_reads": 200,
    },
    "cluster_scatter": {
        "points": 20_000,
        # the first frame takes the workers' bulk-load path, the second
        # their per-row insert path
        "load_frames": (16_000, 4_000),
        "workers": 2,
        "connections": 2,
        "in_flight": 1,
        "rate": 150.0,
        "warmup_s": 0.5,
        "overhead_pairs": 100,
    },
}

SMOKE = {
    "paper_area": {
        "points": 5_000,
        "classes": (
            ("small", 0.002, 10),
            ("medium", 0.02, 7),
            ("large", 0.16, 3),
        ),
    },
    "serve_hot": dict(FULL["serve_hot"], points=4_000, tiles=4, rate=300.0, warmup_s=0.2),
    "serve_rw_live": dict(
        FULL["serve_rw_live"],
        points=2_000,
        window_subscriptions=60,
        knn_subscriptions=6,
        rate=150.0,
        warmup_s=0.2,
        fresh_reads=40,
    ),
    "cluster_scatter": dict(
        FULL["cluster_scatter"],
        points=3_000,
        load_frames=(2_000, 1_000),
        rate=60.0,
        warmup_s=0.2,
        overhead_pairs=20,
    ),
}
