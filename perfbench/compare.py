"""Compare two result files: ``python3 perfbench/compare.py A.json B.json``.

A and B are ``run.py --repeat N --out`` files (A the parent, B the
change; or two sets of the same code for the agreement check).  Per
workload and user-visible metric (``catalog.USER_VISIBLE``) it prints
both medians with quartiles, how much worse B is (positive = worse,
whatever the metric's direction), the metric's bound, and a verdict:

``ok``                    B is no worse than A by more than the bound
``worse``                 it is; the exit code is then 1
``unresolved``            a side's own runs spread (quartile distance /
                          median) wider than the bound: the metric cannot
                          tell at this noise level
``unresolved (machine)``  B reads worse, but the noise canary drifted
                          more than 10 % between the sides as well: the
                          machine changed, not necessarily the program
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import catalog  # noqa: E402
from perfbench.run import summarize  # noqa: E402

CANARY = "gen.canary_ms"
CANARY_DRIFT = 0.10


def _spread(cell: dict) -> float:
    return (cell["q3"] - cell["q1"]) / abs(cell["median"]) if cell["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float, canary_drift: float) -> tuple:
    """(how much worse B is as a share of A's median, verdict)."""
    change = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    worse_by = change if better == "lower" else -change
    if max(_spread(a), _spread(b)) > bound:
        return worse_by, "unresolved"
    if worse_by > bound:
        if canary_drift > CANARY_DRIFT:
            return worse_by, "unresolved (machine)"
        return worse_by, "worse"
    return worse_by, "ok"


def compare(a_runs: list, b_runs: list) -> list:
    """Rows (workload, metric, a cell, b cell, worse_by, bound, verdict)."""
    a_table, b_table = summarize(a_runs), summarize(b_runs)
    rows = []
    for workload, _ in catalog.WORKLOADS:
        if workload not in a_table or workload not in b_table:
            continue
        a_metrics, b_metrics = a_table[workload], b_table[workload]
        drift = 0.0
        if CANARY in a_metrics and CANARY in b_metrics and a_metrics[CANARY]["median"]:
            drift = abs(b_metrics[CANARY]["median"] / a_metrics[CANARY]["median"] - 1.0)
        for name, _, better, bound, _, _ in catalog.USER_VISIBLE:
            if name in a_metrics and name in b_metrics:
                a, b = a_metrics[name], b_metrics[name]
                worse_by, outcome = verdict(a, b, better, bound, drift)
                rows.append((workload, name, a, b, worse_by, bound, outcome))
        rows.append((workload, CANARY + " drift", None, None, drift, CANARY_DRIFT,
                     "note" if drift <= CANARY_DRIFT else "drifted"))
    return rows


def _load(path: str) -> list:
    return json.loads(Path(path).read_text())["runs"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(_load(argv[0]), _load(argv[1]))
    print(f"{'workload':<16} {'metric':<20} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} {'worse by':>9} {'bound':>6}  verdict")
    for workload, name, a, b, worse_by, bound, outcome in rows:
        cells = [
            f"{c['median']:.4f} [{c['q1']:.4f}..{c['q3']:.4f}] n={c['n']}" if c else ""
            for c in (a, b)
        ]
        print(f"{workload:<16} {name:<20} {cells[0]:<34} {cells[1]:<34} "
              f"{worse_by:>+9.3f} {bound:>6.2f}  {outcome}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
