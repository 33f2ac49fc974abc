"""The benchmark's one command: ``python3 perfbench/run.py``.

With ``--workload`` it makes one run and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace
1``) named in ``BENCHMARK.json``.  Without ``--workload`` (or with
``--repeat``) it runs every workload round-robin, each run in a process
of its own, and prints medians and quartiles; ``--out`` keeps the runs as
JSON for ``perfbench/compare.py``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import catalog, procs, settings  # noqa: E402

WORKLOAD_NAMES = tuple(name for name, _ in catalog.WORKLOADS)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one run of this workload")
    parser.add_argument("--seed", type=int, default=1, help="every input derives from it")
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: half the time untraced, half with spans; per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (seed, seed+1, ...), workloads interleaved")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for test_smoke.py")
    parser.add_argument("--out", help="write the run record(s) to this JSON file")
    parser.add_argument("--list", action="store_true", help="print BENCHMARK.json's content")
    return parser.parse_args(argv)


def _one_run(args: argparse.Namespace) -> dict:
    """Run one workload in this process; the full record."""
    sys.path.insert(0, str(procs.SRC))
    config = (settings.SMOKE if args.smoke else settings.FULL)[args.workload]
    if args.workload == "paper_area":
        from perfbench.paper_area import run
    else:
        from perfbench.served import run_workload as run

        config = dict(config, workload=args.workload)
    result = run(config, args.seed, args.seconds, bool(args.trace))
    recorder = result.pop("spans", None)
    if recorder is not None:  # the in-process workload's spans
        procs.OUT.mkdir(exist_ok=True)
        recorder.dump(procs.OUT / f"spans-{args.workload}-{args.seed}.npz")
    measured = result.pop("metrics")
    measured["failed_share"] = result["failed"] / result["attempted"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": result["failed"] == 0,
        **result,
        # a metric the workload does not exercise, or whose span target no
        # longer resolves, is not measured and is left out
        "metrics": {
            name: {"value": float(value), "unit": catalog.UNITS[name]}
            for name, value in measured.items()
            if value is not None
        },
    }


def _print_record(record: dict) -> None:
    samples = record.get("samples", {})
    print(f"# {record['workload']}  seed {record['seed']}  {record['seconds']:g} s  "
          f"trace {record['trace']}  attempted {record['attempted']}  failed {record['failed']}")
    for name in catalog.END_TO_END_NAMES + catalog.PER_LAYER_NAMES:
        if name in record["metrics"]:
            entry = record["metrics"][name]
            count = f"  (n={samples[name]})" if name in samples else ""
            print(f"{name:<42} {entry['value']:>14.4f} {entry['unit']}{count}")
    for key in ("layers_seen", "unresolved_spans", "saturated", "failures"):
        if key in record:
            print(f"{key}: {record[key]}")


def _final_line(record: dict) -> str:
    """The contract's last line: exactly the metrics the flag asks for.

    The contract wants a number for every per-layer metric on every
    workload, so here (and only here) one that was not measured reads 0;
    the record, the printed table and ``--out`` leave it out.
    """
    names = catalog.PER_LAYER_NAMES if record["trace"] else catalog.END_TO_END_NAMES
    zero = {"value": 0.0}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {
                    "value": record["metrics"].get(name, zero)["value"],
                    "unit": catalog.UNITS[name],
                }
                for name in names
            },
        }
    )


def _many_runs(args: argparse.Namespace) -> list:
    """Each run in its own process: a fresh heap, so peak_rss_mb is its own."""
    workloads = (args.workload,) if args.workload else WORKLOAD_NAMES
    procs.OUT.mkdir(exist_ok=True)
    records = []
    for repeat in range(args.repeat):
        for workload in workloads:
            scratch = procs.OUT / f"record-{workload}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed + repeat), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(scratch),
            ] + (["--smoke"] if args.smoke else [])
            subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
            records.append(json.loads(scratch.read_text()))
            print(f"run {len(records)}: {workload} seed {args.seed + repeat} "
                  f"failed {records[-1]['failed']}", flush=True)
    return records


def summarize(records: list) -> dict:
    """workload -> metric -> {median, q1, q3, n, unit} over the runs.

    A run whose generator was ``saturated`` lends no latency: what it
    timed is the generator's backlog, not the program.
    """
    table: dict = {}
    for record in records:
        for name, entry in record["metrics"].items():
            if record.get("saturated") and name.split("_ms_")[0] in ("op", "write", "notify"):
                continue
            cell = table.setdefault(record["workload"], {}).setdefault(
                name, {"values": [], "unit": entry["unit"]}
            )
            cell["values"].append(entry["value"])
    for metrics in table.values():
        for cell in metrics.values():
            values = cell["values"]
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            cell.update(median=statistics.median(values), q1=quartiles[0], q3=quartiles[2],
                        n=len(values))
    return table


def _print_summary(records: list) -> None:
    for workload, metrics in summarize(records).items():
        print(f"# {workload}")
        for name in catalog.END_TO_END_NAMES + catalog.PER_LAYER_NAMES:
            if name in metrics:
                cell = metrics[name]
                print(f"{name:<42} {cell['median']:>14.4f} {cell['unit']:<6} "
                      f"[{cell['q1']:.4f} .. {cell['q3']:.4f}] n={cell['n']}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.list:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if not (procs.SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: the program is not here ({procs.SRC}/repro)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload is None or args.repeat > 1:
            records = _many_runs(args)
            _print_summary(records)
            if args.out:
                Path(args.out).write_text(json.dumps({"runs": records}, indent=1))
            return 0 if all(record["correct"] for record in records) else 1
        record = _one_run(args)
        _print_record(record)
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1))
        print(_final_line(record))
        return 0
    finally:
        procs.stop_all()


if __name__ == "__main__":
    raise SystemExit(main())
