# Developer entry points. Every target sets PYTHONPATH=src, so no install
# step is needed; see README.md for what each target is for.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: test test-chaos docs-check lint bench-smoke bench-columnar bench demo

## tier-1 test suite (the gate every change must keep green)
test:
	$(PYTEST) -x -q

## fault-injection chaos suite under a fixed seed: deterministic
## FaultyBackend scenarios plus the real-process kill -9 tests
## (replicated failover, degraded results, supervision respawn).
## Override the seed to replay a specific run:
## REPRO_CHAOS_SEED=<n> make test-chaos
test-chaos:
	REPRO_CHAOS_SEED=$${REPRO_CHAOS_SEED:-1307} \
		$(PYTEST) tests/cluster/test_failover.py -q

## documentation gate: fails on any public item without a docstring,
## any dead relative link/anchor in README.md + docs/*.md, or any
## fenced CLI example naming a subcommand/experiment target that the
## CLI does not actually register (tools/docs_check.py)
docs-check:
	$(PYTEST) tests/test_api_documentation.py -q
	python tools/docs_check.py

## lint gate: ruff when installed, else the bundled fallback linter
## (tools/lint.py — syntax, unused imports, whitespace hygiene); either
## way the serving layers (src/repro/server, src/repro/live) also pass
## the static doc-coverage check (module + public def/class docstrings)
lint:
	python tools/lint.py src tests benchmarks examples tools

## fast benchmark smoke: the wave-threshold sweep, the backend ablation
## (1E5-row bulk-build rates, index/graph bytes per row, insert costs),
## the four shape tests of the paper's artefacts that read counters,
## not clocks (Tables 1-2, Figs 5 and 7), and the Voronoi kNN walk's
## ids against the R-tree's plus its O(k) candidate bound at
## k = 1, 10, 100, timing collection disabled;
## each bench's record is printed under the pytest summary.  Served
## and clustered throughput is measured by perfbench/ (python3
## perfbench/run.py, gated by perfbench/compare.py).
bench-smoke:
	$(PYTEST) benchmarks/bench_columnar.py \
		benchmarks/bench_ablation_backend.py \
		benchmarks/bench_table1.py::test_table1_shape \
		benchmarks/bench_table2.py::test_table2_shape \
		benchmarks/bench_fig5.py::test_fig5_shape \
		benchmarks/bench_fig7.py::test_fig7_shape \
		benchmarks/bench_ablation_knn.py::test_knn_equivalence_and_locality \
		-q --benchmark-disable

## wave-threshold sweep alone: Algorithm 1 timed at every _WAVE_MIN
## from "always arrays" to "always the loop" on three result sizes
## (the shipped constant must win small and large), ids never move
bench-columnar:
	$(PYTEST) benchmarks/bench_columnar.py -q --benchmark-disable

## full benchmark run: every paper artefact and ablation (slow;
## REPRO_BENCH_SCALE=paper selects the paper's 1E5-1E6 sweep)
bench:
	$(PYTEST) benchmarks/bench_table1.py benchmarks/bench_table2.py \
		benchmarks/bench_fig4.py benchmarks/bench_fig5.py \
		benchmarks/bench_fig6.py benchmarks/bench_fig7.py \
		benchmarks/bench_ablation_backend.py \
		benchmarks/bench_ablation_polygon.py \
		benchmarks/bench_ablation_knn.py \
		benchmarks/bench_ablation_iocost.py \
		benchmarks/bench_columnar.py

## one-shot demo of both methods + the batch planner
demo:
	PYTHONPATH=src python -m repro demo
	PYTHONPATH=src python -m repro batch
