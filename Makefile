# Developer entrypoints. `make check` is the gate a change must pass:
# lint (`ruff check` when ruff is on PATH) + the domain-aware static analysis
# suite (determinism, unit suffixes, RNG policy, ablation API — see
# docs/ANALYSIS.md) + the full tier-1 test suite. `make check-fast` is
# the per-push CI tier: it deselects the `slow` whole-corridor
# simulations (the nightly schedule runs everything plus the perf-gate
# benchmarks).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check check-fast check-docs lint analyze test test-fast bench accuracy e2e ab

check: lint analyze test

check-fast: lint analyze test-fast

# Docs tier: intra-repo links must resolve and every example must run
# end to end (the city mesh shortened via REPRO_MESH_DURATION_S), so an
# example still importing a removed name fails here. Each example's
# stdout is written to examples/expected/<name>.txt, and the target
# fails, printing the diff, when any output differs from its committed
# copy (or is not committed) — the way `make accuracy` checks its
# reports. A change that moves an example's output commits the new file
# and says why in CHANGES.md.
EXAMPLE_OUTPUTS = $(patsubst examples/%.py,examples/expected/%.txt,$(wildcard examples/*.py))

check-docs:
	$(PYTHON) tools/check_links.py
	@mkdir -p examples/expected
	@for example in examples/*.py; do \
		echo "$$example"; \
		REPRO_MESH_DURATION_S=12 $(PYTHON) $$example \
			> examples/expected/$$(basename $$example .py).txt || exit 1; \
	done
	git ls-files --error-unmatch $(EXAMPLE_OUTPUTS) > /dev/null
	git diff --exit-code -- $(EXAMPLE_OUTPUTS)

# `make analyze` already runs the unused-import rule, so a machine
# without ruff loses nothing by skipping this step.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples tools; \
	else \
		echo "lint: ruff not on PATH, skipped (make analyze checks unused imports)"; \
	fi

# Static analysis suite (`python -m tools.analyze`): zero unbaselined
# findings or the build fails. The JSON report is the CI artifact.
analyze:
	$(PYTHON) -m tools.analyze --json benchmarks/results/ANALYZE_findings.json

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Paper-figure regeneration (slow). REPRO_BENCH_SCALE scales MC runs.
# One BLAS thread, as benchmarks/e2e/run.py pins it: the speedup gates
# compare the simulator's own cost, not a thread pool's scheduling.
bench:
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
	$(PYTHON) -m pytest benchmarks -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		-p no:cacheprovider

# The paper-figure accuracy gates at full scale, one BLAS thread: Fig 11,
# the counting ablation, Fig 13 and Fig 15. Each prints its table and
# rewrites its committed report in benchmarks/results/, and the target
# fails, printing the diff, when any of the four differs from its
# committed copy (or is not committed). A change that moves a figure
# re-pins it by committing the new report and saying why in CHANGES.md.
ACCURACY_REPORTS = \
	benchmarks/results/bench_fig11_counting_accuracy.txt \
	benchmarks/results/bench_ablation_counting.txt \
	benchmarks/results/bench_fig13_parking_aoa.txt \
	benchmarks/results/bench_fig15_speed_detection.txt

accuracy:
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 REPRO_BENCH_SCALE=1.0 \
	$(PYTHON) -m pytest \
		benchmarks/bench_fig11_counting.py benchmarks/bench_ablation_counting.py \
		benchmarks/bench_fig13_localization.py benchmarks/bench_fig15_speed.py \
		-q -o python_files='bench_*.py' -o python_functions='bench_*' \
		-p no:cacheprovider
	git ls-files --error-unmatch $(ACCURACY_REPORTS) > /dev/null
	git diff --exit-code -- $(ACCURACY_REPORTS)

# End-to-end benchmark, report form: every workload's metrics from one
# fresh process each, plus one traced run per workload for the layer
# split (Chrome traces land in benchmarks/results/e2e_trace_*.json).
# run.py pins one BLAS thread itself.
e2e:
	$(PYTHON) benchmarks/e2e/run.py --repeat 1

# Alternating base/change pairs of one e2e workload at BENCHMARK.json's
# run_seconds (`python -m tools.ab_pairs`): the base revision is exported
# with `git archive` into a temporary directory, this checkout is the
# change. make ab BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=<seed>]
BASE ?= HEAD
WORKLOAD ?= corridor_dense_10s
PAIRS ?= 10
ab:
	$(PYTHON) -m tools.ab_pairs $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) \
		$(if $(SEED),--seed $(SEED))
