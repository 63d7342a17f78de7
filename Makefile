# Developer entrypoints. `make check` is the gate a change must pass:
# lint (`ruff check` when ruff is on PATH) + the domain-aware static analysis
# suite (determinism, unit suffixes, RNG policy, ablation API — see
# docs/ANALYSIS.md) + the full tier-1 test suite. `make check-fast` is
# the per-push CI tier: it deselects the `slow` whole-corridor
# simulations (the nightly schedule runs everything plus the perf-gate
# benchmarks).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check check-fast check-docs lint analyze test test-fast bench accuracy e2e

check: lint analyze test

check-fast: lint analyze test-fast

# Docs tier: intra-repo links must resolve and the city-mesh example
# must run end to end (short simulation via REPRO_MESH_DURATION_S).
check-docs:
	$(PYTHON) tools/check_links.py
	REPRO_MESH_DURATION_S=12 $(PYTHON) examples/city_mesh.py

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
# writes it to benchmarks/results/bench_*.txt, so what a change does to
# the figures is one diff of those four reports against the parent's.
accuracy:
	OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 REPRO_BENCH_SCALE=1.0 \
	$(PYTHON) -m pytest \
		benchmarks/bench_fig11_counting.py benchmarks/bench_ablation_counting.py \
		benchmarks/bench_fig13_localization.py benchmarks/bench_fig15_speed.py \
		-q -o python_files='bench_*.py' -o python_functions='bench_*' \
		-p no:cacheprovider

# End-to-end benchmark, report form: every workload's metrics from one
# fresh process each, plus one traced run per workload for the layer
# split (Chrome traces land in benchmarks/results/e2e_trace_*.json).
# run.py pins one BLAS thread itself.
e2e:
	$(PYTHON) benchmarks/e2e/run.py --repeat 1
