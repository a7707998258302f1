# Convenience targets for the TCAM reproduction.

.PHONY: install test test-robustness test-sanitize test-stream-faults test-service service-smoke static ruff typecheck check bench bench-perf bench-serve bench-service bench-stream bench-smoke bench-e2e-smoke bench-pair loc examples all

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# Static-analysis gate (see docs/static-analysis.md): every TCAM rule in
# one pass and one process — each file is parsed once — over the package
# and both bench harnesses; exits non-zero on any unsuppressed finding.
static:
	PYTHONPATH=src python -m repro.cli check src/repro benchmarks/perf benchmarks/e2e

# ruff is skipped with a notice when it is not installed (the offline
# image has no pip access).
ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi

# mypy --strict over src/repro, configured in pyproject.toml. Skipped
# with a notice when mypy is not installed locally; CI always runs it.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (CI runs it)"; \
	fi

check: static ruff typecheck test

test-robustness:
	pytest tests/robustness/

# Tier-1 model + serving + streaming tests with the runtime sanitizer
# armed: the blocked engine is every EM model's E-step (the Section 6
# extensions and stream fold-in included), so each fit and fold in these
# suites checks finite, row-stochastic state and finite statistics, and
# every batch served checks finite scores.
test-sanitize:
	TCAM_SANITIZE=1 pytest -q tests/core tests/recommend tests/baselines tests/robustness tests/extensions tests/streaming

# Streaming fault-injection suite (WAL torn writes, kill/resume, swap
# gate) with the runtime sanitizer armed — the crash-safety gate CI runs.
test-stream-faults:
	TCAM_SANITIZE=1 pytest -q tests/streaming -m faults

# Multi-process serving-service suite: spawns real worker processes and
# concurrent client processes (hot swap under load, drain semantics).
test-service:
	pytest -q tests/serving_service

# End-to-end service smoke (seconds): starts a real `tcam serve`
# subprocess, bursts concurrent clients against it, hot-swaps a
# same-φ snapshot (opened by delta) and then a refitted one (opened in
# full), answers held bitwise to recommend_batch after each, and
# requires a clean SIGTERM drain.
service-smoke:
	PYTHONPATH=src python benchmarks/perf/bench_service.py --smoke --output-dir $${TMPDIR:-/tmp}/tcam-service-smoke

bench:
	pytest benchmarks/ --benchmark-only

# Full-scale perf regression run; appends to BENCH_em.json / BENCH_topk.json
# / BENCH_serve.json / BENCH_service.json at the repo root (see
# docs/performance.md).
bench-perf:
	PYTHONPATH=src python benchmarks/perf/bench_em.py
	PYTHONPATH=src python benchmarks/perf/bench_topk.py
	PYTHONPATH=src python benchmarks/perf/bench_serve.py
	PYTHONPATH=src python benchmarks/perf/bench_service.py

# Batch-serving benchmark alone; appends to BENCH_serve.json.
bench-serve:
	PYTHONPATH=src python benchmarks/perf/bench_serve.py

# Process-parallel serving-service benchmark (tcam serve end to end);
# appends to BENCH_service.json.
bench-service:
	PYTHONPATH=src python benchmarks/perf/bench_service.py

# Streaming ingestion benchmark: WAL append rate, fold-in rate, and
# sustained ingest-while-serving; appends to BENCH_stream.json.
bench-stream:
	PYTHONPATH=src python benchmarks/perf/bench_stream.py

# Tiny-scale run of the same harness (seconds); writes to a scratch dir so
# the committed trajectories are never polluted by smoke numbers. The serve
# smoke includes the scaled-down mmap+quantized million tier (one spawned
# process per variant), so that machinery cannot rot between full runs.
bench-smoke:
	PYTHONPATH=src python benchmarks/perf/bench_em.py --smoke --output-dir $${TMPDIR:-/tmp}/tcam-bench-smoke
	PYTHONPATH=src python benchmarks/perf/bench_topk.py --smoke --output-dir $${TMPDIR:-/tmp}/tcam-bench-smoke
	PYTHONPATH=src python benchmarks/perf/bench_serve.py --smoke --output-dir $${TMPDIR:-/tmp}/tcam-bench-smoke
	PYTHONPATH=src python benchmarks/perf/bench_stream.py --smoke --output-dir $${TMPDIR:-/tmp}/tcam-bench-smoke
	PYTHONPATH=src python benchmarks/perf/bench_service.py --smoke --output-dir $${TMPDIR:-/tmp}/tcam-bench-smoke

# The repo benchmark's own smoke (~1 min): every workload of
# benchmarks/e2e at tiny scale, untraced and traced, held against
# BENCHMARK.json. Writes only under benchmarks/e2e/out/ (git-ignored).
bench-e2e-smoke:
	PYTHONPATH=src pytest -q benchmarks/e2e

# Paired parent/change runs of one benchmarks/e2e workload (~1.5 min a
# pair; run nothing else meanwhile): per end-to-end metric each side's
# median and quartiles and the pair wins a performance claim must show.
#   make bench-pair REF=HEAD~1 WORKLOAD=pipeline PAIRS=10
PAIRS ?= 10
bench-pair:
	python3 scripts/bench_pair.py --ref $(REF) --workload $(WORKLOAD) --pairs $(PAIRS)

# Code lines (blank, comment and docstring lines excluded) of src/ and
# tests/: the net-LoC figure every CHANGES.md entry reports.
loc:
	@python3 scripts/loc.py src tests

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src python $$script || exit 1; \
	done

all: install test bench
