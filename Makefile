# Reproduction driver targets.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test lint mutants bench bench-full bench-smoke e2e-check profile tables figures examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# One run of every static pass (determinism, races, units, aliasing,
# protocol, effects) with per-pass timing.
lint:
	$(PYTHON) -m repro check --json
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping style pass"; \
	fi

# The mutation corpus (tests/mutants/corpus.py): each seeded bug, applied
# to a copy of the checkout, must be caught by a static pass or, failing
# that, by tier-1.  Two at a time; results in benchmarks/results/MUTANTS.json.
mutants:
	$(PYTHON) tests/mutants/run.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI perf gate: first run every benchmark module once, untimed, so a
# benchmark that no longer runs fails here instead of at the next
# `make bench`; then the kernel events/sec benchmark and a 2-worker
# mini-sweep, failing on a >20% throughput regression vs
# benchmarks/baselines/ or a sanitizer overhead ceiling
# (thresholds in benchmarks/baselines/thresholds.json).
bench-smoke:
	$(PYTHON) -m pytest benchmarks --benchmark-disable
	$(PYTHON) -m pytest benchmarks/bench_kernel_events.py --benchmark-only
	REPRO_BENCH_WORKERS=2 $(PYTHON) -m pytest benchmarks/bench_sweep_parallel.py --benchmark-only
	$(PYTHON) benchmarks/check_regression.py
	$(PYTHON) benchmarks/profile_kernel.py

# Golden-hash gate: one run of each end-to-end benchmark workload at
# seed 0, whose cells must all match e2ebench/golden.json.  run.py exits
# 0 even when cells fail, so the gate reads `failed` from the JSON line
# it prints last; a missing or non-JSON last line fails too.
E2E_WORKLOADS := fig5_search fig3_curve tables

e2e-check:
	@for workload in $(E2E_WORKLOADS); do \
		echo "e2e-check: $$workload"; \
		out=$$($(PYTHON) e2ebench/run.py --workload $$workload --seed 0 \
			--seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		printf '%s\n' "$$out" | tail -n 1 | $(PYTHON) -c \
			'import json, sys; r = json.loads(sys.stdin.read()); print("failed", r["failed"], "of", r["attempted"]); sys.exit(r["failed"] != 0)' \
			|| { echo "$$out"; exit 1; }; \
	done

# cProfile a fig5-shaped model run and a Table 3-shaped NFS sample:
# top-20 cumulative hot spots of each on stdout, raw dumps in
# benchmarks/results/PROFILE_kernel.pstats and PROFILE_tables.pstats.
profile:
	$(PYTHON) benchmarks/profile_kernel.py

tables:
	$(PYTHON) -m repro table1
	$(PYTHON) -m repro table2
	$(PYTHON) -m repro table3
	$(PYTHON) -m repro table4

figures:
	$(PYTHON) -m repro fig3
	$(PYTHON) -m repro fig4
	$(PYTHON) -m repro fig5
	$(PYTHON) -m repro fig6

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/video_server.py
	$(PYTHON) examples/failure_recovery.py
	$(PYTHON) examples/record_store.py
	$(PYTHON) examples/tape_archive.py
	$(PYTHON) examples/scaling_study.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
