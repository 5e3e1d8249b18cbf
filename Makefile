# Reproduction driver targets.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test lint check-aliasing check-effects check-model check-model-full bench bench-full bench-smoke e2e-check profile tables figures examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# One merged run of every static/model pass (determinism, races, units,
# aliasing, protocol model, effects) with per-pass timing and one exit code.
lint:
	$(PYTHON) -m repro check --all --retransmits 1 --json
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping style pass"; \
	fi

# Zero-copy safety pass: memoryview-escape / hidden-copy / pool-leak rules
# over the package, failing on any finding (see docs/CHECKING.md).
check-aliasing:
	$(PYTHON) -m repro check --aliasing src/ --fail-on error

# Effect/purity pass: call-graph cache-soundness, worker-hermeticity and
# bench-determinism contracts over the package (see docs/CHECKING.md).
check-effects:
	$(PYTHON) -m repro check --effects src/ --fail-on error

# Bounded protocol model-checking smoke (~7 s, ~240k states): the CI gate.
check-model:
	$(PYTHON) -m repro check --model --retransmits 1

# Full default bounds (~25 s, ~750k states): the nightly/manual target.
check-model-full:
	$(PYTHON) -m repro check --model

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI perf gate: first run every benchmark module once, untimed, so a
# benchmark that no longer runs fails here instead of at the next
# `make bench`; then the kernel events/sec benchmark and a 2-worker
# mini-sweep, failing on a >20% throughput regression vs
# benchmarks/baselines/ or a detector or sanitizer overhead ceiling
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

# cProfile a fig5-shaped model run: top-20 cumulative hot spots on
# stdout, raw dump in benchmarks/results/PROFILE_kernel.pstats.
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
