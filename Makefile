# Convenience entry points; every target is a thin wrapper over the
# commands CI runs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test qa lint flow sanitize determinism bench perf perf-gate regress

test:
	$(PYTHON) -m pytest -x -q

# The full QA gate: simlint + simflow + SimSan smoke + determinism
# (+ mypy/ruff when installed).  docs/STATIC_ANALYSIS.md documents
# every step.
qa:
	$(PYTHON) -m repro.qa

lint:
	$(PYTHON) -m repro.qa.lint src/repro

# Whole-program flow analysis (enforcement-path dominance, determinism
# taint, worker-boundary safety), gated on the checked-in baseline.
flow:
	$(PYTHON) -m repro.qa.flow --baseline

# Tier-1 substrate tests with the runtime sanitizer armed.
sanitize:
	REPRO_SIMSAN=1 $(PYTHON) -m pytest -x -q \
		tests/test_sim_engine.py tests/test_ndn_tables.py \
		tests/test_ndn_link_node.py tests/test_experiments.py \
		tests/test_integration_scenarios.py tests/test_qa_simsan.py

determinism:
	$(PYTHON) -m repro.qa.determinism --duration 3 --scale 0.1

bench:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks -q -s

# The performance benchmarks only: engine fan-out speedup + cache
# round-trip (writes BENCH_parallel.json) and the Bloom hot-path
# micro-benchmarks.  docs/PERFORMANCE.md explains how to read the output.
perf:
	PYTHONPATH=src:. $(PYTHON) -m pytest \
		benchmarks/test_parallel_speedup.py \
		benchmarks/test_bloom_micro.py -q -s

# The CI perf gate, as CI runs it on a push: perfbench's paper point on
# HEAD^ (in a temporary worktree) against this checkout, alternated;
# exit 1 when this checkout is slower beyond the gate's threshold.
# Against another base: python benchmarks/perf_gate.py <ref>.
# docs/PERFORMANCE.md, "The CI throughput gate".
perf-gate:
	$(PYTHON) benchmarks/perf_gate.py HEAD^

# Regression gate: run a tiny two-spec fig6 fleet twice into a fresh
# history (the first pass traced; the second replays every run from the
# run cache, telemetry included, which a selected trace would prevent),
# then diff the two entries — non-zero exit on any metric drift or
# wall-clock growth beyond the budget.  The CI job of the same name
# uploads the engine events, merged fleet metrics (telemetry.json), and
# the traces (trace.json, trace/) this leaves in $(REGRESS_DIR).
# docs/OBSERVABILITY.md, "Fleet observability".
REGRESS_DIR ?= .repro-regress

regress:
	rm -rf $(REGRESS_DIR)
	for obs in telemetry,trace telemetry; do \
		$(PYTHON) -m repro fig6 --duration 2 --scale 0.1 --jobs 1 \
			--cache-dir $(REGRESS_DIR)/cache \
			--history-dir $(REGRESS_DIR) \
			--obs $$obs --obs-out $(REGRESS_DIR) \
			--engine-events $(REGRESS_DIR)/engine.events.jsonl \
			> /dev/null || exit 1; \
	done
	$(PYTHON) -m repro.obs.history diff --history-dir $(REGRESS_DIR) \
		--figure fig6 --wall-tolerance 200
