# Convenience entry points; every target is a thin wrapper over the
# commands CI runs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test qa lint flow sanitize determinism bench perf regress

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
# round-trip (writes BENCH_parallel.json), sim-core throughput with
# the layer table (writes BENCH_simcore.json + the flamegraph
# source), and the Bloom hot-path micro-benchmarks.
# docs/PERFORMANCE.md explains how to read the output.
perf:
	PYTHONPATH=src:. $(PYTHON) -m pytest \
		benchmarks/test_parallel_speedup.py \
		benchmarks/test_simcore_throughput.py \
		benchmarks/test_bloom_micro.py -q -s

# Regression gate: run a tiny two-spec fig6 fleet twice into a fresh
# history (second pass replays from the run cache, telemetry included),
# then diff the two entries — non-zero exit on any metric drift or
# wall-clock growth beyond the budget.  The CI job of the same name
# uploads the engine events, merged fleet metrics, and Chrome trace
# this leaves in $(REGRESS_DIR).  docs/OBSERVABILITY.md, "Fleet
# observability".
REGRESS_DIR ?= .repro-regress

regress:
	rm -rf $(REGRESS_DIR)
	for i in 1 2; do \
		$(PYTHON) -m repro fig6 --duration 2 --scale 0.1 --jobs 1 \
			--cache-dir $(REGRESS_DIR)/cache \
			--history-dir $(REGRESS_DIR) \
			--fleet-telemetry \
			--engine-events $(REGRESS_DIR)/engine.events.jsonl \
			--fleet-metrics-out $(REGRESS_DIR)/fleet-metrics.json \
			--trace-out $(REGRESS_DIR)/trace.json --trace-format chrome \
			> /dev/null || exit 1; \
	done
	$(PYTHON) -m repro.obs.history diff --history-dir $(REGRESS_DIR) \
		--figure fig6 --wall-tolerance 200
