# Convenience entry points; every target is a thin wrapper over the
# commands CI runs (see .github/workflows/ci.yml).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test qa lint sanitize determinism bench perf perf-gate ledger

test:
	$(PYTHON) -m pytest -x -q

# The full QA gate: simlint + SimSan smoke + determinism
# (+ mypy/ruff when installed).  docs/STATIC_ANALYSIS.md documents
# every step.
qa:
	$(PYTHON) -m repro.qa

# simlint: the file rules, then the whole-program SL010/SL011
# (enforcement-path dominance, determinism taint).
lint:
	$(PYTHON) -m repro.qa.lint src/repro

# The scenario-level tier-1 tests and a fig6 slice with the simsan row
# selected on every run (docs/STATIC_ANALYSIS.md, "SimSan").
sanitize:
	REPRO_OBS=simsan $(PYTHON) -m pytest -x -q \
		tests/test_experiments.py tests/test_integration_scenarios.py \
		tests/test_qa_simsan.py
	$(PYTHON) -m repro fig6 --duration 2 --scale 0.1 --obs simsan

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

# Python calls per function for one perfbench topo1_paper operation
# under cProfile (~10 s); the per-hop rows are benchmarks/call_ledger.py's
# WATCHED.  docs/PERFORMANCE.md, "Per-hop interpreter overhead".
ledger:
	$(PYTHON) benchmarks/call_ledger.py --out benchmarks/results/call_ledger.json
