# Convenience targets; everything is plain cargo underneath and works
# offline (the workspace is a pure path-dependency graph).

CARGO ?= cargo
CHAOS_SEEDS ?= 16

.PHONY: build test test-chaos fuzz-smoke experiments-smoke taskbench-smoke ci

build:
	$(CARGO) build --release

# Tier-1: every test of the default members (every crate but `fuzz`).
test:
	$(CARGO) test -q

# The deterministic chaos sweep. Replay a failing seed with
# CHAOS_SEED=<n> make test-chaos (or the command the failure prints).
test-chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) test -p vinz --test chaos -- --nocapture
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) test --test survivability

# Bounded-iteration run of every fuzz target (reader, compiler, serial
# state, serial delta, ...). FUZZ_ITERS to widen, FUZZ_SEED=<n> to
# replay a finding (each target prints the per-case seed on failure with
# FUZZ_VERBOSE=1).
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# Every paper experiment (the `experiments` binary's `all`) at smoke
# size with its shape assertions on, then each report's key set checked
# against the committed BENCH_*.json of the same name. A baseline is
# regenerated with `cargo run --release -p gozer-bench -- <experiment>
# --out .` (`scale` takes minutes at full size).
experiments-smoke:
	sh scripts/experiments_smoke.sh

# The task-level benchmark (BENCHMARK.json) on all six workloads in
# under 10 s, with a shape check of its report. No perf gating: a
# wedge (its watchdog), a wrong task value, a dead letter or a report
# that no longer matches BENCHMARK.json is what fails.
taskbench-smoke:
	$(CARGO) run --release --offline --quiet --manifest-path taskbench/Cargo.toml -- --smoke

ci:
	sh scripts/ci.sh
