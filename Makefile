# Convenience targets; everything is plain cargo underneath and works
# offline (the workspace is a pure path-dependency graph).

CARGO ?= cargo
CHAOS_SEEDS ?= 16

.PHONY: build test test-chaos test-repeat fuzz-smoke taskbench-smoke ab ci

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

# Repeat the tests TEST selects N times beside two busy CPU hogs and
# print passes/N; fails unless all pass. TEST is a suite file
# (crates/<crate>/tests/<suite>.rs, that binary alone) or a cargo
# test-name filter.
N ?= 20
test-repeat:
	sh scripts/test_repeat.sh "$(TEST)" $(N)

# Bounded-iteration run of every fuzz target (reader, compiler, serial
# state, serial delta, ...). FUZZ_ITERS to widen, FUZZ_SEED=<n> to
# replay a finding (each target prints the per-case seed on failure with
# FUZZ_VERBOSE=1).
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# The task-level benchmark (BENCHMARK.json) on all six workloads in
# under 10 s, with a shape check of its report. No perf gating: a
# wedge (its watchdog), a wrong task value, a dead letter or a report
# that no longer matches BENCHMARK.json is what fails.
taskbench-smoke:
	$(CARGO) run --release --offline --quiet --manifest-path taskbench/Cargo.toml -- --smoke

# A/B timing of this tree against PARENT on the task-level benchmark:
# PAIRS interleaved pairs of AB_SECONDS per workload, each with a third
# run of the parent against itself (A/A). Per metric x workload it
# prints change/parent beside the A/A spread (the largest |aa/parent - 1|
# over the pairs) and a verdict, `better`, `worse` or `unresolved`:
# unresolved unless |change/parent - 1| exceeds the A/A spread
# (scripts/ab.sh).
PAIRS ?= 3
AB_SECONDS ?= 3
ab:
	sh scripts/ab.sh "$(PARENT)" $(PAIRS) $(AB_SECONDS)

ci:
	sh scripts/ci.sh
