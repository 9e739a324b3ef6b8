# Convenience targets; everything is plain cargo underneath and works
# offline (the workspace is a pure path-dependency graph).

CARGO ?= cargo
CHAOS_SEEDS ?= 16

.PHONY: build test test-all test-chaos recovery-check obs-check profile-check introspect-check fuzz-smoke experiments-smoke cluster-smoke taskbench-smoke ci

build:
	$(CARGO) build --release

# Tier-1: the root package's integration suites.
test:
	$(CARGO) test -q

# Every crate, including shims.
test-all:
	$(CARGO) test --workspace

# The deterministic chaos sweep. Replay a failing seed with
# CHAOS_SEED=<n> make test-chaos (or the command the failure prints).
test-chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) test -p vinz --test chaos -- --nocapture
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(CARGO) test --test survivability

# Recovery gate: the armed survivability sweep (chaos never disarmed,
# no harness respawns — leases, supervisor, and retries do all the
# work) plus the dead-letter quarantine assertions on both the broker
# and task sides.
recovery-check:
	sh scripts/recovery_check.sh

# Observability gate: run an example workflow, scrape the text
# exporter, and assert the required metric families are non-zero.
obs-check:
	sh scripts/obs_check.sh

# Profiler gate: run `gozer-repl profile` on the example pipeline and
# assert the hot-function table, opcode counts, continuation costs, and
# the folded-stack file are all present and well-formed.
profile-check:
	sh scripts/profile_check.sh

# Introspection gate: boot a deployment with the live HTTP endpoint on
# an ephemeral port, scrape /metrics, /healthz, /tasks, and
# /timeline/<task> over plain TCP, and shape-check every payload
# (including /metrics byte-identity with the in-process exporter).
introspect-check:
	sh scripts/introspect_check.sh

# Bounded-iteration run of every fuzz target (reader, compiler, serial
# state, serial delta). FUZZ_ITERS to widen, FUZZ_SEED=<n> to replay a
# finding (each target prints the per-case seed on failure with
# FUZZ_VERBOSE=1).
FUZZ_ITERS ?= 5000
fuzz-smoke:
	FUZZ_ITERS=$(FUZZ_ITERS) sh scripts/fuzz_smoke.sh

# Every paper experiment (the `experiments` binary's `all`) at smoke
# size with its shape assertions on, then each report's key set checked
# against the committed BENCH_*.json of the same name. A baseline is
# regenerated with `cargo run --release -p gozer-bench -- <experiment>
# --out .` (`scale` takes minutes at full size).
experiments-smoke:
	sh scripts/experiments_smoke.sh

# Multi-process transport gate: a broker process plus two real
# gozer-worker OS processes over TCP, with one genuine `kill -9` and a
# restart mid-stream. The trap in the script reaps orphaned workers.
# The in-harness flavor (16-seed sweep) is `cargo test -p gozer-worker`.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# The task-level benchmark (BENCHMARK.json) on all six workloads in
# under 10 s, with a shape check of its report. No perf gating: a
# wedge (its watchdog), a wrong task value, a dead letter or a report
# that no longer matches BENCHMARK.json is what fails.
taskbench-smoke:
	$(CARGO) run --release --offline --quiet --manifest-path taskbench/Cargo.toml -- --smoke

ci:
	sh scripts/ci.sh
