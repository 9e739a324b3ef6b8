#!/bin/sh
# CI gate: release build, full test suite, and the 16-seed chaos sweep.
#
# Offline-friendly: the workspace uses only in-tree path dependencies,
# so --offline always works; we pass it when the network is known-bad
# and let plain cargo work everywhere else.
set -eu

cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"
OFFLINE="${CARGO_OFFLINE:---offline}"

run() {
    echo "+ $*"
    "$@"
}

run "$CARGO" build --release $OFFLINE
run "$CARGO" test -q $OFFLINE

# The deterministic chaos sweep: 16 seeds (CHAOS_SEEDS to widen). A
# failing seed prints its own one-line replay command.
CHAOS_SEEDS="${CHAOS_SEEDS:-16}"
export CHAOS_SEEDS
run "$CARGO" test -p vinz --test chaos $OFFLINE -- --nocapture
run "$CARGO" test -p bluebox chaos $OFFLINE
run "$CARGO" test --test survivability $OFFLINE

# LogStore recovery shapes, the mem-vs-log opcode-identity sweep, the
# prefix-closure sweep, and the phase ledger with the durability
# boundary test (under 10 s warm); then the suites tier-1 (the root
# package only) does not reach, seconds each: the serializer's own
# (delta incl. the warm-vs-cold seed cache differential, roundtrip,
# adversarial), the event bus's (a disabled bus never builds an event,
# ring overflow and drop counts), and the vinz workflow and service
# suites, which hold the lifecycle-order assertions on `EventKind` and
# the idempotent-entry table for the four operations that enter a fiber
# and the store census of a task; and the two suites either side of
# `start`: the admission gate in front of it, and the corrupt `fiber-v/`
# records behind it (a record whose mere presence says "suspended").
run "$CARGO" test -p vinz --test logstore --test phases $OFFLINE
run "$CARGO" test -p gozer-serial $OFFLINE
run "$CARGO" test -p gozer-obs $OFFLINE
run "$CARGO" test -p vinz --test workflows --test services $OFFLINE
run "$CARGO" test -p vinz --test admission --test adversarial $OFFLINE

# Recovery gate: the armed sweep (chaos stays enabled; leases,
# supervisor, and retries absorb every failure) plus the dead-letter
# quarantine assertions.
run make recovery-check

# Observability gate: the text exporter must serve all required metric
# families with non-zero activity after a real workflow run.
run make obs-check

# Profiler gate: `gozer-repl profile` on the example pipeline must emit
# a consistent hot-function report and well-formed folded stacks.
run make profile-check

# Introspection gate: the live HTTP endpoint must serve /metrics
# (byte-identical to the in-process exporter), /healthz, /tasks, and
# /timeline/<task> with well-formed payloads.
run make introspect-check

# Bench smoke: run the serialization and cache benches with shrunk
# populations (BENCH_SMOKE=1) and validate the JSON report shape — the
# same reports committed at the repo root as BENCH_*.json baselines.
# Shape only, no perf gating: CI machines are too noisy for thresholds.
BENCH_TMP="${TMPDIR:-/tmp}/gozer-bench-smoke.$$"
mkdir -p "$BENCH_TMP"
trap 'rm -rf "$BENCH_TMP"' EXIT
run env BENCH_SMOKE=1 "$CARGO" run --release $OFFLINE -q -p gozer-bench \
    --bin fig1_workflow_lifetime -- --json "$BENCH_TMP/serialization.json"
run env BENCH_SMOKE=1 "$CARGO" run --release $OFFLINE -q -p gozer-bench \
    --bin sec42_cache -- --json "$BENCH_TMP/cache.json"
for key in '"delta_saves"' '"bytes_per_save"' '"steady_state"' '"reduction"'; do
    grep -q "$key" "$BENCH_TMP/serialization.json" \
        || { echo "bench-smoke: $key missing from serialization.json" >&2; exit 1; }
done
for key in '"mutable_affinity_on"' '"mutable_affinity_off"' '"affinity_hit_rate"' '"paper_mutable_rate"'; do
    grep -q "$key" "$BENCH_TMP/cache.json" \
        || { echo "bench-smoke: $key missing from cache.json" >&2; exit 1; }
done
echo "bench-smoke: OK"

# Adversarial-input gate: bounded-iteration run of every fuzz target
# (reader, compiler, serial state, serial delta) — any panic, abort, or
# hang is a finding — plus the downscaled scale bench with its JSON
# shape check.
FUZZ_ITERS="${FUZZ_ITERS:-2000}"
export FUZZ_ITERS
run make fuzz-smoke

run make scale-smoke

# GVM interpreter perf gate: smoke-mode gvm_perf, full vs GVM_OPT=off,
# with a deliberately loose minimum-speedup assertion (catches "fast
# paths wired off", not machine variance) and a JSON shape check.
run make gvm-smoke

# Store smoke: the production-day bench (cluster slice + the
# FileStore-vs-LogStore saves/sec replay) with its JSON shape check and
# the fsync-amortization assertion.
run make store-smoke

# Multi-process transport gate: real gozer-worker OS processes over the
# TCP transport, one genuine kill -9 + restart mid-stream, exact values
# required. cluster_smoke.sh traps EXIT/INT/TERM and reaps any orphaned
# worker processes, so a failed gate cannot leak children into CI.
run make cluster-smoke

# Task-level benchmark gate: all six BENCHMARK.json workloads in smoke
# mode. Its watchdog turns a wedged deployment into a failure, and the
# shape check catches a report that drifted from BENCHMARK.json.
run make taskbench-smoke

echo "ci: OK (chaos sweep width $CHAOS_SEEDS)"
