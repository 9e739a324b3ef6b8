#!/bin/sh
# CI gate: release build, every test of every workspace member but
# `fuzz` with the chaos sweeps at 16 seeds, clippy, and the three smokes
# that run release binaries.
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

# Tier-1 at CI's sweep width: the root's default members are every crate
# but `fuzz`, so this is every suite — chaos, recovery, kill -9,
# full-vs-delta, profiler determinism, phases, obs, logstore, the GVM's.
# A failing seed prints its own replay command (CHAOS_SEEDS to widen).
CHAOS_SEEDS="${CHAOS_SEEDS:-16}"
export CHAOS_SEEDS
run "$CARGO" test -q $OFFLINE

# Lint gate: clippy over every crate and target. Warnings print but pass;
# a deny-level lint (e.g. `never_loop`) fails the build and with it CI.
run "$CARGO" clippy $OFFLINE --workspace --all-targets --no-deps

# Adversarial-input gate: bounded-iteration run of every fuzz target —
# any panic, abort, or hang is a finding (FUZZ_ITERS to widen).
run make fuzz-smoke

# Experiments gate: every paper experiment downscaled with its shape
# assertions on (including the GVM fast-path floor and the LogStore
# fsync/write counts), and every report's key set equal to its
# committed BENCH_*.json baseline. No timing thresholds.
run make experiments-smoke

# Task-level benchmark gate: all six BENCHMARK.json workloads in smoke
# mode. Its watchdog turns a wedged deployment into a failure, and the
# shape check catches a report that drifted from BENCHMARK.json.
run make taskbench-smoke

echo "ci: OK (chaos sweep width $CHAOS_SEEDS)"
