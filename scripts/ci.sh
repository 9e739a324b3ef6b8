#!/bin/sh
# CI gate: release build, every test of every workspace member but
# `fuzz` with the chaos sweeps at 16 seeds (the paper's experiments at
# smoke size among them), the GVM's tests unfused, clippy, rustdoc, and
# the two smokes that run release binaries.
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
# full-vs-delta, profiler determinism, phases, obs, logstore, the GVM's,
# and every paper experiment downscaled with its shape assertions on and
# its report's key set checked against the committed BENCH_*.json.
# A failing seed prints its own replay command (CHAOS_SEEDS to widen).
CHAOS_SEEDS="${CHAOS_SEEDS:-16}"
export CHAOS_SEEDS
run "$CARGO" test -q $OFFLINE

# The GVM's suites once more with fusion off (read at run time, so no
# rebuild): every fast path must hold on unfused bytecode too.
run env GVM_OPT=nofuse "$CARGO" test -q $OFFLINE -p gozer-vm

# Lint gate: clippy over every crate and target, held to zero warnings.
run "$CARGO" clippy $OFFLINE --workspace --all-targets --no-deps -- -D warnings

# Doc gate: every crate's rustdoc, held to zero warnings, so a doc link
# to a deleted or private item fails here.
run env RUSTDOCFLAGS="-D warnings" "$CARGO" doc $OFFLINE --no-deps --workspace

# Adversarial-input gate: bounded-iteration run of every fuzz target —
# any panic, abort, or hang is a finding (FUZZ_ITERS to widen).
run make fuzz-smoke

# Task-level benchmark gate: all six BENCHMARK.json workloads in smoke
# mode. Its watchdog turns a wedged deployment into a failure, and the
# shape check catches a report that drifted from BENCHMARK.json.
run make taskbench-smoke

echo "ci: OK (chaos sweep width $CHAOS_SEEDS)"
