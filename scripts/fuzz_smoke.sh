#!/bin/sh
# Fuzz smoke: run every fuzz target for a bounded number of iterations.
# Each target feeds its parser adversarial input (random bytes, mutated
# valid records, pathological shapes) and requires Err-or-value — any
# panic, abort, or hang is a finding and fails the gate.
#
# FUZZ_ITERS widens the sweep (default 2000 per target); FUZZ_SEED pins
# the base seed for replay; FUZZ_VERBOSE=1 prints per-case seeds.
set -eu

cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"
OFFLINE="${CARGO_OFFLINE:---offline}"
FUZZ_ITERS="${FUZZ_ITERS:-2000}"
export FUZZ_ITERS

# A wedged target is a finding too: bound each run's wall time.
# (POSIX sh has no built-in timeout; coreutils timeout is available.)
LIMIT="${FUZZ_TIMEOUT:-600}"

for target in reader compiler serial_state serial_delta log_replay frame_decode bytecode; do
    echo "+ fuzz $target ($FUZZ_ITERS iterations)"
    timeout "$LIMIT" "$CARGO" run --release $OFFLINE -q -p gozer-fuzz --bin "$target" \
        || { echo "fuzz-smoke: $target FAILED (panic, abort, or ${LIMIT}s hang)" >&2; exit 1; }
done

echo "fuzz-smoke: OK ($FUZZ_ITERS iterations x 7 targets, 0 findings)"
