#!/bin/sh
# Store smoke: the §5 production-day bench with BENCH_SMOKE=1 (slice and
# store-replay populations shrunk so it finishes in seconds), then a
# shape check on the JSON report — the same fields as the committed
# BENCH_store.json baseline. Shape only, no perf gating: CI machines are
# too noisy to assert the LogStore speedup factor here (the committed
# baseline records it from a quiet machine).
set -eu

cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"
OFFLINE="${CARGO_OFFLINE:---offline}"

OUT="${TMPDIR:-/tmp}/gozer-store-smoke.$$.json"
trap 'rm -f "$OUT"' EXIT

echo "+ production-day bench (smoke)"
env BENCH_SMOKE=1 GOZER_PROFILE=0 "$CARGO" run --release $OFFLINE -q -p gozer-bench \
    --bin sec5_production_day -- --json "$OUT"

for key in '"slice"' '"tasks"' '"completed"' '"persists"' \
           '"store"' '"file_saves_per_sec"' '"log_saves_per_sec"' '"speedup"' \
           '"file_fsyncs"' '"log_fsyncs"' '"log_writes"' '"log_group_commits"' \
           '"log_bytes"'; do
    grep -q "$key" "$OUT" \
        || { echo "store-smoke: $key missing from store report" >&2; exit 1; }
done

# The one perf-adjacent fact stable enough to gate: group commit must
# actually amortize — strictly fewer fsyncs than saves.
log_fsyncs=$(sed -n 's/.*"log_fsyncs": \([0-9]*\).*/\1/p' "$OUT")
file_fsyncs=$(sed -n 's/.*"file_fsyncs": \([0-9]*\).*/\1/p' "$OUT")
[ -n "$log_fsyncs" ] && [ -n "$file_fsyncs" ] && [ "$log_fsyncs" -lt "$file_fsyncs" ] \
    || { echo "store-smoke: group commit did not amortize fsyncs ($log_fsyncs vs $file_fsyncs)" >&2; exit 1; }

# And a group must reach the kernel as one append, not one per record:
# each write is followed by the fsync of its group or of the segment a
# rotation closed, so writes never outnumber fsyncs (this bench never
# compacts; its fsyncs are group commits + rotations). A count, the same
# on any machine.
log_writes=$(sed -n 's/.*"log_writes": \([0-9]*\).*/\1/p' "$OUT")
[ -n "$log_writes" ] && [ "$log_writes" -le "$log_fsyncs" ] \
    || { echo "store-smoke: a group commit is not one write ($log_writes writes, $log_fsyncs fsyncs)" >&2; exit 1; }

echo "store-smoke: OK"
