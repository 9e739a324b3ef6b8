#!/bin/sh
# Experiments smoke gate: every paper experiment at smoke size (each one
# asserts its own shape: fig1's >= 2x delta saving, sec5-day's fsync and
# write counts, gvm's 1.3x floor, sec31's full completion, ...), then
# each report must carry exactly the "key": names of the committed
# BENCH_*.json baseline of the same name, and every baseline must have
# been produced. Shape only, no timing thresholds.
set -eu

cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"
OFFLINE="${CARGO_OFFLINE:---offline}"

OUT="${TMPDIR:-/tmp}/gozer-experiments-smoke.$$"
mkdir -p "$OUT"
trap 'rm -rf "$OUT"' EXIT

echo "+ experiments all --smoke --out $OUT"
"$CARGO" run --release $OFFLINE -q -p gozer-bench -- all --smoke --out "$OUT"

keys() { grep -o '"[^"]*":' "$1" | sort -u; }

for report in "$OUT"/BENCH_*.json; do
    [ -f "$(basename "$report")" ] \
        || { echo "experiments-smoke: no committed $(basename "$report")" >&2; exit 1; }
done
for baseline in BENCH_*.json; do
    [ -f "$OUT/$baseline" ] \
        || { echo "experiments-smoke: no experiment wrote $baseline" >&2; exit 1; }
    keys "$baseline" > "$OUT/committed.keys"
    keys "$OUT/$baseline" > "$OUT/smoke.keys"
    diff "$OUT/committed.keys" "$OUT/smoke.keys" >&2 || {
        echo "experiments-smoke: $baseline key set differs (< committed, > smoke)" >&2
        exit 1
    }
done

echo "experiments-smoke: OK"
