#!/bin/sh
# Run a set of tests N times beside two busy CPU hogs, and print
# passes/N. A schedule-dependent test shows up here long before it
# shows up as a one-in-sixty red tier-1 run.
#
#   make test-repeat TEST=<filter or suite file> N=20
#   sh scripts/test_repeat.sh <filter or suite file> [N]
#
# A TEST that names a suite file, crates/<crate>/tests/<suite>.rs, runs
# that test binary alone (cargo test -p <package> --test <suite>), e.g.
# TEST=crates/bluebox/tests/recovery.rs. Any other value is cargo's
# test-name substring filter, applied to every workspace test binary.
# Run i's output is kept in target/test-repeat/<i>.log; a failed run
# prints that path and the log's last 20 lines. Exits non-zero unless
# every run passed.
set -eu

cd "$(dirname "$0")/.."

TEST="${1:?usage: test_repeat.sh <filter or suite file> [N]}"
N="${2:-20}"
CARGO="${CARGO:-cargo}"
OFFLINE="${CARGO_OFFLINE:---offline}"

# The cargo arguments that select the tests: a suite binary, or the
# name filter after `--`.
case "$TEST" in
crates/*/tests/*.rs)
    [ -f "$TEST" ] || { echo "no such suite file: $TEST" >&2; exit 2; }
    manifest="${TEST%%/tests/*}/Cargo.toml"
    package=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    set -- -p "$package" --test "$(basename "$TEST" .rs)"
    ;;
*)
    set -- -- "$TEST"
    ;;
esac

"$CARGO" test -q $OFFLINE --no-run "$@"

sh -c 'while :; do :; done' &
HOG1=$!
sh -c 'while :; do :; done' &
HOG2=$!
trap 'kill $HOG1 $HOG2 2>/dev/null' EXIT INT TERM

LOGS=target/test-repeat
rm -rf "$LOGS"
mkdir -p "$LOGS"
passes=0
i=0
while [ "$i" -lt "$N" ]; do
    i=$((i + 1))
    log="$LOGS/$i.log"
    if "$CARGO" test -q $OFFLINE "$@" >"$log" 2>&1; then
        passes=$((passes + 1))
    else
        echo "run $i failed: $log"
        tail -n 20 "$log"
    fi
done
echo "$TEST: $passes/$N passed beside two CPU hogs"
[ "$passes" -eq "$N" ]
