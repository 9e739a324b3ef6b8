#!/bin/sh
# A/B timing of this tree against a parent revision on the task-level
# benchmark (BENCHMARK.json), in interleaved pairs, with the parent run
# against itself beside it (A/A) as the noise floor:
#
#   sh scripts/ab.sh <parent-rev> [pairs] [seconds]
#
# It exports <parent-rev> with `git archive` under target/ab/, builds
# that tree's taskbench into target/ab/parent and this tree's into
# target/ab/change, then runs every workload (WORKLOADS="a b" picks
# some) `pairs` times per side (default 3) for `seconds` each (default
# 3) with `--seed 7 --trace 0`, the benchmark's own mode. Each pair is three
# runs: the parent, this tree, and the parent binary once more (`aa`),
# in an order that rotates from pair to pair so that no side always
# runs first. The runs work in target/ab/run/, since taskbench writes
# .bench_tmp/ and .bench_out/ into its working directory.
#
# Around each run it reads the host's steal ticks (the `cpu` line of
# /proc/stat, all CPUs) and the process's user + system CPU (the
# shell's `times`). It prints, per end-to-end metric x workload:
#   - the median of the parent and of this tree, and change/parent;
#   - the A/A spread: the largest |aa/parent - 1| over the pairs, how
#     far two runs of the same binary fell apart within one pair;
#   - the pairs each side won (the better of the pair's two values by
#     the metric's `better` in BENCHMARK.json; a tie wins nothing, a
#     run without the figure loses);
#   - a verdict: `better` or `worse` when |change/parent - 1| exceeds
#     the A/A spread, else `unresolved` (the host moved two runs of one
#     binary as far as the change moved this one).
# Then per workload the median CPU per attempted task of each side; then
# every run whose steal share was above 10 % of the host's ticks. A slow
# run beside high steal is the host taking the shared hardware thread,
# not the program. The raw runs stay in target/ab/runs.tsv.
#
# The exported tree is removed when the script ends, however it ends.
set -eu

cd "$(dirname "$0")/.."

usage() {
    echo "usage: sh scripts/ab.sh <parent-rev> [pairs] [seconds]" >&2
    exit 2
}

[ $# -ge 1 ] && [ $# -le 3 ] || usage
REV=$1
PAIRS=${2:-3}
SECONDS_PER_RUN=${3:-3}
case "$PAIRS" in '' | *[!0-9]* | 0) usage ;; esac
case "$SECONDS_PER_RUN" in '' | *[!0-9.]*) usage ;; esac

CARGO="${CARGO:-cargo}"
AB="$(pwd)/target/ab"
SRC="$AB/src-parent"
RUNS="$AB/runs.tsv"

# Workloads and the end-to-end metrics with their `better`, as
# BENCHMARK.json declares them (one name per line there).
bench_list() {
    awk -v block="$1" '
        $0 ~ "\"" block "\"" { inside = 1; next }
        inside && /^  \]/ { inside = 0 }
        inside && /"name"/ { gsub(/[",]/, "", $2); name = $2; if (block == "workloads") print name }
        inside && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
    ' BENCHMARK.json
}
WORKLOADS="${WORKLOADS:-$(bench_list workloads)}"
METRICS="$(bench_list end_to_end | tr '\n' ' ')"

cleanup() {
    rm -rf "$SRC"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$AB/run"
rm -rf "$SRC"
mkdir -p "$SRC"
git archive "$REV" | tar -x -C "$SRC"

build() {
    echo "ab: building $1 taskbench from $2" >&2
    "$CARGO" build --release --offline --quiet \
        --manifest-path "$2/taskbench/Cargo.toml" --target-dir "$AB/$1"
}
build parent "$SRC"
build change "$(pwd)"

# Steal and all ticks of the host so far: `steal total`.
host_ticks() {
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

# The CPU, in microseconds, the shell's children spent between two
# `times` outputs (user + system; line 2 of each). `times` runs in this
# shell, never in a pipe or `$(..)`: a forked shell starts at zero.
cpu_between() {
    awk 'FNR == 2 {
        for (i = 1; i <= 2; i++) { split($i, t, /[ms]/); us[FILENAME] += (t[1] * 60 + t[2]) * 1e6 }
    }
    END { printf "%.0f\n", us[ARGV[2]] - us[ARGV[1]] }' "$1" "$2"
}

# One run: appends `workload pair side steal cpu_us_per_task metrics...`
# to $RUNS (`-` where a run gave no figure). Side `aa` is the parent's
# binary again.
run_one() {
    workload=$1 pair=$2 side=$3
    bin=$side
    [ "$side" = aa ] && bin=parent
    set -- $(host_ticks)
    steal0=$1 total0=$2
    times >"$AB/times.0"
    line=$(cd "$AB/run" && "$AB/$bin/release/taskbench" --workload "$workload" \
        --seed 7 --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1) || true
    times >"$AB/times.1"
    set -- $(host_ticks)
    steal1=$1 total1=$2
    echo "$line" | awk -v w="$workload" -v p="$pair" -v s="$side" \
        -v st="$((steal1 - steal0))" -v tt="$((total1 - total0))" \
        -v cpu="$(cpu_between "$AB/times.0" "$AB/times.1")" -v metrics="$METRICS" '
        function num(key,    rest) {
            if (!match($0, "\"" key "\":\\{\"value\":[-0-9.eE+]+")) return "-"
            rest = substr($0, RSTART, RLENGTH)
            sub(/.*:/, "", rest)
            return rest
        }
        {
            attempted = match($0, /"attempted":[0-9]+/) ? substr($0, RSTART + 12, RLENGTH - 12) : 0
            printf "%s\t%d\t%s\t%.4f\t%s", w, p, s, (tt > 0 ? st / tt : 0),
                (attempted > 0 ? sprintf("%.0f", cpu / attempted) : "-")
            n = split(metrics, m, / +/)
            for (i = 1; i < n; i += 2) printf "\t%s=%s", m[i], num(m[i])
            printf "\n"
        }' >>"$RUNS"
}

: >"$RUNS"
for workload in $WORKLOADS; do
    pair=1
    while [ "$pair" -le "$PAIRS" ]; do
        case $((pair % 3)) in
        1) order="parent change aa" ;;
        2) order="change aa parent" ;;
        *) order="aa parent change" ;;
        esac
        for side in $order; do
            echo "ab: $workload pair $pair/$PAIRS $side" >&2
            run_one "$workload" "$pair" "$side"
        done
        pair=$((pair + 1))
    done
done

awk -F '\t' -v metrics="$METRICS" -v rev="$REV" -v pairs="$PAIRS" -v secs="$SECONDS_PER_RUN" '
    function median(list,    v, n, i, j, t) {
        n = split(list, v, " ")
        if (n == 0) return "-"
        for (i = 2; i <= n; i++) {
            t = v[i] + 0
            for (j = i - 1; j >= 1 && v[j] + 0 > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    }
    function add(key, x) { vals[key] = (key in vals) ? vals[key] " " x : x }
    {
        w = $1; p = $2; side = $3
        if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
        steal[NR] = $4; who[NR] = w " pair " p " " side
        if ($5 != "-") add(w SUBSEP "cpu" SUBSEP side, $5)
        for (i = 6; i <= NF; i++) {
            split($i, kv, "=")
            got[w, kv[1], p, side] = kv[2]
            if (kv[2] != "-") add(w SUBSEP kv[1] SUBSEP side, kv[2])
        }
    }
    END {
        nm = split(metrics, m, / +/)
        printf "ab: %s vs this tree, %d pairs x %s s per workload, seed 7\n", rev, pairs, secs
        printf "a/a: largest |aa/parent - 1| over the pairs; unresolved unless |ratio - 1| exceeds it\n\n"
        printf "%-14s %-12s %12s %12s %8s %8s %6s %6s  %s\n", "workload", "metric", "parent", "change", "ratio",
            "a/a", "won-p", "won-c", "verdict"
        for (k = 1; k <= nw; k++) {
            w = order[k]
            for (i = 1; i < nm; i += 2) {
                name = m[i]; better = m[i + 1]
                mp = median(vals[w SUBSEP name SUBSEP "parent"])
                mc = median(vals[w SUBSEP name SUBSEP "change"])
                wp = wc = 0
                spread = "-"
                for (p = 1; p <= pairs; p++) {
                    a = got[w, name, p, "parent"]; b = got[w, name, p, "change"]
                    aa = got[w, name, p, "aa"]
                    if (a != "-" && aa != "-" && a != "" && aa != "" && a + 0 != 0) {
                        d = aa / a - 1; if (d < 0) d = -d
                        if (spread == "-" || d > spread) spread = d
                    }
                    if (a == "-" && b == "-") continue
                    if (a == "-") { wc++; continue }
                    if (b == "-") { wp++; continue }
                    if (a + 0 == b + 0) continue
                    if ((better == "higher") == (b + 0 > a + 0)) wc++; else wp++
                }
                ratio = (mp != "-" && mc != "-" && mp + 0 != 0) ? sprintf("%.3f", mc / mp) : "-"
                verdict = "unresolved"
                if (ratio != "-" && spread != "-") {
                    d = ratio - 1; if (d < 0) d = -d
                    if (d > spread) verdict = ((better == "higher") == (ratio + 0 > 1)) ? "better" : "worse"
                }
                printf "%-14s %-12s %12s %12s %8s %8s %6d %6d  %s\n", w, name, mp, mc, ratio,
                    (spread == "-" ? "-" : sprintf("%.3f", spread)), wp, wc, verdict
            }
        }
        printf "\n%-14s %18s %18s\n", "workload", "parent cpu_us/task", "change cpu_us/task"
        for (k = 1; k <= nw; k++) {
            w = order[k]
            printf "%-14s %18s %18s\n", w, median(vals[w SUBSEP "cpu" SUBSEP "parent"]),
                median(vals[w SUBSEP "cpu" SUBSEP "change"])
        }
        printf "\nruns with host steal above 10%%:\n"
        flagged = 0
        for (r = 1; r <= NR; r++) if (steal[r] > 0.10) {
            printf "  %s: steal %.1f%%\n", who[r], 100 * steal[r]
            flagged++
        }
        if (!flagged) printf "  none\n"
    }
' "$RUNS"
