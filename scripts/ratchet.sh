#!/bin/sh
# The counts ROADMAP.md tracks, one `name value` line each:
#
#   strict.<crate>   strict line count of one crate's sources
#   strict           their total
#   rustfmt_hunks    diff hunks `cargo fmt --all --check` reports
#   sleep_in_suites  lines calling `thread::sleep` in the integration
#                    suites (crates/*/tests/*.rs and tests/*.rs)
#   instant_now_src  lines reading `Instant::now` in the bluebox, vinz
#                    and obs sources
#   config_fields    pub fields of `VinzConfig` (crates/vinz/src/service.rs)
#   format_in_host   lines calling `format!` in crates/vinz/src/host.rs
#   string_id_fields `String` / `Option<String>` fields named task,
#                    fiber, child, parent or target in
#                    crates/obs/src/event.rs
#
#   sh scripts/ratchet.sh           print every count
#   sh scripts/ratchet.sh --check   also compare them with RATCHET
#
# RATCHET, at the repository root, holds the last value of each count
# it names (`#` starts a comment line). --check fails when a count is
# above its line there. A change that lowers a count lowers its line;
# one that raises a count has to raise its line, and that edit is what
# review sees.
#
# The strict count is the lines of the .rs files under crates/*/src
# that are not blank, not a `//` comment and not inside a `#[cfg(test)]`
# item; crates/shims (stand-ins for outside crates) is left out. A
# `#[cfg(test)]` item runs from the attribute to the line where its
# braces balance again. Braces are counted as characters, in string
# literals and comments too: that is the rule every strict count in
# ROADMAP.md and CHANGES.md was taken with.
set -eu

cd "$(dirname "$0")/.."

CARGO="${CARGO:-cargo}"

counts() {
    total=0
    for dir in crates/*/src; do
        crate=$(basename "$(dirname "$dir")")
        [ "$crate" = shims ] && continue
        n=$(find "$dir" -name '*.rs' -exec awk '
            FNR == 1 { skip = 0 }
            skip {
                depth += gsub(/\{/, "{") - gsub(/\}/, "}")
                if (depth > 0) opened = 1
                if (opened && depth <= 0) skip = 0
                next
            }
            /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
            /^[ \t]*$/ || /^[ \t]*\/\// { next }
            { count++ }
            END { print count + 0 }
        ' {} + | awk '{ s += $1 } END { print s + 0 }')
        echo "strict.$crate $n"
        total=$((total + n))
    done
    echo "strict $total"
    echo "rustfmt_hunks $("$CARGO" fmt --all --check 2>/dev/null | grep -c '^Diff in' || true)"
    echo "sleep_in_suites $(cat crates/*/tests/*.rs tests/*.rs | grep -c 'thread::sleep' || true)"
    echo "instant_now_src $(find crates/bluebox/src crates/vinz/src crates/obs/src -name '*.rs' \
        -exec cat {} + | grep -c 'Instant::now' || true)"
    echo "config_fields $(awk '
        /^pub struct VinzConfig \{/ { inside = 1; next }
        inside && /^\}/ { inside = 0 }
        inside && /^[ \t]*pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }
    ' crates/vinz/src/service.rs)"
    echo "format_in_host $(grep -c 'format!' crates/vinz/src/host.rs || true)"
    echo "string_id_fields $(grep -cE \
        '^[ \t]*(pub[ \t]+)?(task|fiber|child|parent|target)[ \t]*:[ \t]*(Option<String>|String)[ \t]*,' \
        crates/obs/src/event.rs || true)"
}

case "${1:-}" in
"")
    counts
    ;;
--check)
    counts | awk '
        NR == FNR { if (NF && $1 !~ /^#/) limit[$1] = $2; next }
        { print; if ($1 in limit) seen[$1] = $2 }
        END {
            bad = 0
            for (name in limit) {
                if (!(name in seen)) {
                    printf "ratchet: RATCHET names %s, which is not counted\n", name
                    bad = 1
                } else if (seen[name] + 0 > limit[name] + 0) {
                    printf "ratchet: %s is %d, above its line of %d in RATCHET\n", name, seen[name], limit[name]
                    bad = 1
                } else if (seen[name] + 0 < limit[name] + 0) {
                    printf "ratchet: %s fell to %d; lower its line in RATCHET from %d\n", name, seen[name], limit[name]
                }
            }
            exit bad
        }
    ' RATCHET -
    ;;
*)
    echo "usage: sh scripts/ratchet.sh [--check]" >&2
    exit 2
    ;;
esac
