#!/bin/sh
# Print the strict line count of the engine's sources, per crate and in
# total: lines of the .rs files under crates/*/src that are not blank,
# not a `//` comment and not inside a `#[cfg(test)]` item. crates/shims
# (stand-ins for outside crates) is left out.
#
#   sh scripts/strict_count.sh [repo-root]
#
# A `#[cfg(test)]` item runs from the attribute to the line where its
# braces balance again. Braces are counted as characters, in string
# literals and comments too: that is the rule every strict count in
# ROADMAP.md and CHANGES.md was taken with, so this script reproduces
# them.
set -eu

cd "${1:-$(dirname "$0")/..}"

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
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
