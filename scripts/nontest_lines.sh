#!/bin/sh
# Non-test lines per crate: each `src` file counted up to its first
# column-0 `#[cfg(test)]`, the measure the ROADMAP simplicity gates use.
#
#     scripts/nontest_lines.sh deductive ivm object
#
# Prints one `<crate> <lines>` row per crate (named by its directory
# under crates/) and a `total` row. Run from the repository root.
set -eu
[ "$#" -gt 0 ] || { echo "usage: $0 <crate>..." >&2; exit 2; }
total=0
for c in "$@"; do
    dir="crates/$c/src"
    [ -d "$dir" ] || { echo "$0: no such crate: $dir" >&2; exit 1; }
    n=$(find "$dir" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%s %s\n' "$c" "$n"
    total=$((total + n))
done
printf 'total %s\n' "$total"
