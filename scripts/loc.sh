#!/usr/bin/env bash
# Non-test line count of the workspace crates, for simplicity claims: for
# every crates/*/src/**/*.rs file, the lines above its first column-0
# `#[cfg(test)]`, or the whole file when there is none. Blank lines and
# comments count. Prints one row per crate (package name) and a total,
# then the prose: one row per top-level *.md file and a Markdown total.
#
# Usage: scripts/loc.sh   (from anywhere; report only, always exits 0)
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }')
    printf '%-14s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
md=0
for f in *.md; do
    n=$(wc -l <"$f")
    printf '%-14s %6d\n' "$f" "$n"
    md=$((md + n))
done
printf '%-14s %6d\n' markdown "$md"
