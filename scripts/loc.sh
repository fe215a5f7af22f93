#!/usr/bin/env bash
# Non-test line count of the workspace crates, for simplicity claims: for
# every crates/*/src/**/*.rs file, the lines above its first column-0
# `#[cfg(test)]`, or the whole file when there is none. Blank lines and
# comments count. Prints one row per crate (package name) and a total,
# then the prose: one row per top-level *.md file and a Markdown total.
# The `panics` column counts the library panic sites in those same lines:
# each `unwrap()`, `expect(` and `panic!(`.
#
# Usage: scripts/loc.sh   (from anywhere; report only, always exits 0)
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
panics=0
printf '%-14s %6s %6s\n' crate lines panics
for dir in crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
    read -r n p < <(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++; line = $0; p += gsub(/unwrap\(\)|expect\(|panic!\(/, "", line) }
        END { print n + 0, p + 0 }')
    printf '%-14s %6d %6d\n' "$name" "$n" "$p"
    total=$((total + n))
    panics=$((panics + p))
done
printf '%-14s %6d %6d\n' total "$total" "$panics"
md=0
for f in *.md; do
    n=$(wc -l <"$f")
    printf '%-14s %6d\n' "$f" "$n"
    md=$((md + n))
done
printf '%-14s %6d\n' markdown "$md"
