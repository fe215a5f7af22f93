#!/usr/bin/env bash
# Every `pub fn` in crates/*/src (`pub const fn`, `pub async fn` and
# `pub unsafe fn` too) must be reached: its name appears as a word in the
# code of some file other than the ones that define it (under crates/,
# src/, examples/, tests/ or benchmark/src/), or it is listed in
# scripts/pub_reach_allow.txt as `name  reason`. An allow entry whose name
# is now reached, or no longer defined, is stale and fails too.
#
# Code means everything but `//` comments (doc comments included) and
# `use` / `pub use` statements (multi-line ones included): a name that
# only a comment or a re-export mentions is not reached. Words inside
# string literals still count.
#
# Limit: the check is by name only. An unrelated item of the same name
# counts as a mention, so a method that shares its name with another
# type's method counts as reached through the other's callers (a
# `Csr::spmv_par` beside `SpmvPlan::spmv_par` would pass unused).
# Narrowing a name to `pub(crate)` or private hands it to the compiler's
# `dead_code` lint instead.
#
# Usage: scripts/pub_reach_check.sh   (from anywhere; exits 1 on a failure)
set -euo pipefail
cd "$(dirname "$0")/.."
# `file name` for each definition, then `file word` for every word of code.
defs=$(grep -rHoE '^[[:space:]]*pub ((const|async|unsafe) )*fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    awk -F: '{ n = split($2, w, " "); print $1, w[n] }' | sort -u)
words=$(find crates src examples tests benchmark/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    # Cut the line at its first `//` outside a string literal. `str` carries
    # an open string across lines: 0 none, 1 plain "…", 2 raw r#"…"#
    # closed by `"` and `hashes` #s.
    function code(line,    i, n, c) {
        n = length(line)
        for (i = 1; i <= n; i++) {
            c = substr(line, i, 1)
            if (str == 1) {
                if (c == "\\") i++
                else if (c == "\"") str = 0
            } else if (str == 2) {
                if (c == "\"" && substr(line, i + 1, length(hashes)) == hashes) {
                    i += length(hashes)
                    str = 0
                }
            } else if (c == "/" && substr(line, i + 1, 1) == "/") {
                return substr(line, 1, i - 1)
            } else if (c == "\"") {
                str = 1
            } else if (c == "r" && substr(line, i - 1, 1) !~ /[A-Za-z0-9_]/ &&
                       match(substr(line, i + 1), /^#*"/)) {
                hashes = substr(line, i + 1, RLENGTH - 1)
                str = 2
                i += RLENGTH
            } else if (c == "\047" && match(substr(line, i), /^\047(\\.[^\047]*|")\047/)) {
                i += RLENGTH - 1
            }
        }
        return line
    }
    FNR == 1 { str = 0; in_use = 0 }
    {
        in_code = !str
        text = code($0)
        if (in_code && !in_use && text ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?use[[:space:]]/) in_use = 1
        if (in_use) {
            if (text ~ /;/) in_use = 0
            next
        }
        while (match(text, /[A-Za-z0-9_]+/)) {
            w = substr(text, RSTART, RLENGTH)
            text = substr(text, RSTART + RLENGTH)
            if (w ~ /^[A-Za-z_]/ && !((FILENAME, w) in seen)) {
                seen[FILENAME, w] = 1
                print FILENAME, w
            }
        }
    }' | sort -u)
allow=$(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' scripts/pub_reach_allow.txt | awk '{ print $1 }')
awk -v allow="$allow" '
    NR == FNR { defined[$2] = $1; home[$1, $2] = 1; next }
    ($2 in defined) && !(($1, $2) in home) { reached[$2] = 1 }
    END {
        n = split(allow, a, "\n")
        for (i = 1; i <= n; i++) listed[a[i]] = 1
        for (name in defined) {
            if (!(name in reached) && !(name in listed)) { print "unreached: " name " (" defined[name] ")"; bad = 1 }
            if ((name in reached) && (name in listed)) { print "stale allow entry (now reached): " name; bad = 1 }
        }
        for (name in listed)
            if (!(name in defined)) { print "stale allow entry (not defined): " name; bad = 1 }
        exit bad
    }
' <(echo "$defs") <(echo "$words") | sort
