#!/usr/bin/env bash
# Every `pub fn` in crates/*/src (`pub const fn`, `pub async fn` and
# `pub unsafe fn` too) must be reached: its name appears as a word in some
# file other than the ones that define it (under crates/, src/, examples/,
# tests/ or benchmark/src/), or it is listed in scripts/pub_reach_allow.txt
# as `name  reason`. An allow entry whose name is now reached, or no longer
# defined, is stale and fails too.
#
# Limit: the check is by name only. A mention in another file's comment or
# doc counts as reached, and so does an unrelated item of the same name.
# Narrowing a name to `pub(crate)` or private hands it to the compiler's
# `dead_code` lint instead.
#
# Usage: scripts/pub_reach_check.sh   (from anywhere; exits 1 on a failure)
set -euo pipefail
cd "$(dirname "$0")/.."
# `file name` for each definition, then `file word` for every word.
defs=$(grep -rHoE '^[[:space:]]*pub ((const|async|unsafe) )*fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
    awk -F: '{ n = split($2, w, " "); print $1, w[n] }' | sort -u)
words=$(grep -rHowE '[A-Za-z_][A-Za-z0-9_]*' --include='*.rs' \
    crates src examples tests benchmark/src | awk -F: '{ print $1, $2 }' | sort -u)
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
