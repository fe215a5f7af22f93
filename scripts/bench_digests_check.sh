#!/usr/bin/env bash
# Check the result digests in a log of `benchmark/run_all.sh` against
# scripts/bench_digests.txt: every pinned workload must have run at the
# pinned seed twice, untraced and traced, printing its pinned digest
# both times. Workloads the file does not pin are ignored.
#
#   mkdir -p target
#   set -o pipefail; SMOKE=1 benchmark/run_all.sh | tee target/bench_smoke.txt
#   scripts/bench_digests_check.sh target/bench_smoke.txt
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 <benchmark/run_all.sh log>" >&2
    exit 2
fi

awk '
    FNR == NR {
        if ($1 == "seed") seed = $2
        else if ($0 !~ /^#/ && NF == 2) { pin[$1] = $2; order[++n] = $1 }
        next
    }
    $1 == "workload" { w = $2; s = $4 }
    $1 == "result_digest" && w in pin {
        d = $2
        gsub(/"/, "", d)
        runs[w]++
        if (s != seed || d != pin[w]) bad[w] = bad[w] sprintf("; seed %s printed %s", s, d)
    }
    END {
        fail = 0
        for (i = 1; i <= n; i++) {
            w = order[i]
            if (runs[w] != 2 || w in bad) {
                printf "%-13s %s: FAIL, %d runs (want untraced and traced at seed %s)%s\n", w, pin[w], runs[w], seed, bad[w]
                fail = 1
            } else {
                printf "%-13s %s: untraced and traced match\n", w, pin[w]
            }
        }
        if (n == 0) { print "no pinned digests read"; fail = 1 }
        exit fail
    }
' "$(dirname "$0")/bench_digests.txt" "$1"
