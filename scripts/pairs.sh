#!/usr/bin/env bash
# Ten alternating pairs of two revisions on one benchmark workload: the
# protocol every perf PR's numbers come from (ROADMAP item 1b).
#
#   scripts/pairs.sh <rev-a> <rev-b> <workload> [seed] [pairs] [seconds] [--layers <metric>[,<metric>...]]
#   scripts/pairs.sh HEAD . kernels                # parent against the working tree
#   scripts/pairs.sh HEAD~1 HEAD mesh_halo 424242 10 10
#   scripts/pairs.sh HEAD~1 HEAD telemetry_live 1992 10 10 --layers trace.http.chunk_s,trace.http.scrape_s
#
# A revision is anything `git rev-parse` takes; `.` is the working tree
# as `git stash create` sees it (tracked and staged files, so `git add`
# new ones first). Each revision is exported once to
# target/pairs/<key>/tree and built into its own target/pairs/<key>/target,
# <key> hashing the trees of what the benchmark build reads (benchmark/,
# crates/, vendor/ and the root Cargo.toml), so a revision that differs
# from a built one only elsewhere (Markdown, say) reuses its build.
# Each side then runs from its tree with BENCHMARK.json's `command`
# (its `run_seconds` by default). Which side goes first
# alternates pair by pair. Prints every run, each side's median and
# quartiles and the median and quartiles of the per-pair ratio b/a (its
# `b/a` row) of every metric, then, for each end-to-end metric, how many
# pairs have a b/a worse than its `bound` in BENCHMARK.json (so a
# breach on a workload the change does not touch shows in the pairs),
# and how many pairs <rev-b> won on the first metric; a
# gain is claimed only at wins >= 9/10 and medians further apart than
# <rev-a>'s inter-quartile distance. The summary line ends
# `digests: equal` when
# every run's result_digest is side a's first one, and
# `digests: DIFFER (a <hex>, <side> <hex>)` naming the first run that
# is not. With --layers the pairs are traced runs
# (`--trace 1`, which reports BENCHMARK.json's per-layer metrics and not
# the end-to-end ones): the named metrics take the place of the four
# end-to-end columns and the wins (lower wins) are counted on the first
# one named - where a saving went, after a first table showed there is one.
# Run it with nothing else going on the host.
set -euo pipefail
cd "$(dirname "$0")/.."

metrics=(wall_s setup_s peak_rss_mb allocs_per_pass) trace=0
if [ $# -ge 2 ] && [ "${*: -2:1}" = --layers ]; then
    IFS=, read -ra metrics <<<"${*: -1}"
    trace=1
    set -- "${@:1:$#-2}"
fi
if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    echo "usage: $0 <rev-a> <rev-b> <workload> [seed] [pairs] [seconds] [--layers <metric>[,<metric>...]]" >&2
    exit 2
fi
workload=$3
seed=${4:-1992}
pairs=${5:-10}
seconds=${6:-$(jq -r .run_seconds BENCHMARK.json)}
# A row is: pair, side, the metrics, ops_failed, result_digest.
failed_col=$((${#metrics[@]} + 3))

resolve() {
    local rev=$1
    if [ "$rev" = . ]; then
        rev=$(git stash create)
        rev=${rev:-HEAD} # a clean tree has nothing to stash
    fi
    git rev-parse --verify --quiet "$rev^{commit}"
}

# Export and build one revision; leaves its directory in $dir, named by
# the build inputs' trees so that unchanged inputs are exported and built
# once.
prepare() {
    local key
    key=$(git rev-parse "$1:benchmark" "$1:crates" "$1:vendor" "$1:Cargo.toml" |
        git hash-object --stdin)
    dir=$PWD/target/pairs/$key
    if [ ! -d "$dir/tree" ]; then
        mkdir -p "$dir/tree"
        git archive "$1" | tar -x -C "$dir/tree"
    fi
    (cd "$dir/tree" && CARGO_TARGET_DIR=$dir/target \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
}

# One run of the driver's command from side $1's tree $2 (a run that
# fails its own verification exits non-zero and stops the script);
# prints the row and appends it to $rows.
run() {
    (cd "$2/tree" && CARGO_TARGET_DIR=$2/target \
        cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace") |
        awk -v OFS='\t' -v side="$1" -v pair="$3" -v names="${metrics[*]}" '{ m[$1] = $2 }
            END { row = pair OFS side
                  n = split(names, name, " ")
                  for (i = 1; i <= n; i++) row = row OFS m[name[i]]
                  print row, m["ops_failed"], m["result_digest"] }' |
        tee -a "$rows"
}

# Lower quartile, median and upper quartile (linear interpolation
# between order statistics) of the numbers on stdin, one a line.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, lo) { h = 1 + p * (NR - 1); lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.6g\t%.6g\t%.6g", q(0.25), q(0.5), q(0.75) }'
}

# Median and quartiles of column $2 over side $1's rows.
summary() {
    awk -F'\t' -v side="$1" -v col="$2" '$2 == side { print $col }' "$rows" | quartiles
}

# The per-pair ratios b/a of column $1, one a line. The host drifts
# between fast and slow phases for minutes at a time; both runs of a pair
# share a phase, so the ratio does not mix phases the way each side's
# own median does.
ratios() {
    awk -F'\t' -v col="$1" '$2 == "a" { a[$1] = $col } $2 == "b" { b[$1] = $col }
        END { for (p in a) if ((p in b) && a[p] > 0) print b[p] / a[p] }' "$rows"
}

sha_a=$(resolve "$1")
sha_b=$(resolve "$2")
prepare "$sha_a" && dir_a=$dir
prepare "$sha_b" && dir_b=$dir
rows=$(mktemp)
trap 'rm -f "$rows"' EXIT

echo "a = $1 ($sha_a)   b = $2 ($sha_b)"
echo "workload $workload  seed $seed  pairs $pairs  seconds $seconds  host $(nproc) cpu  $(date -u +%F)"
printf 'pair\tside\t%s\tops_failed\tresult_digest\n' "$(IFS=$'\t'; echo "${metrics[*]}")"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run a "$dir_a" "$pair"
        run b "$dir_b" "$pair"
    else
        run b "$dir_b" "$pair"
        run a "$dir_a" "$pair"
    fi
done

printf '\nmetric\tside\tq1\tmedian\tq3\n'
for i in "${!metrics[@]}"; do
    for side in a b; do
        printf '%s\t%s\t%s\n' "${metrics[$i]}" "$side" "$(summary "$side" $((i + 3)))"
    done
    printf '%s\tb/a\t%s\n' "${metrics[$i]}" "$(ratios $((i + 3)) | quartiles)"
done
[ "$trace" = 1 ] || printf '\nmetric\tbound\tpairs beyond it\n'
for i in "${!metrics[@]}"; do
    spec=$(jq -r --arg m "${metrics[$i]}" \
        '.end_to_end[] | select(.name == $m) | "\(.bound) \(.better)"' BENCHMARK.json)
    [ -n "$spec" ] || continue # a per-layer metric has no bound
    read -r bound better <<<"$spec"
    ratios $((i + 3)) | awk -v m="${metrics[$i]}" -v bound="$bound" -v better="$better" '
        { n++; if (better == "lower" ? $1 > 1 + bound : $1 < 1 - bound) k++ }
        END { printf "%s\t%s\t%d of %d\n", m, bound, k, n }'
done
awk -F'\t' -v first="${metrics[0]}" -v failed_col="$failed_col" '
    $2 == "a" { a[$1] = $3 } $2 == "b" { b[$1] = $3 } { failed[$2] += $failed_col }
    { digest = $(failed_col + 1); gsub(/"/, "", digest) }
    $2 == "a" && ref == "" { ref = digest }
    { side[NR] = $2; dig[NR] = digest }
    END { for (p in a) { n++; if (b[p] < a[p]) wins++; else if (b[p] == a[p]) ties++ }
          digests = "equal"
          for (i = 1; i <= NR; i++)
              if (dig[i] != ref) { digests = "DIFFER (a " ref ", " side[i] " " dig[i] ")"; break }
          printf "\n%s: b wins %d of %d pairs (%d ties)   ops_failed a %d  b %d   digests: %s\n",
                 first, wins, n, ties, failed["a"], failed["b"], digests }' "$rows"
