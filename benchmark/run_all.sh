#!/usr/bin/env bash
# Build the benchmark, check BENCHMARK.json against the tables in the
# binary, run every workload untraced and traced, then the self-check.
# Results land in benchmark/out/ (ignored by git).
#
#   benchmark/run_all.sh              # full: RUN_SECONDS=10 per run
#   RUN_SECONDS=5 benchmark/run_all.sh
#   SMOKE=1 benchmark/run_all.sh      # 10 passes per run, no self-check
set -euo pipefail
cd "$(dirname "$0")/.."

seconds="${RUN_SECONDS:-10}"
seed="${SEED:-1992}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/hpcc-benchmark"

"$bin" --describe | diff - BENCHMARK.json

smoke=()
if [ -n "${SMOKE:-}" ]; then smoke=(--smoke); fi

for w in $("$bin" --list); do
    for trace in 0 1; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${smoke[@]}" |
            sed '$d'    # the last line repeats the table as JSON
    done
done

if [ -z "${SMOKE:-}" ]; then
    "$bin" --selfcheck --seed "$seed" --seconds "$seconds"
fi
