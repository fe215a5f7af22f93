#!/usr/bin/env bash
# Regenerate `report all` and diff it against the committed
# report_all.txt, minus the `=== grand-challenges ===` section: GC-1
# times real kernels on the host, so its columns and thread count move
# from run to run. Every other exhibit is a function of its seeds and
# the models alone, so a change meant to keep results must keep those
# bytes.
#
#   scripts/report_all_check.sh        # builds the report binary; ~1.5 min of exhibits
#
# The output is left in target/report_all.txt. A change that moves an
# exhibit on purpose regenerates the committed file with
# `report all --out report_all.txt`.
set -euo pipefail
cd "$(dirname "$0")/.."
unset HPCC_FAULT_SEED

mkdir -p target
cargo run --release --quiet -p hpcc-bench --bin report -- all --out target/report_all.txt >/dev/null

without_gc() { awk '/^=== /{ skip = ($0 == "=== grand-challenges ===") } !skip' "$1"; }
if diff -u <(without_gc report_all.txt) <(without_gc target/report_all.txt); then
    echo "report all: identical to report_all.txt outside grand-challenges"
else
    echo "report all: differs from report_all.txt outside grand-challenges" >&2
    exit 1
fi
