#!/usr/bin/env bash
# Regenerate `report all` and diff it against the committed
# report_all.txt. Every exhibit `report all` runs is a function of its
# seeds and the models alone (the host-timed ones run only by name), so
# a change meant to keep results must keep these bytes.
#
#   scripts/report_all_check.sh        # builds the report binary; ~1.5 min of exhibits
#
# The output is left in target/report_all.txt. A change that moves an
# exhibit on purpose regenerates the committed file with
# `report all > report_all.txt`.
set -euo pipefail
cd "$(dirname "$0")/.."
unset HPCC_FAULT_SEED

mkdir -p target
cargo run --release --quiet -p hpcc-bench --bin report -- all > target/report_all.txt

if diff -u report_all.txt target/report_all.txt; then
    echo "report all: identical to report_all.txt"
else
    echo "report all: differs from report_all.txt" >&2
    exit 1
fi
