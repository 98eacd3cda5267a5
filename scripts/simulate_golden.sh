#!/usr/bin/env bash
# Prints the three `simulate` runs that results/simulate.txt holds: the
# default mix; a Loads+3xStores run with --metrics, its stderr ledger
# block after its stdout; and a zero-share thread. It runs the release
# binary, so build it first (`cargo build --release --workspace --bins`).
#
# Usage: scripts/simulate_golden.sh > results/simulate.txt   (regenerate)
#        scripts/simulate_golden.sh | cmp - results/simulate.txt   (check)
set -euo pipefail
cd "$(dirname "$0")/.."

sim=target/release/simulate
"$sim"
"$sim" --workloads Loads,Stores,Stores,Stores --warmup 10000 --cycles 40000 --metrics 2>&1
"$sim" --workloads Loads,Stores --shares 1/1,0/1 --warmup 1000 --cycles 5000
