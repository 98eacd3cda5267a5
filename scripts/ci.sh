#!/usr/bin/env bash
# Tier-1 verification, run fully offline: the workspace is hermetic
# (std-only, path dependencies only), so a network-less build MUST work.
# Any attempt to pull a registry crate is a failure, not an environment
# problem.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== shell scripts parse =="
for script in scripts/*.sh; do
    bash -n "$script"
done

echo "== build (release, offline) =="
cargo build --release
cargo build --release --workspace --bins

echo "== figure binaries: --quick --json stdout equals results/quick =="
# golden_quick checks the library call; this checks what each binary prints.
for bin in fig5_micro_util fig6_spec_util fig7_store_gathering fig8_loads_stores \
    fig9_spec_vs_stores fig10_heterogeneous; do
    if ! target/release/"$bin" --quick --json --jobs 2 2>/dev/null |
        cmp - "results/quick/$bin.json"; then
        echo "$bin --quick --json differs from results/quick/$bin.json"
        exit 1
    fi
done

echo "== ablations: --quick stdout, after its two header lines, equals results/quick =="
# ablations prints text only; results/quick/ablations.txt holds it without
# the header.
if ! target/release/ablations --quick --jobs 2 2>/dev/null | tail -n +3 |
    cmp - results/quick/ablations.txt; then
    echo "ablations --quick differs from results/quick/ablations.txt"
    exit 1
fi

echo "== table1, fig4_timing: stdout equals results =="
# Both take no flags and finish in milliseconds; their full output is the
# golden.
for bin in table1 fig4_timing; do
    if ! target/release/"$bin" | cmp - "results/$bin.txt"; then
        echo "$bin differs from results/$bin.txt"
        exit 1
    fi
done

echo "== simulate: three runs' output equals results/simulate.txt =="
# The default mix; a Loads+3xStores run with --metrics, its stderr ledger
# block after its stdout; and a zero-share thread.
sim=target/release/simulate
if ! {
    "$sim"
    "$sim" --workloads Loads,Stores,Stores,Stores --warmup 10000 --cycles 40000 --metrics 2>&1
    "$sim" --workloads Loads,Stores --shares 1/1,0/1 --warmup 1000 --cycles 5000
} | cmp - results/simulate.txt; then
    echo "simulate differs from results/simulate.txt"
    exit 1
fi

echo "== test (workspace, including formerly-slow ignored tests) =="
cargo test -q --workspace -- --include-ignored

echo "== shared-state guard: exec tests x20 under parallel test threads =="
# A test that observes another test's state fails only when the two
# interleave; twenty runs catch such a flake reliably instead of by luck.
for run in $(seq 20); do
    for suite in "-p vpc-sim --lib" "--test exec_properties"; do
        # shellcheck disable=SC2086
        if ! out=$(cargo test -q $suite 2>&1); then
            echo "$out"
            echo "cargo test $suite failed on run $run"
            exit 1
        fi
    done
done

echo "== rustdoc (warnings are errors, binaries included) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --bins

echo "== fmt =="
cargo fmt --all -- --check

if command -v cargo-clippy >/dev/null 2>&1; then
    echo "== clippy =="
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy not installed; skipping =="
fi

echo "== benchmark build (perfbench, offline) =="
# perfbench is a workspace of its own with path dependencies on crates/*,
# so a crate API change that breaks the benchmark fails here.
cargo build --release --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke (perfbench solo_spec, traced) =="
# A one-second traced run: every row must equal its golden and the traced
# loop replica must not diverge from the real run loop.
last=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload solo_spec --seed 1 --seconds 1 --trace 1 | tail -n 1)
if [[ "$last" != *'"correct": true'* ]] ||
    [[ "$last" != *'"fidelity.replica_diverged_cells": {"value": 0'* ]]; then
    echo "$last"
    echo "perfbench solo_spec: incorrect rows or a diverged replica"
    exit 1
fi

echo "== benchmark smoke (perfbench fig9_stores) =="
# Three Stores threads keep their store gathering buffers full, so this is
# the workload that runs the stalled-port path; every row must still equal
# its golden.
last=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fig9_stores --seed 1 --seconds 1 --trace 0 | tail -n 1)
if [[ "$last" != *'"correct": true'* ]]; then
    echo "$last"
    echo "perfbench fig9_stores: incorrect rows"
    exit 1
fi

echo "== benchmark smoke (perfbench fig10_mixes, traced) =="
# Four-thread SPEC mixes under FCFS and VPC with way quotas; with the two
# runs above every benchmark workload is smoke-tested. Every row must
# still equal its golden, and the traced loop replica must not diverge
# from the real run loop on a multi-thread workload either.
last=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fig10_mixes --seed 1 --seconds 1 --trace 1 | tail -n 1)
if [[ "$last" != *'"correct": true'* ]] ||
    [[ "$last" != *'"fidelity.replica_diverged_cells": {"value": 0'* ]]; then
    echo "$last"
    echo "perfbench fig10_mixes: incorrect rows or a diverged replica"
    exit 1
fi

echo "== non-test Rust lines under crates/ (report in every PR) =="
scripts/loc.sh

echo "CI OK"
