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

echo "== reproduce: every results/ file, quick and full budget, byte-identical =="
# One batch per budget rewrites results/quick/ and results/; they must then
# equal what the tree held before the run, so a changed or new file fails,
# and the snapshot is put back. Goldens regenerated on purpose pass before
# they are committed. The quick budget is not the published one, so a
# refactor that claims byte-identical output must reproduce the
# full-budget files too.
snap=$(mktemp -d)
tmp=$(mktemp -d)
trap 'rm -rf "$snap" "$tmp"' EXIT
cp -a results "$snap"
restore() {
    rm -rf results
    cp -a "$snap/results" results
}
for flags in "--quick --jobs 2" "--jobs 2"; do
    # shellcheck disable=SC2086
    if ! out=$(target/release/reproduce $flags 2>&1); then
        echo "$out"
        restore
        echo "reproduce $flags failed; restored results/"
        exit 1
    fi
done
if ! diff -r "$snap/results" results; then
    restore
    echo "reproduce changed or added the files above under results/; restored them"
    exit 1
fi

echo "== simulate: three runs' output equals results/simulate.txt =="
# scripts/simulate_golden.sh defines the runs; it also rewrites the file.
if ! scripts/simulate_golden.sh | cmp - results/simulate.txt; then
    echo "simulate differs from results/simulate.txt"
    exit 1
fi

echo "== simulate: observing a run leaves stdout unchanged =="
# A trace and a QoS ledger are kept by the same Cell::run that measures,
# so a traced run with --metrics must print exactly what a plain run
# prints (its ledger goes to stderr, its trace to the file).
args=(--workloads Loads,Stores,Stores,Stores --warmup 10000 --cycles 40000)
target/release/simulate "${args[@]}" >"$tmp/plain.txt"
target/release/simulate "${args[@]}" --metrics --trace "$tmp/t.json" >"$tmp/traced.txt" 2>/dev/null
if ! cmp "$tmp/plain.txt" "$tmp/traced.txt" || [[ ! -s "$tmp/t.json" ]]; then
    echo "simulate --metrics --trace changed stdout or wrote no trace"
    exit 1
fi

echo "== examples: each runs to completion and prints no NaN or inf =="
# cargo test compiles the examples but never runs them; each one's cells
# run at most 200k cycles, so running all four takes a few seconds. No
# golden pins their stdout, so a non-finite number (printed as the word
# NaN, inf or -inf) is caught here.
for example in quickstart differentiated_service qos_guarantee heterogeneous_mix; do
    if ! out=$(cargo run -q --release --example "$example"); then
        echo "example $example exited nonzero"
        exit 1
    fi
    if grep -wE 'NaN|inf' <<<"$out"; then
        echo "example $example printed a NaN or an infinity (lines above)"
        exit 1
    fi
done

echo "== test (workspace, including the ignored tests too slow for tier-1) =="
# --include-ignored runs tests/qos_property.rs: the QoS guarantee over 16
# drawn machines per arbiter at the standard budget (≈28 s in a debug
# build on 2 CPUs).
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

# One-second traced runs: every row must equal its golden and the traced
# loop replica must not diverge from the real run loop.
# - solo_spec: one SPEC profile alone.
# - fig9_stores: three Stores threads keep their store gathering buffers
#   full, so this is the workload that runs the stalled-port path; its
#   replica runs those FixedTrace Stores threads through the cores' store
#   retire gate.
# - fig10_mixes: four-thread SPEC mixes under FCFS and VPC with way
#   quotas, so the replica is checked on a multi-thread workload too.
for workload in solo_spec fig9_stores fig10_mixes; do
    echo "== benchmark smoke (perfbench $workload, traced) =="
    last=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    if [[ "$last" != *'"correct": true'* ]] ||
        [[ "$last" != *'"fidelity.replica_diverged_cells": {"value": 0'* ]]; then
        echo "$last"
        echo "perfbench $workload: incorrect rows or a diverged replica"
        exit 1
    fi
done

echo "== non-test Rust lines under crates/ (report in every PR) =="
scripts/loc.sh

echo "CI OK"
