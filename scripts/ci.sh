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
trap 'rm -rf "$snap"' EXIT
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

echo "== benchmark smoke (perfbench fig9_stores, traced) =="
# Three Stores threads keep their store gathering buffers full, so this is
# the workload that runs the stalled-port path; every row must still equal
# its golden. Its replica runs those FixedTrace Stores threads through the
# cores' store retire gate, so it must not diverge either.
last=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload fig9_stores --seed 1 --seconds 1 --trace 1 | tail -n 1)
if [[ "$last" != *'"correct": true'* ]] ||
    [[ "$last" != *'"fidelity.replica_diverged_cells": {"value": 0'* ]]; then
    echo "$last"
    echo "perfbench fig9_stores: incorrect rows or a diverged replica"
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
