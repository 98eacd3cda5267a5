#!/usr/bin/env bash
# Runs interleaved perfbench pairs: the benchmark built at a parent commit
# against the benchmark built from this checkout, one pair per seed. The
# side that runs first alternates from pair to pair. Prints each pair's
# `wall_s`, the pairs the change won, both medians and the parent's
# interquartile range: the inputs to the claim rule of perfbench/README.md.
# Fails if any run does not report `"correct": true`.
#
# Usage: scripts/perfpair.sh PARENT WORKLOAD SECONDS SEED...
#
# The parent is exported with `git archive` into target/perfpair/<commit>/
# and its perfbench is built there once; later calls reuse the build.
# Uncommitted changes in this checkout are part of the change side. Every
# run's JSON line, prefixed by side, workload and seed, is appended to
# target/perfpair/runs.log for the metrics this summary leaves out.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

if [[ $# -lt 4 ]]; then
    echo "usage: scripts/perfpair.sh PARENT WORKLOAD SECONDS SEED..." >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
workload=$2
seconds=$3
shift 3

change_root=$PWD
parent_root=$change_root/target/perfpair/$parent
bench=perfbench/target/release/perfbench
if [[ ! -x $parent_root/$bench ]]; then
    rm -rf "$parent_root"
    mkdir -p "$parent_root"
    git archive "$parent" | tar -x -C "$parent_root"
    cargo build --release --quiet --manifest-path "$parent_root/perfbench/Cargo.toml"
fi
cargo build --release --quiet --manifest-path perfbench/Cargo.toml

# Runs one side from its own checkout (perfbench reads that checkout's
# goldens), logs its JSON line and prints its wall_s.
run() {
    local side=$1 root=$2 seed=$3 last
    last=$(cd "$root" && "$bench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    if [[ "$last" != *'"correct": true'* ]]; then
        echo "$last" >&2
        echo "perfpair: $side seed $seed did not report \"correct\": true" >&2
        return 1
    fi
    echo "$side $workload $seed $last" >>target/perfpair/runs.log
    sed -E 's/.*"wall_s": \{"value": ([0-9.eE+-]+).*/\1/' <<<"$last"
}

echo "workload $workload, --seconds $seconds, parent ${parent:0:12} vs this checkout"
echo "seed parent_wall_s change_wall_s"
pairs=()
i=0
for seed in "$@"; do
    if ((i % 2 == 0)); then
        p=$(run parent "$parent_root" "$seed")
        c=$(run change "$change_root" "$seed")
    else
        c=$(run change "$change_root" "$seed")
        p=$(run parent "$parent_root" "$seed")
    fi
    echo "$seed $p $c"
    pairs+=("$p $c")
    i=$((i + 1))
done

printf '%s\n' "${pairs[@]}" | awk '
    # Quantile q of the sorted values v[1..n], interpolated linearly.
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sort(v, n,    i, j, x) {
        for (i = 2; i <= n; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    { n++; p[n] = $1; c[n] = $2; if ($2 < $1) won++ }
    END {
        sort(p, n); sort(c, n)
        pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
        iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
        printf "change won %d of %d pairs\n", won, n
        printf "median wall_s: parent %.4f, change %.4f (change/parent %.3f)\n", pm, cm, cm / pm
        printf "median gap %.4f s, parent IQR %.4f s\n", pm - cm, iqr
    }'
