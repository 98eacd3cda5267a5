#!/usr/bin/env bash
# Runs interleaved perfbench pairs: the benchmark built at a parent commit
# against the benchmark built from this checkout, one pair per seed. The
# side that runs first alternates from pair to pair. Prints each pair's
# `wall_s`, then one line per end-to-end metric that BENCHMARK.json lists,
# judged in that metric's own `better` direction: both medians, their
# ratio, the pairs the change won and the parent's interquartile range,
# the inputs to the claim rule of perfbench/README.md. Fails if any run
# does not report `"correct": true`.
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

# The end-to-end metrics, one "name better" line each, read from the
# `end_to_end` list of BENCHMARK.json (one metric object per line).
metrics=$(awk '
    /"end_to_end"/ { on = 1; next }
    on && /\]/ { exit }
    on && /"name"/ {
        name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
        better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
        print name, better
    }' BENCHMARK.json)
if [[ -z $metrics ]]; then
    echo "perfpair: no end_to_end metrics found in BENCHMARK.json" >&2
    exit 1
fi

# Prints metric $1's value from the perfbench JSON line $2 (nothing if the
# line lacks it).
value_of() {
    sed -nE "s/.*\"$1\": \{\"value\": ([0-9.eE+-]+).*/\1/p" <<<"$2"
}

# Runs one side from its own checkout (perfbench reads that checkout's
# goldens), logs its JSON line and prints it.
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
    echo "$last"
}

echo "workload $workload, --seconds $seconds, parent ${parent:0:12} vs this checkout"
echo "seed parent_wall_s change_wall_s"
parent_runs=()
change_runs=()
i=0
for seed in "$@"; do
    if ((i % 2 == 0)); then
        p=$(run parent "$parent_root" "$seed")
        c=$(run change "$change_root" "$seed")
    else
        c=$(run change "$change_root" "$seed")
        p=$(run parent "$parent_root" "$seed")
    fi
    echo "$seed $(value_of wall_s "$p") $(value_of wall_s "$c")"
    parent_runs+=("$p")
    change_runs+=("$c")
    i=$((i + 1))
done

printf '%-18s %-6s %12s %12s %8s %5s %12s\n' \
    metric better parent_med change_med ratio won parent_iqr
while read -r name better; do
    for i in "${!parent_runs[@]}"; do
        echo "$(value_of "$name" "${parent_runs[$i]}") $(value_of "$name" "${change_runs[$i]}")"
    done | awk -v name="$name" -v better="$better" '
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
        NF < 2 { missing = 1; next }
        {
            n++; p[n] = $1; c[n] = $2
            if (better == "higher" ? $2 > $1 : $2 < $1) won++
        }
        END {
            if (missing || n == 0) {
                printf "%-18s %-6s missing from some runs\n", name, better
                exit
            }
            sort(p, n); sort(c, n)
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
            ratio = pm == 0 ? "n/a" : sprintf("%.3f", cm / pm)
            printf "%-18s %-6s %12.6g %12.6g %8s %2d/%-2d %12.6g\n", \
                name, better, pm, cm, ratio, won, n, iqr
        }'
done <<<"$metrics"
