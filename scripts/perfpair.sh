#!/usr/bin/env bash
# Runs interleaved perfbench pairs: the benchmark built at a parent commit
# against the benchmark built from this checkout, one pair per seed. The
# side that runs first alternates from pair to pair. Prints each pair's
# `wall_s`, then one line per end-to-end metric that BENCHMARK.json lists,
# judged in that metric's own `better` direction: both medians, their
# ratio, the pairs the change won (a tie counts for neither side), the
# parent's interquartile range, the verdict of the claim rule of
# perfbench/README.md (`yes` when the change won at least 9 pairs in 10
# and its median beats the parent's by more than the parent's IQR) and a
# `gate` verdict: `ok` when the change's median is worse than the
# parent's by no more than the metric's `bound` in BENCHMARK.json (a
# fraction of the parent's median), `FAIL` otherwise. Warns when the
# held-out seed 4242 is not among the seeds. Fails if any run does not
# report `"correct": true`.
#
# Seeds after a `--` form a second batch, run and summarized on its own
# after the first. With two batches the script ends with each metric's
# claim verdict per batch and whether both batches pass, the two-batch
# rule of CONTRIBUTING.md.
#
# Usage: scripts/perfpair.sh PARENT WORKLOAD SECONDS SEED... [-- SEED...]
#
# Both sides are built from the same source path, target/perfpair/src/,
# each into its own target directory: the build embeds the source path,
# and two copies of one commit built at two paths lay out different
# binaries. Each side's sources are first exported to
# target/perfpair/<side>/tree/ (the parent with `git archive`; the change
# as this checkout's tracked and untracked non-ignored files, uncommitted
# edits included), then copied, modification times kept, to the shared
# path and built into target/perfpair/<side>/target/. Each side's
# perfbench runs from its own tree, so it reads that side's goldens.
# Every run's JSON line, prefixed by side, workload and seed, is appended
# to target/perfpair/runs.log for the metrics this summary leaves out.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

usage="usage: scripts/perfpair.sh PARENT WORKLOAD SECONDS SEED... [-- SEED...]"
if [[ $# -lt 4 ]]; then
    echo "$usage" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
workload=$2
seconds=$3
shift 3
first=()
second=()
while [[ $# -gt 0 && $1 != -- ]]; do
    first+=("$1")
    shift
done
if [[ $# -gt 0 ]]; then
    shift
    second=("$@")
    if [[ ${#second[@]} -eq 0 ]]; then
        echo "$usage" >&2
        exit 2
    fi
fi
if [[ ${#first[@]} -eq 0 ]]; then
    echo "$usage" >&2
    exit 2
fi

perf=$PWD/target/perfpair
parent_root=$perf/$parent
change_root=$perf/change

# Copies side root $1's exported tree to the shared source path and builds
# its perfbench into the side's own target directory.
build() {
    rm -rf "$perf/src"
    cp -a "$1/tree" "$perf/src"
    CARGO_TARGET_DIR=$1/target cargo build --release --quiet \
        --manifest-path "$perf/src/perfbench/Cargo.toml"
}

if [[ ! -d $parent_root/tree ]]; then
    rm -rf "$parent_root/export"
    mkdir -p "$parent_root/export"
    git archive "$parent" | tar -x -C "$parent_root/export"
    mv "$parent_root/export" "$parent_root/tree"
fi
build "$parent_root"
rm -rf "$change_root/tree"
mkdir -p "$change_root/tree"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' file; do
        if [[ -e $file ]]; then
            printf '%s\0' "$file"
        fi
    done |
    tar --null -T - -cf - | tar -x -C "$change_root/tree"
build "$change_root"
bench=target/release/perfbench
if cmp -s "$parent_root/$bench" "$change_root/$bench"; then
    echo "both sides built the same perfbench binary"
fi

# The end-to-end metrics, one "name better bound" line each, read from the
# `end_to_end` list of BENCHMARK.json (one metric object per line).
metrics=$(awk '
    /"end_to_end"/ { on = 1; next }
    on && /\]/ { exit }
    on && /"name"/ {
        name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
        better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
        bound = $0; sub(/.*"bound": */, "", bound); sub(/[^0-9.].*/, "", bound)
        print name, better, bound
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

# Runs one side's perfbench from that side's tree (perfbench reads the
# tree's goldens), logs its JSON line and prints it.
run() {
    local side=$1 root=$2 seed=$3 last
    last=$(cd "$root/tree" && "$root/$bench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    if [[ "$last" != *'"correct": true'* ]]; then
        echo "$last" >&2
        echo "perfpair: $side seed $seed did not report \"correct\": true" >&2
        return 1
    fi
    echo "$side $workload $seed $last" >>"$perf/runs.log"
    echo "$last"
}

# Each metric's claim verdicts, one word per batch.
declare -A claims

# Runs one batch of pairs, one per seed in "$@", prints each pair's
# `wall_s` and one summary row per metric, and appends each metric's
# claim verdict to `claims`.
batch() {
    local parent_runs=() change_runs=() i=0 seed p c name better bound row
    echo "seed parent_wall_s change_wall_s"
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

    printf '%-18s %-6s %12s %12s %8s %5s %12s %5s %5s\n' \
        metric better parent_med change_med ratio won parent_iqr claim gate
    while read -r name better bound; do
        row=$(for i in "${!parent_runs[@]}"; do
            echo "$(value_of "$name" "${parent_runs[$i]}") $(value_of "$name" "${change_runs[$i]}")"
        done | awk -v name="$name" -v better="$better" -v bound="$bound" '
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
                gap = better == "higher" ? cm - pm : pm - cm
                claim = 10 * won >= 9 * n && gap > iqr ? "yes" : "no"
                gate = bound == "" ? "n/a" : -gap <= bound * pm ? "ok" : "FAIL"
                printf "%-18s %-6s %12.6g %12.6g %8s %2d/%-2d %12.6g %5s %5s\n", \
                    name, better, pm, cm, ratio, won, n, iqr, claim, gate
            }')
        echo "$row"
        if [[ $row == *" yes "* ]]; then
            claims[$name]+=" yes"
        else
            claims[$name]+=" no"
        fi
    done <<<"$metrics"
}

echo "workload $workload, --seconds $seconds, parent ${parent:0:12} vs this checkout"
if [[ ${#second[@]} -eq 0 ]]; then
    batch "${first[@]}"
else
    echo "batch 1: seeds ${first[*]}"
    batch "${first[@]}"
    echo "batch 2: seeds ${second[*]}"
    batch "${second[@]}"
    echo "two-batch claim rule: a claim holds only if both batches pass it"
    printf '%-18s %6s %6s %6s\n' metric batch1 batch2 both
    while read -r name _; do
        read -r one two <<<"${claims[$name]}"
        both=$([[ $one == yes && $two == yes ]] && echo yes || echo no)
        printf '%-18s %6s %6s %6s\n' "$name" "$one" "$two" "$both"
    done <<<"$metrics"
fi

echo "note: setup_s times a sub-millisecond span once per cell and spreads more" \
    "between batches than within one (a pair of identical binaries read x1.075):" \
    "a setup_s verdict from one batch is weak evidence either way"

held_out=4242
if [[ " ${first[*]} ${second[*]} " != *" $held_out "* ]]; then
    echo "perfpair: warning: the held-out seed $held_out is not among the seeds;" \
        "a claim must include it" >&2
fi
