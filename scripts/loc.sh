#!/usr/bin/env bash
# Prints the non-test Rust line count under crates/: every .rs file outside
# a tests/ directory, counted up to (not including) its first `#[cfg(test)]`
# line. Report it at the parent and at the change in every PR:
# `scripts/loc.sh <parent>` and `scripts/loc.sh`.
#
# Usage: scripts/loc.sh [CHECKOUT | REVISION]
#   no argument  the working tree of the repository holding this script
#   CHECKOUT     a directory holding a checkout
#   REVISION     a git revision of that repository, exported with
#                `git archive` to a temporary directory removed afterwards
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
tree=${1:-$repo}
if [[ ! -d $tree ]]; then
    rev=$(git -C "$repo" rev-parse --verify --quiet "$tree^{commit}") || {
        echo "loc.sh: '$tree' is neither a directory nor a git revision" >&2
        exit 2
    }
    tree=$(mktemp -d)
    trap 'rm -rf "$tree"' EXIT
    git -C "$repo" archive "$rev" crates | tar -x -C "$tree"
fi
cd "$tree"

find crates -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
    awk '{ total += $1 } END { print total }'
