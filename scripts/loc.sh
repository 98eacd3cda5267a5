#!/usr/bin/env bash
# Prints the non-test Rust line count under crates/: every .rs file outside
# a tests/ directory, counted up to (not including) its first `#[cfg(test)]`
# line. Report it at the parent and at the change in every PR.
#
# Usage: scripts/loc.sh [CHECKOUT]   (defaults to the repository holding
# this script)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
    awk '{ total += $1 } END { print total }'
