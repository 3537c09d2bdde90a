#!/usr/bin/env bash
# List every `pub fn` whose name occurs, as a whole word, exactly once
# across the Rust sources of crates/, src/, tests/, examples/ and
# e2ebench/src/ — that is, only in its own definition. Nothing calls,
# re-exports or tests such a function. Prints one name per line; exits
# 1 if it printed any.
#
# Usage: scripts/dead_pub_fns.sh
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=(crates src tests examples e2ebench/src)
dead=$(grep -rhoE --include='*.rs' '\bpub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*' "${dirs[@]}" \
    | sed -E 's/.* fn //' | sort -u | while read -r name; do
        if [ "$(grep -rhow --include='*.rs' -- "$name" "${dirs[@]}" | wc -l)" -le 1 ]; then
            echo "$name"
        fi
    done)
if [ -n "$dead" ]; then
    echo "$dead"
    exit 1
fi
