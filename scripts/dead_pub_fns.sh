#!/usr/bin/env bash
# List every public item name that occurs, as a whole word, exactly once
# across the Rust sources of crates/, src/, tests/, examples/ and
# e2ebench/src/ — that is, only in its own definition. The items are
# `pub fn`s and the names of `pub struct|enum|trait|type|const|static`
# declarations. Nothing calls, names, re-exports or tests such an item.
# Prints one name per line; exits 1 if it printed any.
#
# Usage: scripts/dead_pub_fns.sh
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=(crates src tests examples e2ebench/src)
item='\bpub ((const |unsafe )*fn|struct|enum|trait|type|const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*'
dead=$(grep -rhoE --include='*.rs' "$item" "${dirs[@]}" \
    | sed -E 's/.* //' | sort -u | while read -r name; do
        if [ "$(grep -rhow --include='*.rs' -- "$name" "${dirs[@]}" | wc -l)" -le 1 ]; then
            echo "$name"
        fi
    done)
if [ -n "$dead" ]; then
    echo "$dead"
    exit 1
fi
