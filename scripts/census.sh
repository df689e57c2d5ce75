#!/usr/bin/env bash
# Code census: the non-test, non-comment, non-blank line count the
# simplicity PRs quote in CHANGES.md. Each .rs file is cut at its trailing
# `#[cfg(test)]` module, then comment-only and blank lines are dropped.
#
# Usage: scripts/census.sh <file-or-directory>...
#   scripts/census.sh crates/lockfree/src
#   scripts/census.sh crates/lockfree/src/manual/resizable.rs
# Prints one "<lines> <file>" row per file and a total.

set -euo pipefail

if [[ $# -eq 0 ]]; then
    echo "usage: $0 <file-or-directory>..." >&2
    exit 2
fi

total=0
while IFS= read -r f; do
    n=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' | grep -v '^\s*$' | wc -l)
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done < <(find "$@" -type f -name '*.rs' | LC_ALL=C sort)
printf '%6d total\n' "$total"
