#!/usr/bin/env bash
# Codegen guard for the list search: builds the repo benchmark's release
# binary (`ledger/`) and fails if it holds an out-of-line copy of
# `lockfree`'s `find` or `find_from`. The Harris-Michael search is
# `#[inline(always)]` (`crates/lockfree/src/list.rs`): called out of line,
# its cursor comes back through memory on every operation, which cost
# 4-7 % on the benchmark's `kv_cold_read` cells.
#
# Usage: scripts/inline_check.sh

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --manifest-path ledger/Cargo.toml
bin=ledger/target/release/ledger

# `nm -C` prints "<address> <type> <demangled name>"; keep the name, then
# the `lockfree` functions whose last path segment is `find`/`find_from`.
outlined=$(nm -C "$bin" | cut -d' ' -f3- | grep 'lockfree' | grep -E '::(find|find_from)$' || true)

if [[ -n "$outlined" ]]; then
    echo "inline_check: FAILED: out-of-line list searches in $bin:" >&2
    echo "$outlined" >&2
    exit 1
fi
echo "inline_check: OK (no out-of-line lockfree find/find_from in $bin)"
