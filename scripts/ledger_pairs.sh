#!/usr/bin/env bash
# Paired runs of the repo benchmark on two revisions, the way a performance
# claim has to be measured (choosing-metrics §8): each revision's `ledger`
# is built from its own `git worktree` into its own target directory, the
# two binaries then run the same workload in alternating pairs — which side
# goes first flips every pair, every pair has its own seed — and the two
# resulting ledger files go through `ledger compare`.
#
# Usage: scripts/ledger_pairs.sh <rev-a> <rev-b> <workload> [pairs=10]
#
#   <rev-a>   the baseline (parent) revision, anything `git worktree add` takes
#   <rev-b>   the revision under test
#   <workload> one of BENCHMARK.json's workloads (kv_zipf, kv_cold_read,
#             list_scan, queue_weak)
#
# Run length is the benchmark's own (`run_seconds` in each revision's
# BENCHMARK.json); it is not a parameter. Seeds: pair i of n runs both sides
# on seed 7000 + i, except the last pair, which runs on HELD_OUT_SEED — a
# seed reserved for this script, so a claim that holds here holds on a seed
# nobody tuned against. Do not pass it to `ledger` by hand while developing.
#
# Output: ledger-out/pairs/<workload>.<a|b>.jsonl (overwritten), then the
# `ledger compare` table. Nothing under ledger/ is touched; the worktrees
# live in a temporary directory and are removed on exit.

set -euo pipefail
cd "$(dirname "$0")/.."

HELD_OUT_SEED=1618033

if [[ $# -lt 3 || $# -gt 4 ]]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev_a=$1
rev_b=$2
workload=$3
pairs=${4:-10}
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "ledger_pairs: pairs must be a positive integer, got '$pairs'" >&2
    exit 2
fi

repo=$PWD
out="$repo/ledger-out/pairs"
mkdir -p "$out"
file_a="$out/$workload.a.jsonl"
file_b="$out/$workload.b.jsonl"
rm -f "$file_a" "$file_b" "$file_a.trace.jsonl" "$file_b.trace.jsonl"

work=$(mktemp -d "${TMPDIR:-/tmp}/ledger-pairs.XXXXXX")
cleanup() {
    cd "$repo"
    for side in a b; do
        git worktree remove --force "$work/$side" >/dev/null 2>&1 || true
    done
    rm -rf "$work"
    git worktree prune
}
trap cleanup EXIT

build() { # <side> <rev>
    git worktree add --quiet --detach "$work/$1" "$2"
    echo "ledger_pairs: building $1 = $(git -C "$work/$1" rev-parse --short HEAD) ($2)" >&2
    cargo build --release --quiet --manifest-path "$work/$1/ledger/Cargo.toml"
}
build a "$rev_a"
build b "$rev_b"

run() { # <side> <seed> <file>; the binary reads BENCHMARK.json from its cwd
    (cd "$work/$1" && ./ledger/target/release/ledger \
        --workload "$workload" --seed "$2" --out "$3" >/dev/null)
}

for i in $(seq 1 "$pairs"); do
    seed=$((7000 + i))
    [[ $i -eq $pairs ]] && seed=$HELD_OUT_SEED
    if ((i % 2)); then
        order="a b"
    else
        order="b a"
    fi
    echo "ledger_pairs: pair $i/$pairs seed $seed order $order" >&2
    for side in $order; do
        if [[ $side == a ]]; then
            run a "$seed" "$file_a"
        else
            run b "$seed" "$file_b"
        fi
    done
done

echo "ledger_pairs: a = $rev_a -> $file_a"
echo "ledger_pairs: b = $rev_b -> $file_b"
(cd "$work/b" && ./ledger/target/release/ledger compare "$file_a" "$file_b")
