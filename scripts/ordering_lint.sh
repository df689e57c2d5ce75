#!/usr/bin/env bash
# Memory-ordering lint, two checks:
#
# 1. Facade bypass — all workspace code reaches atomics through the
#    `smr::sync` facade (cfg-switched between `std::sync::atomic` and the
#    vendored `interleave` model checker), so a direct `std::sync::atomic`
#    (or `core::sync::atomic`) path anywhere else would silently escape
#    model checking. The file set is discovered, not enumerated: every .rs
#    file in the repo is checked except the facade itself and the vendored
#    shims. Doc/line comments may mention the std path anywhere.
#
# 2. Ordering justification — every non-SeqCst ordering at a call site in
#    the protocol crates (crates/core, crates/smr, crates/sticky,
#    crates/lockfree) must sit within a few lines of a `// Ordering:`
#    comment explaining why the relaxation is sound (the policy established
#    with the fence-discipline audit and now cross-checked by the
#    model-check suite; see README "Memory-ordering policy"). Test modules
#    are exempt — tests assert behaviour, they do not carry protocol
#    invariants. crates/bench stays exempt too: it is measurement
#    scaffolding, not protocol code.
#
# Usage: scripts/ordering_lint.sh   (exits nonzero listing offending lines)

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- Check 1: facade bypass -------------------------------------------------
bypass=$(find . -name '*.rs' \
    -not -path './target/*' -not -path './.git/*' \
    -not -path './crates/shims/*' -not -path './crates/smr/src/sync.rs' \
    -print0 \
    | xargs -0 awk '
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ /(std|core)::sync::atomic/)
            printf "%s:%d: %s\n", FILENAME, FNR, $0
    }' || true)
if [[ -n "$bypass" ]]; then
    echo "ordering_lint: std::sync::atomic outside the smr::sync facade:"
    echo "$bypass" | sed 's/^/  /'
    fail=1
fi

# --- Check 2: non-SeqCst sites carry an // Ordering: comment ----------------
WINDOW=14
missing=$(find crates/core/src crates/smr/src crates/sticky/src crates/lockfree/src \
    -name '*.rs' ! -path '*/sync.rs' -print0 \
    | xargs -0 awk -v win=$WINDOW '
    FNR == 1 { last = -1000; skip = 0 }
    # Test modules close out the files in this codebase; stop checking there.
    /^#\[cfg\(test\)\]/ || /^mod tests/ { skip = 1 }
    skip { next }
    /\/\/ Ordering:/ { last = FNR }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ /Ordering::(Relaxed|Acquire|Release|AcqRel)/ \
            && line !~ /^[[:space:]]*use /) {
            if (FNR - last > win)
                printf "%s:%d: %s\n", FILENAME, FNR, $0
        }
    }')
if [[ -n "$missing" ]]; then
    echo "ordering_lint: non-SeqCst ordering without a nearby // Ordering: comment:"
    echo "$missing" | sed 's/^/  /'
    fail=1
fi

if [[ $fail -ne 0 ]]; then
    echo "ordering_lint: FAILED"
    exit 1
fi
echo "ordering_lint: ok"
