#!/usr/bin/env bash
# Public-API surface check: lists every `pub fn` / `pub struct` / `pub enum`
# / `pub trait` / `pub type` / `pub const` declared in the workspace's
# library crates and diffs the listing against the committed snapshot
# (scripts/api_surface.txt), so API drift is reviewed deliberately rather
# than slipping through a refactor.
#
# Usage:
#   scripts/api_surface.sh            # check against the snapshot (CI mode)
#   scripts/api_surface.sh --bless    # regenerate the snapshot
#
# The listing is intentionally line-based (no rustdoc/cargo dependency): a
# signature *change* that keeps the name shows up via the full declaration
# line, and moves between files show up via the path prefix.

set -euo pipefail
cd "$(dirname "$0")/.."

SNAPSHOT=scripts/api_surface.txt
CRATES=(crates/core/src crates/smr/src crates/sticky/src crates/lockfree/src)

generate() {
    # One line per public item: "<file>: <declaration>", with bodies,
    # trailing braces/semicolons and generic-bound tails stripped so
    # formatting churn doesn't dirty the snapshot. Test modules are skipped
    # (their `pub fn`s are not API).
    grep -rn --include='*.rs' -E '^[[:space:]]*pub (unsafe )?(fn|struct|enum|trait|type|const|mod) ' \
        "${CRATES[@]}" \
        | grep -v '/tests/' \
        | sed -E 's/^([^:]+):[0-9]+:[[:space:]]*/\1: /' \
        | sed -E 's/[[:space:]]*\{?[[:space:]]*$//' \
        | sed -E 's/;$//' \
        | LC_ALL=C sort
}

if [[ "${1:-}" == "--bless" ]]; then
    generate > "$SNAPSHOT"
    echo "api_surface: snapshot regenerated ($(wc -l < "$SNAPSHOT") items)"
    exit 0
fi

if [[ ! -f "$SNAPSHOT" ]]; then
    echo "api_surface: missing $SNAPSHOT — run scripts/api_surface.sh --bless" >&2
    exit 1
fi

if diff -u "$SNAPSHOT" <(generate); then
    echo "api_surface: OK ($(wc -l < "$SNAPSHOT") public items, no drift)"
else
    cat >&2 <<'EOF'

api_surface: public API surface drifted from scripts/api_surface.txt.
If the change is intentional, regenerate the snapshot with

    scripts/api_surface.sh --bless

and commit it together with the API change.
EOF
    exit 1
fi
