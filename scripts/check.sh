#!/usr/bin/env bash
# The one gate: build, test, domain lint, and (when available) format
# check. Everything runs offline — the workspace has no external
# dependencies by design, and `kindle-check` enforces that it stays so.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== exact-output pins (release profile) =="
cargo test --release -q --test exact_outputs

echo "== clippy is clean on every target and feature =="
# Clippy type-checks every target, so this is also the offline build check.
# The determinism bans live in clippy.toml and the crate roots' lint levels.
# perfbench is a workspace of its own and stays out of this gate.
cargo clippy --workspace --all-targets --all-features --offline -- -D warnings

echo "== the frozen benchmark (perfbench) builds offline =="
# perfbench is a workspace of its own, so the check above never builds it;
# a deleted public name it uses would otherwise fail only in perf-pairs.
# cargo rewrites its stale Cargo.lock, which stays as committed.
lock_backup=$(mktemp)
cp perfbench/Cargo.lock "$lock_backup"
status=0
cargo check --offline --manifest-path perfbench/Cargo.toml || status=$?
cp "$lock_backup" perfbench/Cargo.lock
rm -f "$lock_backup"
[ "$status" -eq 0 ]

echo "== rustdoc builds without warnings =="
# A deleted or private name left in a doc link fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tests (workspace) =="
cargo test --workspace -q

echo "== allowlist justification guard =="
# Policy: fix, don't allowlist. Every check-allowlist.txt entry must be
# preceded by a `#` justification comment on the line directly above it.
awk '
    /^[[:space:]]*$/ { prev = ""; next }
    /^#/             { prev = "comment"; next }
    {
        if (prev != "comment") {
            printf "check-allowlist.txt:%d: entry lacks a justification comment on the line above: %s\n", NR, $0
            bad = 1
        }
        prev = "entry"
    }
    END { exit bad }
' check-allowlist.txt

echo "== kindle-check (KD003, KD005, KD006, KD009, KD010, KD012, KD013) =="
cargo run -q -p kindle-check -- --json CHECK_lint.json

if cargo fmt --version >/dev/null 2>&1; then
    echo "== rustfmt =="
    cargo fmt --check
else
    echo "== rustfmt not installed; skipping format check =="
fi

echo "all checks passed"
