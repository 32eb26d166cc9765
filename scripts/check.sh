#!/usr/bin/env bash
# Full pre-merge check: build, tests, formatting, lints, rustdoc.
# Usage: scripts/check.sh  (run from anywhere inside the repo)
#
# Opt-in: BINGO_BENCH=1 scripts/check.sh additionally runs the bench
# binaries and gates them against the committed BENCH_simulator.json with
# the same threshold CI uses (bench_compare's --threshold default).
set -euo pipefail
cd "$(dirname "$0")/.."

# ISSUE.md describes the PR in flight; sessions that land it may remove
# the file, so its absence is a warning, never a failure.
if [[ ! -f ISSUE.md ]]; then
    echo "warning: ISSUE.md not found (no PR brief in flight); continuing" >&2
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q --features audit"
cargo test --workspace -q --features audit

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [[ "${BINGO_BENCH:-0}" == "1" ]]; then
    echo "==> cargo bench -p bingo-bench (perf trajectory vs BENCH_simulator.json)"
    # Absolute path: cargo bench runs the bench executables with the
    # package directory (crates/bench) as CWD, not the workspace root.
    # Three runs accumulate a candidate measured the same way the
    # committed snapshot was: the writer keeps the better record per key,
    # so each key holds its best over runs, which contention can only
    # inflate.
    rm -f target/bench/candidate.json
    for _ in 1 2 3; do
        BINGO_BENCH_JSON="$PWD/target/bench/candidate.json" cargo bench -p bingo-bench
    done
    cargo run --release -p bingo-bench --bin bench_compare -- \
        --snapshot BENCH_simulator.json --candidate target/bench/candidate.json
fi

echo "==> all checks passed"
