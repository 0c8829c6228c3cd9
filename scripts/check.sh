#!/usr/bin/env bash
# The one gate every change must pass before merging. Mirrors the CI
# workflow (.github/workflows/ci.yml) exactly so a local run is
# authoritative: if this script passes, CI passes.
#
# Every cargo command that resolves dependencies runs with --locked, so a
# manifest change that would rewrite Cargo.lock or perfbench/Cargo.lock
# (removing a dependency edge of a crate perfbench builds does) fails
# here instead of silently editing the lockfile.
#
#   fmt      rustfmt, check-only (the tree must already be formatted)
#   clippy   workspace lints over every target (libraries, binaries,
#            tests, examples), warnings are errors
#   docs     rustdoc over every workspace crate, warnings are errors (a
#            public item's docs must not link a private or missing item)
#   tier-1   release build + every workspace crate's test suite (--workspace
#            also covers the vendored stand-ins under vendor/). It holds
#            every pinned output: the run_all reports and the five oracle
#            campaign reports byte-compared with tests/golden/
#            (crates/bench/tests/goldens.rs), the telemetry goldens
#            (tests/telemetry_observability.rs), the service daemon's
#            cold/cached/fault-retried byte equality
#            (crates/service/tests/service_cli.rs) and the crash matrix at
#            8 kill points (crates/service/tests/crash_restart.rs). If an
#            output changes deliberately, regenerate every golden with
#            TMI_BLESS=1 cargo test -q and review git diff tests/golden
#   bench-smoke  the benchmark gate: the standalone perfbench package
#            (its own cargo package and the only timing harness, see
#            perfbench/README.md), which the workspace build cannot reach:
#            its unit, API-guard and self-check tests, and a --smoke run
#            of every workload, which exits non-zero on any wrong output
#            (timings are not gated here)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt"
cargo fmt --all -- --check

echo "== clippy"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "== docs"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --offline --no-deps --workspace

echo "== tier-1 build + test"
cargo build --locked --release --workspace
cargo test --locked -q --workspace

echo "== bench-smoke: perfbench tests + smoke"
cargo test --locked -q --offline --manifest-path perfbench/Cargo.toml
cargo run --locked --release --quiet --offline --manifest-path perfbench/Cargo.toml --bin bench -- run --smoke

echo "== ok"
