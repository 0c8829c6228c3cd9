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
#            also covers the vendored stand-ins under vendor/); it holds
#            the telemetry contract, tests/telemetry_observability.rs
#            (metric-name schema, schema-only exports from every runtime,
#            repair-episode trace; regenerate its goldens deliberately with
#            TMI_BLESS=1 cargo test --test telemetry_observability)
#   smoke    run_all --quick, the in-process harness end to end, which
#            also exercises the parallel executor, BENCH_harness.json and
#            the --trace writer; its report must byte-match
#            tests/golden/run_all_quick.txt (regenerate deliberately with
#            target/release/run_all --quick > tests/golden/run_all_quick.txt).
#            Two of the three sections without a quick scale render at
#            scale 0.05 and must byte-match
#            tests/golden/run_all_fig11_sweep_threads.txt (regenerate with
#            target/release/run_all fig11 sweep_threads 0.05 \
#              > tests/golden/run_all_fig11_sweep_threads.txt); table1 is
#            left out, as its overhead rows run at scale 2 whatever the
#            SCALE (~30 s)
#   bench-smoke  the benchmark gate: the standalone perfbench package
#            (its own cargo package and the only timing harness, see
#            perfbench/README.md): its unit, API-guard and self-check
#            tests, and a --smoke run of every workload, which exits
#            non-zero on any wrong output (timings are not gated here)
#   service  the job-server determinism proof: boot the tmi_serve daemon
#            with the seeded service chaos plan (--service-faults 1,
#            which kills the attempt on every second pickup), drive the
#            same job through it three ways — cold compute, cache-served
#            duplicate, and --fresh recompute whose first attempt is
#            killed and retried, re-simulating the job — and byte-diff
#            the three result payloads; the server's stats must show the
#            kill, the retry and the cache hit actually happened
#   crash    the crash-recovery proof: crash_matrix boots tmi_serve on a
#            durable data dir, kills it with SIGKILL at 8 seeded points
#            x {none, journal-tear, cache-corrupt} persistence fault
#            plans, restarts it on the same dir, and three-way byte-diffs
#            every reply stream (pre-kill, post-restart, unkilled
#            reference); each cell must also show warm cache hits
#            (service.persist.cache.warm_hits > 0), the damage its plan
#            targets (a torn journal record, a dropped cache entry, or
#            neither), exactly-once re-execution of journal-replayed
#            jobs, and a graceful SIGTERM drain with exit 0 (see
#            EXPERIMENTS.md "Crash recovery")
#   fuzz     fixed-seed differential fuzz: 64 litmus seeds through the
#            repair path vs the sequential oracle (must be clean), plus
#            16 seeds with --ablate-code-centric (must diverge)
#   faults   fixed-seed fault matrix: 128 litmus seeds under the seeded
#            fault schedule --faults 1; the oracle must stay clean AND
#            every fault point must fire with retry, rollback and
#            efficacy-revert each exercised (the binary exits non-zero
#            on incomplete coverage; see EXPERIMENTS.md "Fault
#            campaigns")
#   transistency  fixed-seed VM-operation litmus campaign: 500 seeds of
#            mprotect / COW-break / T2P / twin-commit / TLB-shootdown
#            programs plus a bounded DPOR-lite enumeration (up to 8
#            VM-op placements per seed) must check clean against the
#            sequential oracle with TMI on, and the --ablate-shootdown
#            sanity run (imprecise TLB shootdowns over 40 seeds) must
#            find divergences with a minimized reproducer, or the
#            campaign has no teeth (see EXPERIMENTS.md "Transistency
#            campaigns")
#
# The five campaign reports of the last three stages are deterministic
# for any worker count, and each must also byte-match its golden under
# tests/golden/. If a report changes deliberately, regenerate the golden
# with the stage's own command:
#   target/release/fuzz_consistency --seeds 64 > tests/golden/fuzz_seeds64.txt
#   target/release/fuzz_consistency --seeds 16 --ablate-code-centric \
#     > tests/golden/fuzz_ablate_code_centric.txt
#   target/release/fuzz_consistency --seeds 128 --faults 1 > tests/golden/fuzz_faults.txt
#   target/release/fuzz_consistency --transistency --seeds 500 --enumerate 8 \
#     > tests/golden/fuzz_transistency.txt
#   target/release/fuzz_consistency --transistency --ablate-shootdown --seeds 40 \
#     > tests/golden/fuzz_ablate_shootdown.txt
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

echo "== smoke: run_all --quick"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
(cd "$smoke_dir" && "$OLDPWD"/target/release/run_all --quick --trace trace_quick.json > run_all_quick.txt)
test -s "$smoke_dir/BENCH_harness.json"
test -s "$smoke_dir/trace_quick.json"
grep -q '"schema": "tmi-bench-harness/2"' "$smoke_dir/BENCH_harness.json"
diff -u tests/golden/run_all_quick.txt "$smoke_dir/run_all_quick.txt" \
  || { echo "run_all --quick drifted from tests/golden/run_all_quick.txt"; exit 1; }
(cd "$smoke_dir" && "$OLDPWD"/target/release/run_all fig11 sweep_threads 0.05 \
  > run_all_fig11_sweep_threads.txt)
diff -u tests/golden/run_all_fig11_sweep_threads.txt "$smoke_dir/run_all_fig11_sweep_threads.txt" \
  || { echo "run_all fig11 sweep_threads drifted from its golden"; exit 1; }

echo "== service: daemon boot + cold/cached/fault-retried byte equality"
target/release/tmi_serve --workers 2 --service-faults 1 \
  --port-file "$smoke_dir/service.port" > "$smoke_dir/service.log" &
serve_pid=$!
for _ in $(seq 1 100); do test -s "$smoke_dir/service.port" && break; sleep 0.1; done
test -s "$smoke_dir/service.port" || { echo "tmi_serve did not come up"; exit 1; }
job="run --workload histogramfs --runtime tmi-protect --threads 4 --scale 0.05 --misaligned"
target/release/tmi_client --port-file "$smoke_dir/service.port" $job \
  > "$smoke_dir/service_cold.json" 2> /dev/null
target/release/tmi_client --port-file "$smoke_dir/service.port" $job \
  > "$smoke_dir/service_cached.json" 2> /dev/null
target/release/tmi_client --port-file "$smoke_dir/service.port" $job --fresh \
  > "$smoke_dir/service_fault.json" 2> /dev/null
cmp "$smoke_dir/service_cold.json" "$smoke_dir/service_cached.json" \
  || { echo "cache-served payload differs from cold compute"; exit 1; }
cmp "$smoke_dir/service_cold.json" "$smoke_dir/service_fault.json" \
  || { echo "fault-retried payload differs from cold compute"; exit 1; }
svc_stats=$(target/release/tmi_client --port-file "$smoke_dir/service.port" stats 2> /dev/null)
for want in '"service.worker_kills": 1' '"service.jobs_retried": 1' \
            '"service.cache_hits": 1'; do
  printf '%s\n' "$svc_stats" | grep -qF "$want" \
    || { printf '%s\n' "$svc_stats"; echo "service stats missing $want"; exit 1; }
done
target/release/tmi_client --port-file "$smoke_dir/service.port" shutdown 2> /dev/null
wait "$serve_pid"

echo "== bench-smoke: perfbench tests + smoke"
cargo test --locked -q --offline --manifest-path perfbench/Cargo.toml
cargo run --locked --release --quiet --offline --manifest-path perfbench/Cargo.toml --bin bench -- run --smoke

echo "== crash: seeded kill -9 matrix + byte-identical recovery"
target/release/crash_matrix --kill-points 8 --data-root "$smoke_dir/crash"

# Byte-compares the campaign report $smoke_dir/$1 with tests/golden/$1.
campaign_golden() {
  diff -u "tests/golden/$1" "$smoke_dir/$1" \
    || { echo "campaign report drifted from tests/golden/$1"; exit 1; }
}

echo "== fuzz: differential consistency oracle"
target/release/fuzz_consistency --seeds 64 > "$smoke_dir/fuzz_seeds64.txt" \
  || { cat "$smoke_dir/fuzz_seeds64.txt"; echo "fuzz campaign diverged"; exit 1; }
campaign_golden fuzz_seeds64.txt
target/release/fuzz_consistency --seeds 16 --ablate-code-centric \
  > "$smoke_dir/fuzz_ablate_code_centric.txt" \
  || { echo "ablated fuzz campaign failed to diverge"; exit 1; }
campaign_golden fuzz_ablate_code_centric.txt

echo "== faults: seeded fault-injection matrix"
fault_out="$smoke_dir/fuzz_faults.txt"
target/release/fuzz_consistency --seeds 128 --faults 1 > "$fault_out" \
  || { cat "$fault_out"; echo "fault campaign diverged or left coverage incomplete"; exit 1; }
grep -q 'fault coverage: OK' "$fault_out" \
  || { cat "$fault_out"; echo "fault campaign coverage incomplete"; exit 1; }
campaign_golden fuzz_faults.txt

echo "== transistency: VM operations x consistency"
target/release/fuzz_consistency --transistency --seeds 500 --enumerate 8 \
  > "$smoke_dir/fuzz_transistency.txt" \
  || { cat "$smoke_dir/fuzz_transistency.txt"; echo "transistency campaign diverged"; exit 1; }
campaign_golden fuzz_transistency.txt
ablate_out="$smoke_dir/fuzz_ablate_shootdown.txt"
target/release/fuzz_consistency --transistency --ablate-shootdown --seeds 40 > "$ablate_out" \
  || { cat "$ablate_out"; echo "shootdown-ablated campaign failed to diverge"; exit 1; }
grep -q -- '--ablate-shootdown' "$ablate_out" \
  || { cat "$ablate_out"; echo "ablated campaign report lacks a reproducer line"; exit 1; }
campaign_golden fuzz_ablate_shootdown.txt

echo "== ok"
