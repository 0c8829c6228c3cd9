#!/usr/bin/env bash
# Wall-clock benchmark + fast-path equivalence gate.
#
#   scripts/bench.sh [--quick]
#
# Two parts:
#
# 1. **Equivalence gate** — `run_all --quick` once on the fast path and
#    once with `TMI_FASTPATH=off` (software TLBs + sharer directory
#    disabled, the reference snoop/page-walk path). The two reports must
#    be byte-identical: the accelerators are not allowed to change any
#    simulated cycle count, HITM count or speedup. The BENCH_harness.json
#    metric dumps are also diffed after dropping the accelerators' own
#    `os.tlb.*` / `machine.dir.*` counters (the only legitimate delta).
#    Both wall times are captured for the report.
#
# 2. **Throughput report** — `bench_perf` times the memory-pipeline hot
#    paths (cache hits, HITM ping-pong, 32-core snoop storm, kernel
#    translation, one end-to-end experiment) fast vs reference and writes
#    BENCH_perf.json, embedding the run_all wall times from part 1. The
#    JSON is then re-validated with `bench_perf --check`.
#
# `--quick` shrinks the bench_perf iteration counts (the run_all gate is
# always --quick). CI runs `scripts/bench.sh --quick` via check.sh's
# bench-smoke stage; speedups in BENCH_perf.json are advisory there —
# only malformed output or an equivalence failure fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
case "${1:-}" in
  --quick) QUICK="--quick" ;;
  "") ;;
  *) echo "usage: scripts/bench.sh [--quick]" >&2; exit 2 ;;
esac

cargo build --release --quiet

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== equivalence: run_all --quick, fast path vs TMI_FASTPATH=off"
# Reference first, fast second: the first invocation pays the cold-start
# costs (page cache, CPU ramp), so this ordering under-reports, never
# inflates, the fast path's advantage.
t0=$(date +%s.%N)
(cd "$workdir" && TMI_FASTPATH=off "$OLDPWD"/target/release/run_all --quick > run_ref.txt)
t1=$(date +%s.%N)
mv "$workdir/BENCH_harness.json" "$workdir/harness_ref.json"
t2=$(date +%s.%N)
(cd "$workdir" && "$OLDPWD"/target/release/run_all --quick > run_fast.txt)
t3=$(date +%s.%N)
mv "$workdir/BENCH_harness.json" "$workdir/harness_fast.json"
ref_secs=$(awk "BEGIN{print $t1 - $t0}")
fast_secs=$(awk "BEGIN{print $t3 - $t2}")

diff -u "$workdir/run_ref.txt" "$workdir/run_fast.txt" \
  || { echo "fast path changed run_all --quick output — accelerators must be invisible"; exit 1; }
# wall_seconds is host time; the accelerator counters are the only
# simulated-state delta the fast path is allowed.
filter() { grep -v -e '"os\.tlb\.' -e '"machine\.dir\.' -e '"wall_seconds"' "$1"; }
filter "$workdir/harness_fast.json" > "$workdir/hf.json"
filter "$workdir/harness_ref.json" > "$workdir/hr.json"
diff -u "$workdir/hr.json" "$workdir/hf.json" \
  || { echo "fast path changed BENCH_harness.json beyond its own counters"; exit 1; }
echo "equivalence OK (fast ${fast_secs}s vs reference ${ref_secs}s)"

echo "== throughput: bench_perf ${QUICK:-(full)}"
target/release/bench_perf $QUICK --out BENCH_perf.json --run-all-wall "$fast_secs" "$ref_secs"
target/release/bench_perf --check BENCH_perf.json
