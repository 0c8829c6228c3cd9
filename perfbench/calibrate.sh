#!/usr/bin/env bash
# Runs every benchmark workload N times (default 10), each with another
# seed, through the command BENCHMARK.json names, and prints for each
# end-to-end metric its median, its quartiles and their distance as a share
# of the median (the relative IQR), plus the bound that spread suggests:
# three relative IQRs, at least 5% and at most 25%.
#
#   [FIRST_SEED=S] perfbench/calibrate.sh [N] [workload...]
#
# Seeds run from FIRST_SEED (default 1). Run it from anywhere inside the
# repository; it needs python3. Every result line is kept under
# perfbench/target/calibrate/.
set -euo pipefail

n="${1:-10}"
first="${FIRST_SEED:-1}"
shift || true
cd "$(dirname "$0")/.."

mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

out=perfbench/target/calibrate
mkdir -p "$out"
for w in "${workloads[@]}"; do
    : > "$out/$w.jsonl"
    for seed in $(seq "$first" $((first + n - 1))); do
        "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1 >> "$out/$w.jsonl"
        echo "$w seed $seed done" >&2
    done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
print(f"{'workload':<16} {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'rel_iqr':>8} {'bound':>6}  ok")
for w in workloads:
    runs = [json.loads(l) for l in open(f"{out}/{w}.jsonl")]
    if not all(r["correct"] for r in runs):
        print(f"{w}: some runs were not correct")
    for m in bench["end_to_end"]:
        xs = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        rel = (q3 - q1) / med if med else float("inf")
        suggested = min(0.25, max(0.05, 3 * rel))
        ok = "yes" if rel <= m["bound"] / 3 else "NO"
        print(f"{w:<16} {m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.4f} {suggested:>6.3f}  {ok}")
EOF
