#!/bin/sh
# Deterministic counters of the end-to-end benchmark, beside the last
# recorded BENCH_<n>.json at the repo root (the one with the largest n).
#
# For each workload it runs one traced unit,
#   sh bench/e2e/run.sh --workload W --seed 42 --seconds 5 --trace 1
# reads sim.events, routeflow.flow_exports, routeflow.flow_mods and
# routing.spf_runs from the run's last stdout line (JSON), and prints
# them beside the same counters in that file as a Markdown table,
# marking each one that differs. The counters follow the virtual clock
# only, so the short --seconds does not move them.
#
# It reports and does not fail: a difference, or a run that printed no
# result, is a row in the table and the exit status stays 0.
#
# Usage, from anywhere in the checkout: sh ci/e2e-counts.sh
set -u
cd "$(dirname "$0")/.."
bench=$(ls BENCH_*.json | sed -n 's/^BENCH_\([0-9]*\)\.json$/\1/p' | sort -n |
  tail -n 1)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
workloads="fig3-sweep x1-ring-60 e9-failover-28 e6b-fattree-k20"
for w in $workloads; do
  sh bench/e2e/run.sh --workload "$w" --seed 42 --seconds 5 --trace 1 \
    > "$out/$w.txt" 2>&1 || true
done
python3 - "BENCH_$bench.json" "$out" $workloads <<'PY'
import json, sys

bench_file, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
counters = ["sim.events", "routeflow.flow_exports", "routeflow.flow_mods",
            "routing.spf_runs"]
recorded = json.load(open(bench_file))["workloads"]

def fmt(v):
    return "-" if v is None else f"{int(v):,}"

print(f"Deterministic e2e counters (seed 42, traced) against {bench_file}\n")
print(f"| workload | counter | {bench_file} | this tree | |")
print("|---|---|---:|---:|---|")
for w in workloads:
    try:
        lines = open(f"{out}/{w}.txt").read().strip().splitlines()
        now = json.loads(lines[-1])["metrics"]
    except (OSError, IndexError, ValueError, KeyError):
        now = None
    before = recorded.get(w, {}).get("layers", {})
    for c in counters:
        b = before.get(c, {}).get("value")
        n = None if now is None else now.get(c, {}).get("value")
        if now is None:
            mark = "run printed no result"
        elif b is None:
            mark = "not recorded"
        elif n != b:
            mark = f"**changed** ({int(n) - int(b):+,})"
        else:
            mark = ""
        print(f"| {w} | {c} | {fmt(b)} | {fmt(n)} | {mark} |")
PY
exit 0
