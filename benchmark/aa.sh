#!/usr/bin/env bash
# A/A noise calibration: two sets of N runs (seeds 1..N) per workload on
# one build. Prints, per workload/metric, each set's median and quartiles,
# the spread (IQR / median, as the driver computes it) and the relative
# gap between the two medians, next to the bound in BENCHMARK.json. The
# raw-unit lines every run also prints (throughput, latencies, CPU time,
# the workload-specific ratios) are tabled the same way, marked "printed":
# they carry no bound. So are the rows of a workload BENCHMARK.json does
# not list ("not gated").
#
#   benchmark/aa.sh [N=5] [workload ...]
#
# The README table is `aa.sh 10 <workload>` once per workload, each in the
# foreground: twenty runs of one workload back to back, nothing else
# running.
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:-5}"
shift || true
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(ferret_batch stream_finegrain service_tcp durable_routed)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hqbench"
mkdir -p benchmark/out
log=benchmark/out/aa.txt
: > "$log"
for w in "${workloads[@]}"; do
    for set in A B; do
        for seed in $(seq 1 "$n"); do
            echo "aa: $w set $set seed $seed" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
                sed -n "s|^$w/|$w $set |p" >> "$log"
        done
    done
done

python3 - "$log" <<'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
spec = {m["name"]: m for m in bench["end_to_end"]}
gated = {w["name"] for w in bench["workloads"]}
runs = {}  # (workload, metric) -> set -> values, in first-seen order
for line in open(sys.argv[1]):
    w, s, name, value, _unit = line.split()
    runs.setdefault((w, name), {"A": [], "B": []})[s].append(float(value))
assert all(v == 0 for sets in (runs[k] for k in runs if k[1] == "error_rate")
           for vals in sets.values() for v in vals), "a run failed verification"
print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread | gap (worse dir.) | bound |")
print("|---|---|---|---|---|---|---|---|")
for (w, name), sets in runs.items():
    if name == "error_rate":
        continue
    col = {}
    for s, v in sets.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        col[s] = (med, q1, q3, (q3 - q1) / med)
    a, b = col["A"][0], col["B"][0]
    m = spec.get(name)
    lower = m["better"] == "lower" if m else name not in ("throughput_ops_s", "throughput_peritem_ops_s")
    gap = (b - a) / a if lower else (a - b) / a
    fmt = lambda c: f"{c[0]:.6g} [{c[1]:.6g}, {c[2]:.6g}] | {c[3]:.2%}"
    if m is None:
        bound = "printed"
    elif w not in gated:
        bound = "not gated"
    else:
        bound = str(m["bound"])
        if name != "setup_s" and max(col["A"][3], col["B"][3]) > m["bound"] / 3:
            bound += " (spread > bound/3)"
        if gap > m["bound"] / 2:
            bound += " (gap > bound/2)"
    print(f"| {w} | {name} | {fmt(col['A'])} | {fmt(col['B'])} | {gap:+.2%} | {bound} |")
PY
