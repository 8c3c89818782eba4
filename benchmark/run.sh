#!/usr/bin/env bash
# Builds hqbench (release, offline) and runs it.
#
#   benchmark/run.sh [--workload <name>] [--seed <u64>] [--seconds <n>]
#                    [--trace 0|1 | --trace] [--scratch <dir>] [--clients <n>] [--force]
#
# Without --workload all four run, each in its own process. --seed
# defaults to 1; seed 2 is the held-out seed: a later claim made while
# looking at seed 1 must also hold on seed 2. `--trace` without a value
# runs both modes and fails if recording spans costs more than 5% of
# service_tcp's throughput. Prints one `workload/metric value unit` line
# per metric; the last line is a JSON object. Exit code != 0 when any op
# failed verification.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(ferret_batch stream_finegrain service_tcp durable_routed)
seed=1
modes=(0)
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --trace)
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then modes=("$2"); shift 2
            else modes=(0 1); shift; fi ;;
        --force) pass+=("$1"); shift ;;
        *) pass+=("$1" "$2"); shift 2 ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hqbench"

for w in "${workloads[@]}"; do
    for t in "${modes[@]}"; do
        rc=0
        out="$("$bin" --workload "$w" --seed "$seed" --trace "$t" "${pass[@]}")" || rc=$?
        printf '%s\n' "$out"
        [ "$rc" = 0 ] || exit "$rc"
        if [ "${#modes[@]}" = 2 ] && [ "$t" = 1 ] && [ "$w" = service_tcp ]; then
            printf '%s\n' "$out" | awk '$1 == "service_tcp/trace.overhead_pct" && $2 > 5 {
                print "run.sh: tracing costs " $2 "% of service_tcp throughput (limit 5%)" > "/dev/stderr"
                exit 1 }'
        fi
    done
done
