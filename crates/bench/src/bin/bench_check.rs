//! bench-check: the CI perf-regression gate.
//!
//! Diffs the freshly produced `BENCH_*.json` perf records against the
//! committed baselines in `crates/bench/baselines/` and fails (exit 1)
//! when any gated metric regresses by more than the threshold.
//!
//! What is gated: every numeric leaf under a `median_*` object
//! (`median_ns_per_op`, `median_ms`, `median_us`). Medians only — p95/p99
//! and speedup ratios are recorded for humans but too noisy to gate.
//!
//! When the gate **skips** (exit 0 with a notice):
//! * the machine has fewer than `--min-cores` cores (default 4): perf on
//!   a starved runner measures the runner, not the change;
//! * a record and its baseline disagree on `machine_cores`: the baseline
//!   came from a different runner class and must be refreshed (see
//!   README "Refreshing the bench baselines").
//!
//! Verification hooks:
//! * `--inject-slowdown 2.0` multiplies every fresh median before the
//!   comparison — run it locally to prove the gate trips;
//! * `--min-cores 1` lets the gate run on small machines for that check.
//!
//! Usage (CI): `bench_check --baseline-dir crates/bench/baselines
//! --fresh-dir crates/bench [--threshold 0.25]`

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use bench::tinyjson::{flatten_numbers, parse, Value};

const RECORDS: [&str; 6] = [
    "BENCH_queue_ops.json",
    "BENCH_pipegraph.json",
    "BENCH_service.json",
    "BENCH_ingress.json",
    "BENCH_journal.json",
    "BENCH_partition.json",
];

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn machine_cores_of(v: &Value) -> Option<f64> {
    flatten_numbers(v).get("machine_cores").copied()
}

/// The gated medians of a record: numeric leaves under a `median_*` object.
fn gated_medians(v: &Value) -> BTreeMap<String, f64> {
    flatten_numbers(v)
        .into_iter()
        .filter(|(path, _)| {
            path.split('.')
                .next()
                .is_some_and(|head| head.starts_with("median_"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = bench::Args::parse();
    let baseline_dir = args.get("baseline-dir").unwrap_or("crates/bench/baselines");
    let fresh_dir = args.get("fresh-dir").unwrap_or("crates/bench");
    let threshold: f64 = args
        .get("threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let min_cores = args.get_usize("min-cores", 4);
    let inject: f64 = args
        .get("inject-slowdown")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);

    let cores = bench::machine_cores();
    if cores < min_cores {
        println!(
            "bench-check: SKIPPED — this machine has {cores} core(s), below the \
             --min-cores {min_cores} floor. Perf medians on a starved runner measure \
             the runner, not the change; the gate only runs on >= {min_cores} cores."
        );
        return ExitCode::SUCCESS;
    }
    if inject != 1.0 {
        println!("bench-check: injecting a synthetic {inject}x slowdown into every fresh median");
    }

    let mut failures = 0usize;
    let mut compared = 0usize;
    for record in RECORDS {
        let fresh_path = Path::new(fresh_dir).join(record);
        let base_path = Path::new(baseline_dir).join(record);
        let fresh = match load(&fresh_path) {
            Ok(v) => v,
            Err(e) => {
                println!("bench-check: FAIL — {e} (did the bench harness run?)");
                failures += 1;
                continue;
            }
        };
        let base = match load(&base_path) {
            Ok(v) => v,
            Err(e) => {
                println!(
                    "bench-check: FAIL — {e}\n  refresh procedure: run the bench harness on a \
                     standard runner and commit the record to {baseline_dir}/ (see README)"
                );
                failures += 1;
                continue;
            }
        };
        // Medians are only comparable within one runner class, so both
        // sides must declare machine_cores and agree on it. A missing
        // field means the record predates the gate — skip rather than
        // compare apples to oranges.
        match (machine_cores_of(&fresh), machine_cores_of(&base)) {
            (Some(f), Some(b)) if f == b => {}
            (f, b) => {
                let show = |v: Option<f64>| {
                    v.map(|c| format!("{c}-core"))
                        .unwrap_or_else(|| "unknown-machine".to_string())
                };
                println!(
                    "bench-check: {record}: SKIPPED — baseline is {} and this run is {}; \
                     medians are not comparable across runner classes. Refresh the \
                     baseline (README).",
                    show(b),
                    show(f)
                );
                continue;
            }
        }
        let base_medians = gated_medians(&base);
        let fresh_medians = gated_medians(&fresh);
        for (key, base_val) in &base_medians {
            let Some(&fresh_val) = fresh_medians.get(key) else {
                println!("bench-check: FAIL — {record}: gated metric `{key}` disappeared");
                failures += 1;
                continue;
            };
            if *base_val <= 0.0 {
                continue; // cannot ratio against a zero baseline
            }
            let ratio = fresh_val * inject / base_val;
            compared += 1;
            let verdict = if ratio > 1.0 + threshold {
                failures += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "bench-check: {record}: {key}: baseline {base_val:.2}, fresh {:.2} \
                 ({ratio:.2}x) .. {verdict}",
                fresh_val * inject
            );
        }
        for key in fresh_medians.keys() {
            if !base_medians.contains_key(key) {
                println!(
                    "bench-check: note — {record}: new gated metric `{key}` has no \
                     baseline yet (add it on the next refresh)"
                );
            }
        }
    }

    if failures > 0 {
        println!(
            "bench-check: FAILED — {failures} problem(s) across {compared} compared \
             median(s); threshold {:.0}%",
            threshold * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench-check: PASSED — {compared} median(s) within {:.0}% of baseline",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    }
}
