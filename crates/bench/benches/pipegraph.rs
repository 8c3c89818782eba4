//! Graph-pipeline benchmark: the logstream workload on the DAG composition
//! layer, fan-out degrees swept against the linear chain equivalent. The
//! degree moves only branch A's aggregation shards; branch B's digest is
//! a farm, which has no degree.
//!
//! Besides the criterion table, this harness writes `BENCH_pipegraph.json`
//! (median ms per run for the linear chain and each fan-out degree, plus
//! the degree-4 speedup) so CI can archive the graph layer's perf
//! trajectory next to `BENCH_queue_ops.json`. The headline number is the
//! acceptance criterion for the DAG layer: the fan-out pipeline must beat
//! its linear equivalent once ≥ 4 workers are available.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use swan::Runtime;
use workloads::logstream::{corpus, run_graph, run_linear, run_serial, LogConfig};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn sized_config() -> LogConfig {
    LogConfig::bench(if smoke() { 20_000 } else { 120_000 })
}

fn bench_pipegraph(c: &mut Criterion) {
    let cfg = sized_config();
    let lines = corpus(&cfg);
    let rt = Runtime::with_workers(4);
    let mut g = c.benchmark_group("pipegraph_logstream");
    g.throughput(Throughput::Elements(cfg.records as u64));
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("linear", 4), |b| {
        b.iter(|| run_linear(&cfg, &lines, &rt))
    });
    for degree in [2usize, 4] {
        g.bench_function(BenchmarkId::new(format!("fanout_x{degree}"), 4), |b| {
            b.iter(|| run_graph(&cfg, &lines, &rt, degree))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipegraph);

// ---------------------------------------------------------------------------
// BENCH_pipegraph.json: the machine-readable perf record CI archives.
// ---------------------------------------------------------------------------

fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (d, ()) = bench::time(&mut f);
            d.as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn emit_json() {
    let cfg = sized_config();
    let lines = corpus(&cfg);
    let reps = if smoke() { 1 } else { 5 };
    let workers = 4usize; // the acceptance point: fan-out must win here

    // Cross-check before timing: every measured driver produces the
    // serial output, so the numbers below describe *correct* pipelines.
    let (serial, _) = run_serial(&cfg, &lines);
    let rt = Runtime::with_workers(workers);
    assert_eq!(run_linear(&cfg, &lines, &rt).checksum(), serial.checksum());

    let serial_ms = median_ms(reps, || {
        let _ = run_serial(&cfg, &lines);
    });
    let linear_ms = median_ms(reps, || {
        let _ = run_linear(&cfg, &lines, &rt);
    });
    let degrees = [1usize, 2, 4, 8];
    let mut degree_ms = Vec::new();
    for &d in &degrees {
        assert_eq!(
            run_graph(&cfg, &lines, &rt, d).checksum(),
            serial.checksum()
        );
        degree_ms.push(median_ms(reps, || {
            let _ = run_graph(&cfg, &lines, &rt, d);
        }));
    }
    let fanout4_ms = degree_ms[2];

    let mut degree_json = String::new();
    for (i, &d) in degrees.iter().enumerate() {
        degree_json.push_str(&format!(
            "    \"fanout_x{d}\": {:.2}{}\n",
            degree_ms[i],
            if i + 1 < degrees.len() { "," } else { "" }
        ));
    }
    // The speedup is only physical when the machine can actually run the
    // 4 workers: on fewer cores the whole sweep collapses to ~1.0x, so the
    // record carries the core count for interpretation.
    let json = format!(
        "{{\n  \"bench\": \"pipegraph\",\n  \"workload\": \"logstream\",\n  \
         \"records\": {},\n  \"workers\": {workers},\n  \
         \"machine_cores\": {},\n  \"reps\": {reps},\n  \
         \"median_ms\": {{\n    \"serial\": {serial_ms:.2},\n    \
         \"linear\": {linear_ms:.2},\n{degree_json}  }},\n  \
         \"fanout4_speedup_vs_linear\": {:.2},\n  \
         \"fanout4_speedup_vs_serial\": {:.2}\n}}\n",
        cfg.records,
        bench::machine_cores(),
        linear_ms / fanout4_ms,
        serial_ms / fanout4_ms
    );
    std::fs::write("BENCH_pipegraph.json", &json).expect("write BENCH_pipegraph.json");
    println!("\nBENCH_pipegraph.json:\n{json}");
}

fn main() {
    benches();
    emit_json();
}
