//! Service-runtime benchmark: thousands of small jobs against a
//! persistent compiled graph.
//!
//! Besides the criterion table (single warm-job latency), this harness
//! writes `BENCH_service.json`: closed-loop throughput and p50/p95/p99
//! job latency for the wordcount and logstream-digest services, plus the
//! steady-state segment-allocation count (zero on a warm graph — the
//! service layer's acceptance criterion). CI archives the record; no
//! gate reads it.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};
use pipelines::Admission;
use swan::Runtime;
use workloads::service::{
    build_wordcount_service, job_lines, run_logstream_service, run_wordcount_service,
    wordcount_serial, ServiceReport, ServiceWorkloadConfig,
};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn sized_config() -> ServiceWorkloadConfig {
    ServiceWorkloadConfig::bench(if smoke() { 150 } else { 2_000 })
}

fn bench_service(c: &mut Criterion) {
    let cfg = sized_config();
    let rt = Arc::new(Runtime::with_workers(4));
    let graph = build_wordcount_service(Arc::clone(&rt), &cfg);
    graph
        .submit(job_lines(&cfg, 0), Admission::Unbounded)
        .expect_accepted()
        .join(); // instantiate edges
    graph.prewarm(cfg.prewarm_depth());
    let lines = job_lines(&cfg, 1);
    let expect = wordcount_serial(&lines);
    let mut g = c.benchmark_group("service");
    g.sample_size(10);
    g.bench_function("wordcount_warm_job", |b| {
        b.iter(|| {
            let out = graph
                .submit(lines.clone(), Admission::Unbounded)
                .expect_accepted()
                .join();
            assert_eq!(out.len(), expect.len());
            out
        })
    });
    g.finish();
}

criterion_group!(benches, bench_service);

// ---------------------------------------------------------------------------
// BENCH_service.json: the machine-readable perf record CI archives.
// ---------------------------------------------------------------------------

fn report_block(name: &str, r: &ServiceReport) -> String {
    format!(
        "  \"{name}\": {{\n    \"jobs_per_sec\": {:.1},\n    \"p95_us\": {:.1},\n    \
         \"p99_us\": {:.1},\n    \"max_us\": {:.1},\n    \
         \"steady_state_segment_allocs\": {},\n    \
         \"admission_high_water\": {}\n  }}",
        r.throughput_jobs_per_sec,
        r.p95_us,
        r.p99_us,
        r.max_us,
        r.steady_segment_allocs,
        r.admission.high_water_in_flight,
    )
}

fn emit_json() {
    let cfg = sized_config();
    let workers = 4usize;
    let rt = Arc::new(Runtime::with_workers(workers));
    // Each run verifies every job's output against its serial elision
    // before the numbers are recorded (the checks live in the harness).
    let wc = run_wordcount_service(Arc::clone(&rt), &cfg);
    let ls = run_logstream_service(Arc::clone(&rt), &cfg);

    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"jobs\": {},\n  \"job_lines\": {},\n  \
         \"degree\": {},\n  \"workers\": {workers},\n  \"machine_cores\": {},\n  \
         \"max_in_flight\": {},\n  \"clients\": {},\n  \
         \"median_us\": {{\n    \"wordcount_p50\": {:.1},\n    \
         \"logstream_p50\": {:.1}\n  }},\n{},\n{}\n}}\n",
        cfg.jobs,
        cfg.job_lines,
        cfg.degree,
        bench::machine_cores(),
        cfg.max_in_flight,
        cfg.clients,
        wc.p50_us,
        ls.p50_us,
        report_block("wordcount", &wc),
        report_block("logstream", &ls),
    );
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!("\nBENCH_service.json:\n{json}");
}

fn main() {
    benches();
    emit_json();
}
