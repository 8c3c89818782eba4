//! The service layer in one screen: compile a graph once, keep it hot on
//! a persistent runtime, fire many jobs at it — every output matches the
//! serial elision at any worker count.
//!
//! Run with `cargo run --release --example service`.

use std::sync::Arc;

use hyperqueues::pipelines::graph::{Admission, ServiceConfig};
use hyperqueues::swan::{Runtime, RuntimeConfig};
use hyperqueues::workloads::service::{
    job_lines, wordcount_serial, wordcount_spec, ServiceWorkloadConfig,
};

fn main() {
    // A long-lived runtime, one worker per core: workers park between jobs.
    let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
    println!("persistent runtime: {} worker(s)", rt.workers());

    // Compile the wordcount graph once: tokenize -> sharded counting ->
    // ordered merge. All stage closures live behind Arcs, so the same
    // spec re-instantiates for every job.
    let cfg = ServiceWorkloadConfig::small();
    let graph = wordcount_spec(cfg.degree, cfg.window).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 3,
            ..ServiceConfig::default()
        },
    );

    // Warm the graph (instantiates the per-edge segment pools), then park
    // the worst-case segment demand so the loop below never allocates.
    graph
        .submit(job_lines(&cfg, 0), Admission::Unbounded)
        .expect_accepted()
        .join();
    graph.prewarm(cfg.prewarm_depth());
    let warm = graph.telemetry().storage;

    // Fire a burst of jobs.
    let handles: Vec<_> = (0..32)
        .map(|j| {
            graph
                .submit(job_lines(&cfg, j), Admission::Unbounded)
                .expect_accepted()
        })
        .collect();
    for (j, h) in handles.into_iter().enumerate() {
        let out = h.join();
        assert_eq!(out, wordcount_serial(&job_lines(&cfg, j)));
        if j % 8 == 0 {
            println!(
                "job {j:>2}: {} distinct words (verified vs serial elision)",
                out.len()
            );
        }
    }

    let t = graph.telemetry();
    let (jobs, storage) = (t.admission, t.storage);
    println!(
        "\n{} jobs completed; peak in-flight {} (bound {});",
        jobs.completed, jobs.high_water_in_flight, jobs.max_in_flight
    );
    println!(
        "segments: {} allocated during the burst (pools served {} draws, {} returned)",
        storage.segments_allocated - warm.segments_allocated,
        storage.pool_hits - warm.pool_hits,
        storage.segments_returned - warm.segments_returned,
    );
}
