//! The service-layer acceptance suite: persistent graphs, multi-job
//! admission, elastic workers.
//!
//! Three properties pin the tentpole:
//!
//! 1. **Cross-job determinism** — N concurrent jobs through one compiled
//!    graph, on 1/2/8 workers: every job's output equals its serial
//!    elision, regardless of how jobs interleave (plus a proptest sweep
//!    over job sizes and admission limits).
//! 2. **Zero-allocation steady state** — a warm persistent graph
//!    sustains ≥ 1000 sequential jobs without allocating a single
//!    segment (asserted via the pool/alloc counters).
//! 3. **Elasticity** — growing/shrinking the worker pool between (and
//!    during) jobs never changes observable output.
//!
//! `HQ_SERVICE_JOBS` shrinks the sustained-jobs loop for instrumented
//! runs (the CI ThreadSanitizer job sets it).

use std::sync::Arc;

use hyperqueues::pipelines::graph::{Admission, GraphSpec, ServiceConfig};
use hyperqueues::swan::{Runtime, RuntimeConfig};
use hyperqueues::workloads::service::{
    build_wordcount_service, job_lines, logstream_digest_serial, logstream_digest_spec,
    wordcount_serial, ServiceWorkloadConfig,
};
use proptest::prelude::*;

fn small_cfg(jobs: usize) -> ServiceWorkloadConfig {
    let mut cfg = ServiceWorkloadConfig::small();
    cfg.jobs = jobs;
    cfg
}

/// How many sequential jobs the steady-state test sustains. 1000+ by
/// default (the acceptance criterion); `HQ_SERVICE_JOBS` overrides for
/// instrumented (TSan) runs.
fn sustained_jobs() -> usize {
    std::env::var("HQ_SERVICE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

#[test]
fn concurrent_jobs_deterministic_on_1_2_8_workers() {
    let cfg = small_cfg(16);
    let expected: Vec<_> = (0..cfg.jobs)
        .map(|j| wordcount_serial(&job_lines(&cfg, j)))
        .collect();
    for workers in [1usize, 2, 8] {
        let rt = Arc::new(Runtime::with_workers(workers));
        let graph = build_wordcount_service(rt, &cfg);
        // Submit everything up front so jobs genuinely overlap (up to
        // the admission bound), then join in submission order.
        let handles: Vec<_> = (0..cfg.jobs)
            .map(|j| {
                graph
                    .submit(job_lines(&cfg, j), Admission::Unbounded)
                    .expect_accepted()
            })
            .collect();
        for (j, h) in handles.into_iter().enumerate() {
            assert_eq!(
                h.join(),
                expected[j],
                "job {j} diverged from its serial elision at {workers} workers"
            );
        }
        let stats = graph.telemetry().admission;
        assert_eq!(stats.completed, cfg.jobs as u64);
        assert!(
            stats.high_water_in_flight <= cfg.max_in_flight,
            "admission bound violated at {workers} workers: {stats:?}"
        );
    }
}

#[test]
fn sustained_jobs_allocate_zero_segments_after_warmup() {
    let jobs = sustained_jobs();
    // Small digest jobs on a persistent graph; sequential submission so
    // the steady state is exactly "job N+1 reuses job N's segments".
    let mut cfg = small_cfg(jobs);
    cfg.job_lines = 24;
    cfg.degree = 2;
    cfg.max_in_flight = 1;
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = logstream_digest_spec(cfg.degree, cfg.window, 0).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: cfg.max_in_flight,
            segment_capacity: cfg.segment_capacity,
            io_batch: cfg.io_batch,
            ..ServiceConfig::default()
        },
    );
    // Warm-up: instantiate the edges, then park the worst-case segment
    // demand in every pool.
    let lines0 = job_lines(&cfg, 0);
    assert_eq!(
        graph
            .submit(lines0.clone(), Admission::Unbounded)
            .expect_accepted()
            .join(),
        logstream_digest_serial(&lines0, 0)
    );
    graph.prewarm(cfg.prewarm_depth());
    let warm = graph.telemetry().storage;

    for j in 1..=jobs {
        let lines = job_lines(&cfg, j);
        let out = graph
            .submit(lines.clone(), Admission::Unbounded)
            .expect_accepted()
            .join();
        if j % 251 == 0 {
            assert_eq!(out, logstream_digest_serial(&lines, 0), "job {j} diverged");
        }
    }

    let after = graph.telemetry().storage;
    assert_eq!(
        after.segments_allocated, warm.segments_allocated,
        "steady state must not allocate segments: {jobs} jobs took \
         {warm:?} -> {after:?}"
    );
    assert!(
        after.pool_hits > warm.pool_hits,
        "jobs must draw their segments from the pools: {after:?}"
    );
    assert!(
        after.segments_returned > warm.segments_returned,
        "completed jobs must recycle their segment chains: {after:?}"
    );
    assert_eq!(graph.telemetry().admission.completed, jobs as u64 + 1);
}

#[test]
fn elastic_resize_between_and_during_jobs_keeps_output_identical() {
    let cfg = small_cfg(12);
    let expected: Vec<_> = (0..cfg.jobs)
        .map(|j| wordcount_serial(&job_lines(&cfg, j)))
        .collect();
    let rt = Arc::new(Runtime::new(RuntimeConfig::new().workers(1..=8)));
    let graph = build_wordcount_service(Arc::clone(&rt), &cfg);
    // Sweep the pool size while jobs flow: grow mid-stream, shrink back.
    for (j, expect) in expected.iter().enumerate() {
        match j {
            2 => assert_eq!(rt.resize_workers(2), 2),
            4 => assert_eq!(rt.resize_workers(8), 8),
            7 => assert_eq!(rt.resize_workers(3), 3),
            9 => assert_eq!(rt.resize_workers(1), 1),
            _ => {}
        }
        let h = graph
            .submit(job_lines(&cfg, j), Admission::Unbounded)
            .expect_accepted();
        if j % 2 == 0 {
            // Resize *while* this job runs, too.
            rt.resize_workers(if j % 4 == 0 { 5 } else { 2 });
        }
        assert_eq!(&h.join(), expect, "job {j} output changed under resize");
    }
    assert_eq!(graph.telemetry().admission.completed, cfg.jobs as u64);
}

#[test]
fn admission_is_fifo_and_bounded_under_burst() {
    let cfg = small_cfg(24);
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = build_wordcount_service(rt, &cfg);
    let handles: Vec<_> = (0..cfg.jobs)
        .map(|j| {
            graph
                .submit(job_lines(&cfg, j), Admission::Unbounded)
                .expect_accepted()
        })
        .collect();
    // Handles carry the admission sequence: submission order is FIFO.
    for (j, h) in handles.iter().enumerate() {
        assert_eq!(h.id(), j as u64, "job ids must follow submission order");
    }
    for h in handles {
        h.join();
    }
    let stats = graph.telemetry().admission;
    assert_eq!(stats.completed, cfg.jobs as u64);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queued, 0);
    assert!(stats.high_water_in_flight <= cfg.max_in_flight);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, ..ProptestConfig::default()
    })]

    /// Random job sizes × admission limits × worker counts × edge
    /// capacities: every job of every interleaving equals its serial
    /// elision, and the admission bound holds.
    #[test]
    fn random_job_mixes_stay_deterministic(
        sizes in prop::collection::vec(1usize..150, 1..10),
        max_in_flight in 1usize..5,
        seg_cap in 2usize..32,
        workers in 1usize..4,
    ) {
        let rt = Arc::new(Runtime::with_workers(workers));
        let graph = GraphSpec::<u64, u64>::new()
            .fanout_map(3, 8, |x| x.wrapping_mul(x) ^ 0x9E37)
            .filter_map(|x| (x % 3 != 1).then_some(x))
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    max_in_flight,
                    segment_capacity: seg_cap,
                    io_batch: 8,
                    ..ServiceConfig::default()
                },
            );
        let inputs: Vec<Vec<u64>> = sizes
            .iter()
            .enumerate()
            .map(|(j, &n)| (0..n as u64).map(|i| i + 1000 * j as u64).collect())
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|input| {
                graph
                    .submit(input.clone(), Admission::Unbounded)
                    .expect_accepted()
            })
            .collect();
        for (input, h) in inputs.iter().zip(handles) {
            let expect: Vec<u64> = input
                .iter()
                .map(|&x| x.wrapping_mul(x) ^ 0x9E37)
                .filter(|x| x % 3 != 1)
                .collect();
            prop_assert_eq!(h.join(), expect);
        }
        let stats = graph.telemetry().admission;
        prop_assert!(stats.high_water_in_flight <= max_in_flight);
        prop_assert_eq!(stats.completed, sizes.len() as u64);
    }
}
