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

// ---------------------------------------------------------------------------
// The completion-callback contract of `submit_with`: exactly once per
// accepted job, never for a rejected one, whatever the job's fate.
// ---------------------------------------------------------------------------

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use hyperqueues::pipelines::graph::{CompiledGraph, JobError};
use hyperqueues::swan::{Refused, RetryPolicy};

const TIMEOUT: Duration = Duration::from_secs(60);

/// `x + 1` per value, except: 13 always panics, and 0 spins until `gate`
/// opens.
fn contract_graph(
    rt: &Arc<Runtime>,
    gate: &Arc<AtomicBool>,
    max_in_flight: usize,
    retry: RetryPolicy,
) -> CompiledGraph<u64, u64> {
    let gate = Arc::clone(gate);
    GraphSpec::<u64, u64>::new()
        .map(move |x: u64| {
            assert!(x != 13, "unlucky 13");
            while x == 0 && !gate.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            x + 1
        })
        .compile(
            Arc::clone(rt),
            ServiceConfig {
                max_in_flight,
                retry,
                ..ServiceConfig::default()
            },
        )
}

/// A callback for job `j` that counts its own invocations in `fired[j]`
/// and reports the outcome on `tx`.
fn counting_callback(
    j: usize,
    fired: &Arc<Vec<AtomicUsize>>,
    tx: &mpsc::Sender<(usize, Result<Vec<u64>, JobError>)>,
) -> impl FnOnce(Result<Vec<u64>, JobError>) + Send + 'static {
    let (fired, tx) = (Arc::clone(fired), tx.clone());
    move |result| {
        fired[j].fetch_add(1, Ordering::SeqCst);
        tx.send((j, result)).expect("test is listening");
    }
}

#[test]
fn callback_fires_exactly_once_per_accepted_job() {
    let open = Arc::new(AtomicBool::new(true));
    for workers in [1usize, 2, 8] {
        // Fail-fast, then with a retry budget the poisoned job exhausts.
        for (retry, attempts) in [(RetryPolicy::none(), 1), (RetryPolicy::retries(2), 3)] {
            let rt = Arc::new(Runtime::with_workers(workers));
            let graph = contract_graph(&rt, &open, 2, retry);
            let fired: Arc<Vec<AtomicUsize>> =
                Arc::new((0..20).map(|_| AtomicUsize::new(0)).collect());
            let (tx, rx) = mpsc::channel();
            for j in 0..20usize {
                let id = graph
                    .submit_with(
                        vec![j as u64, 100],
                        Admission::Unbounded,
                        counting_callback(j, &fired, &tx),
                    )
                    .expect("unbounded submissions are never rejected");
                assert_eq!(id, j as u64, "ids follow submission order");
            }
            for _ in 0..20 {
                let (j, result) = rx.recv_timeout(TIMEOUT).expect("a callback never fired");
                match result {
                    Ok(out) => {
                        assert_ne!(j, 13);
                        assert_eq!(out, vec![j as u64 + 1, 101]);
                    }
                    Err(e) => {
                        assert_eq!(j, 13, "only the poisoned job may fail: {e}");
                        assert_eq!(e.attempts(), attempts, "{workers} workers");
                        assert!(e.to_string().contains("unlucky 13"), "{e}");
                    }
                }
            }
            // Once the runtime is quiet no late second firing can follow.
            rt.quiesce();
            assert!(rx.try_recv().is_err());
            assert!(fired.iter().all(|f| f.load(Ordering::SeqCst) == 1));
            let stats = graph.telemetry().admission;
            assert_eq!((stats.failed, stats.retries), (1, u64::from(attempts) - 1));
            assert_eq!((stats.in_flight, stats.queued), (0, 0));
        }
    }
}

#[test]
fn jobs_queued_behind_the_gate_outlive_the_graph_handle() {
    for workers in [1usize, 2, 8] {
        let gate = Arc::new(AtomicBool::new(false));
        let rt = Arc::new(Runtime::with_workers(workers));
        let graph = contract_graph(&rt, &gate, 1, RetryPolicy::none());
        let fired: Arc<Vec<AtomicUsize>> = Arc::new((0..6).map(|_| AtomicUsize::new(0)).collect());
        let (tx, rx) = mpsc::channel();
        // Job 0 holds the only slot until the gate opens; 1..=5 park.
        for j in 0..6usize {
            graph
                .submit_with(
                    vec![j as u64],
                    Admission::Unbounded,
                    counting_callback(j, &fired, &tx),
                )
                .expect("accepted");
        }
        assert_eq!(graph.telemetry().admission.queued, 5);
        drop(graph);
        gate.store(true, Ordering::Release);
        for _ in 0..6 {
            let (j, result) = rx.recv_timeout(TIMEOUT).expect("a parked job was lost");
            assert_eq!(result.expect("no job fails here"), vec![j as u64 + 1]);
        }
        rt.quiesce();
        assert!(fired.iter().all(|f| f.load(Ordering::SeqCst) == 1));
    }
}

#[test]
fn rejected_submission_returns_the_input_and_never_calls_back() {
    let gate = Arc::new(AtomicBool::new(false));
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = contract_graph(&rt, &gate, 1, RetryPolicy::none());
    let bounded = Admission::Bounded { max_queued: 1 };
    let called = Arc::new(AtomicUsize::new(0));
    let count = |called: &Arc<AtomicUsize>| {
        let called = Arc::clone(called);
        move |_| {
            called.fetch_add(1, Ordering::SeqCst);
        }
    };
    let accepted = Arc::new(AtomicUsize::new(0));
    // One running (gated), one waiting: the line is at its bound of 1.
    graph
        .submit_with(vec![0], bounded, count(&accepted))
        .expect("runs");
    graph
        .submit_with(vec![1], bounded, count(&accepted))
        .expect("waits");
    let Refused { depth, request } = graph
        .submit_with(vec![7, 8, 9], bounded, count(&called))
        .expect_err("the waiting line is full");
    assert_eq!((depth, request), (1, vec![7, 8, 9]));
    gate.store(true, Ordering::Release);
    while accepted.load(Ordering::SeqCst) < 2 {
        std::thread::yield_now();
    }
    rt.quiesce();
    assert_eq!(
        called.load(Ordering::SeqCst),
        0,
        "a rejected job's callback ran"
    );
    let stats = graph.telemetry().admission;
    assert_eq!(
        (stats.submitted, stats.completed),
        (2, 2),
        "refusals take no ticket"
    );
}

#[test]
fn admission_stays_fifo_and_bounded_under_64_submitters() {
    const SUBMITTERS: u64 = 64;
    const JOBS_EACH: u64 = 8;
    for max_in_flight in [1usize, 3] {
        let rt = Arc::new(Runtime::with_workers(2));
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let started: Arc<std::sync::Mutex<Vec<u64>>> = Arc::default();
        let (run, top, log) = (
            Arc::clone(&running),
            Arc::clone(&peak),
            Arc::clone(&started),
        );
        let graph = GraphSpec::<u64, u64>::new()
            .map(move |marker: u64| {
                let now = run.fetch_add(1, Ordering::SeqCst) + 1;
                top.fetch_max(now, Ordering::SeqCst);
                log.lock().unwrap().push(marker);
                run.fetch_sub(1, Ordering::SeqCst);
                marker
            })
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    max_in_flight,
                    ..ServiceConfig::default()
                },
            );
        let (tx, rx) = mpsc::channel();
        // marker -> admission id, as each submitter learns it.
        let ids: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let (graph, tx) = (&graph, tx.clone());
                    s.spawn(move || {
                        (0..JOBS_EACH)
                            .map(|i| {
                                let (marker, tx) = (t * JOBS_EACH + i, tx.clone());
                                let id = graph
                                    .submit_with(vec![marker], Admission::Unbounded, move |r| {
                                        tx.send(r.expect("no job fails here")).unwrap();
                                    })
                                    .expect("accepted");
                                (marker, id)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let total = (SUBMITTERS * JOBS_EACH) as usize;
        for _ in 0..total {
            rx.recv_timeout(TIMEOUT).expect("a job never completed");
        }
        rt.quiesce();
        let stats = graph.telemetry().admission;
        assert_eq!(stats.completed, total as u64);
        assert!(stats.high_water_in_flight <= max_in_flight, "{stats:?}");
        assert!(peak.load(Ordering::SeqCst) <= max_in_flight);
        // Ids are a permutation of 0..total. A job starts late only while
        // it already holds a slot (its submitter is slow to launch it), so
        // at most `max_in_flight - 1` earlier jobs can still be unstarted
        // when a job starts — with one slot, starts are strictly in order.
        let id_of: std::collections::HashMap<u64, u64> = ids.into_iter().collect();
        let order: Vec<u64> = started.lock().unwrap().iter().map(|m| id_of[m]).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..total as u64).collect::<Vec<_>>());
        for (pos, id) in order.iter().enumerate() {
            let overtaken = order[pos + 1..].iter().filter(|later| *later < id).count();
            assert!(
                overtaken < max_in_flight,
                "job {id} started ahead of {overtaken} earlier jobs: not FIFO at the gate"
            );
        }
    }
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
