//! Failure-injection tests: panicking tasks, abandoned queues, consumers
//! that quit early — the runtime must neither hang nor leak nor corrupt
//! later work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hyperqueues::hyperqueue::Hyperqueue;
use hyperqueues::swan::{Runtime, Versioned};

#[test]
fn panicking_producer_does_not_hang_the_scope() {
    let rt = Runtime::with_workers(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                p.push(1);
                panic!("producer died");
            });
            s.spawn((q.popdep(),), |_, (mut c,)| {
                // May see the value or not; must never hang.
                while !c.empty() {
                    let _ = c.pop();
                }
            });
        });
    }));
    assert!(result.is_err(), "panic must propagate");
    // Runtime still healthy afterwards.
    let ok = AtomicUsize::new(0);
    rt.scope(|s| {
        s.spawn((), |_, ()| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(ok.load(Ordering::SeqCst), 1);
}

#[test]
fn panicking_consumer_propagates_and_leaves_queue_reclaimable() {
    let rt = Runtime::with_workers(4);
    let marker = Arc::new(());
    let m2 = Arc::clone(&marker);
    let result = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(move |s| {
            let q = Hyperqueue::<Arc<()>>::new(s);
            for _ in 0..100 {
                q.push(Arc::clone(&m2));
            }
            s.spawn((q.popdep(),), |_, (mut c,)| {
                let _ = c.pop();
                panic!("consumer died");
            });
        });
    }));
    assert!(result.is_err());
    assert_eq!(
        Arc::strong_count(&marker),
        1,
        "values leaked after consumer panic"
    );
}

#[test]
fn nested_task_panic_reaches_the_root() {
    let rt = Runtime::with_workers(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|s| {
            s.spawn((), |s, ()| {
                s.spawn((), |s, ()| {
                    s.spawn((), |_, ()| panic!("deep panic"));
                });
            });
        });
    }));
    assert!(
        result.is_err(),
        "grandchild panic must surface at the scope"
    );
}

#[test]
fn versioned_objects_survive_writer_panic() {
    let rt = Runtime::with_workers(2);
    let v: Versioned<u64> = Versioned::new(7);
    let result = catch_unwind(AssertUnwindSafe(|| {
        rt.scope(|s| {
            s.spawn((v.update(),), |_, (mut g,)| {
                *g = 8;
                panic!("writer died mid-update");
            });
            // The reader is scheduled after the (panicked) writer; it
            // still runs — determinism of *values* is forfeited on panic,
            // but scheduling must not deadlock.
            s.spawn((v.read(),), |_, (g,)| {
                let _ = *g;
            });
        });
    }));
    assert!(result.is_err());
}

#[test]
fn abandoned_nested_queues_are_reclaimed() {
    // Fragment-style code that creates local queues per iteration and
    // abandons them with values still inside (§2.1 allows this).
    let rt = Runtime::with_workers(4);
    let marker = Arc::new(());
    let m = Arc::clone(&marker);
    rt.scope(move |s| {
        s.spawn((), move |s, ()| {
            for _ in 0..50 {
                let local = Hyperqueue::<Arc<()>>::with_segment_capacity(s, 8);
                for _ in 0..20 {
                    local.push(Arc::clone(&m));
                }
                // Pop a few, abandon the rest.
                let _ = local.pop();
                let _ = local.pop();
            }
        });
    });
    assert_eq!(Arc::strong_count(&marker), 1, "abandoned values leaked");
}

#[test]
fn consumer_quitting_early_leaves_consistent_state() {
    let rt = Runtime::with_workers(4);
    for _ in 0..20 {
        let mut drained = Vec::new();
        let d = &mut drained;
        rt.scope(move |s| {
            let q = Hyperqueue::<u32>::with_segment_capacity(s, 4);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                for i in 0..40 {
                    p.push(i);
                }
            });
            // First consumer takes an arbitrary prefix and quits.
            s.spawn((q.popdep(),), |_, (mut c,)| {
                for _ in 0..7 {
                    if !c.empty() {
                        let _ = c.pop();
                    }
                }
            });
            // Second consumer must see exactly the rest, in order.
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                while !c.empty() {
                    d.push(c.pop());
                }
            });
        });
        assert_eq!(drained, (7..40).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// Service-level failure injection: a persistent CompiledGraph must treat a
// panicking stage as one job's problem — retried per policy, never a
// wedged service or a leaked admission slot.
// ---------------------------------------------------------------------------

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use hyperqueues::pipelines::graph::{Admission, GraphSpec, ServiceConfig};
use hyperqueues::swan::RetryPolicy;

#[test]
fn panicking_stage_fails_only_its_own_job() {
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = GraphSpec::<u64, u64>::new()
        .map(|x: u64| {
            if x == 13 {
                panic!("injected failure on 13");
            }
            x * 2
        })
        .compile(
            Arc::clone(&rt),
            ServiceConfig {
                max_in_flight: 2,
                ..ServiceConfig::default()
            },
        );
    let handles: Vec<_> = (0..20u64)
        .map(|j| {
            graph
                .submit(vec![j], Admission::Unbounded)
                .expect_accepted()
        })
        .collect();
    for (j, h) in handles.into_iter().enumerate() {
        match h.wait() {
            Ok(out) => {
                assert_ne!(j, 13, "the poisoned job must not succeed");
                assert_eq!(out, vec![j as u64 * 2]);
            }
            Err(e) => {
                assert_eq!(j, 13, "only the poisoned job may fail: {e}");
                assert!(e.to_string().contains("injected failure"), "{e}");
                assert_eq!(e.attempts(), 1, "retries disabled: exactly one attempt");
            }
        }
    }
    let stats = graph.telemetry().admission;
    assert_eq!((stats.retries, stats.failed), (0, 1));
    assert_eq!(
        (stats.in_flight, stats.queued),
        (0, 0),
        "failed job leaked its admission slot: {stats:?}"
    );
    // The service is alive and the slot is reusable: a fresh batch
    // (larger than max_in_flight) drains completely.
    let handles: Vec<_> = (100..108u64)
        .map(|j| {
            graph
                .submit(vec![j], Admission::Unbounded)
                .expect_accepted()
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(h.join(), vec![(100 + i as u64) * 2]);
    }
    drop(graph);
    rt.quiesce();
    assert_eq!(rt.open_scopes(), 0);
}

#[test]
fn flaky_stage_is_retried_per_policy() {
    // Each value panics on its first two executions and succeeds on the
    // third: within a 3-retry budget every job must come back Ok, with
    // the retraversals visible in the stats.
    let seen: Arc<Mutex<HashMap<u64, u32>>> = Arc::new(Mutex::new(HashMap::new()));
    let seen2 = Arc::clone(&seen);
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = GraphSpec::<u64, u64>::new()
        .map(move |x: u64| {
            // Release the lock before panicking: a poisoned test mutex
            // would turn every later attempt into a different failure.
            let attempts = {
                let mut seen = seen2.lock().unwrap_or_else(|e| e.into_inner());
                let slot = seen.entry(x).or_insert(0);
                *slot += 1;
                *slot
            };
            if attempts <= 2 {
                panic!("flaky: value {x} attempt {attempts}");
            }
            x + 1
        })
        .compile(
            Arc::clone(&rt),
            ServiceConfig {
                max_in_flight: 2,
                retry: RetryPolicy {
                    max_retries: 3,
                    base_backoff: Duration::from_micros(100),
                    max_backoff: Duration::from_millis(2),
                },
                ..ServiceConfig::default()
            },
        );
    let handles: Vec<_> = (0..6u64)
        .map(|j| {
            graph
                .submit(vec![j], Admission::Unbounded)
                .expect_accepted()
        })
        .collect();
    for (j, h) in handles.into_iter().enumerate() {
        assert_eq!(h.wait().expect("within retry budget"), vec![j as u64 + 1]);
    }
    let stats = graph.telemetry().admission;
    assert_eq!(
        (stats.retries, stats.failed),
        (12, 0),
        "2 re-admissions per job, none terminal: {stats:?}"
    );
    drop(graph);
    rt.quiesce();
}

#[test]
fn exhausted_retries_fail_terminally_without_wedging_the_service() {
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = GraphSpec::<u64, u64>::new()
        .map(|x: u64| {
            if x == 7 {
                panic!("permanently broken input");
            }
            x
        })
        .compile(
            Arc::clone(&rt),
            ServiceConfig {
                max_in_flight: 2,
                retry: RetryPolicy::retries(2),
                ..ServiceConfig::default()
            },
        );
    // The doomed job and a crowd of healthy ones, interleaved.
    let doomed = graph
        .submit(vec![7], Admission::Unbounded)
        .expect_accepted();
    let healthy: Vec<_> = (0..10u64)
        .filter(|&j| j != 7)
        .map(|j| {
            graph
                .submit(vec![j], Admission::Unbounded)
                .expect_accepted()
        })
        .collect();
    let err = doomed.wait().expect_err("budget of 2 retries must exhaust");
    assert_eq!(err.attempts(), 3, "initial run + 2 retries");
    assert!(err.to_string().contains("permanently broken"), "{err}");
    for h in healthy {
        h.join(); // every healthy job still completes
    }
    let stats = graph.telemetry().admission;
    assert_eq!((stats.retries, stats.failed), (2, 1));
    assert_eq!(
        (stats.in_flight, stats.queued),
        (0, 0),
        "terminal failure leaked admission state: {stats:?}"
    );
    assert!(
        stats.high_water_in_flight <= 2,
        "retries must reuse slots, not mint new ones: {stats:?}"
    );
    drop(graph);
    rt.quiesce();
    assert_eq!(rt.open_scopes(), 0);
}

/// Regression: a retry backoff used to be slept out on the dispatcher
/// thread that ran the failed attempt, so with `max_in_flight: 1` (one
/// dispatcher) an unrelated healthy job waited out another job's whole
/// backoff although the execution slot was free. The backoff now waits
/// on a timer; nothing that can run a job waits with it.
#[test]
fn retry_backoff_does_not_block_healthy_jobs() {
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    const BACKOFF: Duration = Duration::from_millis(200);
    let failed_once = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&failed_once);
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = GraphSpec::<u64, u64>::new()
        .map(move |x: u64| {
            if x == 13 && !flag.swap(true, Ordering::SeqCst) {
                panic!("flaky: first attempt of 13");
            }
            x + 1
        })
        .compile(
            Arc::clone(&rt),
            ServiceConfig {
                max_in_flight: 1,
                retry: RetryPolicy {
                    max_retries: 2,
                    base_backoff: BACKOFF,
                    max_backoff: BACKOFF,
                },
                ..ServiceConfig::default()
            },
        );
    let flaky = graph
        .submit(vec![13], Admission::Unbounded)
        .expect_accepted();
    // The first attempt has failed and the job is in its backoff.
    while graph.telemetry().admission.retries == 0 {
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    let healthy = graph
        .submit(vec![1], Admission::Unbounded)
        .expect_accepted()
        .join();
    let waited = t0.elapsed();
    assert_eq!(healthy, vec![2]);
    assert!(
        waited < BACKOFF / 2,
        "a healthy job took {waited:?} behind another job's {BACKOFF:?} retry backoff"
    );
    assert_eq!(flaky.join(), vec![14], "the flaky job still succeeds");
    let stats = graph.telemetry().admission;
    assert_eq!((stats.retries, stats.failed), (1, 0));
    assert_eq!((stats.in_flight, stats.queued), (0, 0));
    drop(graph);
    rt.quiesce();
}
