//! A worker of one runtime that opens a scope on another is an external
//! thread there: its worker index names a slot in its *own* runtime, so
//! the second runtime must route its spawns through an injector instead
//! of indexing (or pushing, as a non-owner, into) one of its own deques.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use swan::Runtime;

const OUTER_WORKERS: usize = 4;
const INNER_TASKS: usize = 8;

/// Holds every worker of a 4-worker runtime on one task each (the
/// barrier), so worker indices 0..=3 are all covered; each task then
/// opens a scope on `inner` and spawns `INNER_TASKS` tasks there. Returns
/// how many inner tasks ran. The watchdog turns the hang this used to
/// cause into a failure.
fn run_nested(inner: Runtime) -> usize {
    let ran = Arc::new(AtomicUsize::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let counter = Arc::clone(&ran);
    std::thread::spawn(move || {
        let outer = Runtime::with_workers(OUTER_WORKERS);
        let all_staffed = Barrier::new(OUTER_WORKERS);
        outer.scope(|s| {
            for _ in 0..OUTER_WORKERS {
                s.spawn((), |_, ()| {
                    all_staffed.wait();
                    inner.scope(|s| {
                        for _ in 0..INNER_TASKS {
                            s.spawn((), |_, ()| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        done_tx.send(()).expect("test thread is waiting");
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("nested scopes on a second runtime must complete");
    ran.load(Ordering::SeqCst)
}

#[test]
fn worker_of_one_runtime_can_open_a_scope_on_another() {
    let ran = run_nested(Runtime::with_workers(1));
    assert_eq!(ran, OUTER_WORKERS * INNER_TASKS);
}

/// Outer worker indices 0–1 name queues the inner runtime does have (but
/// does not let a foreign thread push into); 2–3 name queues it lacks.
#[test]
fn outer_worker_indices_beyond_a_two_queue_inner_runtime_take_the_injector() {
    let ran = run_nested(Runtime::with_workers(2));
    assert_eq!(ran, OUTER_WORKERS * INNER_TASKS);
}
