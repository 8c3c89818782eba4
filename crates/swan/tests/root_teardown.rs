//! A detached root's completion hook runs on a worker, so the last
//! handle to the runtime can be released *there*: `Runtime::drop` then
//! executes on one of the threads it is about to reap. It must skip that
//! one (a thread cannot join itself — the std error is "Resource deadlock
//! avoided"), still stop and join all the others, and leave no thread
//! behind.
//!
//! Alone in its file on purpose: the thread census below reads the whole
//! process, and the harness runs the tests of one file concurrently.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use swan::Runtime;

const WATCHDOG: Duration = Duration::from_secs(60);

fn threads_in_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn last_runtime_handle_dropped_inside_a_hook_reaps_every_worker() {
    let baseline = threads_in_process();
    for workers in [1usize, 2, 8] {
        let rt = Arc::new(Runtime::with_workers(workers));
        assert_eq!(threads_in_process(), baseline + workers);
        let ran = Arc::new(AtomicUsize::new(0));
        let (ran_body, last) = (Arc::clone(&ran), Arc::clone(&rt));
        let (tx, rx) = mpsc::channel();
        rt.spawn_root(
            move |s| {
                for _ in 0..32 {
                    let ran = Arc::clone(&ran_body);
                    s.spawn((), move |_, ()| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            },
            move |panic| {
                // Hold on until the test thread has let go, so that this
                // handle is the last one and the drop below tears the
                // runtime down from inside it.
                while Arc::strong_count(&last) > 1 {
                    std::thread::yield_now();
                }
                drop(last);
                tx.send(panic.is_none()).unwrap();
            },
        );
        drop(rt);
        assert_eq!(
            rx.recv_timeout(WATCHDOG),
            Ok(true),
            "teardown from a worker hung ({workers} workers)"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 32);
        // The worker that ran the hook exits on its own right after it.
        let t0 = Instant::now();
        while threads_in_process() != baseline {
            assert!(
                t0.elapsed() < WATCHDOG,
                "{} threads leaked ({workers} workers)",
                threads_in_process() - baseline
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
