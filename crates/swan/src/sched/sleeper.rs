//! Idle-worker parking, and the latch for threads that only wait.
//!
//! Workers that find no work, and workers blocked in `sync` or a queue
//! operation, park on the [`Sleeper`] with a short timeout; any event that
//! may unblock someone (a task becoming ready, a task completing, a
//! hyperqueue push) calls [`Sleeper::notify_all`]. Because every wait uses a
//! timeout, a missed notification costs at most one park interval rather
//! than a hang, which keeps the protocol simple and verifiably live.
//!
//! # Fast path
//!
//! `notify_all` is called from the runtime's hottest paths (every enqueue,
//! every task completion, every hyperqueue segment publication). When no
//! thread is parked — the common case for a pipeline in its steady state —
//! it must cost a couple of uncontended atomics, not a mutex round-trip.
//! The protocol:
//!
//! * `notify_all` bumps the atomic `epoch`, then loads `parked`. If zero,
//!   it returns without touching the mutex or condvar (a *suppressed*
//!   notify).
//! * `park` increments `parked`, takes the lock, and re-checks `epoch`
//!   against the value it sampled before incrementing; a bump in between
//!   means an event raced the park, so it returns immediately.
//!
//! Both sides use `SeqCst` so the classic store/load interleaving is
//! total-ordered: either the notifier sees `parked > 0` (and takes the
//! slow path through the lock, which cannot complete until the parker is
//! inside `wait_for`), or the parker sees the bumped `epoch` and skips the
//! wait. A wake can therefore only be missed in the window before the
//! parker increments `parked`, where the timeout bounds the cost.
//!
//! Threads that wait without working — the caller of `Runtime::scope`
//! for its root's children, `Runtime::quiesce` for the open scopes — wait
//! on the runtime's [`Latch`] instead, which only a root's last child
//! completion and the last open scope's close release.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Park/unpark rendezvous for idle or blocked workers.
pub struct Sleeper {
    /// Event counter; bumped by every notification (lock-free).
    epoch: AtomicU64,
    /// Number of threads inside (or committed to entering) `wait_for`.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Sleeper {
    /// Creates a sleeper.
    pub fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Parks the calling thread until a notification or `timeout` elapses.
    pub fn park(&self, timeout: Duration) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.parked.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = self.lock.lock();
            // An epoch bump between the sample above and here means a
            // notification raced our park: return without waiting.
            if self.epoch.load(Ordering::SeqCst) == epoch {
                self.cv.wait_for(&mut guard, timeout);
            }
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Publishes an event and wakes every parked thread. Returns `false`
    /// when the wake was suppressed because nobody was parked (the event is
    /// still published via the epoch, so a thread racing into `park` will
    /// notice it).
    pub fn notify_all(&self) -> bool {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) == 0 {
            return false;
        }
        // Taking the lock serializes with parkers between their epoch
        // re-check and `wait_for`'s atomic release-and-wait, so the
        // notification below cannot fall into that gap.
        drop(self.lock.lock());
        self.cv.notify_all();
        true
    }
}

impl Default for Sleeper {
    fn default() -> Self {
        Self::new()
    }
}

/// Where threads wait for a condition that some completion makes true.
///
/// No timeout re-poll: a waiter re-checks its condition under the lock,
/// and a releaser that sees a waiter takes the lock before notifying, so
/// the wake cannot fall between the check and the wait. The releaser's
/// state change and its `waiting` load are fenced against the waiter's
/// increment and its check (the store/load pair of [`Sleeper`]), so one of
/// the two always sees the other.
#[derive(Default)]
pub struct Latch {
    waiting: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    /// Blocks until `done` returns true or `deadline` passes; returns the
    /// last value of `done`.
    pub fn wait_until(&self, deadline: Option<Instant>, mut done: impl FnMut() -> bool) -> bool {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let mut guard = self.lock.lock();
        let done = loop {
            if done() {
                break true;
            }
            match deadline {
                None => self.cv.wait(&mut guard),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    self.cv.wait_for(&mut guard, deadline - now);
                }
            }
        };
        drop(guard);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        done
    }

    /// Wakes every waiter to re-check its condition. Call after the state
    /// change that may have made a condition true; nearly free when
    /// nobody waits.
    pub fn release(&self) {
        fence(Ordering::SeqCst);
        if self.waiting.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(self.lock.lock());
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn park_times_out() {
        let s = Sleeper::new();
        let t0 = Instant::now();
        s.park(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn notify_wakes_parked_thread() {
        let s = Arc::new(Sleeper::new());
        let woke = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&s);
        let woke2 = Arc::clone(&woke);
        let h = std::thread::spawn(move || {
            // Long timeout; the notify should cut it short.
            s2.park(Duration::from_secs(10));
            woke2.store(true, Ordering::SeqCst);
        });
        // Keep notifying until the parker is visibly committed (a `true`
        // return means a parked thread was actually woken).
        while !s.notify_all() {
            std::thread::yield_now();
        }
        h.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn notify_with_no_sleepers_is_suppressed() {
        let s = Sleeper::new();
        assert!(!s.notify_all(), "nobody parked: wake must be suppressed");
    }

    #[test]
    fn suppressed_notify_still_publishes_event() {
        // A notify that lands between a parker's epoch sample and its wait
        // must still cut the park short via the epoch re-check. We can't
        // force that interleaving deterministically, but we can assert the
        // observable contract: park after a suppressed notify does not see
        // the stale epoch (i.e. it still times out normally rather than
        // hanging), and a concurrent notify storm never loses liveness.
        let s = Arc::new(Sleeper::new());
        let stop = Arc::new(AtomicBool::new(false));
        let notifier = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    s.notify_all();
                }
            })
        };
        let t0 = Instant::now();
        for _ in 0..100 {
            s.park(Duration::from_millis(5));
        }
        // With a notifier hammering the epoch, parks return immediately:
        // far faster than 100 full timeouts.
        assert!(t0.elapsed() < Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
        notifier.join().unwrap();
    }

    #[test]
    fn latch_wakes_a_waiter_without_a_timeout() {
        let latch = Arc::new(Latch::default());
        let flag = Arc::new(AtomicBool::new(false));
        let (l2, f2) = (Arc::clone(&latch), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || l2.wait_until(None, || f2.load(Ordering::SeqCst)));
        // Release only once the waiter has counted itself in, so the
        // release takes the notifying path.
        while latch.waiting.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::SeqCst);
        latch.release();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn latch_wait_honours_its_deadline() {
        let latch = Latch::default();
        let t0 = Instant::now();
        assert!(!latch.wait_until(Some(t0 + Duration::from_millis(10)), || false));
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert!(latch.wait_until(Some(t0), || true), "a true condition wins");
    }
}
