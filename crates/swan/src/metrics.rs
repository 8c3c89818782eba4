//! Scheduler event counters.
//!
//! The evaluation section of the paper reasons about work-stealing activity
//! (e.g. §2.2: the shallow-spawn-tree producer of Figure 3 causes "more
//! frequent work stealing activity"). These counters let the benchmark
//! harness and the test-suite observe that behaviour directly; the service
//! layer folds a [`MetricsSnapshot`] into its consolidated
//! `TelemetrySnapshot`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing scheduler activity. All counters are
/// updated with relaxed ordering: they are statistics, not synchronization.
#[derive(Default, Debug)]
pub struct Metrics {
    /// Tasks whose bodies were executed to completion.
    pub tasks_executed: AtomicU64,
    /// Successful steal operations (one per victim probe that yielded at
    /// least one task; a batch counts once).
    pub steals: AtomicU64,
    /// Steal probes that found nothing (empty victim or lost CAS race).
    pub steal_failures: AtomicU64,
    /// Total task ids moved by steals. `steal_batch_items / steals` is
    /// the observed mean batch size.
    pub steal_batch_items: AtomicU64,
    /// Tasks executed inside a blocked `sync` (descendant help).
    pub helps_sync: AtomicU64,
    /// Tasks executed inside a blocked queue operation (preceding-task help).
    pub helps_queue: AtomicU64,
    /// Times a worker parked because it found no work.
    pub parks: AtomicU64,
    /// Tasks that were spawned but not immediately ready (dataflow wait).
    pub deferred_tasks: AtomicU64,
}

/// A point-in-time copy of [`Metrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Tasks whose bodies were executed to completion.
    pub tasks_executed: u64,
    /// Successful steal operations (batches, not items).
    pub steals: u64,
    /// Steal probes that found nothing.
    pub steal_failures: u64,
    /// Total task ids moved by steals.
    pub steal_batch_items: u64,
    /// Tasks executed inside a blocked `sync`.
    pub helps_sync: u64,
    /// Tasks executed inside a blocked queue operation.
    pub helps_queue: u64,
    /// Times a worker parked because it found no work.
    pub parks: u64,
    /// Tasks spawned with unmet dependences.
    pub deferred_tasks: u64,
}

impl Metrics {
    /// Bumps a counter by one.
    #[inline]
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps a counter by `n`.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            steal_failures: self.steal_failures.load(Ordering::Relaxed),
            steal_batch_items: self.steal_batch_items.load(Ordering::Relaxed),
            helps_sync: self.helps_sync.load(Ordering::Relaxed),
            helps_queue: self.helps_queue.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            deferred_tasks: self.deferred_tasks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let m = Metrics::default();
        Metrics::incr(&m.tasks_executed);
        Metrics::incr(&m.tasks_executed);
        Metrics::incr(&m.steals);
        Metrics::add(&m.steal_batch_items, 5);
        let s = m.snapshot();
        assert_eq!(s.tasks_executed, 2);
        assert_eq!(s.steals, 1);
        assert_eq!(s.steal_batch_items, 5);
        assert_eq!(s.parks, 0);
    }
}
