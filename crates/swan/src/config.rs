//! Runtime configuration: the fluent [`RuntimeConfig`] builder.

use std::ops::RangeInclusive;

/// Initial and maximum worker counts, the argument to
/// [`RuntimeConfig::workers`]. Converts from a plain count (`4` — fixed
/// size, no elasticity headroom) or an inclusive range (`1..=8` — start
/// at 1, [`crate::Runtime::resize_workers`] may grow to 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerRange {
    /// Threads staffed at construction (min 1).
    pub initial: usize,
    /// Upper bound for elastic resizing (clamped up to `initial`).
    pub max: usize,
}

impl From<usize> for WorkerRange {
    fn from(n: usize) -> Self {
        let n = n.max(1);
        Self { initial: n, max: n }
    }
}

impl From<RangeInclusive<usize>> for WorkerRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        let initial = (*r.start()).max(1);
        Self {
            initial,
            max: (*r.end()).max(initial),
        }
    }
}

/// Configuration for a [`crate::Runtime`], built fluently:
///
/// ```
/// use swan::RuntimeConfig;
///
/// let cfg = RuntimeConfig::new().workers(1..=8);
/// assert_eq!((cfg.workers, cfg.max_workers), (1, 8));
/// ```
///
/// The defaults follow the paper's philosophy: programs are *scale-free*,
/// so the only knob a user normally touches is implicit (the machine's
/// core count). The scheduler itself has no knobs (DESIGN.md §3.1);
/// what remains is sizing and the test suite's chaos mode.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads. Defaults to `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Upper bound for [`crate::Runtime::resize_workers`]: the runtime
    /// pre-allocates this many worker slots (queues) and can grow/shrink
    /// the live thread count anywhere in `1..=max_workers` without
    /// changing observable program output (the scale-free guarantee).
    /// Clamped up to `workers`; defaults to `workers` (no elasticity
    /// headroom).
    pub max_workers: usize,
    /// Chaos-testing mode: seeded random delays before task execution, used
    /// by the determinism test-suite to shake out order-dependent bugs.
    pub chaos: Option<ChaosConfig>,
}

/// Seeded scheduling jitter for determinism tests.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// PRNG seed; two runs with the same seed inject identical jitter.
    pub seed: u64,
    /// Upper bound on the random pre-task busy-wait, in microseconds.
    pub max_delay_us: u64,
}

impl RuntimeConfig {
    /// Starts a builder from the defaults (machine core count, no
    /// elasticity headroom, chaos off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count — a fixed size (`.workers(4)`) or an elastic
    /// range (`.workers(1..=8)`, resizable via
    /// [`crate::Runtime::resize_workers`]).
    pub fn workers(mut self, range: impl Into<WorkerRange>) -> Self {
        let range = range.into();
        self.workers = range.initial;
        self.max_workers = range.max;
        self
    }

    /// Adds chaos-mode jitter (testing only).
    pub fn with_chaos(mut self, seed: u64, max_delay_us: u64) -> Self {
        self.chaos = Some(ChaosConfig { seed, max_delay_us });
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            workers,
            max_workers: workers,
            chaos: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_at_least_one_worker() {
        assert!(RuntimeConfig::default().workers >= 1);
    }

    #[test]
    fn workers_accepts_count_and_range() {
        let c = RuntimeConfig::new().workers(0);
        assert_eq!((c.workers, c.max_workers), (1, 1));
        let c = RuntimeConfig::new().workers(8);
        assert_eq!((c.workers, c.max_workers), (8, 8));
        let c = RuntimeConfig::new().workers(1..=8);
        assert_eq!((c.workers, c.max_workers), (1, 8));
        // A backwards range clamps max up to initial.
        #[allow(clippy::reversed_empty_ranges)]
        let c = RuntimeConfig::new().workers(4..=2);
        assert_eq!((c.workers, c.max_workers), (4, 4));
    }

    #[test]
    fn chaos_builder_sets_fields() {
        let c = RuntimeConfig::new().workers(2).with_chaos(42, 100);
        let chaos = c.chaos.expect("chaos set");
        assert_eq!(chaos.seed, 42);
        assert_eq!(chaos.max_delay_us, 100);
    }
}
