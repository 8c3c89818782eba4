//! Runtime configuration: the fluent [`RuntimeConfig`] builder.

/// Configuration for a [`crate::Runtime`], built fluently:
///
/// ```
/// use swan::RuntimeConfig;
///
/// let cfg = RuntimeConfig::new().workers(4);
/// assert_eq!(cfg.workers, 4);
/// ```
///
/// The defaults follow the paper's philosophy: programs are *scale-free*,
/// so the only knob a user normally touches is implicit (the machine's
/// core count). The scheduler itself has no knobs (DESIGN.md §3.1);
/// what remains is sizing and the test suite's chaos mode.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads, fixed for the runtime's life. Defaults to
    /// `std::thread::available_parallelism()`.
    pub workers: usize,
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
    /// Starts a builder from the defaults (machine core count, chaos off).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (at least 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
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
    fn workers_clamps_to_at_least_one() {
        assert_eq!(RuntimeConfig::new().workers(0).workers, 1);
        assert_eq!(RuntimeConfig::new().workers(8).workers, 8);
    }

    #[test]
    fn chaos_builder_sets_fields() {
        let c = RuntimeConfig::new().workers(2).with_chaos(42, 100);
        let chaos = c.chaos.expect("chaos set");
        assert_eq!(chaos.seed, 42);
        assert_eq!(chaos.max_delay_us, 100);
    }
}
