//! logstream — streaming log analytics, the graph-shaped workload.
//!
//! The paper's three workloads (ferret, dedup, bzip2) are straight
//! chains; this one *needs* a DAG and exists to exercise
//! `pipelines::graph`:
//!
//! ```text
//!                      ┌─ keyed fan-out ─ shard 0: parse + window agg ─┐
//! source ── tee ── A ──┼─ (by service)  ─ shard 1: parse + window agg ─┼─ merge_by_key ─ emit
//!            │         └─ …                                            ┘   (ordered summaries)
//!            └─── B ── digest farm (one child per batch) ── firehose checksum
//! ```
//!
//! Branch A shards a windowed per-service aggregation by service key and
//! rejoins the sorted shard outputs into one globally ordered summary
//! stream; branch B farms the raw firehose digest out one child per
//! batch, kept in serial order by the queue's views. Every driver
//! (serial, linear chain, graph at any shard degree) must produce
//! byte-identical output at any worker count — asserted by
//! `tests/pipeline_shapes.rs`.
//!
//! As with the other workloads the input is synthetic but the kernels are
//! real: lines are actually formatted and actually parsed field by field,
//! and the aggregation computes real windowed statistics.

mod drivers;
mod stages;

pub use drivers::{run_graph, run_linear, run_serial, LogOutput};
pub use stages::{
    firehose_fold, fold_record, line_digest, parse_line, service_key, summary_line, Level,
    LogRecord, WindowAgg, WindowKey,
};

use crate::util::SplitMix64;

/// Sizing and determinism knobs for the logstream workload.
#[derive(Clone, Debug)]
pub struct LogConfig {
    /// Number of log lines.
    pub records: usize,
    /// Number of distinct services emitting lines.
    pub services: usize,
    /// Log lines per clock tick (ticks drive windowing).
    pub records_per_tick: usize,
    /// Window length in ticks for the tumbling aggregation windows.
    pub window_ticks: u64,
    /// Shard degree of the aggregation (branch A).
    pub shards: usize,
    /// Read-ahead window of branch A's shard merge.
    pub merge_window: usize,
    /// Extra per-record CPU (rounds of digest mixing in the parse kernel):
    /// the knob that makes the pipeline compute-bound for the speedup
    /// benchmarks.
    pub parse_work: u32,
    /// Seed for the synthetic corpus.
    pub seed: u64,
}

impl LogConfig {
    /// Test-sized: a few thousand records, small enough for property
    /// sweeps.
    pub fn small() -> Self {
        LogConfig {
            records: 4_000,
            services: 16,
            records_per_tick: 8,
            window_ticks: 16,
            shards: 4,
            merge_window: 32,
            parse_work: 0,
            seed: 0x10c5_7e41,
        }
    }

    /// Bench-sized: `records` lines with enough per-record work that the
    /// parse+enrich stage dominates the pipeline (real log pipelines do
    /// per-record enrichment — geo/session lookups, PII scrubbing — that
    /// dwarfs field splitting; `parse_work` stands in for it).
    pub fn bench(records: usize) -> Self {
        LogConfig {
            records,
            services: 64,
            records_per_tick: 32,
            window_ticks: 32,
            shards: 4,
            merge_window: 64,
            parse_work: 300,
            seed: 0x10c5_7e41,
        }
    }
}

/// Generates the deterministic synthetic log corpus for `cfg`.
///
/// Lines look like real structured logs and must really be parsed:
/// `tick=000123 svc=svc-07 level=WARN latency_us=003456 req=9f3a77c2`.
pub fn corpus(cfg: &LogConfig) -> Vec<String> {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut lines = Vec::with_capacity(cfg.records);
    for i in 0..cfg.records {
        let tick = (i / cfg.records_per_tick.max(1)) as u64;
        let svc = rng.next_below(cfg.services as u64);
        let level = match rng.next_below(100) {
            0..=4 => "ERROR",
            5..=19 => "WARN",
            _ => "INFO",
        };
        let latency = rng.next_below(250_000);
        let req = rng.next() & 0xffff_ffff;
        lines.push(format!(
            "tick={tick:06} svc=svc-{svc:02} level={level} latency_us={latency:06} req={req:08x}"
        ));
    }
    lines
}
