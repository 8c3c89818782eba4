//! logstream drivers: serial reference, linear hyperqueue chain, and the
//! sharded-and-farmed graph — all producing byte-identical output.

use std::collections::BTreeMap;

use pipelines::graph::GraphBuilder;
use swan::Runtime;

use crate::logstream::stages::{
    firehose_fold, fold_record, line_digest, parse_line, service_key, summary_line, WindowAgg,
    WindowKey,
};
use crate::logstream::LogConfig;
use crate::timing::StageClock;
use crate::util::fnv1a_lines;

/// The observable output of a logstream run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogOutput {
    /// Ordered window summaries (ascending `(window, service)`).
    pub summaries: Vec<String>,
    /// Order-sensitive digest of the raw firehose.
    pub firehose: u64,
}

impl LogOutput {
    /// Order-sensitive checksum for cross-driver comparison.
    pub fn checksum(&self) -> u64 {
        fnv1a_lines(&self.summaries) ^ self.firehose.rotate_left(17)
    }
}

/// Runs the workload serially, timing each stage (the characterization
/// profile `table1 --workload logstream` prints).
pub fn run_serial(cfg: &LogConfig, lines: &[String]) -> (LogOutput, StageClock) {
    let mut clock = StageClock::new();

    let t0 = std::time::Instant::now();
    let records: Vec<_> = lines.iter().map(|l| parse_line(cfg, l)).collect();
    clock.add("Parse", lines.len() as u64, t0.elapsed());

    let t0 = std::time::Instant::now();
    let mut agg: BTreeMap<WindowKey, WindowAgg> = BTreeMap::new();
    for rec in &records {
        fold_record(cfg, &mut agg, rec);
    }
    clock.add("Aggregate", records.len() as u64, t0.elapsed());

    let t0 = std::time::Instant::now();
    let mut firehose = 0u64;
    for line in lines {
        firehose = firehose_fold(firehose, line_digest(line));
    }
    clock.add("Firehose", lines.len() as u64, t0.elapsed());

    let t0 = std::time::Instant::now();
    let summaries: Vec<String> = agg.iter().map(|(k, a)| summary_line(k, a)).collect();
    clock.add("Emit", summaries.len() as u64, t0.elapsed());

    (
        LogOutput {
            summaries,
            firehose,
        },
        clock,
    )
}

/// The linear hyperqueue chain: source → parse stage → aggregation sink,
/// with the firehose folded on the tee'd second branch. This is the
/// degree-independent baseline the sharded graph must beat.
pub fn run_linear(cfg: &LogConfig, lines: &[String], rt: &Runtime) -> LogOutput {
    let mut agg: BTreeMap<WindowKey, WindowAgg> = BTreeMap::new();
    let mut firehose = 0u64;
    let (agg_ref, fire_ref) = (&mut agg, &mut firehose);
    rt.scope(move |s| {
        let gb = GraphBuilder::on(s).io_batch(64);
        let (a, b) = gb.source_iter(0u64..lines.len() as u64).tee();
        a.map(move |i| parse_line(cfg, &lines[i as usize]))
            .for_each(move |rec| fold_record(cfg, agg_ref, &rec));
        b.for_each(move |i| {
            *fire_ref = firehose_fold(*fire_ref, line_digest(&lines[i as usize]));
        });
    });
    LogOutput {
        summaries: agg.iter().map(|(k, a)| summary_line(k, a)).collect(),
        firehose,
    }
}

/// The DAG driver: keyed fan-out across `degree` aggregation shards with
/// an ordered key-merge (branch A), and the digest farmed out per batch
/// (branch B, ordered by the queue's views). Output is byte-identical to
/// [`run_serial`] and [`run_linear`] at every degree and worker count.
pub fn run_graph(cfg: &LogConfig, lines: &[String], rt: &Runtime, degree: usize) -> LogOutput {
    let mut summaries: Vec<String> = Vec::new();
    let mut firehose = 0u64;
    let (sum_ref, fire_ref) = (&mut summaries, &mut firehose);
    rt.scope(move |s| {
        let gb = GraphBuilder::on(s).io_batch(64);
        let (a, b) = gb.source_iter(0u64..lines.len() as u64).tee();
        // Branch A: parse + windowed aggregation, sharded by service so
        // every (window, service) cell lives on exactly one shard and sees
        // its records in serial order.
        a.shard(
            degree,
            move |&i: &u64| service_key(&lines[i as usize]),
            |_idx| BTreeMap::<WindowKey, WindowAgg>::new(),
            move |map, i, _emit| {
                let rec = parse_line(cfg, &lines[i as usize]);
                fold_record(cfg, map, &rec);
            },
            |map, emit| emit.extend(map),
        )
        .merge_by_key(cfg.merge_window, |&(k, _)| k)
        .map(|(k, a)| summary_line(&k, &a))
        .collect_into(sum_ref);
        // Branch B: the raw firehose digest, farmed out per batch; the
        // views keep it in serial order.
        b.farm_map(move |i| line_digest(&lines[i as usize]))
            .for_each(move |d| *fire_ref = firehose_fold(*fire_ref, d));
    });
    LogOutput {
        summaries,
        firehose,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logstream::corpus;

    #[test]
    fn all_drivers_agree_with_serial() {
        let cfg = LogConfig::small();
        let lines = corpus(&cfg);
        let (serial, clock) = run_serial(&cfg, &lines);
        assert!(!serial.summaries.is_empty());
        assert!(clock.total().as_nanos() > 0);

        let rt = Runtime::with_workers(4);
        let linear = run_linear(&cfg, &lines, &rt);
        assert_eq!(linear, serial, "linear chain diverged");
        for degree in [1, 2, 4, 7] {
            let graph = run_graph(&cfg, &lines, &rt, degree);
            assert_eq!(graph, serial, "graph at degree {degree} diverged");
        }
    }

    #[test]
    fn graph_deterministic_across_worker_counts() {
        let cfg = LogConfig::small();
        let lines = corpus(&cfg);
        let (serial, _) = run_serial(&cfg, &lines);
        for workers in [1, 2, 8] {
            let rt = Runtime::with_workers(workers);
            let out = run_graph(&cfg, &lines, &rt, cfg.shards);
            assert_eq!(out, serial, "graph output differs at {workers} workers");
        }
    }

    #[test]
    fn summaries_are_globally_sorted() {
        let cfg = LogConfig::small();
        let lines = corpus(&cfg);
        let rt = Runtime::with_workers(4);
        let out = run_graph(&cfg, &lines, &rt, 3);
        let mut sorted = out.summaries.clone();
        sorted.sort();
        assert_eq!(out.summaries, sorted, "merge_by_key must emit sorted");
    }
}
