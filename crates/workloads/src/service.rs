//! service — the persistent-pipeline service workload.
//!
//! Where the other workloads describe *one* heavy pipeline run, this one
//! describes a **service**: a [`CompiledGraph`] kept hot on a persistent
//! runtime while many small, independent jobs are submitted to it. Two
//! job shapes:
//!
//! * **wordcount** — tokenize each job's lines, shard the counting by
//!   word hash, k-way merge the sorted shard outputs (the stateful
//!   sharded-aggregation shape);
//! * **logstream digest** — per-line digest with optional enrichment
//!   work, farmed out one child per batch and kept in serial order by the
//!   queue's views (the stateless farm shape).
//!
//! Each shape comes with its serial elision, and every job's input is a
//! pure function of `(seed, job)` ([`job_lines`]), so the tests, the `hqd`
//! codecs and the benchmark all check outputs against the same
//! reference. After one job plus [`CompiledGraph::prewarm`] to
//! [`ServiceWorkloadConfig::prewarm_depth`], the steady state allocates
//! **zero** segments per job (`tests/service.rs` holds it to that).

use std::collections::BTreeMap;
use std::sync::Arc;

use pipelines::graph::{CompiledGraph, GraphSpec, ServiceConfig};
use swan::Runtime;

use crate::logstream::line_digest;
use crate::util::{fnv1a, SplitMix64};

/// Sizing knobs for the service workload.
#[derive(Clone, Debug)]
pub struct ServiceWorkloadConfig {
    /// Total jobs each measurement fires at the graph.
    pub jobs: usize,
    /// Input lines per job (jobs are deliberately small — the point is
    /// per-job overhead, not per-job bandwidth).
    pub job_lines: usize,
    /// Shard count of the wordcount job's graph (the logstream farm has
    /// no degree).
    pub degree: usize,
    /// Read-ahead window of the wordcount job's shard merge.
    pub window: usize,
    /// Admission bound (max concurrently executing jobs).
    pub max_in_flight: usize,
    /// Segment capacity of every graph edge.
    pub segment_capacity: usize,
    /// Per-round stage batch size.
    pub io_batch: usize,
    /// Extra per-line digest rounds in the logstream job (stands in for
    /// enrichment work).
    pub parse_work: u32,
    /// Corpus seed; job `j` derives its lines from `seed ^ j`.
    pub seed: u64,
}

impl ServiceWorkloadConfig {
    /// Test-sized: enough jobs to exercise admission and reuse, small
    /// enough for debug-build suites.
    pub fn small() -> Self {
        ServiceWorkloadConfig {
            jobs: 64,
            job_lines: 48,
            degree: 3,
            window: 16,
            max_in_flight: 4,
            segment_capacity: 32,
            io_batch: 16,
            parse_work: 0,
            seed: 0x5e21_11ce,
        }
    }

    /// Bench-sized: thousands of small jobs.
    pub fn bench(jobs: usize) -> Self {
        ServiceWorkloadConfig {
            jobs,
            job_lines: 96,
            degree: 4,
            window: 32,
            max_in_flight: 4,
            segment_capacity: 64,
            io_batch: 32,
            parse_work: 40,
            seed: 0x5e21_11ce,
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            max_in_flight: self.max_in_flight,
            segment_capacity: self.segment_capacity,
            io_batch: self.io_batch,
            ..ServiceConfig::default()
        }
    }

    /// Worst-case segments any job can chain on one edge — the
    /// [`CompiledGraph::prewarm`] depth for deterministic zero-allocation
    /// steady state. Wordcount expands each line into its words, so size
    /// by tokens, not lines.
    pub fn prewarm_depth(&self) -> usize {
        let max_items = self.job_lines * (WORDS_PER_LINE_MAX + 1);
        let per_job = max_items / hyperqueue::segment_capacity_for(self.segment_capacity) + 3;
        per_job * self.max_in_flight.max(1) + 4
    }
}

// ---------------------------------------------------------------------------
// Deterministic per-job corpus.
// ---------------------------------------------------------------------------

const VOCABULARY: [&str; 24] = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliett",
    "kilo", "lima", "mike", "november", "oscar", "papa", "quebec", "romeo", "sierra", "tango",
    "uniform", "victor", "whiskey", "xray",
];

const WORDS_PER_LINE_MAX: usize = 9;

/// The lines of job `job` under `cfg` — a pure function of `(seed, job)`,
/// so clients, checkers and serial elisions all agree on the input.
pub fn job_lines(cfg: &ServiceWorkloadConfig, job: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(cfg.seed ^ (job as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..cfg.job_lines)
        .map(|_| {
            let words = 4 + rng.next_below((WORDS_PER_LINE_MAX - 4) as u64 + 1) as usize;
            let mut line = String::new();
            for w in 0..words {
                if w > 0 {
                    line.push(' ');
                }
                line.push_str(VOCABULARY[rng.next_below(VOCABULARY.len() as u64) as usize]);
            }
            line
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Job graphs and their serial elisions.
// ---------------------------------------------------------------------------

/// The wordcount job graph: tokenize, shard the counting by word hash,
/// merge the sorted shard outputs into one globally sorted count list.
pub fn wordcount_spec(degree: usize, window: usize) -> GraphSpec<String, (String, u64)> {
    GraphSpec::<String, String>::new()
        .flat_map(|line: String| line.split_whitespace().map(str::to_string).collect())
        .sharded(
            degree,
            window,
            |word: &String| fnv1a(word.as_bytes()),
            |_idx| BTreeMap::<String, u64>::new(),
            |counts, word, _emit| *counts.entry(word).or_insert(0) += 1,
            |counts, emit| emit.extend(counts),
            |pair: &(String, u64)| pair.0.clone(),
        )
}

/// Serial elision of [`wordcount_spec`].
pub fn wordcount_serial(lines: &[String]) -> Vec<(String, u64)> {
    let mut counts = BTreeMap::<String, u64>::new();
    for line in lines {
        for word in line.split_whitespace() {
            *counts.entry(word.to_string()).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Per-line digest kernel with `parse_work` extra mixing rounds.
pub fn enriched_digest(line: &str, parse_work: u32) -> u64 {
    let mut d = line_digest(line);
    for _ in 0..parse_work {
        d = d.rotate_left(7) ^ d.wrapping_mul(0x1000_0000_01b3);
    }
    d
}

/// The logstream-digest job graph: stateless per-line digest, farmed out
/// one child per batch, in serial order.
pub fn logstream_digest_spec(parse_work: u32) -> GraphSpec<String, u64> {
    GraphSpec::<String, String>::new()
        .farm_map(move |line: String| enriched_digest(&line, parse_work))
}

/// Serial elision of [`logstream_digest_spec`].
pub fn logstream_digest_serial(lines: &[String], parse_work: u32) -> Vec<u64> {
    lines
        .iter()
        .map(|l| enriched_digest(l, parse_work))
        .collect()
}

/// Builds the compiled wordcount service on `rt`.
pub fn build_wordcount_service(
    rt: Arc<Runtime>,
    cfg: &ServiceWorkloadConfig,
) -> CompiledGraph<String, (String, u64)> {
    wordcount_spec(cfg.degree, cfg.window).compile(rt, cfg.service_config())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_job() {
        let cfg = ServiceWorkloadConfig::small();
        assert_eq!(job_lines(&cfg, 7), job_lines(&cfg, 7));
        assert_ne!(job_lines(&cfg, 7), job_lines(&cfg, 8));
    }
}
