//! service — the persistent-pipeline service workload.
//!
//! Where the other workloads measure *one* heavy pipeline run, this one
//! measures a **service**: a [`CompiledGraph`] kept hot on a persistent
//! runtime while thousands of small, independent jobs are fired at it by
//! closed-loop clients. Two job shapes:
//!
//! * **wordcount** — tokenize each job's lines, shard the counting by
//!   word hash, k-way merge the sorted shard outputs (the stateful
//!   sharded-aggregation shape);
//! * **logstream digest** — per-line digest with optional enrichment
//!   work, farmed out one child per batch and kept in serial order by the
//!   queue's views (the stateless farm shape).
//!
//! Every job's output is checked against its serial elision, so the
//! latency numbers describe *correct* executions. After warm-up +
//! [`CompiledGraph::prewarm`], the steady state allocates **zero**
//! segments per job (`tests/service.rs` holds it to that).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pipelines::graph::{Admission, CompiledGraph, GraphSpec, ServiceConfig};
use swan::{JobTableStats, Runtime};

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
    /// Closed-loop client threads submitting jobs back-to-back.
    pub clients: usize,
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
            clients: 4,
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
            clients: 4,
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

/// Builds the compiled logstream-digest service on `rt`.
pub fn build_logstream_service(
    rt: Arc<Runtime>,
    cfg: &ServiceWorkloadConfig,
) -> CompiledGraph<String, u64> {
    logstream_digest_spec(cfg.parse_work).compile(rt, cfg.service_config())
}

// ---------------------------------------------------------------------------
// Closed-loop measurement harness.
// ---------------------------------------------------------------------------

/// What one measured service run produced.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Jobs completed.
    pub jobs: u64,
    /// Median submit→result job latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile job latency, microseconds.
    pub p99_us: f64,
    /// Admission counters at the end of the run.
    pub admission: JobTableStats,
}

/// Value of the `p`-th percentile (0–100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Fires `cfg.jobs` jobs at `graph` from `cfg.clients` closed-loop client
/// threads (each submits a job, joins it, repeats) and reports throughput
/// plus the latency distribution. `make_input` produces job `j`'s input;
/// `check` sees every job's output (assert correctness there — failures
/// propagate as panics).
pub fn run_closed_loop<I, O>(
    graph: &CompiledGraph<I, O>,
    cfg: &ServiceWorkloadConfig,
    make_input: impl Fn(usize) -> Vec<I> + Sync,
    check: impl Fn(usize, &[O]) + Sync,
) -> ServiceReport
where
    I: Clone + Send + 'static,
    O: Send + 'static,
{
    let next = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let latencies = parking_lot::Mutex::new(Vec::with_capacity(cfg.jobs));
    std::thread::scope(|s| {
        for _ in 0..cfg.clients.max(1) {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= cfg.jobs {
                        break;
                    }
                    let input = make_input(j);
                    let submit = Instant::now();
                    let out = graph
                        .submit(input, Admission::Unbounded)
                        .expect_accepted()
                        .join();
                    local.push(submit.elapsed().as_secs_f64() * 1e6);
                    check(j, &out);
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                latencies.lock().extend(local);
            });
        }
    });
    let mut lat = latencies.into_inner();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    ServiceReport {
        jobs: completed.load(Ordering::Relaxed),
        p50_us: percentile(&lat, 50.0),
        p99_us: percentile(&lat, 99.0),
        admission: graph.telemetry().admission,
    }
}

/// One-call wordcount measurement: builds the service, warms it, fires
/// the closed loop with per-job output verification.
pub fn run_wordcount_service(rt: Arc<Runtime>, cfg: &ServiceWorkloadConfig) -> ServiceReport {
    let graph = build_wordcount_service(rt, cfg);
    warm_up(&graph, cfg, |j| job_lines(cfg, j));
    run_closed_loop(
        &graph,
        cfg,
        |j| job_lines(cfg, j),
        |j, out| {
            assert_eq!(
                out,
                wordcount_serial(&job_lines(cfg, j)),
                "wordcount job {j} diverged from its serial elision"
            );
        },
    )
}

/// One-call logstream-digest measurement (see [`run_wordcount_service`]).
pub fn run_logstream_service(rt: Arc<Runtime>, cfg: &ServiceWorkloadConfig) -> ServiceReport {
    let graph = build_logstream_service(rt, cfg);
    warm_up(&graph, cfg, |j| job_lines(cfg, j));
    run_closed_loop(
        &graph,
        cfg,
        |j| job_lines(cfg, j),
        |j, out| {
            assert_eq!(
                out,
                logstream_digest_serial(&job_lines(cfg, j), cfg.parse_work),
                "logstream job {j} diverged from its serial elision"
            );
        },
    )
}

/// Runs one job to instantiate the edges, then prewarms every edge pool
/// to the worst-case depth so the measured loop is allocation-free.
fn warm_up<I, O>(
    graph: &CompiledGraph<I, O>,
    cfg: &ServiceWorkloadConfig,
    make_input: impl Fn(usize) -> Vec<I>,
) where
    I: Clone + Send + 'static,
    O: Send + 'static,
{
    graph
        .submit(make_input(0), Admission::Unbounded)
        .expect_accepted()
        .join();
    graph.prewarm(cfg.prewarm_depth());
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

    #[test]
    fn wordcount_service_matches_serial_elision() {
        let mut cfg = ServiceWorkloadConfig::small();
        cfg.jobs = 12;
        let rt = Arc::new(Runtime::with_workers(2));
        let report = run_wordcount_service(rt, &cfg);
        assert_eq!(report.jobs, 12);
        assert!(report.admission.high_water_in_flight <= cfg.max_in_flight);
    }

    #[test]
    fn logstream_service_matches_serial_elision() {
        let mut cfg = ServiceWorkloadConfig::small();
        cfg.jobs = 12;
        let rt = Arc::new(Runtime::with_workers(2));
        let report = run_logstream_service(rt, &cfg);
        assert_eq!(report.jobs, 12);
        assert!(report.p50_us <= report.p99_us || report.p50_us == report.p99_us);
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        let v: Vec<f64> = (1..=101).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
    }
}
