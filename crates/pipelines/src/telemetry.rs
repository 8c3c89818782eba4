//! Unified telemetry: one versioned snapshot over every stats surface.
//!
//! The runtime accumulates counters at every layer — hyperqueue
//! [`QueueStats`], swan scheduler [`MetricsSnapshot`] and admission
//! [`JobTableStats`], the service layer's [`ServiceStorageStats`], the
//! ingress [`IngressStats`] and the journal's [`JournalStats`] — but
//! until this module each had its own getter and its own shape, and the
//! only wire-visible view was an ad-hoc JSON blob. [`TelemetrySnapshot`]
//! consolidates all of them behind the [`TelemetrySource`] trait, adds
//! allocation-free per-job-class latency histograms
//! ([`LatencyHistogram`]), and defines the stable text encoding that
//! flows over the ingress `StatsEvent` frames (DESIGN.md §6.5).
//!
//! # The text encoding
//!
//! One `key value` line per counter, `/metrics`-style:
//!
//! ```text
//! telemetry_version 1
//! sched.tasks_executed 4096
//! admission.in_flight 4
//! latency.wordcount.count 1000
//! latency.wordcount.b11 978
//! ```
//!
//! Keys are dot-separated ASCII, values are unsigned decimal integers,
//! and the first line always carries the version. Parsers must ignore
//! keys they do not recognise — that is what makes the encoding
//! self-describing and lets old clients read new servers. Blank lines
//! and `#` comments are skipped.
//!
//! # Reading relaxed counters
//!
//! Every counter consolidated here is maintained with
//! `Ordering::Relaxed` atomics; [`read_counter`] is the one sanctioned
//! way to snapshot them and documents the approximate-under-concurrency
//! contract all of them share.

use std::sync::atomic::{AtomicU64, Ordering};

use hyperqueue::{PoolStats, QueueStats};
use swan::{JobTableStats, MetricsSnapshot};

use crate::ingress::IngressStats;
use crate::journal::JournalStats;
use crate::service::ServiceStorageStats;

/// Version tag carried by every [`TelemetrySnapshot`] and its text
/// encoding. Bumped only when an existing key changes meaning; *adding*
/// keys is always compatible (parsers ignore unknown keys).
pub const TELEMETRY_VERSION: u32 = 1;

/// Snapshots one relaxed monotonic counter.
///
/// # The approximate-under-concurrency contract
///
/// All observability counters in this workspace are incremented and read
/// with `Ordering::Relaxed`: they are statistics, not synchronization.
/// While other threads are running, a value read here may lag increments
/// that have already happened on another core, and two counters read
/// back-to-back need not be mutually consistent (the second read can
/// miss an increment that the first one saw the effects of). Each
/// counter is individually monotonic and *eventually exact*: after the
/// writers quiesce — `Runtime::quiesce`, `IngressServer::shutdown`, a
/// joined job — a read returns the true total. Benchmarks and tests that
/// assert exact values must quiesce first; live monitoring accepts the
/// slack.
#[inline]
pub fn read_counter(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Latency histograms.
// ---------------------------------------------------------------------------

/// Number of log-spaced buckets in a [`LatencyHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed log-bucketed latency histogram with allocation-free
/// recording.
///
/// Bucket `i` counts values whose bit width is `i` (bucket 0 holds the
/// value 0; bucket `i ≥ 1` holds `2^(i-1) ..= 2^i - 1`; the last bucket
/// absorbs everything wider). [`record`](LatencyHistogram::record) is a
/// single relaxed `fetch_add` on a preallocated `AtomicU64` array — no
/// allocation, no locks, no branches beyond the bucket index — so it is
/// safe to call on job-completion paths without perturbing the
/// steady-state zero-allocation property the service layer proves in its
/// tests. Quantiles are derived on the *read* side from a
/// [`HistogramSnapshot`].
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }
}

/// Maps a value to its histogram bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Allocation-free: a single relaxed `fetch_add`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts out (see [`read_counter`] for the
    /// consistency contract of a snapshot taken while writers run).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (i, b) in self.buckets.iter().enumerate() {
            out.buckets[i] = read_counter(b);
        }
        out
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]'s buckets, with
/// quantile derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; bucket `i` spans
    /// [`HistogramSnapshot::bucket_bounds`]`(i)`.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The inclusive `[lo, hi]` value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            _ if i >= HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// The `[lo, hi]` bounds of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), or `None` on an empty histogram. The exact
    /// sorted-sample quantile of the recorded values is guaranteed to
    /// lie within the returned bounds — the log-bucketing trades value
    /// resolution (one power of two) for allocation-free recording.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // Rank of the quantile sample, 1-based: ceil(q · total), clamped
        // into [1, total] — rank r means "the r-th smallest sample".
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bounds(i));
            }
        }
        None // unreachable: seen == total >= rank after the loop
    }

    /// Upper-bound estimate of the `q`-quantile (0 on empty): the `hi`
    /// side of [`quantile_bounds`](Self::quantile_bounds), i.e. the
    /// conservative answer for alerting.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).map_or(0, |(_, hi)| hi)
    }
}

/// One job class's latency histogram (microseconds), labeled by the
/// [`crate::service::ServiceConfig::job_class`] name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassLatency {
    /// The job-class label (sanitized to `[A-Za-z0-9_-]` in the text
    /// encoding).
    pub class: String,
    /// Submit-to-completion latency in microseconds.
    pub histogram: HistogramSnapshot,
}

// ---------------------------------------------------------------------------
// The snapshot.
// ---------------------------------------------------------------------------

/// Per-edge storage telemetry: the edge's segment pool plus the retired
/// queue totals of every job that ran over it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeTelemetry {
    /// The edge's shared [`hyperqueue::SegmentPool`] counters.
    pub pool: PoolStats,
    /// Lifetime queue counters absorbed from this edge's retired queues.
    pub queues: QueueStats,
}

/// Journal durability telemetry: the raw [`JournalStats`] plus the
/// derived lag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalTelemetry {
    /// Raw journal counters.
    pub stats: JournalStats,
    /// Records appended but not yet made durable by an fsync — the
    /// group-commit depth. 0 on an idle journal; under load this is the
    /// number of writers currently riding one fsync.
    pub lag: u64,
}

/// A versioned, point-in-time consolidation of every stats surface in
/// the stack (see module docs). Produced by [`TelemetrySource::telemetry`]
/// implementations; serialized with
/// [`encode_text`](TelemetrySnapshot::encode_text) and parsed back with
/// [`parse_text`](TelemetrySnapshot::parse_text).
///
/// All counter fields obey the [`read_counter`] contract: individually
/// monotonic, approximate while writers run, exact after quiesce.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Encoding version ([`TELEMETRY_VERSION`]).
    pub version: u32,
    /// Scheduler activity (steals, parks, helps).
    pub sched: MetricsSnapshot,
    /// Queue counters summed across all edges.
    pub queues: QueueStats,
    /// Aggregate segment-storage counters.
    pub storage: ServiceStorageStats,
    /// Admission gate counters (in-flight, queued, high-water).
    pub admission: JobTableStats,
    /// Per-edge pool + queue breakdown, in edge-creation order.
    pub edges: Vec<EdgeTelemetry>,
    /// Per-job-class latency histograms (microseconds).
    pub latency: Vec<ClassLatency>,
    /// Ingress counters, when the source fronts a TCP server.
    pub ingress: Option<IngressStats>,
    /// Journal counters + lag, when durability is enabled.
    pub journal: Option<JournalTelemetry>,
}

/// Anything that can produce a [`TelemetrySnapshot`]: the service layer's
/// `CompiledGraph` (scheduler/queue/admission/latency sections) and the
/// ingress server (all of that plus the ingress and journal sections).
pub trait TelemetrySource {
    /// Takes a point-in-time snapshot (see [`read_counter`] for the
    /// consistency contract).
    fn telemetry(&self) -> TelemetrySnapshot;
}

/// Restricts a job-class label to `[A-Za-z0-9_-]` so it can serve as a
/// key segment in the text encoding.
fn sanitize_class(class: &str) -> String {
    class
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl TelemetrySnapshot {
    /// An empty snapshot at the current [`TELEMETRY_VERSION`].
    pub fn new() -> Self {
        TelemetrySnapshot {
            version: TELEMETRY_VERSION,
            ..TelemetrySnapshot::default()
        }
    }

    /// Serializes the snapshot as the stable `key value` text encoding
    /// (module docs). The version line always comes first; zero-count
    /// histogram buckets are omitted (sparse).
    pub fn encode_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1536);
        let kv = |s: &mut String, k: &str, v: u64| {
            let _ = writeln!(s, "{k} {v}");
        };
        kv(&mut s, "telemetry_version", self.version as u64);

        let m = &self.sched;
        kv(&mut s, "sched.tasks_executed", m.tasks_executed);
        kv(&mut s, "sched.steals", m.steals);
        kv(&mut s, "sched.steal_failures", m.steal_failures);
        kv(&mut s, "sched.steal_batch_items", m.steal_batch_items);
        kv(&mut s, "sched.helps_sync", m.helps_sync);
        kv(&mut s, "sched.helps_queue", m.helps_queue);
        kv(&mut s, "sched.parks", m.parks);
        kv(&mut s, "sched.deferred_tasks", m.deferred_tasks);

        let q = &self.queues;
        kv(&mut s, "queues.segments_allocated", q.segments_allocated);
        kv(&mut s, "queues.segments_recycled", q.segments_recycled);
        kv(&mut s, "queues.freelist_hits", q.freelist_hits);
        kv(&mut s, "queues.head_attaches", q.head_attaches);
        kv(&mut s, "queues.pool_draws", q.pool_draws);
        kv(&mut s, "queues.lock_acquisitions", q.lock_acquisitions);
        kv(&mut s, "queues.chain_advances", q.chain_advances);
        kv(&mut s, "queues.notifies_suppressed", q.notifies_suppressed);

        let st = &self.storage;
        kv(&mut s, "storage.edges", st.edges as u64);
        kv(&mut s, "storage.segments_allocated", st.segments_allocated);
        kv(&mut s, "storage.pool_hits", st.pool_hits);
        kv(&mut s, "storage.segments_pooled", st.segments_pooled);
        kv(&mut s, "storage.segments_returned", st.segments_returned);

        let a = &self.admission;
        kv(&mut s, "admission.submitted", a.submitted);
        kv(&mut s, "admission.completed", a.completed);
        kv(&mut s, "admission.in_flight", a.in_flight as u64);
        kv(&mut s, "admission.queued", a.queued as u64);
        kv(
            &mut s,
            "admission.high_water_in_flight",
            a.high_water_in_flight as u64,
        );
        kv(&mut s, "admission.max_in_flight", a.max_in_flight as u64);
        kv(&mut s, "admission.retries", a.retries);
        kv(&mut s, "admission.failed", a.failed);

        for (i, e) in self.edges.iter().enumerate() {
            let ekv = |s: &mut String, k: &str, v: u64| {
                let _ = writeln!(s, "edge.{i}.{k} {v}");
            };
            ekv(&mut s, "segment_capacity", e.pool.segment_capacity as u64);
            ekv(&mut s, "pool_available", e.pool.available);
            ekv(&mut s, "pool_hits", e.pool.hits);
            ekv(&mut s, "pool_misses", e.pool.misses);
            ekv(&mut s, "pool_returned", e.pool.returned);
            ekv(&mut s, "segments_allocated", e.queues.segments_allocated);
            ekv(&mut s, "segments_recycled", e.queues.segments_recycled);
            ekv(&mut s, "freelist_hits", e.queues.freelist_hits);
            ekv(&mut s, "head_attaches", e.queues.head_attaches);
            ekv(&mut s, "pool_draws", e.queues.pool_draws);
            ekv(&mut s, "lock_acquisitions", e.queues.lock_acquisitions);
            ekv(&mut s, "chain_advances", e.queues.chain_advances);
            ekv(&mut s, "notifies_suppressed", e.queues.notifies_suppressed);
        }

        for class in &self.latency {
            let name = sanitize_class(&class.class);
            kv(
                &mut s,
                &format!("latency.{name}.count"),
                class.histogram.count(),
            );
            for (i, &c) in class.histogram.buckets.iter().enumerate() {
                if c > 0 {
                    kv(&mut s, &format!("latency.{name}.b{i}"), c);
                }
            }
        }

        if let Some(i) = &self.ingress {
            kv(&mut s, "ingress.connections", i.connections);
            kv(&mut s, "ingress.frames_in", i.frames_in);
            kv(&mut s, "ingress.bytes_in", i.bytes_in);
            kv(&mut s, "ingress.bytes_out", i.bytes_out);
            kv(&mut s, "ingress.jobs_accepted", i.jobs_accepted);
            kv(&mut s, "ingress.jobs_completed", i.jobs_completed);
            kv(&mut s, "ingress.retries_sent", i.retries_sent);
            kv(&mut s, "ingress.errors_sent", i.errors_sent);
            kv(&mut s, "ingress.protocol_errors", i.protocol_errors);
            kv(&mut s, "ingress.results_dropped", i.results_dropped);
            kv(&mut s, "ingress.durable_jobs", i.durable_jobs);
            kv(&mut s, "ingress.durable_dupes", i.durable_dupes);
            kv(&mut s, "ingress.acks", i.acks);
            kv(&mut s, "ingress.queries", i.queries);
            kv(&mut s, "ingress.accept_errors", i.accept_errors);
            kv(&mut s, "ingress.loop_wakeups", i.loop_wakeups);
            kv(&mut s, "ingress.stats_events", i.stats_events);
            kv(&mut s, "ingress.stats_dropped", i.stats_dropped);
        }

        if let Some(j) = &self.journal {
            kv(&mut s, "journal.appends", j.stats.appends);
            kv(&mut s, "journal.fsyncs", j.stats.fsyncs);
            kv(&mut s, "journal.bytes_written", j.stats.bytes_written);
            kv(&mut s, "journal.segments_created", j.stats.segments_created);
            kv(&mut s, "journal.segments_deleted", j.stats.segments_deleted);
            kv(&mut s, "journal.dir_syncs", j.stats.dir_syncs);
            kv(&mut s, "journal.lag", j.lag);
        }
        s
    }

    /// Parses the text encoding back into a snapshot. Unknown keys are
    /// ignored (that is the compatibility contract); malformed lines —
    /// no space, or a value that is not an unsigned integer — are
    /// errors, as is a missing `telemetry_version` line.
    pub fn parse_text(text: &str) -> Result<TelemetrySnapshot, String> {
        let mut snap = TelemetrySnapshot::default();
        let mut saw_version = false;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed telemetry line {line:?}"))?;
            let v: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("non-integer value in telemetry line {line:?}"))?;
            if key == "telemetry_version" {
                snap.version = v as u32;
                saw_version = true;
                continue;
            }
            let Some((section, rest)) = key.split_once('.') else {
                continue; // unknown bare key: ignore
            };
            match section {
                "sched" => {
                    let m = &mut snap.sched;
                    match rest {
                        "tasks_executed" => m.tasks_executed = v,
                        "steals" => m.steals = v,
                        "steal_failures" => m.steal_failures = v,
                        "steal_batch_items" => m.steal_batch_items = v,
                        "helps_sync" => m.helps_sync = v,
                        "helps_queue" => m.helps_queue = v,
                        "parks" => m.parks = v,
                        "deferred_tasks" => m.deferred_tasks = v,
                        _ => {}
                    }
                }
                "queues" => Self::parse_queue_key(&mut snap.queues, rest, v),
                "storage" => {
                    let st = &mut snap.storage;
                    match rest {
                        "edges" => st.edges = v as usize,
                        "segments_allocated" => st.segments_allocated = v,
                        "pool_hits" => st.pool_hits = v,
                        "segments_pooled" => st.segments_pooled = v,
                        "segments_returned" => st.segments_returned = v,
                        _ => {}
                    }
                }
                "admission" => {
                    let a = &mut snap.admission;
                    match rest {
                        "submitted" => a.submitted = v,
                        "completed" => a.completed = v,
                        "in_flight" => a.in_flight = v as usize,
                        "queued" => a.queued = v as usize,
                        "high_water_in_flight" => a.high_water_in_flight = v as usize,
                        "max_in_flight" => a.max_in_flight = v as usize,
                        "retries" => a.retries = v,
                        "failed" => a.failed = v,
                        _ => {}
                    }
                }
                "edge" => {
                    let Some((idx, field)) = rest.split_once('.') else {
                        continue;
                    };
                    let Ok(idx) = idx.parse::<usize>() else {
                        continue;
                    };
                    if idx >= 4096 {
                        return Err(format!("edge index {idx} out of range"));
                    }
                    if snap.edges.len() <= idx {
                        snap.edges.resize(idx + 1, EdgeTelemetry::default());
                    }
                    let e = &mut snap.edges[idx];
                    match field {
                        "segment_capacity" => e.pool.segment_capacity = v as usize,
                        "pool_available" => e.pool.available = v,
                        "pool_hits" => e.pool.hits = v,
                        "pool_misses" => e.pool.misses = v,
                        "pool_returned" => e.pool.returned = v,
                        _ => Self::parse_queue_key(&mut e.queues, field, v),
                    }
                }
                "latency" => {
                    let Some((class, field)) = rest.split_once('.') else {
                        continue;
                    };
                    let entry = match snap.latency.iter_mut().position(|c| c.class == class) {
                        Some(i) => &mut snap.latency[i],
                        None => {
                            snap.latency.push(ClassLatency {
                                class: class.to_string(),
                                histogram: HistogramSnapshot::default(),
                            });
                            snap.latency.last_mut().expect("just pushed")
                        }
                    };
                    if let Some(b) = field.strip_prefix('b') {
                        if let Ok(i) = b.parse::<usize>() {
                            if i < HISTOGRAM_BUCKETS {
                                entry.histogram.buckets[i] = v;
                            }
                        }
                    }
                    // "count" is derivable from the buckets: ignored.
                }
                "ingress" => {
                    let i = snap.ingress.get_or_insert_with(IngressStats::default);
                    match rest {
                        "connections" => i.connections = v,
                        "frames_in" => i.frames_in = v,
                        "bytes_in" => i.bytes_in = v,
                        "bytes_out" => i.bytes_out = v,
                        "jobs_accepted" => i.jobs_accepted = v,
                        "jobs_completed" => i.jobs_completed = v,
                        "retries_sent" => i.retries_sent = v,
                        "errors_sent" => i.errors_sent = v,
                        "protocol_errors" => i.protocol_errors = v,
                        "results_dropped" => i.results_dropped = v,
                        "durable_jobs" => i.durable_jobs = v,
                        "durable_dupes" => i.durable_dupes = v,
                        "acks" => i.acks = v,
                        "queries" => i.queries = v,
                        "accept_errors" => i.accept_errors = v,
                        "loop_wakeups" => i.loop_wakeups = v,
                        "stats_events" => i.stats_events = v,
                        "stats_dropped" => i.stats_dropped = v,
                        _ => {}
                    }
                }
                "journal" => {
                    let j = snap.journal.get_or_insert_with(JournalTelemetry::default);
                    match rest {
                        "appends" => j.stats.appends = v,
                        "fsyncs" => j.stats.fsyncs = v,
                        "bytes_written" => j.stats.bytes_written = v,
                        "segments_created" => j.stats.segments_created = v,
                        "segments_deleted" => j.stats.segments_deleted = v,
                        "dir_syncs" => j.stats.dir_syncs = v,
                        "lag" => j.lag = v,
                        _ => {}
                    }
                }
                _ => {} // unknown section: ignore (forward compatibility)
            }
        }
        if !saw_version {
            return Err("telemetry text missing the telemetry_version line".to_string());
        }
        Ok(snap)
    }

    fn parse_queue_key(q: &mut QueueStats, key: &str, v: u64) {
        match key {
            "segments_allocated" => q.segments_allocated = v,
            "segments_recycled" => q.segments_recycled = v,
            "freelist_hits" => q.freelist_hits = v,
            "head_attaches" => q.head_attaches = v,
            "pool_draws" => q.pool_draws = v,
            "lock_acquisitions" => q.lock_acquisitions = v,
            "chain_advances" => q.chain_advances = v,
            "notifies_suppressed" => q.notifies_suppressed = v,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_value_space() {
        // Every u64 lands in exactly one bucket, and that bucket's bounds
        // contain it.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo},{hi}]"
            );
        }
        // Buckets tile contiguously.
        for i in 1..HISTOGRAM_BUCKETS {
            let (_, prev_hi) = HistogramSnapshot::bucket_bounds(i - 1);
            let (lo, _) = HistogramSnapshot::bucket_bounds(i);
            assert_eq!(lo, prev_hi + 1, "gap between buckets {} and {i}", i - 1);
        }
    }

    #[test]
    fn quantiles_bracket_exact_sample_quantiles() {
        let h = LatencyHistogram::new();
        let samples: Vec<u64> = (0..1000u64).map(|i| i * i % 7919).collect();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), samples.len() as u64);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let (lo, hi) = snap.quantile_bounds(q).expect("non-empty");
            assert!(
                lo <= exact && exact <= hi,
                "q{q}: exact {exact} outside [{lo},{hi}]"
            );
            assert_eq!(snap.quantile(q), hi);
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.quantile_bounds(0.5), None);
        assert_eq!(snap.quantile(0.99), 0);
    }

    #[test]
    fn text_roundtrip_preserves_every_section() {
        let mut snap = TelemetrySnapshot::new();
        snap.sched.tasks_executed = 42;
        snap.sched.parks = 7;
        snap.queues.segments_allocated = 3;
        snap.queues.notifies_suppressed = 11;
        snap.storage.edges = 2;
        snap.storage.pool_hits = 99;
        snap.admission.submitted = 10;
        snap.admission.in_flight = 4;
        snap.admission.high_water_in_flight = 4;
        snap.edges = vec![
            EdgeTelemetry::default(),
            EdgeTelemetry {
                pool: PoolStats {
                    segment_capacity: 32,
                    available: 5,
                    hits: 6,
                    misses: 1,
                    returned: 5,
                },
                queues: QueueStats {
                    segments_allocated: 1,
                    ..QueueStats::default()
                },
            },
        ];
        let hist = LatencyHistogram::new();
        hist.record(0);
        hist.record(900);
        hist.record(1100);
        snap.latency = vec![ClassLatency {
            class: "wordcount".to_string(),
            histogram: hist.snapshot(),
        }];
        snap.ingress = Some(IngressStats {
            connections: 3,
            stats_events: 2,
            ..IngressStats::default()
        });
        snap.journal = Some(JournalTelemetry {
            stats: JournalStats {
                appends: 12,
                fsyncs: 2,
                ..JournalStats::default()
            },
            lag: 4,
        });
        let text = snap.encode_text();
        assert!(text.starts_with("telemetry_version 1\n"), "{text}");
        let back = TelemetrySnapshot::parse_text(&text).expect("parse");
        assert_eq!(back, snap);
        // A daemon from before stage placement was removed still sends
        // these version-1 keys; they fall to the unknown-key arms.
        let old_daemon = format!(
            "{text}sched.cross_group_steals 2\npartition.parts 2\npartition.cut 3\npartition.stage.0 1\n"
        );
        assert_eq!(TelemetrySnapshot::parse_text(&old_daemon), Ok(snap));
    }

    #[test]
    fn parser_ignores_unknown_keys_and_rejects_garbage() {
        let ok = TelemetrySnapshot::parse_text(
            "telemetry_version 1\n# a comment\n\nfuture.key 9\nsched.unknown 3\nsched.parks 5\n",
        )
        .expect("unknown keys are fine");
        assert_eq!(ok.sched.parks, 5);
        assert!(
            TelemetrySnapshot::parse_text("sched.parks 5\n").is_err(),
            "version required"
        );
        assert!(TelemetrySnapshot::parse_text("telemetry_version 1\nnospace\n").is_err());
        assert!(TelemetrySnapshot::parse_text("telemetry_version 1\nsched.parks x\n").is_err());
    }

    #[test]
    fn class_labels_are_sanitized() {
        let mut snap = TelemetrySnapshot::new();
        snap.latency = vec![ClassLatency {
            class: "word count/v2".to_string(),
            histogram: HistogramSnapshot::default(),
        }];
        let text = snap.encode_text();
        assert!(text.contains("latency.word_count_v2.count 0"), "{text}");
    }
}
