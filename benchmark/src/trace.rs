//! In-memory spans around the calls the generator makes into each layer,
//! written out as `out/trace_<workload>.json` when a traced run ends.
//! Self time of a span = its duration minus what its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::measure::{median, metrics_json, Metric};

/// Raw spans kept in the trace file; the per-name summary always covers
/// all of them.
const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The op (job, round, batch) the span belongs to.
    pub op_id: u64,
    /// Index + 1 of the parent span in the same log; 0 = root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. All logs of a run share `epoch`.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Seconds this thread spent recording spans: tracing's own cost.
    pub recording_secs: f64,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(capacity),
            recording_secs: 0.0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its handle for use as `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let t0 = Instant::now();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.recording_secs += t0.elapsed().as_secs_f64();
        self.spans.len() as u32
    }
}

/// Per-name totals over a set of logs.
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
}

pub fn summarize(logs: &[SpanLog]) -> BTreeMap<&'static str, SpanSummary> {
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for log in logs {
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in log.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert(SpanSummary {
                count: 0,
                total_ns: 0,
                self_ns: 0,
                p50_ns: 0.0,
            });
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
            durations.entry(s.name).or_default().push(dur as f64);
        }
    }
    for (name, d) in durations {
        out.get_mut(name).expect("summarized above").p50_ns = median(&d);
    }
    out
}

/// `key value` counter lines (the telemetry text encoding) as a JSON
/// object body.
fn counters_json(text: &str) -> String {
    let fields: Vec<String> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(_, v)| v.parse::<u64>().is_ok())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Renders the trace file. `counters_*` are `key value` lines snapshotted
/// at window start/end; `layer_metrics` is the per-layer table as printed.
pub fn render(
    workload: &str,
    seed: u64,
    nproc: usize,
    counters_start: &str,
    counters_end: &str,
    layer_metrics: &[Metric],
    logs: &[SpanLog],
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\n\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc},"
    );
    let _ = writeln!(s, "\"counters_start\": {},", counters_json(counters_start));
    let _ = writeln!(s, "\"counters_end\": {},", counters_json(counters_end));
    let _ = writeln!(s, "\"per_layer\": {},", metrics_json(layer_metrics));
    let summary: Vec<String> = summarize(logs)
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \"p50_ns\": {}}}",
                v.count, v.total_ns, v.self_ns, v.p50_ns
            )
        })
        .collect();
    let _ = writeln!(s, "\"span_summary\": {{{}}},", summary.join(", "));
    let total: usize = logs.iter().map(|l| l.spans.len()).sum();
    let _ = writeln!(
        s,
        "\"spans_recorded\": {total}, \"spans_written_max\": {MAX_SPANS_WRITTEN},"
    );
    s.push_str("\"spans\": [\n");
    let mut written = 0;
    'logs: for (thread, log) in logs.iter().enumerate() {
        for span in &log.spans {
            if written == MAX_SPANS_WRITTEN {
                break 'logs;
            }
            if written > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"thread\": {thread}, \"op_id\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.op_id, span.parent, span.start_ns, span.end_ns
            );
            written += 1;
        }
    }
    s.push_str("\n]\n}\n");
    s
}
