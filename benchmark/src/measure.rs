//! Measurement plumbing shared by every workload: process CPU time and
//! peak RSS, order statistics, the block record each workload fills, and
//! the end-to-end metric formulas computed from those blocks.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

use crate::trace::SpanLog;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// User + system CPU seconds this process has consumed (`RUSAGE_SELF`).
pub fn cpu_seconds() -> f64 {
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `ru` points to writable memory of exactly `struct rusage`'s
    // size and layout; getrusage(RUSAGE_SELF = 0) only writes into it.
    let rc = unsafe { getrusage(0, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // SAFETY: zero-initialised above and filled by a successful call.
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// Peak resident set (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores the process may use; every thread-dependent number is reported
/// next to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `q`-quantile (0..=1) of `values`, nearest-rank on the sorted copy.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// `metrics` as the JSON object the driver reads.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// What a block of a batch workload's window ran. The subject cycles
/// with its references *inside one run*, so ratios between kinds cancel
/// machine drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The system under test, used the way the workload is named for.
    Subject,
    /// The system under test used another way: stream's scalar rounds,
    /// ferret at one worker.
    Alternate,
    /// The serial elision of the same ops on one thread.
    Serial,
    /// The hand-built pipeline a user would otherwise write.
    Reference,
}

/// One block: a ferret batch or a stream round.
#[derive(Clone, Debug)]
pub struct Block {
    pub kind: Kind,
    /// Ops completed in the block.
    pub ops: u64,
    /// Wall seconds the block took.
    pub secs: f64,
    /// Process CPU seconds over the block.
    pub cpu_secs: f64,
}

impl Block {
    fn secs_per_op(&self) -> f64 {
        self.secs / self.ops.max(1) as f64
    }
}

/// Median seconds per op over the blocks of `kind`; `None` when the run
/// held no such block.
pub fn median_per_op(blocks: &[Block], kind: Kind) -> Option<f64> {
    let v: Vec<f64> = blocks
        .iter()
        .filter(|b| b.kind == kind && b.ops > 0)
        .map(Block::secs_per_op)
        .collect();
    (!v.is_empty()).then(|| median(&v))
}

/// What every workload measures, whatever its shape. Times are read
/// against the serial elision of the same ops, run inside the same
/// window, because this class of host shifts speed by 10–30% for minutes
/// at a time: the ratios hold through that, the raw times do not.
pub struct EndToEnd {
    pub setup_s: f64,
    /// `VmHWM` when the window closed (before the late set-up cycles).
    pub peak_rss_mb: f64,
    /// Wall seconds per op of the subject, and process CPU seconds per op.
    pub secs_per_op: f64,
    pub cpu_secs_per_op: f64,
    /// Latency of one unit of submitted work: its median, and the highest
    /// percentile with at least ten samples beyond it.
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// One thread's seconds per op on the serial elision.
    pub serial_secs_per_op: f64,
}

impl EndToEnd {
    /// For the batch workloads, whose window is a sequence of blocks: all
    /// medians over blocks, so a disturbed block cannot move them. The
    /// unit of submitted work is a subject block; a window holds one to
    /// three hundred of them, so the tail is their p90.
    pub fn of_blocks(blocks: &[Block], setup_s: f64, peak_rss_mb: f64) -> EndToEnd {
        let per_op = |kind| {
            median_per_op(blocks, kind).unwrap_or_else(|| {
                panic!("the window held no {kind:?} block: --seconds is too short for one cycle")
            })
        };
        let cpu: Vec<f64> = blocks
            .iter()
            .filter(|b| b.kind == Kind::Subject && b.ops > 0)
            .map(|b| b.cpu_secs / b.ops as f64)
            .collect();
        let makespans_ms: Vec<f64> = blocks
            .iter()
            .filter(|b| b.kind == Kind::Subject)
            .map(|b| b.secs * 1e3)
            .collect();
        EndToEnd {
            setup_s,
            peak_rss_mb,
            secs_per_op: per_op(Kind::Subject),
            cpu_secs_per_op: median(&cpu),
            p50_ms: median(&makespans_ms),
            tail_ms: quantile(&makespans_ms, 0.9),
            serial_secs_per_op: per_op(Kind::Serial),
        }
    }

    /// The bounded end-to-end metrics of `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric(
                "speedup_vs_serial",
                self.serial_secs_per_op / self.secs_per_op,
                "ratio",
            ),
            metric(
                "cpu_vs_serial",
                self.cpu_secs_per_op / self.serial_secs_per_op,
                "ratio",
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// The same run in raw units, for people: printed, never bounded.
    pub fn raw(&self) -> Vec<Metric> {
        vec![
            metric("throughput_ops_s", 1.0 / self.secs_per_op, "1/s"),
            metric("latency_ms_p50", self.p50_ms, "ms"),
            metric("latency_ms_tail", self.tail_ms, "ms"),
            metric("cpu_us_per_op", self.cpu_secs_per_op * 1e6, "us"),
            metric("serial_us_per_op", self.serial_secs_per_op * 1e6, "us"),
        ]
    }
}

/// One batch or round as a workload's step closure ran it.
pub struct Step {
    pub kind: Kind,
    pub ops: u64,
    /// The layer call the step made, as a span name.
    pub span: &'static str,
    /// Checksum produced, and the one the serial elision demands.
    pub got: u64,
    pub want: u64,
}

/// What a window of back-to-back steps produced.
pub struct Rounds {
    pub blocks: Vec<Block>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the generator spent checking results, and the window's.
    pub verify_secs: f64,
    pub window_secs: f64,
}

/// Runs `step(i)` back to back: the `warmup` steps first, unrecorded (a
/// fixed op count, not a time, so pools, freelists and worker threads are
/// in steady state), then `i = 0, 1, …` for `seconds`, one [`Block`] each. Every step's
/// checksum is verified; `log` gets a span per step and its check.
pub fn run_rounds(
    seconds: f64,
    warmup: &[u64],
    mut log: Option<&mut SpanLog>,
    mut step: impl FnMut(u64) -> Step,
) -> Rounds {
    let mut out = Rounds {
        blocks: Vec::new(),
        attempted: 0,
        failed: 0,
        verify_secs: 0.0,
        window_secs: 0.0,
    };
    for &i in warmup {
        let s = step(i);
        out.attempted += s.ops;
        out.failed += if s.got == s.want { 0 } else { s.ops };
    }
    let window = Instant::now();
    let mut i = 0u64;
    while window.elapsed().as_secs_f64() < seconds {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let s = step(i);
        let t1 = Instant::now();
        let cpu_secs = cpu_seconds() - cpu0;
        out.attempted += s.ops;
        out.failed += if std::hint::black_box(s.got) == s.want {
            0
        } else {
            s.ops
        };
        let t2 = Instant::now();
        out.verify_secs += (t2 - t1).as_secs_f64();
        if let Some(log) = log.as_deref_mut() {
            let root = log.record("loadgen.block", i, 0, t0, t2);
            log.record(s.span, i, root, t0, t1);
            log.record("loadgen.verify", i, root, t1, t2);
        }
        let secs = (t1 - t0).as_secs_f64();
        out.blocks.push(Block {
            kind: s.kind,
            ops: s.ops,
            secs,
            cpu_secs,
        });
        i += 1;
    }
    out.window_secs = window.elapsed().as_secs_f64();
    out
}

/// Times `f` once, in seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}
