//! `ferret_batch`: the paper's Fig. 8 pipeline on a 200-image seeded
//! corpus, back to back. Stage kernels do nearly all the work and the
//! runtime almost none, so this is where the scale-free claim is read —
//! and the *bypass* workload for queue, scheduler and ingress changes.
//!
//! Blocks cycle `H H H S x`: H = `run_hyperqueue` at `nproc` workers
//! (subject), S = `run_serial`, and x taking turns between `run_tbb`,
//! `run_pthread` (the better of the two hand-built pipelines is the
//! reference) and `run_hyperqueue` at one worker (the paper's
//! serial-overhead column).

use swan::Runtime;
use workloads::ferret::{
    run_hyperqueue, run_pthread, run_serial, run_tbb, FerretConfig, PthreadTuning,
};
use workloads::util::SplitMix64;

use crate::layers::{sched_counters, WindowCounters};
use crate::measure::{median, metric, peak_rss_mb, run_rounds, time, EndToEnd, Kind, Step};
use crate::trace::SpanLog;
use crate::{Ctx, Report};

pub const IMAGES: usize = 200;
const SETUP_CYCLES: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Driver {
    Hyperqueue,
    Serial,
    Tbb,
    Pthread,
    OneWorker,
}

fn driver_of(block: u64) -> Driver {
    match (block % 5, block / 5 % 3) {
        (0..=2, _) => Driver::Hyperqueue,
        (3, _) => Driver::Serial,
        (_, 0) => Driver::Tbb,
        (_, 1) => Driver::Pthread,
        _ => Driver::OneWorker,
    }
}

/// Warm-up: one block of every driver.
const WARMUP: [u64; 5] = [0, 3, 4, 9, 14];

/// The seeded corpus configuration every block runs.
pub fn config(seed: u64, images: usize) -> FerretConfig {
    FerretConfig {
        seed: SplitMix64::new(seed).next(),
        ..FerretConfig::bench(images)
    }
}

/// Runs one block; `rts` are the `nproc`-worker and the one-worker runtime.
fn run_driver(driver: Driver, cfg: &FerretConfig, rts: [&Runtime; 2], want: u64) -> Step {
    let workers = rts[0].workers();
    let (kind, span, got) = match driver {
        Driver::Hyperqueue => (
            Kind::Subject,
            "swan.scope",
            run_hyperqueue(cfg, rts[0]).checksum(),
        ),
        Driver::OneWorker => (
            Kind::Alternate,
            "swan.scope",
            run_hyperqueue(cfg, rts[1]).checksum(),
        ),
        Driver::Serial => (
            Kind::Serial,
            "reference.batch",
            run_serial(cfg).0.checksum(),
        ),
        Driver::Tbb => (
            Kind::Reference,
            "reference.batch",
            run_tbb(cfg, workers, 4 * workers).checksum(),
        ),
        Driver::Pthread => (
            Kind::Reference,
            "reference.batch",
            run_pthread(cfg, &PthreadTuning::oversubscribed(workers)).checksum(),
        ),
    };
    Step {
        kind,
        ops: cfg.total_images as u64,
        span,
        got,
        want,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let cfg = config(ctx.seed, IMAGES);

    // Set-up a user waits for: runtime start → first image out. Half the
    // cycles run before the window and half after it, so one slow minute
    // of the host cannot own the median.
    let one = config(ctx.seed, 1);
    let setup_cycles = || -> Vec<f64> {
        (0..SETUP_CYCLES / 2)
            .map(|_| {
                let (secs, rt) = time(|| {
                    let rt = Runtime::with_workers(ctx.workers);
                    std::hint::black_box(run_hyperqueue(&one, &rt));
                    rt
                });
                drop(rt);
                secs
            })
            .collect()
    };
    let mut setup = setup_cycles();

    let rt = Runtime::with_workers(ctx.workers);
    let rt1 = Runtime::with_workers(1);
    let want = run_serial(&cfg).0.checksum();
    let mut log = SpanLog::new(ctx.epoch, 4096);
    let sched0 = rt.metrics();
    let rounds = run_rounds(ctx.seconds, &WARMUP, ctx.trace.then_some(&mut log), |i| {
        run_driver(driver_of(i), &cfg, [&rt, &rt1], want)
    });
    let sched1 = rt.metrics();
    let peak_rss_mb = peak_rss_mb();
    setup.extend(setup_cycles());
    let blocks = &rounds.blocks;

    // "Hand-built" is the better of the two reference pipelines.
    let median_of = |d: Driver| {
        let v: Vec<f64> = (0..)
            .zip(blocks)
            .filter(|(i, _)| driver_of(*i) == d)
            .map(|(_, b)| b.secs)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let handbuilt = median_of(Driver::Tbb)
        .into_iter()
        .chain(median_of(Driver::Pthread))
        .reduce(f64::min);

    let mut report = Report::new(rounds.attempted, rounds.failed);
    report
        .notes
        .push(format!("blocks {} of {IMAGES} images", blocks.len()));
    let e2e = EndToEnd::of_blocks(blocks, median(&setup), peak_rss_mb);
    report.informational = e2e.raw();
    let hq = e2e.secs_per_op * IMAGES as f64;
    if let Some(t) = handbuilt {
        report
            .informational
            .push(metric("vs_handbuilt_ratio", hq / t, "ratio"));
    }
    if let Some(h1) = median_of(Driver::OneWorker) {
        report.informational.push(metric(
            "serial_overhead_ratio",
            h1 / (e2e.serial_secs_per_op * IMAGES as f64),
            "ratio",
        ));
    }
    report.end_to_end = e2e.metrics();
    if ctx.trace {
        let (corpus_secs, _) = time(|| std::hint::black_box(workloads::ferret::corpus(&cfg)));
        let hq_images = blocks
            .iter()
            .filter(|b| b.kind == Kind::Subject)
            .map(|b| b.ops)
            .sum();
        report.window = WindowCounters {
            // Input generation is the seeded corpus tree; verification is
            // the checksum compare after each block.
            encode_us: corpus_secs * 1e6 / IMAGES as f64,
            verify_us: rounds.verify_secs * 1e6 / blocks.len() as f64,
            busy_share: rounds.verify_secs / rounds.window_secs,
            overhead_pct: log.recording_secs / rounds.window_secs * 100.0,
            ..WindowCounters::of_runtime(hq_images, &sched0, &sched1)
        };
        report.counters_start = sched_counters(&sched0);
        report.counters_end = sched_counters(&sched1);
        report.logs.push(log);
    }
    report
}
