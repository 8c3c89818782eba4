//! hqbench — end-to-end and per-layer benchmark of the hyperqueues
//! workspace, measured from outside: it only times calls into public
//! functions and diffs public counters, at the libraries' default
//! configurations. See README.md for the workloads, the metrics and the
//! layer → end-to-end map.
//!
//! ```text
//! hqbench --workload <name> --seed <u64> [--seconds 40] [--trace 0|1]
//!         [--scratch <dir>] [--clients <n>] [--force]
//! ```
//!
//! Prints one `workload/metric value unit` line per metric, then one JSON
//! object as the last line. Exit code 1 when any op failed verification.

mod ferret;
mod layers;
mod measure;
mod service;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use layers::WindowCounters;
use measure::Metric;
use trace::SpanLog;

pub const WORKLOADS: [&str; 4] = [
    "ferret_batch",
    "stream_finegrain",
    "service_tcp",
    "durable_routed",
];

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Generator threads / client connections (default: `nproc`).
    pub clients: usize,
    /// Runtime workers (always `nproc`).
    pub workers: usize,
    /// Directory for journals and other files the run writes.
    pub scratch: PathBuf,
    /// Zero of every span timestamp.
    pub epoch: Instant,
}

/// What a workload hands back.
pub struct Report {
    /// Ops attempted and ops that failed, were refused after the client's
    /// retries, or came back different from the serial elision.
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end numbers of ISSUE 12 that the uniform
    /// metric list of `BENCHMARK.json` cannot hold: printed, not bounded.
    pub informational: Vec<Metric>,
    /// Traced runs: what the window's counters and spans say per layer.
    pub window: WindowCounters,
    pub counters_start: String,
    pub counters_end: String,
    pub logs: Vec<SpanLog>,
    /// Free-form facts worth printing (sample counts, scratch location).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report {
            attempted,
            failed,
            end_to_end: Vec::new(),
            informational: Vec::new(),
            window: WindowCounters::default(),
            counters_start: String::new(),
            counters_end: String::new(),
            logs: Vec::new(),
            notes: Vec::new(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hqbench --workload <{}> --seed <u64> [--seconds 40] [--trace 0|1] \
         [--scratch <dir>] [--clients <n>] [--force]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Ctx, bool) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut scratch = None;
    let mut clients = None;
    let mut force = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--force" {
            force = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok().or_else(|| usage()),
            "--seconds" => seconds = value.parse::<f64>().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--clients" => clients = value.parse::<usize>().ok().or_else(|| usage()),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) || seconds <= 0.0 {
        usage();
    }
    let workers = measure::nproc();
    let scratch = scratch.unwrap_or_else(|| {
        // Inside the checkout by contract: the run may write nowhere else.
        PathBuf::from(format!(
            "benchmark/out/scratch-{}-{}",
            workload,
            std::process::id()
        ))
    });
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        clients: clients.unwrap_or(workers).max(1),
        workers,
        scratch,
        epoch: Instant::now(),
    };
    (ctx, force)
}

fn main() {
    let (ctx, force) = parse_args();
    if ctx.clients > ctx.workers && !force {
        eprintln!(
            "hqbench: {} generator threads on {} cores would make the generator the \
             bottleneck; pass --force to run anyway",
            ctx.clients, ctx.workers
        );
        std::process::exit(2);
    }
    std::fs::create_dir_all(&ctx.scratch).expect("create scratch directory");

    let mut report = match ctx.workload.as_str() {
        "ferret_batch" => ferret::run(&ctx),
        "stream_finegrain" => stream::run(&ctx),
        "service_tcp" => service::run_tcp(&ctx),
        _ => service::run_durable_routed(&ctx),
    };
    let metrics = if ctx.trace {
        let mut layer = layers::window_metrics(&report.window);
        layer.extend(layers::probes(&ctx, &mut report.logs));
        let out = PathBuf::from("benchmark/out");
        std::fs::create_dir_all(&out).expect("create benchmark/out");
        let path = out.join(format!("trace_{}.json", ctx.workload));
        let text = trace::render(
            &ctx.workload,
            ctx.seed,
            ctx.workers,
            &report.counters_start,
            &report.counters_end,
            &layer,
            &report.logs,
        );
        std::fs::write(&path, text).expect("write trace file");
        report
            .notes
            .push(format!("trace written to {}", path.display()));
        layer
    } else {
        std::mem::take(&mut report.end_to_end)
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    println!(
        "# {} seed {} window {}s nproc {} clients {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.workers, ctx.clients, ctx.trace as u8
    );
    for note in &report.notes {
        println!("# {note}");
    }
    // End-to-end numbers come from untraced runs only.
    let informational = if ctx.trace {
        &[][..]
    } else {
        &report.informational
    };
    for m in metrics.iter().chain(informational) {
        println!("{}/{} {} {}", ctx.workload, m.name, m.value, m.unit);
    }
    println!(
        "{}/error_rate {} ratio",
        ctx.workload,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        measure::metrics_json(&metrics)
    );
    if report.failed > 0 {
        std::process::exit(1);
    }
}
