//! ingress_load — closed-loop load generator for the `hqd` TCP ingress.
//!
//! Two modes:
//!
//! * **In-process sweep** (default): for each worker count in `1, 2, 8`,
//!   stand up a real `IngressServer` on a loopback socket, fire
//!   `--jobs` wordcount + logstream jobs at it over `--connections`
//!   concurrent client connections, verify every response byte-for-byte
//!   against the job's serial elision, and check the full response byte
//!   stream is **identical across all three worker counts**. Then a
//!   **connection sweep** drives wordcount at 64/512/4096 concurrent
//!   connections (the C10K shape the epoll ingress exists for) — at the
//!   top count the phases span {1,2,8} workers, all byte-identical.
//!   Emits `BENCH_ingress.json`
//!   (throughput + p50/p95/p99, plus throughput/p99 vs connections),
//!   which CI archives.
//! * **Live-daemon mode** (`--addr host:port`): the same closed loop
//!   against an already-running `hqd` (started with matching defaults:
//!   wordcount or logstream, parse-work 40). Verifies responses, prints
//!   a summary, writes no JSON.
//!
//! Exit code 1 on any verification failure.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipelines::graph::ServiceConfig;
use pipelines::ingress::{FrameKind, IngressClient, IngressConfig, IngressServer, JobOutcome};
use swan::Runtime;
use workloads::service::{
    job_lines, logstream_digest_spec, percentile, wordcount_spec, ServiceWorkloadConfig,
};
use workloads::util::fnv1a;
use workloads::wire::{
    encode_lines, expected_logstream_bytes, expected_wordcount_bytes, LogstreamCodec,
    WordcountCodec,
};

const RETRY_BACKOFF: Duration = Duration::from_micros(200);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Wordcount,
    Logstream,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Wordcount => "wordcount",
            Workload::Logstream => "logstream",
        }
    }
}

/// One measured closed-loop run against one server address.
struct PhaseReport {
    elapsed: Duration,
    /// Sorted job latencies, µs.
    latencies: Vec<f64>,
    /// fnv1a of every job's response bytes, indexed by job id — the
    /// cross-phase byte-identity witness.
    response_hashes: Vec<u64>,
}

impl PhaseReport {
    fn jobs_per_sec(&self) -> f64 {
        self.latencies.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Fires `jobs` closed-loop jobs at `addr` over `connections` client
/// threads, verifying every response against `expected(j)`.
fn run_phase(
    addr: std::net::SocketAddr,
    cfg: &ServiceWorkloadConfig,
    connections: usize,
    jobs: usize,
    expected: impl Fn(usize) -> Vec<u8> + Sync,
) -> PhaseReport {
    let next = AtomicUsize::new(0);
    let failures = AtomicU64::new(0);
    let latencies = std::sync::Mutex::new(Vec::with_capacity(jobs));
    let hashes: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..connections.max(1) {
            let (next, failures, latencies, hashes, expected, cfg) =
                (&next, &failures, &latencies, &hashes, &expected, cfg);
            // Small stacks: the 4096-connection phases spawn thousands of
            // these, and each needs only a socket loop.
            let spawned = std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(s, move || {
                    let mut client = match IngressClient::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("ingress_load: connection {c} failed: {e}");
                            failures.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    let mut local = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs {
                            break;
                        }
                        let payload = encode_lines(&job_lines(cfg, j));
                        let submit = Instant::now();
                        match client.submit_and_wait(j as u64, &payload, RETRY_BACKOFF) {
                            Ok(JobOutcome::Result(bytes)) => {
                                local.push(submit.elapsed().as_secs_f64() * 1e6);
                                if bytes != expected(j) {
                                    eprintln!("ingress_load: job {j}: response != serial elision");
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                                hashes[j].store(fnv1a(&bytes), Ordering::Relaxed);
                            }
                            Ok(JobOutcome::Failed(msg)) => {
                                eprintln!("ingress_load: job {j} failed server-side: {msg}");
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("ingress_load: job {j} transport error: {e}");
                                failures.fetch_add(1, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                    latencies.lock().expect("no poisoned lock").extend(local);
                });
            spawned.expect("spawn client thread");
        }
    });
    let elapsed = t0.elapsed();
    if failures.load(Ordering::Relaxed) > 0 {
        eprintln!("ingress_load: FAILED — responses diverged or transport broke");
        std::process::exit(1);
    }
    let mut lat = latencies.into_inner().expect("no poisoned lock");
    assert_eq!(lat.len(), jobs, "every job must complete exactly once");
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    PhaseReport {
        elapsed,
        latencies: lat,
        response_hashes: hashes.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
    }
}

/// In-process sweep for one workload: phases at 1/2/8 workers, identity
/// check across phases, returns the final (8-worker) phase's report.
fn sweep_workload(
    workload: Workload,
    cfg: &ServiceWorkloadConfig,
    connections: usize,
    jobs: usize,
) -> PhaseReport {
    let mut last: Option<PhaseReport> = None;
    let mut reference: Option<Vec<u64>> = None;
    for workers in [1usize, 2, 8] {
        let rt = Arc::new(Runtime::with_workers(workers));
        let service_cfg = ServiceConfig {
            max_in_flight: cfg.max_in_flight,
            segment_capacity: cfg.segment_capacity,
            io_batch: cfg.io_batch,
            ..ServiceConfig::default()
        };
        let ingress_cfg = IngressConfig::default();
        let server = match workload {
            Workload::Wordcount => {
                let graph = Arc::new(
                    wordcount_spec(cfg.degree, cfg.window).compile(Arc::clone(&rt), service_cfg),
                );
                IngressServer::bind("127.0.0.1:0", graph, Arc::new(WordcountCodec), ingress_cfg)
            }
            Workload::Logstream => {
                let graph = Arc::new(
                    logstream_digest_spec(cfg.parse_work).compile(Arc::clone(&rt), service_cfg),
                );
                IngressServer::bind("127.0.0.1:0", graph, Arc::new(LogstreamCodec), ingress_cfg)
            }
        }
        .expect("bind loopback ingress");
        let report = run_phase(server.local_addr(), cfg, connections, jobs, |j| {
            let lines = job_lines(cfg, j);
            match workload {
                Workload::Wordcount => expected_wordcount_bytes(&lines),
                Workload::Logstream => expected_logstream_bytes(&lines, cfg.parse_work),
            }
        });
        let stats = server.shutdown();
        rt.quiesce();
        assert_eq!(
            stats.jobs_accepted, stats.jobs_completed,
            "every accepted job must drain"
        );
        println!(
            "ingress_load: {} @ {workers} worker(s): {} jobs in {:.2}s \
             ({:.0} jobs/s, p50 {:.0}µs, retries {})",
            workload.name(),
            jobs,
            report.elapsed.as_secs_f64(),
            report.jobs_per_sec(),
            percentile(&report.latencies, 50.0),
            stats.retries_sent,
        );
        match &reference {
            None => reference = Some(report.response_hashes.clone()),
            Some(r) => {
                if *r != report.response_hashes {
                    eprintln!(
                        "ingress_load: FAILED — {} responses at {workers} workers are not \
                         byte-identical to the 1-worker run",
                        workload.name()
                    );
                    std::process::exit(1);
                }
            }
        }
        last = Some(report);
    }
    println!(
        "ingress_load: {}: responses byte-identical across 1/2/8 workers ✓",
        workload.name()
    );
    last.expect("three phases ran")
}

/// One connection-sweep phase: `connections` closed-loop clients against
/// a wordcount server with `workers` workers, admission sized to the
/// connection count (`max_queued ≈ C` — the sweep measures multiplexing
/// capacity, not retry storms).
fn connection_phase(
    cfg: &ServiceWorkloadConfig,
    connections: usize,
    jobs: usize,
    workers: usize,
) -> PhaseReport {
    let rt = Arc::new(Runtime::with_workers(workers));
    let service_cfg = ServiceConfig {
        max_in_flight: cfg.max_in_flight,
        segment_capacity: cfg.segment_capacity,
        io_batch: cfg.io_batch,
        ..ServiceConfig::default()
    };
    let graph =
        Arc::new(wordcount_spec(cfg.degree, cfg.window).compile(Arc::clone(&rt), service_cfg));
    let server = IngressServer::bind(
        "127.0.0.1:0",
        graph,
        Arc::new(WordcountCodec),
        IngressConfig {
            max_queued: connections.max(64),
            ..IngressConfig::default()
        },
    )
    .expect("bind loopback ingress");
    let report = run_phase(server.local_addr(), cfg, connections, jobs, |j| {
        expected_wordcount_bytes(&job_lines(cfg, j))
    });
    let stats = server.shutdown();
    rt.quiesce();
    assert_eq!(
        stats.jobs_accepted, stats.jobs_completed,
        "every accepted job must drain"
    );
    report
}

/// The connection sweep: wordcount at 64/512/4096 concurrent
/// connections. The lower counts are single measured phases (2
/// workers); the top count runs the determinism sweep — {1,2,8} workers —
/// and every phase's responses must hash byte-identical. Returns one
/// report per count.
fn sweep_connections(cfg: &ServiceWorkloadConfig, jobs: usize) -> Vec<(usize, PhaseReport)> {
    let mut out = Vec::new();
    for connections in [64usize, 512, 4096] {
        let jobs_c = jobs.max(connections); // at least one job per connection
        let report = if connections == 4096 {
            let mut reference: Option<Vec<u64>> = None;
            let mut last: Option<PhaseReport> = None;
            for workers in [1usize, 2, 8] {
                let r = connection_phase(cfg, connections, jobs_c, workers);
                match &reference {
                    None => reference = Some(r.response_hashes.clone()),
                    Some(h) => {
                        if *h != r.response_hashes {
                            eprintln!(
                                "ingress_load: FAILED — responses at {connections} \
                                 connections / {workers} workers are not \
                                 byte-identical to the first phase"
                            );
                            std::process::exit(1);
                        }
                    }
                }
                last = Some(r);
            }
            println!(
                "ingress_load: wordcount @ {connections} connections: byte-identical \
                 across 1/2/8 workers ✓"
            );
            last.expect("three phases ran")
        } else {
            connection_phase(cfg, connections, jobs_c, 2)
        };
        println!(
            "ingress_load: wordcount @ {connections} connections: {} jobs in {:.2}s \
             ({:.0} jobs/s, p50 {:.0}µs, p99 {:.0}µs)",
            jobs_c,
            report.elapsed.as_secs_f64(),
            report.jobs_per_sec(),
            percentile(&report.latencies, 50.0),
            percentile(&report.latencies, 99.0),
        );
        out.push((connections, report));
    }
    out
}

/// Tick interval the overhead subscriber asks for. 100 ms is the hqtop
/// refresh class; sub-10ms intervals measure encoder spin on starved
/// runners, not the streaming cost a real dashboard imposes.
const OVERHEAD_TICK_MS: u32 = 100;

/// The telemetry-overhead phase: the same wordcount closed loop twice —
/// once bare, once with a live `Subscribe(100ms)` stream being consumed
/// on a side connection — so the cost of streaming stats shows up as a
/// throughput delta between two back-to-back runs on the same machine.
/// Returns (bare, subscribed, ticks consumed).
fn telemetry_overhead_phases(
    cfg: &ServiceWorkloadConfig,
    connections: usize,
    jobs: usize,
) -> (PhaseReport, PhaseReport, u64) {
    let run = |subscriber: bool| -> (PhaseReport, u64) {
        let rt = Arc::new(Runtime::with_workers(2));
        let service_cfg = ServiceConfig {
            max_in_flight: cfg.max_in_flight,
            segment_capacity: cfg.segment_capacity,
            io_batch: cfg.io_batch,
            ..ServiceConfig::default()
        };
        let graph =
            Arc::new(wordcount_spec(cfg.degree, cfg.window).compile(Arc::clone(&rt), service_cfg));
        let server = IngressServer::bind(
            "127.0.0.1:0",
            graph,
            Arc::new(WordcountCodec),
            IngressConfig::default(),
        )
        .expect("bind loopback ingress");
        let addr = server.local_addr();
        let ticks = AtomicU64::new(0);
        let mut report = None;
        std::thread::scope(|s| {
            let watcher = subscriber.then(|| {
                let ticks = &ticks;
                s.spawn(move || {
                    let mut client = IngressClient::connect(addr).expect("subscriber connects");
                    client
                        .subscribe(u64::MAX, OVERHEAD_TICK_MS)
                        .expect("subscribe");
                    // Consume ticks until the server closes the socket at
                    // shutdown; an unread subscriber would measure
                    // backpressure drops, not streaming cost.
                    while let Ok(frame) = client.recv() {
                        if frame.kind == FrameKind::StatsEvent {
                            ticks.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            });
            report = Some(run_phase(addr, cfg, connections, jobs, |j| {
                expected_wordcount_bytes(&job_lines(cfg, j))
            }));
            let stats = server.shutdown();
            assert_eq!(
                stats.jobs_accepted, stats.jobs_completed,
                "every accepted job must drain"
            );
            if let Some(w) = watcher {
                w.join().expect("subscriber thread");
            }
        });
        rt.quiesce();
        (report.expect("phase ran"), ticks.load(Ordering::Relaxed))
    };
    let (bare, _) = run(false);
    let (subscribed, ticks) = run(true);
    assert!(
        ticks >= 1,
        "telemetry_overhead: the subscriber consumed no StatsEvent ticks"
    );
    (bare, subscribed, ticks)
}

fn report_block(name: &str, r: &PhaseReport) -> String {
    format!(
        "  \"{name}\": {{\n    \"jobs_per_sec\": {:.1},\n    \"p95_us\": {:.1},\n    \
         \"p99_us\": {:.1},\n    \"max_us\": {:.1}\n  }}",
        r.jobs_per_sec(),
        percentile(&r.latencies, 95.0),
        percentile(&r.latencies, 99.0),
        r.latencies.last().copied().unwrap_or(0.0),
    )
}

fn main() {
    let args = bench::Args::parse();
    let connections = args.get_usize("connections", 4);
    let jobs = args.get_usize("jobs", if args.is_small() { 200 } else { 1000 });
    let cfg = ServiceWorkloadConfig::bench(jobs);
    // The 4096-connection phases need ~2 fds per connection in this one
    // process; default soft limits (1024 on stock runners) are far short.
    let _ = epoll::raise_nofile_limit(16 * 1024);

    if let Some(addr) = args.get("addr") {
        // Live-daemon mode: one phase against an external hqd.
        let workload = match args.get("workload").unwrap_or("wordcount") {
            "wordcount" => Workload::Wordcount,
            "logstream" => Workload::Logstream,
            other => {
                eprintln!("ingress_load: unknown --workload {other}");
                std::process::exit(2);
            }
        };
        let addr: std::net::SocketAddr = addr.parse().expect("--addr host:port");
        let report = run_phase(addr, &cfg, connections, jobs, |j| {
            let lines = job_lines(&cfg, j);
            match workload {
                Workload::Wordcount => expected_wordcount_bytes(&lines),
                Workload::Logstream => expected_logstream_bytes(&lines, cfg.parse_work),
            }
        });
        println!(
            "ingress_load: live {} @ {addr}: {} jobs over {connections} connections in \
             {:.2}s ({:.0} jobs/s, p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs), all responses \
             matched the serial elision ✓",
            workload.name(),
            jobs,
            report.elapsed.as_secs_f64(),
            report.jobs_per_sec(),
            percentile(&report.latencies, 50.0),
            percentile(&report.latencies, 95.0),
            percentile(&report.latencies, 99.0),
        );
        return;
    }

    // In-process sweep: both workloads, 1/2/8 workers, JSON record.
    let wc = sweep_workload(Workload::Wordcount, &cfg, connections, jobs);
    let ls = sweep_workload(Workload::Logstream, &cfg, connections, jobs);
    // Connection sweep: throughput and p99 vs concurrent connections.
    let by_conns = sweep_connections(&cfg, jobs);
    // Telemetry overhead: the same loop bare vs with a 100 ms subscriber.
    let (bare, subscribed, ticks) = telemetry_overhead_phases(&cfg, connections, jobs);
    let overhead_pct =
        (bare.jobs_per_sec() - subscribed.jobs_per_sec()) / bare.jobs_per_sec() * 100.0;
    println!(
        "ingress_load: telemetry_overhead: bare {:.0} jobs/s, subscribed {:.0} jobs/s \
         ({overhead_pct:+.1}%, {ticks} ticks consumed){}",
        bare.jobs_per_sec(),
        subscribed.jobs_per_sec(),
        if overhead_pct > 3.0 {
            " .. WARNING: streaming stats cost more than the 3% budget"
        } else {
            " ✓"
        },
    );

    let medians: String = by_conns
        .iter()
        .map(|(c, r)| {
            format!(
                ",\n    \"wordcount_p50_c{c}\": {:.1}",
                percentile(&r.latencies, 50.0)
            )
        })
        .collect();
    let sweep_blocks: String = by_conns
        .iter()
        .map(|(c, r)| {
            format!(
                "\n    \"c{c}\": {{ \"jobs_per_sec\": {:.1}, \"p99_us\": {:.1} }}",
                r.jobs_per_sec(),
                percentile(&r.latencies, 99.0)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let out_path = args.get("out").unwrap_or("BENCH_ingress.json");
    let json = format!(
        "{{\n  \"bench\": \"ingress\",\n  \"jobs\": {jobs},\n  \"connections\": \
         {connections},\n  \"job_lines\": {},\n  \"degree\": {},\n  \"machine_cores\": {},\n  \
         \"worker_phases\": [1, 2, 8],\n  \"byte_identical_phases\": true,\n  \
         \"connection_phases\": [64, 512, 4096],\n  \
         \"byte_identical_connection_phases\": true,\n  \
         \"median_us\": {{\n    \"wordcount_p50\": {:.1},\n    \"logstream_p50\": {:.1},\n    \
         \"wordcount_p50_subscribed\": {:.1}{}\n  }},\n  \
         \"telemetry_overhead\": {{\n    \"bare_jobs_per_sec\": {:.1},\n    \
         \"subscribed_jobs_per_sec\": {:.1},\n    \"overhead_pct\": {:.2},\n    \
         \"ticks_consumed\": {ticks}\n  }},\n  \
         \"connection_sweep\": {{{}\n  }},\n{},\n{}\n}}\n",
        cfg.job_lines,
        cfg.degree,
        bench::machine_cores(),
        percentile(&wc.latencies, 50.0),
        percentile(&ls.latencies, 50.0),
        percentile(&subscribed.latencies, 50.0),
        medians,
        bare.jobs_per_sec(),
        subscribed.jobs_per_sec(),
        overhead_pct,
        sweep_blocks,
        report_block("wordcount", &wc),
        report_block("logstream", &ls),
    );
    let mut f = std::fs::File::create(out_path).expect("create BENCH_ingress.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_ingress.json");
    println!("ingress_load: wrote {out_path}");
}
