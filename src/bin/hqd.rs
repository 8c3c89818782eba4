//! `hqd` — the hyperqueue service daemon.
//!
//! Fronts a persistent [`pipelines::service::CompiledGraph`] with the TCP
//! ingress protocol (`pipelines::ingress`; frame layout in the README's
//! "Network ingress" section). Submit jobs with any protocol client —
//! `cargo run --example ingress -- --addr host:port` verifies a few.
//!
//! ```text
//! hqd [--addr 127.0.0.1:7171] [--workload wordcount|logstream]
//!     [--workers N]          0 (default) = one per core
//!     [--max-in-flight N]    admission bound, default 4
//!     [--max-queued N]       accepted-but-waiting bound, default 64 (then RETRY)
//!     [--degree N]           shard degree of the wordcount job, default 4
//!     [--run-secs N]         serve for N seconds, then drain and exit;
//!                            0 (default) = serve until stdin closes or
//!                            a "quit" line arrives
//!     [--journal-dir DIR]    enable durable jobs: write-ahead journal in DIR,
//!                            crash recovery replays it on the next start
//!     [--max-retries N]      re-admit failed jobs up to N times with
//!                            exponential backoff, default 0 (fail fast)
//!     [--fsync-batch N]      records per group-commit fsync, default 64
//!     [--event-loops N]      event-loop threads multiplexing all
//!                            connections, at least 1; default min(4, cores)
//! ```
//!
//! Threads: `--workers` runtime workers, `--event-loops` loops, one
//! acceptor, plus the journal flusher with `--journal-dir` — jobs are
//! tasks on the workers, so nothing scales with connections or jobs.
//!
//! Shutdown is always graceful: stop accepting, answer every accepted
//! job, quiesce the runtime (its workers finish the jobs' completion
//! callbacks), then exit. Durability
//! (`--journal-dir`) covers the *un*-graceful exits: SIGKILL the daemon
//! mid-burst, restart it on the same journal dir, and every unacked job
//! is replayed to a byte-identical result (see DESIGN.md §6.4).

use std::sync::Arc;
use std::time::Duration;

use pipelines::graph::ServiceConfig;
use pipelines::ingress::{IngressConfig, IngressServer};
use pipelines::journal::{Journal, JournalConfig};
use swan::{RetryPolicy, Runtime, RuntimeConfig};
use workloads::service::{logstream_digest_spec, wordcount_spec};
use workloads::wire::{LogstreamCodec, WordcountCodec};

const KNOWN_FLAGS: [&str; 11] = [
    "--addr",
    "--workload",
    "--workers",
    "--max-in-flight",
    "--max-queued",
    "--degree",
    "--run-secs",
    "--journal-dir",
    "--max-retries",
    "--fsync-batch",
    "--event-loops",
];

/// Rejects unknown flags and flags without values up front: a daemon
/// that silently ignores a misspelled option starts with a configuration
/// the operator did not ask for.
fn validate_args(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        let tok = args[i].as_str();
        if !KNOWN_FLAGS.contains(&tok) {
            eprintln!("hqd: unknown argument {tok} (expected one of {KNOWN_FLAGS:?})");
            std::process::exit(2);
        }
        if args.get(i + 1).is_none() {
            eprintln!("hqd: {tok} requires a value");
            std::process::exit(2);
        }
        i += 2;
    }
}

fn flag(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag_usize(args: &[String], key: &str, default: usize) -> usize {
    match flag(args, key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("hqd: {key} expects a non-negative integer, got {v:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    validate_args(&args);
    let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let workload = flag(&args, "--workload").unwrap_or_else(|| "wordcount".to_string());
    let workers = flag_usize(&args, "--workers", 0);
    let max_in_flight = flag_usize(&args, "--max-in-flight", 4);
    let max_queued = flag_usize(&args, "--max-queued", 64);
    let degree = flag_usize(&args, "--degree", 4);
    let run_secs = flag_usize(&args, "--run-secs", 0);
    let max_retries = flag_usize(&args, "--max-retries", 0);
    let fsync_batch = flag_usize(&args, "--fsync-batch", 64);
    let event_loops = flag_usize(
        &args,
        "--event-loops",
        pipelines::ingress::default_event_loops(),
    );
    if event_loops == 0 {
        eprintln!("hqd: --event-loops expects at least 1");
        std::process::exit(2);
    }
    let journal_dir = flag(&args, "--journal-dir");

    let rt = Arc::new(if workers == 0 {
        Runtime::new(RuntimeConfig::default())
    } else {
        Runtime::with_workers(workers)
    });
    let service_cfg = ServiceConfig {
        max_in_flight,
        retry: RetryPolicy::retries(max_retries.min(u32::MAX as usize) as u32),
        // The workload name labels the latency histogram in telemetry.
        job_class: workload.clone(),
        ..ServiceConfig::default()
    };
    let ingress_cfg = IngressConfig {
        max_queued,
        event_loops,
        ..IngressConfig::default()
    };

    // Open (and replay) the journal before binding, so recovery finishes
    // rebuilding the durable table before any client can connect.
    let journal = journal_dir.as_ref().map(|dir| {
        let mut jcfg = JournalConfig::at(dir);
        jcfg.fsync_batch = fsync_batch.max(1);
        match Journal::open(jcfg) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("hqd: cannot open journal {dir}: {e}");
                std::process::exit(1);
            }
        }
    });

    // The graph type differs per workload, so each arm owns its server.
    let server = match workload.as_str() {
        "wordcount" => {
            let graph = Arc::new(wordcount_spec(degree, 32).compile(Arc::clone(&rt), service_cfg));
            let codec = Arc::new(WordcountCodec);
            match &journal {
                Some((j, replay)) => IngressServer::bind_durable(
                    &addr,
                    graph,
                    codec,
                    ingress_cfg,
                    Arc::clone(j),
                    replay,
                )
                .map(|(s, report)| (s, Some(report))),
                None => IngressServer::bind(&addr, graph, codec, ingress_cfg).map(|s| (s, None)),
            }
        }
        "logstream" => {
            let graph = Arc::new(logstream_digest_spec(40).compile(Arc::clone(&rt), service_cfg));
            let codec = Arc::new(LogstreamCodec);
            match &journal {
                Some((j, replay)) => IngressServer::bind_durable(
                    &addr,
                    graph,
                    codec,
                    ingress_cfg,
                    Arc::clone(j),
                    replay,
                )
                .map(|(s, report)| (s, Some(report))),
                None => IngressServer::bind(&addr, graph, codec, ingress_cfg).map(|s| (s, None)),
            }
        }
        other => {
            eprintln!("hqd: unknown --workload {other} (wordcount|logstream)");
            std::process::exit(2);
        }
    };
    let (server, recovery) = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hqd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };

    if let Some(report) = recovery {
        println!(
            "hqd: journal replayed {} jobs (resubmitted {}, restored results {}, \
             failures {}, acked {}, corrupt records {})",
            report.journaled_jobs,
            report.resubmitted,
            report.restored_results,
            report.restored_failures,
            report.restored_acked,
            report.corrupt_records,
        );
    }
    println!(
        "hqd: serving {workload} on {} ({} workers, \
         max_in_flight {max_in_flight}, max_queued {max_queued}, \
         event_loops {event_loops}{})",
        server.local_addr(),
        rt.workers(),
        match &journal_dir {
            Some(dir) => format!(", journal {dir}, max_retries {max_retries}"),
            None => String::new(),
        },
    );

    if run_secs > 0 {
        std::thread::sleep(Duration::from_secs(run_secs as u64));
    } else {
        // Serve until stdin closes (or says "quit"): the daemon shape that
        // still shuts down gracefully under `cmd | hqd` and in terminals.
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) => break, // EOF
                Ok(_) if line.trim() == "quit" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }

    println!("hqd: draining…");
    let stats = server.shutdown();
    rt.quiesce();
    println!(
        "hqd: drained. connections {}, jobs accepted {}, completed {}, \
         retries {}, protocol errors {}, results dropped {}",
        stats.connections,
        stats.jobs_accepted,
        stats.jobs_completed,
        stats.retries_sent,
        stats.protocol_errors,
        stats.results_dropped,
    );
    if let Some((j, _)) = &journal {
        let js = j.stats();
        println!(
            "hqd: journal appends {}, fsyncs {}, bytes {}, segments created {}, deleted {}",
            js.appends, js.fsyncs, js.bytes_written, js.segments_created, js.segments_deleted,
        );
    }
}
