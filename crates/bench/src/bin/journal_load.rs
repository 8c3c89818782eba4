//! journal_load — write-ahead-journal throughput, group-commit latency,
//! and recovery-replay speed (DESIGN.md §6.4).
//!
//! Three phases, all against a real `pipelines::journal::Journal` on a
//! scratch directory:
//!
//! * **Depth sweep**: `1`, `8` and `32` concurrent appender threads each
//!   running the durable hot path (`append_sync`: stage a record, block
//!   until the group-commit fsync covering it lands). Depth 1 pays
//!   roughly one fsync per record; at depth 32 the flusher amortizes one
//!   fsync across the whole waiting cohort — the run *fails* unless
//!   fsyncs-per-append < 1.0 there, which is the journal's reason to
//!   exist.
//! * **Replay**: time `replay_dir` over everything the sweep wrote plus
//!   a results pass — the crash-recovery startup cost per record.
//!
//! Emits `BENCH_journal.json` (append throughput, p50/p95/p99
//! group-commit latency per depth, replay ms), which CI archives;
//! medians live under `median_us` / `median_ms`.

use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pipelines::journal::{replay_dir, JobReplayStatus, Journal, JournalConfig, RecordKind};
use workloads::service::percentile;

const BODY_BYTES: usize = 256;

struct DepthReport {
    depth: usize,
    elapsed: Duration,
    /// Sorted per-append_sync latencies, µs.
    latencies: Vec<f64>,
    fsyncs: u64,
    appends: u64,
}

impl DepthReport {
    fn appends_per_sec(&self) -> f64 {
        self.appends as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
    fn fsyncs_per_append(&self) -> f64 {
        self.fsyncs as f64 / (self.appends as f64).max(1.0)
    }
}

/// `appends` durable records through `depth` concurrent appenders, each
/// blocking on its record's group commit.
fn run_depth(dir: &std::path::Path, depth: usize, appends: usize) -> DepthReport {
    let (journal, _) = Journal::open(JournalConfig::at(dir)).expect("open journal");
    let body = vec![0xA5u8; BODY_BYTES];
    let next = AtomicUsize::new(0);
    let latencies = std::sync::Mutex::new(Vec::with_capacity(appends));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..depth {
            let (next, latencies, journal, body) = (&next, &latencies, &journal, &body);
            s.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= appends {
                        break;
                    }
                    let t = Instant::now();
                    journal.append_sync(RecordKind::Submit, i as u64 + 1, body);
                    local.push(t.elapsed().as_secs_f64() * 1e6);
                }
                latencies.lock().expect("no poisoned lock").extend(local);
            });
        }
    });
    let elapsed = t0.elapsed();
    let stats = journal.stats();
    drop(journal);
    let mut lat = latencies.into_inner().expect("no poisoned lock");
    assert_eq!(lat.len(), appends, "every append must be measured");
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    DepthReport {
        depth,
        elapsed,
        latencies: lat,
        fsyncs: stats.fsyncs,
        appends: stats.appends,
    }
}

fn depth_block(r: &DepthReport) -> String {
    format!(
        "  \"depth_{}\": {{\n    \"appends_per_sec\": {:.0},\n    \"fsyncs_per_append\": \
         {:.4},\n    \"p95_us\": {:.1},\n    \"p99_us\": {:.1}\n  }}",
        r.depth,
        r.appends_per_sec(),
        r.fsyncs_per_append(),
        percentile(&r.latencies, 95.0),
        percentile(&r.latencies, 99.0),
    )
}

fn main() {
    let args = bench::Args::parse();
    let appends = args.get_usize("appends", if args.is_small() { 800 } else { 4000 });
    let out_path = args.get("out").unwrap_or("BENCH_journal.json");

    let scratch = std::env::temp_dir().join(format!("hq-journal-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Depth sweep: one subdirectory per depth so replay cost is
    // well-defined and the depth-1 segment files don't pollute depth 32.
    let reports: Vec<DepthReport> = [1usize, 8, 32]
        .iter()
        .map(|&depth| {
            let r = run_depth(&scratch.join(format!("d{depth}")), depth, appends);
            println!(
                "journal_load: depth {depth}: {appends} append_syncs in {:.2}s \
                 ({:.0}/s, p50 {:.0}µs, {:.3} fsyncs/append)",
                r.elapsed.as_secs_f64(),
                r.appends_per_sec(),
                percentile(&r.latencies, 50.0),
                r.fsyncs_per_append(),
            );
            r
        })
        .collect();
    let deep = reports.last().expect("three depths ran");
    if deep.fsyncs_per_append() >= 1.0 {
        eprintln!(
            "journal_load: FAILED — group commit is not amortizing: {:.3} fsyncs/append \
             at depth {} (must be < 1.0)",
            deep.fsyncs_per_append(),
            deep.depth,
        );
        std::process::exit(1);
    }

    // Replay phase: finish half the depth-32 jobs so the fold exercises
    // Submit→Result transitions, then time a cold replay of the dir.
    let replay_src = scratch.join("d32");
    {
        let (journal, _) = Journal::open(JournalConfig::at(&replay_src)).expect("reopen");
        for id in 1..=(appends as u64 / 2) {
            journal.append(RecordKind::Result, id, &[0x5A; 32]);
        }
        journal.append_sync(RecordKind::Ack, 1, &[]);
    }
    let t0 = Instant::now();
    let replay = replay_dir(&replay_src).expect("replay");
    let replay_elapsed = t0.elapsed();
    assert_eq!(replay.jobs.len(), appends, "replay must see every job");
    assert_eq!(replay.corrupt_records, 0, "clean journal must replay clean");
    assert_eq!(replay.jobs[&1].status, JobReplayStatus::Acked);
    assert!(
        matches!(replay.jobs[&2].status, JobReplayStatus::Done(_)),
        "finished jobs must replay as Done"
    );
    let replay_ms = replay_elapsed.as_secs_f64() * 1e3;
    println!(
        "journal_load: replay: {} records ({} jobs) in {:.1}ms ({:.0} records/s)",
        replay.records,
        replay.jobs.len(),
        replay_ms,
        replay.records as f64 / replay_elapsed.as_secs_f64().max(1e-9),
    );
    let _ = std::fs::remove_dir_all(&scratch);

    let json = format!(
        "{{\n  \"bench\": \"journal\",\n  \"appends_per_depth\": {appends},\n  \
         \"body_bytes\": {BODY_BYTES},\n  \"machine_cores\": {},\n  \
         \"depth_32_fsync_amortized\": true,\n  \
         \"median_us\": {{\n    \"append_sync_p50_depth1\": {:.1},\n    \
         \"append_sync_p50_depth8\": {:.1},\n    \"append_sync_p50_depth32\": {:.1}\n  }},\n  \
         \"median_ms\": {{\n    \"replay\": {:.2}\n  }},\n{},\n{},\n{},\n  \
         \"replay\": {{\n    \"records\": {},\n    \"records_per_sec\": {:.0}\n  }}\n}}\n",
        bench::machine_cores(),
        percentile(&reports[0].latencies, 50.0),
        percentile(&reports[1].latencies, 50.0),
        percentile(&reports[2].latencies, 50.0),
        replay_ms,
        depth_block(&reports[0]),
        depth_block(&reports[1]),
        depth_block(&reports[2]),
        replay.records,
        replay.records as f64 / replay_elapsed.as_secs_f64().max(1e-9),
    );
    let mut f = std::fs::File::create(out_path).expect("create BENCH_journal.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_journal.json");
    println!("journal_load: wrote {out_path}");
}
