//! Crash-recovery integration tests: SIGKILL a live `hqd` mid-burst and
//! prove the journal replays every unacked job to **byte-identical**
//! results after restart.
//!
//! This is the paper's determinism guarantee doing operational work: a
//! replayed job re-runs through the same deterministic graph, so the
//! recovered result bytes can be `assert_eq!`-ed against the serial
//! elision — crash recovery is exactly testable, not best-effort. The
//! sweep covers 1/2/8 workers; every worker count must reconcile to the
//! same per-job bytes.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use pipelines::ingress::{IngressClient, JobOutcome, QueryStatus};
use workloads::service::{job_lines, ServiceWorkloadConfig};
use workloads::wire::{encode_lines, expected_wordcount_bytes};

const JOBS: usize = 12;
const BACKOFF: Duration = Duration::from_micros(500);

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hq-recovery-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns the real `hqd` binary serving wordcount over `journal_dir` and
/// waits for its "serving" banner, returning the bound address. Port 0
/// keeps parallel test combos from colliding.
fn spawn_hqd(journal_dir: &Path, workers: usize) -> (Child, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hqd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workload",
            "wordcount",
            "--workers",
            &workers.to_string(),
            "--degree",
            "3",
            "--journal-dir",
            journal_dir.to_str().expect("utf-8 temp path"),
            "--fsync-batch",
            "32",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("failed to spawn hqd");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("hqd stdout readable");
        assert!(n > 0, "hqd exited before its serving banner");
        if let Some(rest) = line.strip_prefix("hqd: serving wordcount on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after 'on'")
                .to_string();
        }
    };
    (child, addr, stdout)
}

/// Tells a live daemon to shut down gracefully via its stdin "quit" path
/// and reaps it.
fn quit_hqd(mut child: Child) {
    if let Some(stdin) = child.stdin.as_mut() {
        let _ = stdin.write_all(b"quit\n");
    }
    drop(child.stdin.take()); // EOF, the other graceful trigger
    let status = child.wait().expect("hqd reaped");
    assert!(status.success(), "graceful hqd exit must be clean");
}

/// The per-job ground truth: what an uninterrupted run returns for job
/// `j` — `expected_wordcount_bytes` over the deterministic corpus is the
/// serial elision the protocol guarantees at any worker count.
fn expected(cfg: &ServiceWorkloadConfig, j: usize) -> Vec<u8> {
    expected_wordcount_bytes(&job_lines(cfg, j))
}

/// One full crash/recover cycle at a given worker count:
/// burst durable submits, SIGKILL mid-burst, restart over the same
/// journal, reconcile every job, ack, verify, quit. Returns the per-job
/// result bytes the *recovered* daemon served.
fn crash_and_recover(workers: usize) -> Vec<Vec<u8>> {
    let cfg = ServiceWorkloadConfig::small(); // degree 3, matching --degree below
    let dir = temp_dir(&format!("w{workers}"));

    // --- Life 1: burst, then die without warning. -----------------------
    let (mut child, addr, _stdout) = spawn_hqd(&dir, workers);
    let mut client = IngressClient::connect(&addr).expect("connect to hqd");
    for j in 0..JOBS {
        let payload = encode_lines(&job_lines(&cfg, j));
        client
            .submit_durable(j as u64 + 1, &payload)
            .expect("burst submit");
    }
    // Read a few responses so the kill lands mid-burst: some jobs have
    // journaled results, some are in flight, some may be wholly lost
    // (torn tail) — recovery must reconcile all three.
    for _ in 0..3 {
        let frame = client.recv().expect("early responses");
        let j = (frame.req_id - 1) as usize;
        assert_eq!(
            (frame.kind, frame.body),
            (pipelines::ingress::FrameKind::Result, expected(&cfg, j)),
            "pre-crash result for job {j}"
        );
    }
    child.kill().expect("SIGKILL hqd"); // SIGKILL on unix: no drain, no flush
    let _ = child.wait();

    // --- Life 2: recover and reconcile. ---------------------------------
    let (child, addr, _stdout) = spawn_hqd(&dir, workers);
    let mut client = IngressClient::connect(&addr).expect("reconnect to hqd");
    let mut results = Vec::with_capacity(JOBS);
    for j in 0..JOBS {
        let payload = encode_lines(&job_lines(&cfg, j));
        // Duplicate submit of every id: journaled ids return their
        // (possibly replayed) result without re-running; ids the crash
        // ate entirely run fresh. Either way the bytes must match the
        // uninterrupted run exactly.
        let outcome = client
            .submit_durable_and_wait(j as u64 + 1, &payload, BACKOFF)
            .expect("reconcile job");
        match outcome {
            JobOutcome::Result(bytes) => {
                assert_eq!(
                    bytes,
                    expected(&cfg, j),
                    "job {j} bytes diverged after crash recovery \
                     ({workers} workers)"
                );
                results.push(bytes);
            }
            JobOutcome::Failed(msg) => panic!("job {j} failed after recovery: {msg}"),
        }
    }
    // Ack everything; queries must then report Acked (and never a stale
    // result), proving the retire path survives recovery too.
    for j in 0..JOBS {
        client.ack(j as u64 + 1).expect("ack");
    }
    for j in 0..JOBS {
        let (status, body) = client.query(j as u64 + 1).expect("query");
        assert_eq!(
            (status, body.len()),
            (QueryStatus::Acked, 0),
            "job {j} must be acked"
        );
    }
    let (status, _) = client.query(0xDEAD_BEEF).expect("query unknown");
    assert_eq!(status, QueryStatus::Unknown);
    quit_hqd(child);
    let _ = std::fs::remove_dir_all(&dir);
    results
}

#[test]
fn sigkill_recovery_is_byte_identical_across_workers() {
    let mut baseline: Option<Vec<Vec<u8>>> = None;
    for workers in [1usize, 2, 8] {
        let results = crash_and_recover(workers);
        match &baseline {
            None => baseline = Some(results),
            Some(expect) => assert_eq!(
                &results, expect,
                "recovered results diverged at {workers} workers"
            ),
        }
    }
}

#[test]
fn acked_jobs_stay_retired_across_another_restart() {
    let cfg = ServiceWorkloadConfig::small();
    let dir = temp_dir("retire");

    // Life 1: complete and ack a job gracefully.
    let (child, addr, _stdout) = spawn_hqd(&dir, 2);
    let mut client = IngressClient::connect(&addr).expect("connect");
    let payload = encode_lines(&job_lines(&cfg, 0));
    let outcome = client
        .submit_durable_and_wait(1, &payload, BACKOFF)
        .expect("submit");
    assert_eq!(outcome, JobOutcome::Result(expected(&cfg, 0)));
    client.ack(1).expect("ack");
    // Query forces a round trip, so the ack (fire-and-forget) has
    // definitely been processed before we shut down.
    let (status, _) = client.query(1).expect("query");
    assert_eq!(status, QueryStatus::Acked);
    quit_hqd(child);

    // Life 2: the acked id must still be retired, not re-run.
    let (child, addr, _stdout) = spawn_hqd(&dir, 2);
    let mut client = IngressClient::connect(&addr).expect("reconnect");
    let (status, _) = client.query(1).expect("query after restart");
    assert_eq!(
        status,
        QueryStatus::Acked,
        "ack must survive restart (not resurrect the job)"
    );
    quit_hqd(child);
    let _ = std::fs::remove_dir_all(&dir);
}
