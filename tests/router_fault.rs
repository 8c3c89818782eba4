//! Sharded fault injection: SIGKILL one `hqd` backend behind the router
//! mid-traffic and prove the blast radius is exactly one shard.
//!
//! The contract under test (DESIGN.md §7.2): requests routed to the dead
//! shard surface [`FrameKind::Retry`] — nothing hangs, nothing is
//! silently dropped — while every other shard's requests keep resolving
//! normally; and once the backend restarts on its journal, resubmitted
//! ids reconcile to **byte-identical** results, exactly like the
//! single-daemon recovery path in `tests/recovery.rs` (whose harness
//! this reuses).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use pipelines::ingress::{FrameKind, IngressClient, JobOutcome, QueryStatus, Router, RouterConfig};
use pipelines::partition::rendezvous_route;
use workloads::service::{job_lines, ServiceWorkloadConfig};
use workloads::wire::{encode_lines, expected_wordcount_bytes};

const BURST: u64 = 12;
const BACKOFF: Duration = Duration::from_millis(2);

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hq-rfault-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reserves a loopback port the OS considers free right now. The shard
/// must come back on the *same* address after its crash (the router's
/// shard map is fixed), so port 0 per life is not an option here.
fn reserve_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let port = listener.local_addr().expect("local addr").port();
    drop(listener);
    port
}

type Hqd = (Child, BufReader<ChildStdout>);

/// Spawns the real `hqd` binary on a fixed `addr` over `journal_dir` and
/// waits for its serving banner (same harness as `tests/recovery.rs`).
fn spawn_hqd(addr: &str, journal_dir: &Path) -> Hqd {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hqd"))
        .args([
            "--addr",
            addr,
            "--workload",
            "wordcount",
            "--workers",
            "2",
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
    loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("hqd stdout readable");
        assert!(n > 0, "hqd exited before its serving banner");
        if line.starts_with("hqd: serving wordcount on ") {
            break;
        }
    }
    (child, stdout)
}

/// Graceful shutdown. The stdout reader must stay alive until the child
/// exits — dropping it closes the pipe and the daemon's own drain
/// summary print would kill it with EPIPE.
fn quit_hqd(daemon: Hqd) {
    let (mut child, _stdout) = daemon;
    if let Some(stdin) = child.stdin.as_mut() {
        let _ = stdin.write_all(b"quit\n");
    }
    drop(child.stdin.take());
    let status = child.wait().expect("hqd reaped");
    assert!(status.success(), "graceful hqd exit must be clean");
}

fn expected(cfg: &ServiceWorkloadConfig, id: u64) -> Vec<u8> {
    expected_wordcount_bytes(&job_lines(cfg, id as usize))
}

fn payload(cfg: &ServiceWorkloadConfig, id: u64) -> Vec<u8> {
    encode_lines(&job_lines(cfg, id as usize))
}

#[test]
fn sigkill_one_shard_retries_that_shard_only_and_recovers_byte_identically() {
    let cfg = ServiceWorkloadConfig::small();
    let dirs = [temp_dir("shard0"), temp_dir("shard1")];
    let addrs = [
        format!("127.0.0.1:{}", reserve_port()),
        format!("127.0.0.1:{}", reserve_port()),
    ];
    let mut daemons = vec![
        Some(spawn_hqd(&addrs[0], &dirs[0])),
        Some(spawn_hqd(&addrs[1], &dirs[1])),
    ];
    let router =
        Router::bind("127.0.0.1:0", RouterConfig::to(addrs.iter().cloned())).expect("bind router");
    let mut client = IngressClient::connect(router.local_addr()).expect("connect");

    // --- Phase 1: healthy fleet, pipelined burst over both shards. -------
    let burst: Vec<u64> = (1..=BURST).collect();
    assert!(
        burst.iter().any(|&id| rendezvous_route(id, 2) == 0)
            && burst.iter().any(|&id| rendezvous_route(id, 2) == 1),
        "burst must span both shards"
    );
    for &id in &burst {
        client
            .submit_durable(id, &payload(&cfg, id))
            .expect("burst");
    }
    for &id in &burst {
        let frame = client.recv().expect("burst reply");
        assert_eq!(
            (frame.kind, frame.req_id),
            (FrameKind::Result, id),
            "healthy burst reply"
        );
        assert_eq!(frame.body, expected(&cfg, id), "job {id} bytes");
    }

    // --- Phase 2: SIGKILL one shard mid-service. --------------------------
    // Choose the victim by where fresh ids land, so dead-shard traffic is
    // guaranteed after the kill.
    let probe: Vec<u64> = (101..=108).collect();
    let victim = rendezvous_route(probe[0], 2);
    let dead_ids: Vec<u64> = probe
        .iter()
        .copied()
        .filter(|&id| rendezvous_route(id, 2) == victim)
        .collect();
    let live_ids: Vec<u64> = probe
        .iter()
        .copied()
        .filter(|&id| rendezvous_route(id, 2) != victim)
        .collect();
    assert!(
        !dead_ids.is_empty() && !live_ids.is_empty(),
        "probe ids must span both shards"
    );
    let (mut victim_proc, _victim_stdout) = daemons[victim].take().expect("victim alive");
    victim_proc.kill().expect("SIGKILL shard");
    let _ = victim_proc.wait();

    for &id in &probe {
        client
            .submit_durable(id, &payload(&cfg, id))
            .expect("post-kill submit");
    }
    for &id in &probe {
        let frame = client.recv().expect("post-kill reply");
        assert_eq!(frame.req_id, id);
        if rendezvous_route(id, 2) == victim {
            // The dead shard's requests surface Retry — never a hang,
            // never a fabricated result.
            assert_eq!(frame.kind, FrameKind::Retry, "dead-shard id {id}");
        } else {
            // The other shard is untouched: same results, same bytes.
            assert_eq!(frame.kind, FrameKind::Result, "live-shard id {id}");
            assert_eq!(frame.body, expected(&cfg, id), "live-shard id {id} bytes");
        }
    }
    // The live shard also still answers queries for its settled jobs.
    let settled_live = burst
        .iter()
        .copied()
        .find(|&id| rendezvous_route(id, 2) != victim)
        .expect("burst spans both shards");
    let (status, body) = client
        .query(settled_live)
        .expect("live query during outage");
    assert_eq!(status, QueryStatus::Done);
    assert_eq!(body, expected(&cfg, settled_live));
    // At this point the refusals are exactly the dead shard's requests —
    // the live shard never needed a synthesized reply.
    let mid = router.stats();
    assert_eq!(
        mid.retries_synthesized,
        dead_ids.len() as u64,
        "exactly the dead shard's submits were refused during the outage"
    );

    // --- Phase 3: restart the shard on its journal; reconcile. -----------
    daemons[victim] = Some(spawn_hqd(&addrs[victim], &dirs[victim]));
    for &id in &dead_ids {
        let outcome = client
            .submit_durable_and_wait(id, &payload(&cfg, id), BACKOFF)
            .expect("reconcile dead-shard id");
        assert_eq!(
            outcome,
            JobOutcome::Result(expected(&cfg, id)),
            "dead-shard id {id} must replay byte-identically"
        );
    }
    // Pre-crash ids on the victim shard reconcile from the journal too:
    // duplicate submits return the replayed result, never a re-run's
    // divergence (there is none to have — but the dedupe proves the
    // journal owned them).
    for &id in burst
        .iter()
        .filter(|&&id| rendezvous_route(id, 2) == victim)
    {
        let outcome = client
            .submit_durable_and_wait(id, &payload(&cfg, id), BACKOFF)
            .expect("reconcile pre-crash id");
        assert_eq!(outcome, JobOutcome::Result(expected(&cfg, id)), "id {id}");
    }

    // --- Phase 4: retire everything through the router. ------------------
    for &id in burst.iter().chain(&probe) {
        client.ack(id).expect("ack");
    }
    for &id in burst.iter().chain(&probe) {
        let (status, body) = client.query(id).expect("query after ack");
        assert_eq!((status, body.len()), (QueryStatus::Acked, 0), "id {id}");
    }

    let stats = router.shutdown();
    // Reconciliation may burn a Retry or two re-discovering the stale
    // socket before the reconnect lands, but never an Error.
    assert!(stats.retries_synthesized >= mid.retries_synthesized);
    assert_eq!(stats.errors_synthesized, 0, "no request was hard-failed");
    assert!(
        stats.reconnects >= 1,
        "the victim shard must have been re-dialed"
    );

    for d in daemons.into_iter().flatten() {
        quit_hqd(d);
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
