//! Ingress failure modes and end-to-end determinism over real sockets.
//!
//! Everything here runs against a live `IngressServer` on a loopback
//! socket: malformed/oversized frame rejection, undecodable payloads,
//! admission-full RETRY backpressure, clients that vanish mid-job,
//! graceful shutdown draining, and byte-identical responses across
//! worker counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipelines::graph::{GraphSpec, ServiceConfig};
use pipelines::ingress::{
    encode_frame, FrameDecoder, FrameKind, IngressClient, IngressConfig, IngressServer, JobCodec,
    JobOutcome, QueryStatus, RecoveryReport,
};
use pipelines::journal::{replay_dir, JobReplayStatus, Journal, JournalConfig, RecordKind};
use proptest::prelude::*;
use swan::Runtime;
use workloads::service::{job_lines, logstream_digest_spec, wordcount_spec, ServiceWorkloadConfig};
use workloads::wire::{
    decode_lines, encode_lines, expected_wordcount_bytes, LogstreamCodec, WordcountCodec,
};

const BACKOFF: Duration = Duration::from_micros(200);

fn wordcount_server(workers: usize, cfg: IngressConfig) -> (Arc<Runtime>, IngressServer) {
    let rt = Arc::new(Runtime::with_workers(workers));
    let graph = Arc::new(wordcount_spec(3, 16).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 2,
            segment_capacity: 16,
            ..ServiceConfig::default()
        },
    ));
    let server =
        IngressServer::bind("127.0.0.1:0", graph, Arc::new(WordcountCodec), cfg).expect("bind");
    (rt, server)
}

/// Line-echo codec over a configurable-latency graph: the test harness
/// for admission and disconnect scenarios.
struct EchoCodec;

impl JobCodec for EchoCodec {
    type In = String;
    type Out = String;
    fn decode_job(&self, payload: &[u8]) -> Result<Vec<String>, String> {
        decode_lines(payload)
    }
    fn encode_result(&self, out: &[String], buf: &mut Vec<u8>) {
        buf.extend_from_slice(encode_lines(out).as_slice());
    }
}

/// An echo service whose jobs block while their line says "block" and the
/// gate is closed; returns (runtime, server, gate).
fn gated_echo_server(
    max_in_flight: usize,
    max_queued: usize,
) -> (Arc<Runtime>, IngressServer, Arc<AtomicBool>) {
    let gate = Arc::new(AtomicBool::new(false));
    let gate2 = Arc::clone(&gate);
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = Arc::new(
        GraphSpec::<String, String>::new()
            .map(move |line: String| {
                while line == "block" && !gate2.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                line
            })
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    max_in_flight,
                    ..ServiceConfig::default()
                },
            ),
    );
    let server = IngressServer::bind(
        "127.0.0.1:0",
        graph,
        Arc::new(EchoCodec),
        IngressConfig {
            max_queued,
            ..IngressConfig::default()
        },
    )
    .expect("bind");
    (rt, server, gate)
}

fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

#[test]
fn malformed_frame_gets_error_then_close_and_server_survives() {
    let (_rt, server) = wordcount_server(2, IngressConfig::default());
    let addr = server.local_addr();
    let mut bad = IngressClient::connect(addr).unwrap();
    // A syntactically valid frame with an unassigned kind byte.
    let mut wire = vec![];
    wire.extend_from_slice(&9u32.to_le_bytes());
    wire.push(0xEE);
    wire.extend_from_slice(&1u64.to_le_bytes());
    bad.send_raw(&wire).unwrap();
    let err = bad.recv().expect("error frame before close");
    assert_eq!((err.kind, err.req_id), (FrameKind::Error, 0));
    assert!(String::from_utf8_lossy(&err.body).contains("protocol error"));
    assert!(bad.recv().is_err(), "connection must close after the error");
    // The daemon itself is unharmed: a fresh client completes a job.
    let mut ok = IngressClient::connect(addr).unwrap();
    let lines = vec!["alpha bravo alpha".to_string()];
    match ok
        .submit_and_wait(7, &encode_lines(&lines), BACKOFF)
        .unwrap()
    {
        JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
        JobOutcome::Failed(m) => panic!("job failed: {m}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn oversized_and_truncated_frames_are_rejected() {
    let (_rt, server) = wordcount_server(
        1,
        IngressConfig {
            max_frame_len: 64,
            ..IngressConfig::default()
        },
    );
    let addr = server.local_addr();
    // Oversized: a submit whose len field exceeds the 64-byte cap.
    let mut big = IngressClient::connect(addr).unwrap();
    big.submit(1, &[b'x'; 500]).unwrap();
    let err = big.recv().expect("oversized must be reported");
    assert_eq!((err.kind, err.req_id), (FrameKind::Error, 0));
    assert!(big.recv().is_err(), "connection must close");
    // Truncated: a len field smaller than the fixed kind+req_id part.
    let mut short = IngressClient::connect(addr).unwrap();
    short.send_raw(&3u32.to_le_bytes()).unwrap();
    let err = short.recv().expect("truncated must be reported");
    assert_eq!(err.kind, FrameKind::Error);
    assert!(short.recv().is_err(), "connection must close");
    assert_eq!(server.shutdown().protocol_errors, 2);
}

#[test]
fn undecodable_payload_errors_but_keeps_the_connection() {
    let (_rt, server) = wordcount_server(2, IngressConfig::default());
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    client.submit(3, &[0xFF, 0xFE, 0x00]).unwrap(); // not UTF-8
    let err = client.recv().unwrap();
    assert_eq!((err.kind, err.req_id), (FrameKind::Error, 3));
    assert!(String::from_utf8_lossy(&err.body).contains("bad job payload"));
    // Same connection, next request: still served.
    let lines = vec!["charlie delta charlie".to_string()];
    match client
        .submit_and_wait(4, &encode_lines(&lines), BACKOFF)
        .unwrap()
    {
        JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
        JobOutcome::Failed(m) => panic!("job failed: {m}"),
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.protocol_errors, 0,
        "payload errors are not protocol errors"
    );
    assert!(stats.errors_sent >= 1);
}

#[test]
fn oversized_result_degrades_to_a_job_error() {
    // Logstream expands each input line into a 17-byte hex digest line,
    // so a submit can fit the frame limit while its result does not. The
    // server must answer with an Error, not an oversized frame.
    let rt = Arc::new(Runtime::with_workers(2));
    let graph =
        Arc::new(logstream_digest_spec(0).compile(Arc::clone(&rt), ServiceConfig::default()));
    let server = IngressServer::bind(
        "127.0.0.1:0",
        graph,
        Arc::new(LogstreamCodec),
        IngressConfig {
            max_frame_len: 32,
            ..IngressConfig::default()
        },
    )
    .expect("bind");
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    // Three 1-char lines: 15-byte submit frame, 51-byte result body.
    client.submit(1, b"a\nb\nc\n").unwrap();
    let r = client.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Error, 1));
    assert!(String::from_utf8_lossy(&r.body).contains("result too large"));
    // One line (17-byte result body) fits: the connection still serves.
    client.submit(2, b"a\n").unwrap();
    let r = client.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Result, 2));
    assert_eq!(r.body.len(), 17);
    let stats = server.shutdown();
    assert_eq!(stats.jobs_accepted, stats.jobs_completed);
}

#[test]
fn admission_full_turns_into_retry_frames() {
    let (_rt, server, gate) = gated_echo_server(1, 1);
    let addr = server.local_addr();
    let mut a = IngressClient::connect(addr).unwrap();
    let mut probe = IngressClient::connect(addr).unwrap();
    // Occupy the single in-flight slot…
    a.submit(0, b"block").unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || {
            probe.stats(90).unwrap().admission.in_flight == 1
        }),
        "blocker never admitted"
    );
    // …and the single waiting slot.
    a.submit(1, b"queued").unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || {
            probe.stats(91).unwrap().admission.queued == 1
        }),
        "second job never queued"
    );
    // The line is full: an independent connection gets explicit RETRY.
    let mut b = IngressClient::connect(addr).unwrap();
    b.submit(5, b"rejected").unwrap();
    let retry = b.recv().unwrap();
    assert_eq!((retry.kind, retry.req_id), (FrameKind::Retry, 5));
    assert_eq!(u32::from_le_bytes(retry.body[..4].try_into().unwrap()), 1);
    // Open the gate: everything drains, in submission order per connection.
    gate.store(true, Ordering::Release);
    let r0 = a.recv().unwrap();
    assert_eq!(
        (r0.kind, r0.req_id, r0.body.as_slice()),
        (FrameKind::Result, 0, b"block\n".as_slice())
    );
    let r1 = a.recv().unwrap();
    assert_eq!(
        (r1.kind, r1.req_id, r1.body.as_slice()),
        (FrameKind::Result, 1, b"queued\n".as_slice())
    );
    // And the refused client succeeds on resubmission.
    match b.submit_and_wait(6, b"rejected", BACKOFF).unwrap() {
        JobOutcome::Result(bytes) => assert_eq!(bytes, b"rejected\n"),
        JobOutcome::Failed(m) => panic!("{m}"),
    }
    let stats = server.shutdown();
    assert!(stats.retries_sent >= 1);
    assert_eq!(stats.jobs_accepted, stats.jobs_completed);
}

#[test]
fn client_disconnect_mid_job_still_drains_the_job() {
    let (_rt, server, gate) = gated_echo_server(2, 8);
    let addr = server.local_addr();
    {
        let mut doomed = IngressClient::connect(addr).unwrap();
        doomed.submit(0, b"block").unwrap();
        // Wait until the job is truly accepted, then vanish.
        let mut probe = IngressClient::connect(addr).unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || {
                let snap = probe.stats(1).unwrap();
                snap.ingress.is_some_and(|i| i.jobs_accepted == 1)
            }),
            "job never accepted"
        );
    } // both sockets drop here, job still running
    gate.store(true, Ordering::Release);
    assert!(
        poll_until(Duration::from_secs(5), || {
            let s = server.stats();
            s.jobs_completed == s.jobs_accepted && s.jobs_accepted >= 1
        }),
        "abandoned job did not drain: {:?}",
        server.stats()
    );
    // The orphaned result is *counted*, not silently discarded.
    assert!(
        poll_until(Duration::from_secs(5), || server.stats().results_dropped
            == 1),
        "dead-socket result drop not counted: {:?}",
        server.stats()
    );
    // No worker/dispatcher leaked: the service still serves new clients.
    let mut next = IngressClient::connect(addr).unwrap();
    match next.submit_and_wait(9, b"hello", BACKOFF).unwrap() {
        JobOutcome::Result(bytes) => assert_eq!(bytes, b"hello\n"),
        JobOutcome::Failed(m) => panic!("{m}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.results_dropped, 1, "only the abandoned job dropped");
}

#[test]
fn graceful_shutdown_drains_accepted_jobs_and_answers_them() {
    let (rt, server, gate) = gated_echo_server(2, 16);
    gate.store(true, Ordering::Release); // jobs run at full speed
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    for j in 0..5u64 {
        client.submit(j, format!("job-{j}").as_bytes()).unwrap();
    }
    assert!(
        poll_until(Duration::from_secs(5), || server.stats().jobs_accepted == 5),
        "submits not all accepted before shutdown"
    );
    let stats = server.shutdown();
    assert_eq!(
        (stats.jobs_accepted, stats.jobs_completed),
        (5, 5),
        "graceful shutdown must drain accepted jobs"
    );
    // The responses were written before the server closed the socket.
    for j in 0..5u64 {
        let r = client.recv().expect("drained response");
        assert_eq!((r.kind, r.req_id), (FrameKind::Result, j));
        assert_eq!(r.body, format!("job-{j}\n").into_bytes());
    }
    assert!(client.recv().is_err(), "socket closed after the drain");
    rt.quiesce();
    assert_eq!(rt.open_scopes(), 0);
}

#[test]
fn responses_are_byte_identical_across_1_2_8_workers() {
    let cfg = ServiceWorkloadConfig::small();
    let jobs = 24usize;
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for workers in [1usize, 2, 8] {
        let (rt, server) = wordcount_server(workers, IngressConfig::default());
        let addr = server.local_addr();
        // Two concurrent connections splitting the job range.
        let responses: Vec<Vec<u8>> = std::thread::scope(|s| {
            let cfg = &cfg;
            let handles: Vec<_> = (0..2)
                .map(|half| {
                    s.spawn(move || {
                        let mut client = IngressClient::connect(addr).unwrap();
                        let mut out = Vec::new();
                        for j in (0..jobs).filter(|j| j % 2 == half) {
                            let payload = encode_lines(&job_lines(cfg, j));
                            match client.submit_and_wait(j as u64, &payload, BACKOFF).unwrap() {
                                JobOutcome::Result(bytes) => out.push((j, bytes)),
                                JobOutcome::Failed(m) => panic!("job {j}: {m}"),
                            }
                        }
                        out
                    })
                })
                .collect();
            let mut all: Vec<(usize, Vec<u8>)> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_by_key(|(j, _)| *j);
            all.into_iter().map(|(_, b)| b).collect()
        });
        for (j, bytes) in responses.iter().enumerate() {
            assert_eq!(
                bytes,
                &expected_wordcount_bytes(&job_lines(&cfg, j)),
                "job {j} at {workers} workers diverged from its serial elision"
            );
        }
        match &reference {
            None => reference = Some(responses),
            Some(r) => assert_eq!(
                r, &responses,
                "responses at {workers} workers differ from the 1-worker bytes"
            ),
        }
        server.shutdown();
        rt.quiesce();
    }
}

// ---------------------------------------------------------------------------
// Durable frames: SubmitDurable / Ack / Query over a journal-backed server.
// ---------------------------------------------------------------------------

fn journal_temp_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hq-ingress-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A wordcount server with durable submissions enabled over a fresh (or
/// recovered) journal in `dir`.
fn durable_wordcount_server(
    workers: usize,
    dir: &std::path::Path,
) -> (Arc<Runtime>, IngressServer, RecoveryReport) {
    durable_wordcount_server_with(workers, dir, IngressConfig::default())
}

/// [`durable_wordcount_server`] with explicit ingress knobs.
fn durable_wordcount_server_with(
    workers: usize,
    dir: &std::path::Path,
    cfg: IngressConfig,
) -> (Arc<Runtime>, IngressServer, RecoveryReport) {
    let rt = Arc::new(Runtime::with_workers(workers));
    let graph = Arc::new(wordcount_spec(3, 16).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 2,
            segment_capacity: 16,
            ..ServiceConfig::default()
        },
    ));
    let (journal, replay) = Journal::open(JournalConfig::at(dir)).expect("open journal");
    let (server, report) = IngressServer::bind_durable(
        "127.0.0.1:0",
        graph,
        Arc::new(WordcountCodec),
        cfg,
        journal,
        &replay,
    )
    .expect("bind durable");
    (rt, server, report)
}

#[test]
fn durable_lifecycle_dedupes_acks_and_queries() {
    let cfg = ServiceWorkloadConfig::small();
    let dir = journal_temp_dir("lifecycle");
    let (rt, server, report) = durable_wordcount_server(2, &dir);
    assert_eq!(report.journaled_jobs, 0, "fresh journal replays nothing");
    let mut client = IngressClient::connect(server.local_addr()).unwrap();

    // Unknown before anything is submitted.
    assert_eq!(client.query(1).unwrap(), (QueryStatus::Unknown, Vec::new()));

    let payload = encode_lines(&job_lines(&cfg, 0));
    let want = expected_wordcount_bytes(&job_lines(&cfg, 0));
    let got = client
        .submit_durable_and_wait(1, &payload, BACKOFF)
        .unwrap();
    assert_eq!(got, JobOutcome::Result(want.clone()));

    // Duplicate submit returns the journaled result instead of re-running.
    let dup = client
        .submit_durable_and_wait(1, &payload, BACKOFF)
        .unwrap();
    assert_eq!(dup, JobOutcome::Result(want.clone()));
    assert_eq!(client.query(1).unwrap(), (QueryStatus::Done, want));
    let stats = server.stats();
    assert_eq!(
        (stats.durable_jobs, stats.durable_dupes),
        (1, 1),
        "one run, one dedupe"
    );

    // Ack retires the result; re-ack is idempotent (fire-and-forget: the
    // follow-up query round-trip proves no error frame was queued).
    client.ack(1).unwrap();
    assert_eq!(client.query(1).unwrap(), (QueryStatus::Acked, Vec::new()));
    client.ack(1).unwrap();
    assert_eq!(client.query(1).unwrap(), (QueryStatus::Acked, Vec::new()));

    // Submitting an acked id is an error, not a silent re-run.
    match client
        .submit_durable_and_wait(1, &payload, BACKOFF)
        .unwrap()
    {
        JobOutcome::Failed(msg) => assert!(msg.contains("already acknowledged"), "{msg}"),
        other => panic!("acked resubmit must fail, got {other:?}"),
    }
    server.shutdown();
    rt.quiesce();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_results_resume_across_reconnects() {
    let cfg = ServiceWorkloadConfig::small();
    let dir = journal_temp_dir("reconnect");
    let (rt, server, _) = durable_wordcount_server(2, &dir);
    let payload = encode_lines(&job_lines(&cfg, 3));
    let want = expected_wordcount_bytes(&job_lines(&cfg, 3));

    let mut first = IngressClient::connect(server.local_addr()).unwrap();
    let got = first.submit_durable_and_wait(7, &payload, BACKOFF).unwrap();
    assert_eq!(got, JobOutcome::Result(want.clone()));
    drop(first); // connection gone; the durable result must not be

    let mut second = IngressClient::connect(server.local_addr()).unwrap();
    assert_eq!(second.query(7).unwrap(), (QueryStatus::Done, want.clone()));
    let resumed = second
        .submit_durable_and_wait(7, &payload, BACKOFF)
        .unwrap();
    assert_eq!(
        resumed,
        JobOutcome::Result(want),
        "resume across connections"
    );
    server.shutdown();
    rt.quiesce();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_misuse_is_rejected_without_killing_the_connection() {
    let cfg = ServiceWorkloadConfig::small();
    let dir = journal_temp_dir("misuse");
    let (rt, server, _) = durable_wordcount_server(2, &dir);
    let mut client = IngressClient::connect(server.local_addr()).unwrap();

    // Durable job id 0 is reserved for connection-level errors.
    client.submit_durable(0, b"x").unwrap();
    let r = client.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Error, 0));
    assert!(String::from_utf8_lossy(&r.body).contains("non-zero"));

    // Ack and Query carry no body; a non-empty one is a per-request error.
    client.send(FrameKind::Ack, 1, b"junk").unwrap();
    let r = client.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Error, 1));
    client.send(FrameKind::Query, 1, b"junk").unwrap();
    let r = client.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Error, 1));

    // Acking an unknown id, or one still unresolved, is an error too.
    client.ack(42).unwrap();
    let r = client.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Error, 42));

    // None of that killed the connection: real work still goes through.
    let payload = encode_lines(&job_lines(&cfg, 0));
    let got = client
        .submit_durable_and_wait(5, &payload, BACKOFF)
        .unwrap();
    assert_eq!(
        got,
        JobOutcome::Result(expected_wordcount_bytes(&job_lines(&cfg, 0)))
    );

    // A client speaking server-only kinds is cut off (stream offset no
    // longer trustworthy), and the server keeps serving others.
    let mut rogue = IngressClient::connect(server.local_addr()).unwrap();
    rogue.send(FrameKind::QueryOk, 9, &[1]).unwrap();
    let r = rogue.recv().unwrap();
    assert_eq!((r.kind, r.req_id), (FrameKind::Error, 0));
    assert!(rogue.recv().is_err(), "connection closed after QueryOk");

    // A truncated SubmitDurable (header promises more body than ever
    // arrives) must not run a job; the abandoned connection just closes.
    let mut torn = IngressClient::connect(server.local_addr()).unwrap();
    torn.send_raw(&100u32.to_le_bytes()).unwrap();
    torn.send_raw(&[FrameKind::SubmitDurable as u8]).unwrap();
    torn.send_raw(&6u64.to_le_bytes()).unwrap();
    torn.send_raw(b"only-this").unwrap();
    drop(torn);
    assert!(
        poll_until(Duration::from_secs(2), || server.stats().connections == 3),
        "torn connection not reaped"
    );
    assert_eq!(
        server.stats().durable_jobs,
        1,
        "truncated SubmitDurable must not start a job"
    );
    server.shutdown();
    rt.quiesce();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_frames_on_a_plain_server_fail_cleanly() {
    let (rt, server) = wordcount_server(2, IngressConfig::default());
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    match client
        .submit_durable_and_wait(1, b"irrelevant", BACKOFF)
        .unwrap()
    {
        JobOutcome::Failed(msg) => assert!(msg.contains("disabled"), "{msg}"),
        other => panic!("durable submit on plain server must fail, got {other:?}"),
    }
    client.ack(1).unwrap();
    let r = client.recv().unwrap();
    assert_eq!(r.kind, FrameKind::Error);
    assert!(client.query(1).is_err(), "query must surface the error");
    server.shutdown();
    rt.quiesce();
}

#[test]
fn oversized_queried_result_degrades_to_an_error_frame() {
    // Same degrade discipline as the Result path: a Done entry whose
    // journaled bytes exceed max_frame_len must come back as an Error
    // frame from Query too, never as an oversized QueryOk.
    let dir = journal_temp_dir("query-oversize");
    let rt = Arc::new(Runtime::with_workers(2));
    let graph =
        Arc::new(logstream_digest_spec(0).compile(Arc::clone(&rt), ServiceConfig::default()));
    let (journal, replay) = Journal::open(JournalConfig::at(&dir)).expect("open journal");
    let (server, _) = IngressServer::bind_durable(
        "127.0.0.1:0",
        graph,
        Arc::new(LogstreamCodec),
        IngressConfig {
            max_frame_len: 32,
            ..IngressConfig::default()
        },
        journal,
        &replay,
    )
    .expect("bind durable");
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    // Three lines → 51-byte result body: the submit reply degrades…
    match client
        .submit_durable_and_wait(1, b"a\nb\nc\n", BACKOFF)
        .unwrap()
    {
        JobOutcome::Failed(msg) => assert!(msg.contains("result too large"), "{msg}"),
        other => panic!("oversized durable result must degrade, got {other:?}"),
    }
    // …and so must the query of the journaled Done entry.
    let err = client.query(1).expect_err("query must degrade too");
    assert!(err.to_string().contains("result too large"), "{err}");
    // The connection survives, and a fitting result still queries fine.
    match client.submit_durable_and_wait(2, b"a\n", BACKOFF).unwrap() {
        JobOutcome::Result(bytes) => assert_eq!(bytes.len(), 17),
        other => panic!("small job must succeed, got {other:?}"),
    }
    let (status, bytes) = client.query(2).unwrap();
    assert_eq!((status, bytes.len()), (QueryStatus::Done, 17));
    server.shutdown();
    rt.quiesce();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acked_ids_beyond_the_retention_cap_are_evicted() {
    let cfg = ServiceWorkloadConfig::small();
    let dir = journal_temp_dir("evict");
    let (rt, server, _) = durable_wordcount_server_with(
        2,
        &dir,
        IngressConfig {
            max_retired_ids: 2,
            ..IngressConfig::default()
        },
    );
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    for id in 1..=3u64 {
        let payload = encode_lines(&job_lines(&cfg, id as usize));
        let got = client
            .submit_durable_and_wait(id, &payload, BACKOFF)
            .unwrap();
        assert_eq!(
            got,
            JobOutcome::Result(expected_wordcount_bytes(&job_lines(&cfg, id as usize)))
        );
        client.ack(id).unwrap();
    }
    // Retention cap 2: acking id 3 evicted id 1 from the table, so the
    // daemon's memory stays bounded no matter how many ids retire.
    assert_eq!(client.query(1).unwrap(), (QueryStatus::Unknown, Vec::new()));
    assert_eq!(client.query(2).unwrap(), (QueryStatus::Acked, Vec::new()));
    assert_eq!(client.query(3).unwrap(), (QueryStatus::Acked, Vec::new()));
    // An evicted id is simply a fresh id again: resubmitting re-runs the
    // job (byte-identical, and the client already consumed the original).
    let payload = encode_lines(&job_lines(&cfg, 1));
    let got = client
        .submit_durable_and_wait(1, &payload, BACKOFF)
        .unwrap();
    assert_eq!(
        got,
        JobOutcome::Result(expected_wordcount_bytes(&job_lines(&cfg, 1)))
    );
    server.shutdown();
    rt.quiesce();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery has no thread of its own: jobs a previous life left pending
/// are resubmitted with completion callbacks, and `shutdown` is what waits
/// for them — it must not return before each has its terminal record
/// durable and published.
#[test]
fn shutdown_waits_for_jobs_recovered_from_the_journal() {
    const JOBS: u64 = 8;
    let line = |id: u64| format!("left pending by a previous life {id}");
    let dir = journal_temp_dir("recover");
    let (journal, _) = Journal::open(JournalConfig::at(&dir)).expect("open journal");
    for id in 1..=JOBS {
        journal.append(RecordKind::Submit, id, &encode_lines(&[line(id)]));
    }
    journal.flush();
    drop(journal);

    let gate = Arc::new(AtomicBool::new(false));
    let gate2 = Arc::clone(&gate);
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = Arc::new(
        GraphSpec::<String, String>::new()
            .map(move |line: String| {
                while !gate2.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                line.to_uppercase()
            })
            .compile(Arc::clone(&rt), ServiceConfig::default()),
    );
    let (journal, replay) = Journal::open(JournalConfig::at(&dir)).expect("reopen journal");
    assert_eq!(replay.pending_ids().len() as u64, JOBS);
    let (server, report) = IngressServer::bind_durable(
        "127.0.0.1:0",
        graph,
        Arc::new(EchoCodec),
        IngressConfig::default(),
        journal,
        &replay,
    )
    .expect("bind durable");
    assert_eq!(report.resubmitted, JOBS);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || done_tx.send(server.shutdown()).unwrap());
    assert!(
        done_rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "shutdown returned while the recovered jobs were still gated"
    );
    gate.store(true, Ordering::Release);
    let stats = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown returns once the recovered jobs finish");
    stopper.join().unwrap();
    assert_eq!(stats.jobs_completed, JOBS);
    rt.quiesce();

    let replay = replay_dir(&dir).expect("replay after recovery");
    for id in 1..=JOBS {
        let want = encode_lines(&[line(id).to_uppercase()]).to_vec();
        assert_eq!(replay.jobs[&id].status, JobReplayStatus::Done(want));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Event-driven ingress: slowloris, idle cost, fd exhaustion.
// ---------------------------------------------------------------------------

#[test]
fn slowloris_submit_trickled_byte_by_byte_still_completes() {
    let (rt, server) = wordcount_server(2, IngressConfig::default());
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    let lines = vec![
        "slow and steady and slow".to_string(),
        "steady wins the race".to_string(),
    ];
    let mut wire = Vec::new();
    encode_frame(FrameKind::Submit, 42, &encode_lines(&lines), &mut wire);
    // One byte per write with a pause: the server sees the frame arrive
    // over dozens of reads and must parse it exactly as if it came whole.
    for byte in wire {
        client.send_raw(&[byte]).unwrap();
        std::thread::sleep(Duration::from_micros(500));
    }
    let frame = client.recv().expect("result for the trickled submit");
    assert_eq!((frame.kind, frame.req_id), (FrameKind::Result, 42));
    assert_eq!(frame.body, expected_wordcount_bytes(&lines));
    server.shutdown();
    rt.quiesce();
}

/// The C1M claim in a test: connected-but-silent clients must cost the
/// event loops nothing. 512 idle connections, a half-second observation
/// window, and the loop-wakeup counter must not move — there is no
/// per-connection polling anywhere.
#[test]
#[cfg(target_os = "linux")]
fn idle_connections_cost_no_event_loop_wakeups() {
    let _ = epoll::raise_nofile_limit(4096);
    let (rt, server) = wordcount_server(1, IngressConfig::default());
    let addr = server.local_addr();
    let idle: Vec<std::net::TcpStream> = (0..512)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect idle client"))
        .collect();
    assert!(
        poll_until(Duration::from_secs(10), || {
            server.stats().connections == 512
        }),
        "not all idle connections were accepted"
    );
    assert!(
        server.stats().loop_wakeups > 0,
        "event mode not active — this test measures the epoll path"
    );
    // Let the registration burst settle, then watch a quiet window.
    std::thread::sleep(Duration::from_millis(100));
    let before = server.stats().loop_wakeups;
    std::thread::sleep(Duration::from_millis(500));
    let woke = server.stats().loop_wakeups - before;
    assert!(
        woke <= 4,
        "{woke} event-loop wakeups in an idle 500ms window with 512 \
         silent connections — idle connections must be free"
    );
    // They are real connections: one of them still completes a job.
    let mut client = IngressClient::connect(addr).unwrap();
    let lines = vec!["still alive".to_string()];
    match client
        .submit_and_wait(1, &encode_lines(&lines), BACKOFF)
        .unwrap()
    {
        JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
        JobOutcome::Failed(m) => panic!("job failed: {m}"),
    }
    drop(idle);
    server.shutdown();
    rt.quiesce();
}

/// Child-process body for `fd_exhaustion_backs_off_and_recovers`: runs
/// with its own RLIMIT_NOFILE so the hoard cannot starve sibling tests.
#[test]
#[ignore = "helper: spawned by fd_exhaustion_backs_off_and_recovers"]
#[cfg(target_os = "linux")]
fn fd_exhaustion_helper() {
    // Bind first: the server allocates every fd it needs (epoll, eventfds,
    // listener) before the limit drops.
    let (rt, server) = wordcount_server(2, IngressConfig::default());
    let addr = server.local_addr();
    epoll::set_nofile_limit(96).expect("lower RLIMIT_NOFILE");
    // Hoard the remaining headroom so the *next* fd allocation fails...
    let mut hoard = Vec::new();
    while let Ok(f) = std::fs::File::open("/dev/null") {
        hoard.push(f);
    }
    // ...then free exactly one slot for the client's socket. The TCP
    // handshake completes in the backlog; the server's accept() still
    // has zero fds and must fail with EMFILE.
    hoard.pop();
    let pending = std::net::TcpStream::connect(addr).expect("connect rides the backlog");
    assert!(
        poll_until(Duration::from_secs(10), || server.stats().accept_errors
            >= 3),
        "accept() never surfaced the fd exhaustion"
    );
    // Release the hoard: the backed-off acceptor must recover on its own
    // and drain the backlog — the stranded connection finally gets
    // accepted, and a fresh client completes a job end to end.
    drop(hoard);
    assert!(
        poll_until(Duration::from_secs(10), || server.stats().connections >= 1),
        "acceptor never recovered after fds were freed"
    );
    drop(pending);
    let mut client = IngressClient::connect(addr).unwrap();
    let lines = vec!["after the famine".to_string()];
    match client
        .submit_and_wait(9, &encode_lines(&lines), BACKOFF)
        .unwrap()
    {
        JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
        JobOutcome::Failed(m) => panic!("job failed: {m}"),
    }
    let stats = server.shutdown();
    assert!(stats.accept_errors >= 3, "EMFILE retries were not counted");
    rt.quiesce();
}

/// Runs one `#[ignore]`d helper test of this file alone in a child
/// process (via the test harness itself): for tests that change or read
/// process-wide state — the fd limit, the set of live threads.
#[cfg(target_os = "linux")]
fn run_helper_in_child(helper: &str) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            helper,
            "--ignored",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Satellite check on the accept-error path: fd exhaustion must back off
/// and count, not spin, and the acceptor must recover once fds return.
/// Runs in a child process because it lowers RLIMIT_NOFILE and hoards
/// every file descriptor.
#[test]
#[cfg(target_os = "linux")]
fn fd_exhaustion_backs_off_and_recovers() {
    run_helper_in_child("fd_exhaustion_helper");
}

// ---------------------------------------------------------------------------
// Thread anatomy: jobs are tasks, so the server's thread count is fixed.
// ---------------------------------------------------------------------------

/// How many threads of this process the service stack owns (every thread
/// it starts is named `swan-…`, `hqd-…` or `hq-…`), and how many of those
/// carry `prefix`. `comm` truncates names to 15 bytes; all of ours fit.
#[cfg(target_os = "linux")]
fn service_threads(prefix: &str) -> (usize, usize) {
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| ["swan-", "hqd-", "hq-"].iter().any(|p| name.starts_with(p)))
        .collect();
    let matching = names.iter().filter(|n| n.starts_with(prefix)).count();
    (names.len(), matching)
}

/// Aborts the process if a helper wedges: teardown bugs show up as hangs.
#[cfg(target_os = "linux")]
fn arm_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(60));
        eprintln!("watchdog: helper still running after 60 s");
        std::process::abort();
    });
}

/// Child-process body for `server_threads_are_workers_loops_and_acceptor`.
#[test]
#[ignore = "helper: spawned by server_threads_are_workers_loops_and_acceptor"]
#[cfg(target_os = "linux")]
fn thread_census_helper() {
    const WORKERS: usize = 3;
    const LOOPS: usize = 2;
    arm_watchdog();
    let cfg = IngressConfig {
        event_loops: LOOPS,
        ..IngressConfig::default()
    };
    let lines = vec!["count these words these words".to_string()];
    let payload = encode_lines(&lines);

    // A plain server, censused while two clients keep jobs in flight.
    let (rt, server) = wordcount_server(WORKERS, cfg.clone());
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for c in 0..2u64 {
            let (stop, payload) = (&stop, &payload);
            s.spawn(move || {
                let mut client = IngressClient::connect(addr).unwrap();
                let mut req = c << 32;
                while !stop.load(Ordering::Acquire) {
                    req += 1;
                    client.submit_and_wait(req, payload, BACKOFF).unwrap();
                }
            });
        }
        assert!(poll_until(Duration::from_secs(30), || {
            server.stats().jobs_completed >= 200
        }));
        let (owned, workers) = service_threads("swan-worker");
        assert_eq!(workers, WORKERS);
        assert_eq!(service_threads("hqd-loop").1, LOOPS);
        assert_eq!(service_threads("hqd-accept").1, 1);
        assert_eq!(
            owned,
            WORKERS + LOOPS + 1,
            "a serving stack is its workers, its loops and the acceptor — \
             no thread per job, per connection or per hand-off"
        );
        stop.store(true, Ordering::Release);
    });
    server.shutdown();
    rt.quiesce();
    drop(rt);
    assert!(poll_until(Duration::from_secs(30), || service_threads("")
        .0
        == 0));

    // A durable server adds the journal flusher and nothing else; the
    // retry timer appears with the first retry.
    let failed_once = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&failed_once);
    let rt = Arc::new(Runtime::with_workers(WORKERS));
    let graph = Arc::new(
        GraphSpec::<String, String>::new()
            .map(move |line: String| {
                if line == "flaky" && !flag.swap(true, Ordering::SeqCst) {
                    panic!("flaky: first attempt");
                }
                line
            })
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    retry: swan::RetryPolicy::retries(1),
                    ..ServiceConfig::default()
                },
            ),
    );
    // A previous life left four jobs pending: recovering them is the
    // workers' business too, not a thread's.
    let dir = journal_temp_dir("census");
    let (journal, _) = Journal::open(JournalConfig::at(&dir)).expect("open journal");
    for id in 1001..=1004 {
        let payload = encode_lines(&["steady".to_string()]);
        journal.append_sync(RecordKind::Submit, id, &payload);
    }
    drop(journal);
    let (journal, replay) = Journal::open(JournalConfig::at(&dir)).expect("reopen journal");
    let (server, report) = IngressServer::bind_durable(
        "127.0.0.1:0",
        graph,
        Arc::new(EchoCodec),
        cfg,
        journal,
        &replay,
    )
    .expect("bind durable");
    assert_eq!(report.resubmitted, 4);
    // (A thread names itself once it runs: give the fresh ones a moment.)
    assert!(
        poll_until(Duration::from_secs(10), || {
            service_threads("hq-journal") == (WORKERS + LOOPS + 2, 1)
        }),
        "census after recovery: {:?}",
        service_threads("hq-journal")
    );
    for gone in ["hqd-recover", "hqd-conn", "hqd-write"] {
        assert_eq!(service_threads(gone).1, 0, "a {gone} thread exists");
    }
    let mut client = IngressClient::connect(server.local_addr()).unwrap();
    let echo = |client: &mut IngressClient, id: u64, line: &str| {
        let payload = encode_lines(&[line.to_string()]);
        match client
            .submit_durable_and_wait(id, &payload, BACKOFF)
            .unwrap()
        {
            JobOutcome::Result(bytes) => assert_eq!(bytes, payload),
            JobOutcome::Failed(m) => panic!("job {id} failed: {m}"),
        }
    };
    for id in 1..=50 {
        echo(&mut client, id, "steady");
    }
    assert_eq!(service_threads("hq-journal"), (WORKERS + LOOPS + 2, 1));
    echo(&mut client, 51, "flaky");
    assert_eq!(service_threads("hq-retry"), (WORKERS + LOOPS + 3, 1));
    let stats = server.shutdown();
    assert_eq!(stats.jobs_completed, 51 + 4, "clients' jobs plus recovered");
    rt.quiesce();
    drop(rt);
    // The server held the last journal handle: its flusher is gone too.
    assert!(
        poll_until(Duration::from_secs(30), || service_threads("").0 == 0),
        "{} service threads outlived the durable stack",
        service_threads("").0
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The regression guard for the hop count: a job crosses loop → worker →
/// loop and no other thread, so none exists. At the parent commit a
/// default stack also ran `hq-dispatch-*` and `hqd-pump-*` pools.
#[test]
#[cfg(target_os = "linux")]
fn server_threads_are_workers_loops_and_acceptor() {
    run_helper_in_child("thread_census_helper");
}

/// Child-process body for `router_threads_are_its_loops_and_acceptor`.
#[test]
#[ignore = "helper: spawned by router_threads_are_its_loops_and_acceptor"]
#[cfg(target_os = "linux")]
fn router_census_helper() {
    use pipelines::ingress::{default_event_loops, Router, RouterConfig};
    const CLIENTS: u64 = 8;
    arm_watchdog();
    let router_threads = |prefix: &str| {
        std::fs::read_dir("/proc/self/task")
            .expect("read /proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with(prefix))
            .count()
    };
    let backends: Vec<_> = (0..2)
        .map(|_| wordcount_server(1, IngressConfig::default()))
        .collect();
    let addrs = backends.iter().map(|(_, s)| s.local_addr().to_string());
    let router = Router::bind("127.0.0.1:0", RouterConfig::to(addrs)).expect("bind router");
    let lines = vec!["route these words these words".to_string()];
    let payload = encode_lines(&lines);
    // Every client is connected through to the loops and has had jobs
    // served by both shards before the census.
    let mut clients: Vec<IngressClient> = (0..CLIENTS)
        .map(|_| IngressClient::connect(router.local_addr()).unwrap())
        .collect();
    for (c, client) in clients.iter_mut().enumerate() {
        for j in 0..4u64 {
            match client
                .submit_and_wait((c as u64) << 32 | j, &payload, BACKOFF)
                .unwrap()
            {
                JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
                JobOutcome::Failed(m) => panic!("client {c} job {j}: {m}"),
            }
        }
    }
    assert_eq!(router.stats().connections, CLIENTS);
    let loops = default_event_loops();
    assert_eq!(router_threads("hqrouter-loop-"), loops);
    assert_eq!(router_threads("hqrouter-accept"), 1);
    assert_eq!(
        router_threads("hqrouter-"),
        loops + 1,
        "a router is its loops and its acceptor — no thread per client"
    );
    drop(clients);
    router.shutdown();
    assert_eq!(
        router_threads("hqrouter-"),
        0,
        "shutdown joins every thread"
    );
    drop(backends);
}

/// The router runs on the daemon's event-loop parts: its thread count
/// does not grow with its clients. At the parent commit a router ran an
/// acceptor plus a forwarder and a merger per client.
#[test]
#[cfg(target_os = "linux")]
fn router_threads_are_its_loops_and_acceptor() {
    run_helper_in_child("router_census_helper");
}

/// Child-process body for `teardown_right_after_the_first_reply_is_clean`.
#[test]
#[ignore = "helper: spawned by teardown_right_after_the_first_reply_is_clean"]
#[cfg(target_os = "linux")]
fn teardown_cycles_helper() {
    arm_watchdog();
    let lines = vec!["one job then gone".to_string()];
    let payload = encode_lines(&lines);
    for cycle in 0..200u64 {
        let (rt, server) = wordcount_server(2, IngressConfig::default());
        let mut client = IngressClient::connect(server.local_addr()).unwrap();
        match client.submit_and_wait(cycle, &payload, BACKOFF).unwrap() {
            JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
            JobOutcome::Failed(m) => panic!("cycle {cycle}: {m}"),
        }
        // The reply is out, but the job's completion callback may still
        // be returning on its worker — holding the last handles to the
        // server's state, the graph and, once `rt` below is gone, the
        // runtime. No quiesce on purpose: whichever thread drops last
        // must tear down cleanly, a worker included.
        let stats = server.shutdown();
        assert_eq!((stats.jobs_accepted, stats.jobs_completed), (1, 1));
        drop(rt);
    }
    assert!(
        poll_until(Duration::from_secs(30), || service_threads("").0 == 0),
        "{} service threads leaked over 200 bind/shutdown/drop cycles",
        service_threads("").0
    );
}

/// A client that tears the stack down right after its first reply races
/// the job's completion callback for the last handle to the runtime; the
/// loser may be a worker. Every cycle must reap every thread.
#[test]
#[cfg(target_os = "linux")]
fn teardown_right_after_the_first_reply_is_clean() {
    run_helper_in_child("teardown_cycles_helper");
}

// ---------------------------------------------------------------------------
// Journal corruption: CRC framing must reject bit rot on replay.
// ---------------------------------------------------------------------------

/// Writes a known journal (submits, results, a failure, an ack), returns
/// the clean replay for comparison.
fn journal_fixture(dir: &std::path::Path) -> pipelines::journal::Replay {
    let (journal, replay) = Journal::open(JournalConfig::at(dir)).expect("open");
    assert!(replay.jobs.is_empty());
    for id in 1..=8u64 {
        journal.append(RecordKind::Submit, id, format!("payload-{id}").as_bytes());
    }
    for id in 1..=6u64 {
        journal.append(RecordKind::Result, id, format!("result-{id}").as_bytes());
    }
    journal.append(
        RecordKind::Failed,
        7,
        &pipelines::journal::encode_failed_body(2, "stage panicked"),
    );
    journal.append_sync(RecordKind::Ack, 1, &[]);
    drop(journal);
    let clean = replay_dir(dir).expect("clean replay");
    assert_eq!(clean.jobs.len(), 8);
    assert_eq!(clean.corrupt_records, 0);
    assert_eq!(clean.jobs[&1].status, JobReplayStatus::Acked);
    assert_eq!(clean.jobs[&8].status, JobReplayStatus::Pending);
    assert_eq!(
        clean.jobs[&7].status,
        JobReplayStatus::Failed {
            attempts: 2,
            message: "stage panicked".to_string(),
        }
    );
    clean
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, ..ProptestConfig::default()
    })]

    /// Flip one byte anywhere in a journal segment: replay must never
    /// panic, never error, and — the CRC guarantee — never *alter* a
    /// record. Corruption may only drop records (and is visible as a
    /// shorter record count or a corrupt-record count), never change
    /// payloads, results, or failure messages.
    #[test]
    fn corrupted_journal_records_are_rejected_not_misread(
        offset_seed in any::<u64>(),
        flip in 1u8..255,
    ) {
        let dir = journal_temp_dir("crc");
        let clean = journal_fixture(&dir);
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| Some(e.ok()?.path()))
            .find(|p| p.extension().is_some_and(|x| x == "log"))
            .expect("one segment file");
        let mut bytes = std::fs::read(&segment).unwrap();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        bytes[offset] ^= flip; // flip != 0, so the byte really changes
        std::fs::write(&segment, &bytes).unwrap();

        let replayed = replay_dir(&dir).expect("replay over corruption");
        // Detected: either a record failed its CRC, or the scan stopped
        // early at a mis-framed length (fewer records).
        prop_assert!(
            replayed.corrupt_records >= 1 || replayed.records < clean.records,
            "byte flip at {offset} went unnoticed"
        );
        // Never misread: a dropped record may regress a job to an
        // *earlier* lifecycle stage (e.g. Acked back to Done), but any
        // byte that survives CRC must be exactly what was written.
        for (id, job) in &replayed.jobs {
            if !job.payload.is_empty() {
                prop_assert_eq!(&job.payload, &format!("payload-{id}").into_bytes());
            }
            match &job.status {
                JobReplayStatus::Done(bytes) => {
                    prop_assert_eq!(bytes, &format!("result-{id}").into_bytes());
                }
                JobReplayStatus::Failed { attempts, message } => {
                    prop_assert_eq!((*id, *attempts, message.as_str()), (7, 2, "stage panicked"));
                }
                JobReplayStatus::Pending | JobReplayStatus::Acked => {}
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Telemetry subscriptions (Subscribe / StatsEvent).
// ---------------------------------------------------------------------------

use pipelines::telemetry::TelemetrySnapshot;

/// Subscribes, consumes `want` StatsEvent frames, and checks each parses
/// and that monotone counters never regress between consecutive frames.
fn drive_subscription(want: usize) {
    let (rt, server) = wordcount_server(
        2,
        IngressConfig {
            event_loops: 2,
            ..IngressConfig::default()
        },
    );
    let addr = server.local_addr();
    let mut client = IngressClient::connect(addr).unwrap();
    client.subscribe(77, 5).unwrap();
    let mut prev: Option<TelemetrySnapshot> = None;
    for tick in 0..want {
        let frame = client.recv().expect("subscription tick");
        assert_eq!(
            (frame.kind, frame.req_id),
            (FrameKind::StatsEvent, 77),
            "tick {tick} must be a StatsEvent echoing the Subscribe req_id"
        );
        let text = String::from_utf8_lossy(&frame.body);
        let snap = TelemetrySnapshot::parse_text(&text).expect("tick parses");
        if let Some(prev) = &prev {
            assert!(
                snap.sched.tasks_executed >= prev.sched.tasks_executed,
                "tasks_executed regressed between ticks"
            );
            let (p, c) = (prev.ingress.unwrap(), snap.ingress.unwrap());
            assert!(c.stats_events >= p.stats_events, "stats_events regressed");
        }
        prev = Some(snap);
    }
    // Subscribe(0) cancels the stream and doubles as the one-shot the
    // typed stats() call uses; afterwards the connection still serves
    // ordinary request/response traffic.
    let snap = client.stats(78).unwrap();
    assert!(snap.ingress.unwrap().stats_events >= want as u64);
    let lines = vec!["after the stream".to_string()];
    match client
        .submit_and_wait(79, &encode_lines(&lines), BACKOFF)
        .unwrap()
    {
        JobOutcome::Result(bytes) => assert_eq!(bytes, expected_wordcount_bytes(&lines)),
        JobOutcome::Failed(m) => panic!("job failed: {m}"),
    }
    server.shutdown();
    rt.quiesce();
}

#[test]
fn subscription_streams_stats_events_in_event_mode() {
    drive_subscription(3);
}

/// The FIFO reply contract with a live subscription: on a subscribed
/// connection running real jobs, the reply substream (everything that is
/// not a StatsEvent) must be identical to the reply stream of an
/// unsubscribed control connection submitting the same jobs.
fn replies_unperturbed_by_ticks() {
    let (rt, server) = wordcount_server(
        2,
        IngressConfig {
            event_loops: 2,
            ..IngressConfig::default()
        },
    );
    let addr = server.local_addr();
    let payloads: Vec<Vec<u8>> = (0..8)
        .map(|j| {
            let lines: Vec<String> = (0..4).map(|k| format!("word{j} tick {k} tick")).collect();
            encode_lines(&lines).to_vec()
        })
        .collect();

    // Control: no subscription, replies arrive FIFO by req_id.
    let mut control = IngressClient::connect(addr).unwrap();
    let mut expected = Vec::new();
    for (j, p) in payloads.iter().enumerate() {
        match control.submit_and_wait(j as u64, p, BACKOFF).unwrap() {
            JobOutcome::Result(bytes) => expected.push((FrameKind::Result, j as u64, bytes)),
            JobOutcome::Failed(m) => panic!("control job {j} failed: {m}"),
        }
    }

    // Subscribed connection: 1 ms ticks racing the same submissions.
    let mut subbed = IngressClient::connect(addr).unwrap();
    subbed.subscribe(1000, 1).unwrap();
    for (j, p) in payloads.iter().enumerate() {
        subbed.submit(j as u64, p).unwrap();
        if j == 4 {
            // Let ticks pile into the stream mid-burst.
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let mut replies = Vec::new();
    let mut ticks = 0usize;
    while replies.len() < payloads.len() {
        let frame = subbed.recv().expect("reply or tick");
        match frame.kind {
            FrameKind::StatsEvent => {
                assert_eq!(frame.req_id, 1000);
                let text = String::from_utf8_lossy(&frame.body);
                TelemetrySnapshot::parse_text(&text).expect("interleaved tick parses");
                ticks += 1;
            }
            FrameKind::Retry => {
                let req_id = frame.req_id;
                let p = &payloads[req_id as usize];
                std::thread::sleep(BACKOFF);
                subbed.submit(req_id, p).unwrap();
            }
            kind => replies.push((kind, frame.req_id, frame.body)),
        }
    }
    assert!(ticks >= 1, "no StatsEvent interleaved with the replies");
    assert_eq!(
        replies, expected,
        "reply substream diverged from the unsubscribed control connection"
    );
    server.shutdown();
    rt.quiesce();
}

#[test]
fn subscription_ticks_never_corrupt_replies_in_event_mode() {
    replies_unperturbed_by_ticks();
}

/// Backpressure in event mode: a subscriber that stops reading while big
/// replies flood its connection must lose *ticks* (counted, not queued),
/// never replies — and the reply substream stays intact throughout.
#[test]
fn slow_subscriber_drops_ticks_not_replies() {
    let rt = Arc::new(Runtime::with_workers(2));
    // Tiny submits, huge replies: the graph expands each line 4096x, so
    // the client's writes never block while the server's write buffer
    // saturates. (Submitting big payloads instead would deadlock this
    // single-threaded test: over the write-buffer limit the server stops
    // *reading* the connection, and an unread 16 MiB submit burst would
    // wedge the client in write() before it ever starts reading.)
    let graph = Arc::new(
        GraphSpec::<String, String>::new()
            .map(|line: String| line.repeat(4096))
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    max_in_flight: 2,
                    ..ServiceConfig::default()
                },
            ),
    );
    let server = IngressServer::bind(
        "127.0.0.1:0",
        graph,
        Arc::new(EchoCodec),
        IngressConfig {
            event_loops: 2,
            write_buf_limit: 4 * 1024, // clamp floor: drops trip fast
            max_queued: 128,
            ..IngressConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let jobs = 64usize;
    // One 64-byte line in, one 256 KiB line out — 16 MiB of replies
    // total, far beyond any kernel socket buffering.
    let payload = encode_lines(&["x".repeat(64)]).to_vec();
    let expected_reply = encode_lines(&["x".repeat(64).repeat(4096)]).to_vec();
    let mut client = IngressClient::connect(addr).unwrap();
    client.subscribe(5000, 1).unwrap();
    for j in 0..jobs {
        client.submit(j as u64, &payload).unwrap();
    }
    // Do NOT read until the server provably dropped a tick under
    // backpressure (16 MiB of unread replies outgrows any kernel
    // buffering, and 1 ms ticks keep probing the full buffer).
    assert!(
        poll_until(Duration::from_secs(10), || server.stats().stats_dropped
            >= 1),
        "no tick was ever dropped: {:?}",
        server.stats()
    );
    let mut results = 0usize;
    while results < jobs {
        let frame = client.recv().expect("reply after backpressure");
        match frame.kind {
            FrameKind::StatsEvent => {
                let text = String::from_utf8_lossy(&frame.body);
                TelemetrySnapshot::parse_text(&text).expect("tick parses after backpressure");
            }
            FrameKind::Retry => {
                let req_id = frame.req_id;
                std::thread::sleep(BACKOFF);
                client.submit(req_id, &payload).unwrap();
            }
            FrameKind::Result => {
                assert_eq!(
                    frame.req_id, results as u64,
                    "replies must stay FIFO under tick backpressure"
                );
                assert_eq!(frame.body, expected_reply, "expanded reply corrupted");
                results += 1;
            }
            other => panic!("unexpected {other:?} frame"),
        }
    }
    let stats = server.shutdown();
    assert!(stats.stats_dropped >= 1, "drop counter lost at shutdown");
    assert_eq!(stats.jobs_accepted, stats.jobs_completed);
    rt.quiesce();
}

// ---------------------------------------------------------------------------
// Durable clients vs. dropped connections (DESIGN.md §6.4).
//
// A fake daemon built from a raw listener lets these tests drop the
// connection at the exact moment a real crash would: after the
// SubmitDurable is on the wire but before any reply. The regression they
// pin: `submit_durable_and_wait` used to surface that ECONNRESET as
// fatal, abandoning a job the server-side journal still owned.
// ---------------------------------------------------------------------------

/// Reads one client frame off a raw socket, however it was chunked.
fn read_client_frame(conn: &mut std::net::TcpStream) -> pipelines::ingress::Frame {
    use std::io::Read as _;
    let mut dec = FrameDecoder::new(1 << 20);
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = dec.next_frame().expect("well-formed client frame") {
            return frame;
        }
        let n = conn.read(&mut buf).expect("client readable");
        assert!(n > 0, "client hung up mid-frame");
        dec.extend(&buf[..n]);
    }
}

#[test]
fn durable_wait_survives_a_dropped_connection_via_query_resume() {
    use std::io::{Read as _, Write as _};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let addr = listener.local_addr().expect("addr");
    let result_bytes = b"journaled result".to_vec();
    let expected = result_bytes.clone();

    let daemon = std::thread::spawn(move || {
        // Connection 1: accept the durable submit, then vanish without a
        // reply — exactly what a crash mid-job looks like to the client.
        let (mut conn, _) = listener.accept().expect("conn 1");
        let frame = read_client_frame(&mut conn);
        assert_eq!((frame.kind, frame.req_id), (FrameKind::SubmitDurable, 42));
        drop(conn);
        // Connection 2: the client reconnects and resumes with Query.
        // Report the job still in flight once (forcing a re-query), then
        // Done with the journaled bytes.
        let (mut conn, _) = listener.accept().expect("conn 2");
        let frame = read_client_frame(&mut conn);
        assert_eq!((frame.kind, frame.req_id), (FrameKind::Query, 42));
        let mut reply = Vec::new();
        encode_frame(
            FrameKind::QueryOk,
            42,
            &[QueryStatus::InFlight as u8],
            &mut reply,
        );
        conn.write_all(&reply).expect("write InFlight");
        let frame = read_client_frame(&mut conn);
        assert_eq!((frame.kind, frame.req_id), (FrameKind::Query, 42));
        let mut body = vec![QueryStatus::Done as u8];
        body.extend_from_slice(&result_bytes);
        reply.clear();
        encode_frame(FrameKind::QueryOk, 42, &body, &mut reply);
        conn.write_all(&reply).expect("write Done");
        // Hold the connection open until the client finishes reading.
        let _ = conn.read(&mut [0u8; 16]);
    });

    let mut client = IngressClient::connect(addr).expect("connect");
    let outcome = client
        .submit_durable_and_wait(42, b"payload\n", BACKOFF)
        .expect("durable wait must survive the dropped connection");
    assert_eq!(outcome, JobOutcome::Result(expected));
    drop(client);
    daemon.join().expect("fake daemon");
}

#[test]
fn durable_wait_resubmits_when_resume_finds_no_trace() {
    use std::io::{Read as _, Write as _};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let addr = listener.local_addr().expect("addr");

    let daemon = std::thread::spawn(move || {
        // Connection 1: the submit never made it into the journal — drop
        // before replying, remember nothing.
        let (mut conn, _) = listener.accept().expect("conn 1");
        let frame = read_client_frame(&mut conn);
        assert_eq!((frame.kind, frame.req_id), (FrameKind::SubmitDurable, 7));
        let payload = frame.body.clone();
        drop(conn);
        // Connection 2: Query finds no trace → Unknown. The client must
        // resubmit the identical payload on the same connection.
        let (mut conn, _) = listener.accept().expect("conn 2");
        let frame = read_client_frame(&mut conn);
        assert_eq!((frame.kind, frame.req_id), (FrameKind::Query, 7));
        let mut reply = Vec::new();
        encode_frame(
            FrameKind::QueryOk,
            7,
            &[QueryStatus::Unknown as u8],
            &mut reply,
        );
        conn.write_all(&reply).expect("write Unknown");
        let frame = read_client_frame(&mut conn);
        assert_eq!(
            (frame.kind, frame.req_id, frame.body),
            (FrameKind::SubmitDurable, 7, payload),
            "resubmit must carry the original payload"
        );
        reply.clear();
        encode_frame(FrameKind::Result, 7, b"fresh run", &mut reply);
        conn.write_all(&reply).expect("write Result");
        let _ = conn.read(&mut [0u8; 16]);
    });

    let mut client = IngressClient::connect(addr).expect("connect");
    let outcome = client
        .submit_durable_and_wait(7, b"payload\n", BACKOFF)
        .expect("durable wait must resubmit after an Unknown resume");
    assert_eq!(outcome, JobOutcome::Result(b"fresh run".to_vec()));
    drop(client);
    daemon.join().expect("fake daemon");
}
