//! End-to-end router determinism over real sockets: the same batch
//! pushed through `hqrouter`'s engine over {1, 2, 3} backend daemons
//! must produce a per-connection reply stream **byte-identical** to the
//! single-daemon run (DESIGN.md §7.2).
//!
//! The backends here are in-process `IngressServer`s (real TCP, no
//! subprocess overhead); the SIGKILL fault path with the real `hqd`
//! binary lives in `tests/router_fault.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use pipelines::graph::ServiceConfig;
use pipelines::ingress::{
    encode_frame, FrameKind, IngressClient, IngressConfig, IngressServer, JobOutcome, QueryStatus,
    Router, RouterConfig,
};
use pipelines::journal::{Journal, JournalConfig};
use pipelines::partition::rendezvous_route;
use swan::Runtime;
use workloads::service::{job_lines, wordcount_spec, ServiceWorkloadConfig};
use workloads::wire::{encode_lines, expected_wordcount_bytes, WordcountCodec};

const JOBS: usize = 24;
const BACKOFF: Duration = Duration::from_micros(200);

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("hq-router-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wordcount_server(workers: usize) -> (Arc<Runtime>, IngressServer) {
    let rt = Arc::new(Runtime::with_workers(workers));
    let graph = Arc::new(wordcount_spec(3, 16).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 2,
            segment_capacity: 16,
            ..ServiceConfig::default()
        },
    ));
    let server = IngressServer::bind(
        "127.0.0.1:0",
        graph,
        Arc::new(WordcountCodec),
        IngressConfig::default(),
    )
    .expect("bind backend");
    (rt, server)
}

fn durable_server(dir: &Path) -> (Arc<Runtime>, IngressServer) {
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = Arc::new(wordcount_spec(3, 16).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 2,
            segment_capacity: 16,
            ..ServiceConfig::default()
        },
    ));
    let (journal, replay) =
        Journal::open(JournalConfig::at(dir.to_path_buf())).expect("open journal");
    let (server, _report) = IngressServer::bind_durable(
        "127.0.0.1:0",
        graph,
        Arc::new(WordcountCodec),
        IngressConfig::default(),
        journal,
        &replay,
    )
    .expect("bind durable backend");
    (rt, server)
}

/// Pipelines the whole batch on one connection and returns the raw
/// reply-stream bytes (every frame re-encoded through the canonical
/// encoder, so equal streams mean equal wire bytes).
fn reply_stream(addr: std::net::SocketAddr, cfg: &ServiceWorkloadConfig) -> Vec<u8> {
    let mut client = IngressClient::connect(addr).expect("connect");
    for j in 0..JOBS {
        client
            .submit(j as u64 + 1, &encode_lines(&job_lines(cfg, j)))
            .expect("pipelined submit");
    }
    let mut stream = Vec::new();
    for _ in 0..JOBS {
        let frame = client.recv().expect("reply");
        assert_eq!(frame.kind, FrameKind::Result, "req {}", frame.req_id);
        encode_frame(frame.kind, frame.req_id, &frame.body, &mut stream);
    }
    stream
}

#[test]
fn routed_reply_streams_are_byte_identical_to_single_daemon() {
    let cfg = ServiceWorkloadConfig::small();

    // The ground truth: one daemon serving the whole batch — whose
    // replies are themselves the serial elision's bytes, checked first.
    let (_rt, single) = wordcount_server(2);
    let baseline = reply_stream(single.local_addr(), &cfg);
    single.shutdown();
    let mut expected = Vec::new();
    for j in 0..JOBS {
        encode_frame(
            FrameKind::Result,
            j as u64 + 1,
            &expected_wordcount_bytes(&job_lines(&cfg, j)),
            &mut expected,
        );
    }
    assert_eq!(
        baseline, expected,
        "single-daemon stream must be the serial elision"
    );

    // The sweep: {1,2,3} shards × varied worker counts.
    for backends in [1usize, 2, 3] {
        let mut keep = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..backends {
            let (rt, server) = wordcount_server(1 + i);
            addrs.push(server.local_addr().to_string());
            keep.push((rt, server));
        }
        let router = Router::bind("127.0.0.1:0", RouterConfig::to(addrs)).expect("bind router");
        let routed = reply_stream(router.local_addr(), &cfg);
        assert_eq!(
            routed, baseline,
            "reply stream diverged through {backends} backend(s)"
        );
        let stats = router.shutdown();
        assert_eq!(
            (
                stats.retries_synthesized,
                stats.errors_synthesized,
                stats.shard_failures
            ),
            (0, 0, 0),
            "a healthy fleet must never need synthesized replies"
        );
        assert_eq!(stats.frames_in, JOBS as u64);
        assert_eq!(stats.replies_out, JOBS as u64);
    }
}

#[test]
fn durable_jobs_route_ack_and_query_through_the_router() {
    let cfg = ServiceWorkloadConfig::small();
    let dirs = [temp_dir("durable-a"), temp_dir("durable-b")];
    let a = durable_server(&dirs[0]);
    let b = durable_server(&dirs[1]);
    let addrs = vec![a.1.local_addr().to_string(), b.1.local_addr().to_string()];
    let router = Router::bind("127.0.0.1:0", RouterConfig::to(addrs)).expect("bind router");

    // The id range must actually exercise both shards, or this test
    // would silently degrade to single-daemon coverage.
    let ids: Vec<u64> = (1..=8).collect();
    let shards: Vec<usize> = ids.iter().map(|&id| rendezvous_route(id, 2)).collect();
    assert!(
        shards.contains(&0) && shards.contains(&1),
        "id range covers both shards"
    );

    let mut client = IngressClient::connect(router.local_addr()).expect("connect");
    for (i, &id) in ids.iter().enumerate() {
        let payload = encode_lines(&job_lines(&cfg, i));
        let outcome = client
            .submit_durable_and_wait(id, &payload, BACKOFF)
            .expect("durable submit");
        assert_eq!(
            outcome,
            JobOutcome::Result(expected_wordcount_bytes(&job_lines(&cfg, i))),
            "durable job {id}"
        );
    }
    // Query lands on the owning shard: every id reports Done with the
    // journaled bytes, then Acked after the (also routed) ack.
    for (i, &id) in ids.iter().enumerate() {
        let (status, body) = client.query(id).expect("query");
        assert_eq!(status, QueryStatus::Done);
        assert_eq!(body, expected_wordcount_bytes(&job_lines(&cfg, i)));
    }
    for &id in &ids {
        client.ack(id).expect("ack");
    }
    for &id in &ids {
        let (status, body) = client.query(id).expect("query after ack");
        assert_eq!((status, body.len()), (QueryStatus::Acked, 0), "id {id}");
    }
    let (status, _) = client.query(0xDEAD_BEEF).expect("query unknown");
    assert_eq!(status, QueryStatus::Unknown);

    drop(client);
    router.shutdown();
    drop(a);
    drop(b);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// An ack of a bogus id makes the backend push an *unsolicited* Error
/// frame (acks are fire-and-forget). The merger must recognize it as the
/// ack's out-of-band reply — forwarding it in the exact slot a single
/// daemon would — rather than misattribute it to the next request.
#[test]
fn stray_ack_errors_do_not_desynchronize_the_merge() {
    let cfg = ServiceWorkloadConfig::small();
    let dir = temp_dir("ackerr");
    let backend = durable_server(&dir);
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig::to(vec![backend.1.local_addr().to_string()]),
    )
    .expect("bind router");

    let mut client = IngressClient::connect(router.local_addr()).expect("connect");
    let payload0 = encode_lines(&job_lines(&cfg, 0));
    let outcome = client
        .submit_durable_and_wait(1, &payload0, BACKOFF)
        .expect("first job");
    assert_eq!(
        outcome,
        JobOutcome::Result(expected_wordcount_bytes(&job_lines(&cfg, 0)))
    );

    client.ack(999).expect("send bogus ack"); // unknown id → Error reply
    let payload1 = encode_lines(&job_lines(&cfg, 1));
    client.submit_durable(2, &payload1).expect("second job");

    // Single-daemon order: the ack error's reply slot precedes the
    // submit's. The router must reproduce exactly that.
    let err = client.recv().expect("ack error");
    assert_eq!((err.kind, err.req_id), (FrameKind::Error, 999));
    assert!(
        String::from_utf8_lossy(&err.body).contains("unknown durable job"),
        "unexpected error body: {}",
        String::from_utf8_lossy(&err.body)
    );
    let result = client.recv().expect("second job result");
    assert_eq!((result.kind, result.req_id), (FrameKind::Result, 2));
    assert_eq!(result.body, expected_wordcount_bytes(&job_lines(&cfg, 1)));

    drop(client);
    router.shutdown();
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
}
