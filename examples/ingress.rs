//! Network ingress round trip: speak the framed protocol with
//! `IngressClient`, check every reply byte for byte against its serial
//! elision, and read a stats frame back.
//!
//! Run with: `cargo run --release --example ingress`
//!
//! That binds its own `IngressServer` on a loopback socket, fully
//! offline. With `-- --addr host:port` it binds nothing and runs the same
//! round trip against a live `hqd --workload wordcount`, or an `hqrouter`
//! in front of several: job ids are fixed, so the router's rendezvous
//! hash sends the same jobs to the same shards on every run, and with
//! two or three shards each serves some.

use std::sync::Arc;
use std::time::Duration;

use pipelines::graph::ServiceConfig;
use pipelines::ingress::{IngressClient, IngressConfig, IngressServer, JobOutcome};
use swan::Runtime;
use workloads::service::{job_lines, wordcount_spec, ServiceWorkloadConfig};
use workloads::wire::{encode_lines, expected_wordcount_bytes, WordcountCodec};

/// Jobs the round trip submits, with ids `0..JOBS`.
const JOBS: usize = 16;

/// A persistent wordcount graph behind a TCP front door on loopback.
fn serve_locally() -> (Arc<Runtime>, IngressServer) {
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = Arc::new(wordcount_spec(3, 16).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: 2,
            ..ServiceConfig::default()
        },
    ));
    let server = IngressServer::bind(
        "127.0.0.1:0", // port 0: the OS picks; real deployments pin one
        graph,
        Arc::new(WordcountCodec),
        IngressConfig::default(),
    )
    .expect("bind loopback");
    (rt, server)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let remote = match args.as_slice() {
        [] => None,
        [flag, addr] if flag == "--addr" => Some(addr.clone()),
        _ => {
            eprintln!("usage: ingress [--addr host:port]");
            std::process::exit(2);
        }
    };

    let (addr, local) = match remote {
        Some(addr) => (addr, None),
        None => {
            let (rt, server) = serve_locally();
            println!("serving wordcount on {}", server.local_addr());
            (server.local_addr().to_string(), Some((rt, server)))
        }
    };

    // Client side: submit the jobs and check every response against its
    // serial elision — the bytes must match exactly.
    let cfg = ServiceWorkloadConfig::small();
    let mut client = IngressClient::connect(addr.as_str()).expect("connect");
    for j in 0..JOBS {
        let lines = job_lines(&cfg, j);
        let outcome = client
            .submit_and_wait(j as u64, &encode_lines(&lines), Duration::from_micros(200))
            .expect("transport");
        match outcome {
            JobOutcome::Result(bytes) => {
                assert_eq!(
                    bytes,
                    expected_wordcount_bytes(&lines),
                    "job {j} diverged from its serial elision"
                );
                let text = String::from_utf8(bytes).expect("utf8");
                let first = text.lines().next().unwrap_or("<empty>");
                println!(
                    "job {j}: {} distinct words, first: {first}",
                    text.lines().count()
                );
            }
            JobOutcome::Failed(msg) => panic!("job {j} failed: {msg}"),
        }
    }
    println!("{JOBS} replies from {addr} matched their serial elision");

    // The protocol also exposes a typed telemetry snapshot (through a
    // router, the first shard's).
    let t = client.stats(99).expect("stats");
    println!(
        "server telemetry v{}: {} jobs accepted, {} in flight, {} edges",
        t.version,
        t.ingress.map_or(0, |i| i.jobs_accepted),
        t.admission.in_flight,
        t.storage.edges,
    );

    // Graceful teardown of our own server: drain accepted jobs, then
    // quiesce the runtime.
    if let Some((rt, server)) = local {
        let stats = server.shutdown();
        rt.quiesce();
        println!(
            "drained: {} jobs accepted, {} completed, {} bytes out",
            stats.jobs_accepted, stats.jobs_completed, stats.bytes_out
        );
    }
}
