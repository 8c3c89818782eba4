//! Ablation studies for the design choices DESIGN.md calls out (beyond the
//! paper's own figures):
//!
//! 1. queue segment capacity sweep, per item and in 256-value slices
//!    (§5.1 says programmers should tune it; DESIGN.md §2.1 quotes this
//!    table);
//! 2. drained-segment recycling on/off (§3.2's zero-allocation claim);
//! 3. slice API vs per-element push/pop (§5.2);
//! 4. pthreads thread-count tuning sensitivity (the scale-free argument:
//!    mis-tuned pthreads loses performance, hyperqueues have no knob);
//! 5. graph fan-out degree sweep on the logstream DAG workload (how much
//!    the `pipelines::graph` split/merge machinery buys over the linear
//!    chain, and where the distributor/merge overhead bites);
//! 6. partition phase (DESIGN.md §7): the deterministic stage
//!    partitioner's quality on the real wordcount graph (cut, balance,
//!    refinement rounds, cross-group steals under pinning) plus the
//!    routing overhead of `hqrouter`-style sharding — the same closed
//!    loop against one direct daemon vs a `Router` over two in-process
//!    backends, byte-identity checked — written to
//!    `BENCH_partition.json` for the gate.
//!
//! ```text
//! cargo run --release -p bench --bin ablations [--scale small] \
//!     [--partition-only 1] [--out BENCH_….json]
//! ```
//!
//! `--partition-only 1` runs just that ablation (what CI's bench job
//! uses so the gate gets a fresh record without paying for the full
//! sweep).

use std::sync::Arc;
use std::time::Instant;

use hyperqueue::{Hyperqueue, QueueStats, DEFAULT_SEGMENT_CAPACITY};
use pipelines::graph::{Admission, ServiceConfig};
use pipelines::ingress::{
    IngressClient, IngressConfig, IngressServer, JobOutcome, Router, RouterConfig,
};
use swan::{Runtime, RuntimeConfig};
use workloads::ferret::{run_hyperqueue, run_pthread, run_serial, FerretConfig, PthreadTuning};
use workloads::logstream;
use workloads::service::{job_lines, percentile, wordcount_spec, ServiceWorkloadConfig};
use workloads::util::fnv1a;
use workloads::wire::{encode_lines, WordcountCodec};

#[derive(Clone, Copy, PartialEq)]
enum Io {
    /// One `push`/`pop` call per element.
    PerItem,
    /// Explicit write/read slices (§5.2).
    Slices,
    /// The batched convenience API (`push_iter`/`for_each_batch`).
    Batched,
}

fn pipe_elems(
    rt: &Runtime,
    cap: usize,
    recycle: bool,
    items: u64,
    io: Io,
) -> (std::time::Duration, QueueStats) {
    let mut stats = QueueStats::default();
    let stats_ref = &mut stats;
    let (d, _) = bench::time(|| {
        rt.scope(move |s| {
            let q = Hyperqueue::<u64>::with_config(s, cap, recycle);
            s.spawn((q.pushdep(),), move |_, (mut p,)| match io {
                Io::PerItem => {
                    for i in 0..items {
                        p.push(i);
                    }
                }
                Io::Slices => {
                    let mut i = 0u64;
                    while i < items {
                        let mut ws = p.write_slice(256);
                        let n = ws.capacity().min((items - i) as usize);
                        for _ in 0..n {
                            ws.push(i);
                            i += 1;
                        }
                    }
                }
                Io::Batched => {
                    p.push_iter(0..items);
                }
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                let mut sum = 0u64;
                match io {
                    Io::PerItem => {
                        while !c.empty() {
                            sum += c.pop();
                        }
                    }
                    Io::Slices => {
                        while let Some(rs) = c.read_slice(256) {
                            sum += rs.as_slice().iter().sum::<u64>();
                        }
                    }
                    Io::Batched => {
                        c.for_each_batch(256, |vals| sum += vals.iter().sum::<u64>());
                    }
                }
                assert_eq!(sum, items * (items - 1) / 2);
            });
            s.sync();
            *stats_ref = q.stats();
        });
    });
    (d, stats)
}

/// One closed-loop wordcount client against `addr`: returns (sorted
/// latencies µs, per-job response hashes) — the hashes are the
/// byte-identity witness between the direct and routed phases.
fn wordcount_loop(
    addr: std::net::SocketAddr,
    cfg: &ServiceWorkloadConfig,
    jobs: usize,
) -> (Vec<f64>, Vec<u64>) {
    let mut client = IngressClient::connect(addr).expect("connect closed-loop client");
    let mut latencies = Vec::with_capacity(jobs);
    let mut hashes = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let payload = encode_lines(&job_lines(cfg, j));
        let t = Instant::now();
        match client.submit_and_wait(j as u64, &payload, std::time::Duration::from_micros(200)) {
            Ok(JobOutcome::Result(bytes)) => {
                latencies.push(t.elapsed().as_secs_f64() * 1e6);
                hashes.push(fnv1a(&bytes));
            }
            other => panic!("ablation 6: job {j} did not produce a result: {other:?}"),
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    (latencies, hashes)
}

/// A loopback wordcount ingress daemon for ablation 6; the caller owns
/// shutdown order (server first, then runtime quiesce).
fn wordcount_daemon(cfg: &ServiceWorkloadConfig) -> (IngressServer, Arc<Runtime>) {
    let rt = Arc::new(Runtime::with_workers(2));
    let graph = Arc::new(wordcount_spec(cfg.degree, cfg.window).compile(
        Arc::clone(&rt),
        ServiceConfig {
            max_in_flight: cfg.max_in_flight,
            segment_capacity: cfg.segment_capacity,
            io_batch: cfg.io_batch,
            ..ServiceConfig::default()
        },
    ));
    let server = IngressServer::bind(
        "127.0.0.1:0",
        graph,
        Arc::new(WordcountCodec),
        IngressConfig::default(),
    )
    .expect("bind loopback ingress");
    (server, rt)
}

/// Ablation 6: the deterministic partition's quality on the real
/// wordcount graph, and the routing overhead of sharding — direct
/// daemon vs a `Router` over two backends, byte-identity checked.
/// Writes the `BENCH_partition.json` perf record (gated by bench-check).
fn partition_sweep(args: &bench::Args) {
    let jobs = if args.is_small() { 150 } else { 600 };
    let cfg = ServiceWorkloadConfig::bench(jobs);
    println!("\nAblation 6: deterministic partition + routed vs direct ingress ({jobs} jobs)");

    // --- Partition quality: pin the wordcount stages to 2 worker groups,
    // run traffic, then rebalance from the measured edge counters.
    let rt = Arc::new(Runtime::new(
        RuntimeConfig::new().workers(2).worker_groups(2),
    ));
    let graph = wordcount_spec(cfg.degree, cfg.window).compile(
        Arc::clone(&rt),
        ServiceConfig {
            partitions: 2,
            segment_capacity: cfg.segment_capacity,
            ..ServiceConfig::default()
        },
    );
    for j in 0..jobs.min(64) {
        graph
            .submit(job_lines(&cfg, j), Admission::Unbounded)
            .expect_accepted()
            .join();
    }
    let part = graph
        .rebalance()
        .expect("partition telemetry present when partitions >= 2");
    let cross_group_steals = rt.metrics().cross_group_steals;
    println!(
        "  partition: parts {}  cut {}  max part weight {}  rounds {}  \
         cross-group steals {}",
        part.parts, part.cut, part.max_part_weight, part.rounds, cross_group_steals,
    );
    drop(graph);
    rt.quiesce();

    // --- Routing overhead: the same closed loop direct vs through a
    // Router over two backends. Same job ids ⇒ the response streams must
    // hash identically (sharding is invisible at the byte level).
    let (direct_srv, direct_rt) = wordcount_daemon(&cfg);
    let (direct_lat, direct_hashes) = wordcount_loop(direct_srv.local_addr(), &cfg, jobs);
    direct_srv.shutdown();
    direct_rt.quiesce();

    let (a_srv, a_rt) = wordcount_daemon(&cfg);
    let (b_srv, b_rt) = wordcount_daemon(&cfg);
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig::to([
            a_srv.local_addr().to_string(),
            b_srv.local_addr().to_string(),
        ]),
    )
    .expect("bind router");
    let (routed_lat, routed_hashes) = wordcount_loop(router.local_addr(), &cfg, jobs);
    let rstats = router.shutdown();
    a_srv.shutdown();
    b_srv.shutdown();
    a_rt.quiesce();
    b_rt.quiesce();
    assert_eq!(
        direct_hashes, routed_hashes,
        "ablation 6: routed responses diverged from the direct daemon"
    );
    assert_eq!(rstats.shard_failures, 0, "backends must stay healthy");

    let direct_p50 = percentile(&direct_lat, 50.0);
    let routed_p50 = percentile(&routed_lat, 50.0);
    let overhead_pct = (routed_p50 - direct_p50) / direct_p50 * 100.0;
    println!(
        "  routing: direct p50 {direct_p50:.0}µs  routed p50 {routed_p50:.0}µs \
         ({overhead_pct:+.1}%), responses byte-identical ✓"
    );

    let out_path = args.get("out").unwrap_or("BENCH_partition.json");
    let json = format!(
        "{{\n  \"bench\": \"partition\",\n  \"jobs\": {jobs},\n  \"machine_cores\": {},\n  \
         \"median_us\": {{\n    \"wordcount_p50_direct\": {direct_p50:.1},\n    \
         \"wordcount_p50_routed\": {routed_p50:.1}\n  }},\n  \
         \"routing_overhead_pct\": {overhead_pct:.2},\n  \
         \"byte_identical_direct_vs_routed\": true,\n  \
         \"partition\": {{\n    \"parts\": {},\n    \"cut\": {},\n    \
         \"max_part_weight\": {},\n    \"rounds\": {},\n    \
         \"cross_group_steals\": {}\n  }}\n}}\n",
        bench::machine_cores(),
        part.parts,
        part.cut,
        part.max_part_weight,
        part.rounds,
        cross_group_steals,
    );
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!(
        "
{out_path}:
{json}"
    );
}

fn main() {
    let args = bench::Args::parse();
    if args.get("partition-only").is_some() {
        partition_sweep(&args);
        return;
    }
    let items: u64 = if args.is_small() {
        2_000_000
    } else {
        20_000_000
    };
    let rt = Runtime::with_workers(2);

    println!("Ablation 1: segment capacity sweep ({items} u64 items, 1 producer + 1 consumer)");
    println!(
        "{:<10} {:>14} {:>16} {:>18} {:>12}",
        "capacity", "bytes/segment", "push/pop (ms)", "256-slices (ms)", "locks/kitem"
    );
    // Whether the consumer catches up with the producer (and blocks) or
    // trails it differs from run to run; each cell is the median of five.
    let median_of_5 = |cap: usize, io: Io| {
        let mut runs: Vec<_> = (0..5)
            .map(|_| pipe_elems(&rt, cap, true, items, io))
            .collect();
        runs.sort_by_key(|(d, _)| *d);
        runs.swap_remove(2)
    };
    for cap in [16usize, 64, 256, 1024, 4096, 16384] {
        let (per_item, _) = median_of_5(cap, Io::PerItem);
        let (slices, st) = median_of_5(cap, Io::Slices);
        println!(
            "{:<10} {:>14} {:>16.1} {:>18.1} {:>12.2}",
            cap,
            cap * std::mem::size_of::<u64>(),
            per_item.as_secs_f64() * 1e3,
            slices.as_secs_f64() * 1e3,
            st.lock_acquisitions as f64 / (items as f64 / 1e3)
        );
    }

    println!("\nAblation 2: drained-segment recycling (capacity {DEFAULT_SEGMENT_CAPACITY})");
    for (label, recycle) in [("recycle on", true), ("recycle off", false)] {
        let (d, _) = pipe_elems(&rt, DEFAULT_SEGMENT_CAPACITY, recycle, items, Io::PerItem);
        println!(
            "{:<12} {:>10.1} ms {:>10.1} Melems/s",
            label,
            d.as_secs_f64() * 1e3,
            items as f64 / d.as_secs_f64() / 1e6
        );
    }

    println!("\nAblation 3: per-element ops vs slices vs batched (§5.2, capacity 1024)");
    println!(
        "{:<12} {:>10} {:>12}   {:>6} {:>8} {:>10}",
        "mode", "time(ms)", "Melems/s", "locks", "advances", "suppressed"
    );
    for (label, io) in [
        ("push/pop", Io::PerItem),
        ("slices", Io::Slices),
        ("batched", Io::Batched),
    ] {
        let (d, st) = pipe_elems(&rt, 1024, true, items, io);
        println!(
            "{:<12} {:>10.1} {:>12.1}   {:>6} {:>8} {:>10}",
            label,
            d.as_secs_f64() * 1e3,
            items as f64 / d.as_secs_f64() / 1e6,
            st.lock_acquisitions,
            st.chain_advances,
            st.notifies_suppressed
        );
    }

    println!("\nAblation 4: pthreads tuning sensitivity vs scale-free hyperqueue (ferret)");
    let cores = bench::machine_cores().min(8);
    let cfg = FerretConfig::bench(if args.is_small() { 150 } else { 600 });
    let (serial_time, _) = bench::time(|| run_serial(&cfg));
    let tunings: Vec<(String, PthreadTuning)> = vec![
        (
            "1 thread/stage".into(),
            PthreadTuning::one_thread_per_stage(),
        ),
        (
            format!("tuned for {} cores", cores / 2),
            PthreadTuning::oversubscribed(cores / 2),
        ),
        (
            format!("tuned for {cores} cores"),
            PthreadTuning::oversubscribed(cores),
        ),
        (
            format!("tuned for {} cores", 4 * cores),
            PthreadTuning::oversubscribed(4 * cores),
        ),
    ];
    println!("machine restricted to {cores} cores for this ablation");
    for (label, tuning) in &tunings {
        let (d, _) = bench::time(|| run_pthread(&cfg, tuning));
        println!(
            "  pthreads {:<22} speedup {:>5.2}",
            label,
            serial_time.as_secs_f64() / d.as_secs_f64()
        );
    }
    let rt = Runtime::with_workers(cores);
    let (d, _) = bench::time(|| run_hyperqueue(&cfg, &rt));
    println!(
        "  hyperqueue (no knob)          speedup {:>5.2}",
        serial_time.as_secs_f64() / d.as_secs_f64()
    );

    println!("\nAblation 5: graph fan-out degree (logstream DAG workload, {cores} workers)");
    let lcfg = logstream::LogConfig::bench(if args.is_small() { 30_000 } else { 150_000 });
    let lines = logstream::corpus(&lcfg);
    let (lserial, _) = bench::time(|| logstream::run_serial(&lcfg, &lines));
    let (dlin, linear_out) = bench::time(|| logstream::run_linear(&lcfg, &lines, &rt));
    println!(
        "  {:<18} {:>9.1} ms  speedup vs serial {:>5.2}",
        "linear chain",
        dlin.as_secs_f64() * 1e3,
        lserial.as_secs_f64() / dlin.as_secs_f64()
    );
    for degree in [1usize, 2, 4, 8] {
        let (d, out) = bench::time(|| logstream::run_graph(&lcfg, &lines, &rt, degree));
        assert_eq!(
            out.checksum(),
            linear_out.checksum(),
            "fan-out degree {degree} diverged"
        );
        println!(
            "  {:<18} {:>9.1} ms  speedup vs serial {:>5.2}   vs linear {:>5.2}",
            format!("fan-out degree {degree}"),
            d.as_secs_f64() * 1e3,
            lserial.as_secs_f64() / d.as_secs_f64(),
            dlin.as_secs_f64() / d.as_secs_f64()
        );
    }

    partition_sweep(&args);
}
