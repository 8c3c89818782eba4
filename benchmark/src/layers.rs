//! Per-layer metrics of a traced run: the ones read off the workload's
//! own window ([`WindowCounters`]) and the layer-isolating probes, which
//! run once each after the window and are defined the same way on every
//! workload. README.md maps each to the end-to-end metric it should move.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperqueue::Hyperqueue;
use pipelines::ingress::{
    encode_frame, FrameDecoder, FrameKind, IngressClient, JobOutcome, DEFAULT_MAX_FRAME_LEN,
};
use pipelines::journal::replay_dir;
use pipelines::{
    partition, Admission, Hyperedge, Hypergraph, Journal, JournalConfig, PartitionConfig,
    RecordKind, TelemetrySnapshot,
};
use swan::{MetricsSnapshot, Runtime};
use workloads::ferret::{run_hyperqueue, run_pthread, run_serial, run_tbb, PthreadTuning};
use workloads::service::{build_wordcount_service, wordcount_serial};
use workloads::util::SplitMix64;
use workloads::wire::encode_lines;
use workloads::{bzip2, dedup};

use crate::measure::{median, metric, time, Metric};
use crate::service::{Daemon, JobPool, Stack, RETRY_BACKOFF};
use crate::trace::SpanLog;
use crate::Ctx;

/// What a traced window's counters and spans say, per subject op. A layer
/// the workload bypasses leaves its fields at zero.
#[derive(Default)]
pub struct WindowCounters {
    /// Subject ops the counter deltas cover.
    pub ops: u64,
    pub tasks: u64,
    pub parks: u64,
    pub steals: u64,
    pub steal_failures: u64,
    pub high_water_in_flight: u64,
    pub loop_wakeups: u64,
    pub ingress_bytes: u64,
    pub ingress_retries: u64,
    pub journal_bytes: u64,
    pub router_retries: u64,
    pub router_reconnects: u64,
    /// Max ÷ mean jobs per shard.
    pub shard_skew: f64,
    /// The generator's own cost per op, and its share of the window.
    pub encode_us: f64,
    pub verify_us: f64,
    pub busy_share: f64,
    /// Share of the generator threads' time spent recording spans — the
    /// throughput a closed loop loses to tracing, in percent.
    pub overhead_pct: f64,
}

impl WindowCounters {
    /// Counters of a window whose only runtime is the one `before` and
    /// `after` were read from, covering `ops` subject ops.
    pub fn of_runtime(ops: u64, before: &MetricsSnapshot, after: &MetricsSnapshot) -> Self {
        WindowCounters {
            ops,
            tasks: after.tasks_executed - before.tasks_executed,
            parks: after.parks - before.parks,
            steals: after.steals - before.steals,
            steal_failures: after.steal_failures - before.steal_failures,
            ..WindowCounters::default()
        }
    }
}

pub fn window_metrics(w: &WindowCounters) -> Vec<Metric> {
    let per_op = |x: u64| x as f64 / w.ops.max(1) as f64;
    let per_task = |x: u64| x as f64 / w.tasks.max(1) as f64;
    vec![
        metric("swan.tasks_per_op", per_op(w.tasks), "count"),
        metric("swan.parks_per_op", per_op(w.parks), "count"),
        metric("swan.steals_per_ktask", per_task(w.steals) * 1e3, "count"),
        metric(
            "swan.steal_failures_per_task",
            per_task(w.steal_failures),
            "count",
        ),
        metric(
            "swan.jobs_high_water_in_flight",
            w.high_water_in_flight as f64,
            "count",
        ),
        metric(
            "pipelines.ingress.loop_wakeups_per_job",
            per_op(w.loop_wakeups),
            "count",
        ),
        metric(
            "pipelines.ingress.bytes_per_job",
            per_op(w.ingress_bytes),
            "B",
        ),
        metric(
            "pipelines.ingress.retries_per_kjob",
            per_op(w.ingress_retries) * 1e3,
            "count",
        ),
        metric(
            "pipelines.journal.bytes_per_job",
            per_op(w.journal_bytes),
            "B",
        ),
        metric("pipelines.router.shard_skew", w.shard_skew, "ratio"),
        metric(
            "pipelines.router.retries_synthesized",
            w.router_retries as f64,
            "count",
        ),
        metric(
            "pipelines.router.reconnects",
            w.router_reconnects as f64,
            "count",
        ),
        metric("loadgen.encode_us", w.encode_us, "us"),
        metric("loadgen.verify_us", w.verify_us, "us"),
        metric("loadgen.busy_share", w.busy_share, "ratio"),
        metric("trace.overhead_pct", w.overhead_pct, "%"),
    ]
}

/// Scheduler counters as `key value` lines (the telemetry encoding).
pub fn sched_counters(sched: &MetricsSnapshot) -> String {
    TelemetrySnapshot {
        sched: *sched,
        ..TelemetrySnapshot::new()
    }
    .encode_text()
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

// ---------------------------------------------------------------------------
// Probes.
// ---------------------------------------------------------------------------

/// Runs every layer-isolating probe once and returns its metrics.
pub fn probes(ctx: &Ctx, logs: &mut Vec<SpanLog>) -> Vec<Metric> {
    let mut log = SpanLog::new(ctx.epoch, 1 << 14);
    let pool = JobPool::generate(ctx.seed);
    let mut out = Vec::new();
    out.extend(hyperqueue_probe(ctx));
    out.extend(swan_probe(ctx));
    out.extend(service_probe(ctx, &pool, &mut log));
    out.extend(ingress_probe(ctx, &pool));
    out.extend(journal_probe(ctx, &pool, &mut log));
    out.extend(router_probe(ctx, &pool));
    out.push(partition_probe(ctx));
    out.extend(paper_probe(ctx));
    logs.push(log);
    out
}

const QUEUE_ITEMS: u64 = 1_000_000;
const QUEUE_REPS: usize = 5;

fn hyperqueue_probe(ctx: &Ctx) -> Vec<Metric> {
    let rt = Runtime::with_workers(ctx.workers);
    let burst = hyperqueue::DEFAULT_SEGMENT_CAPACITY / 2;
    // Owner-only ping-pong inside one segment: the lock-free fast path.
    let scalar: Vec<f64> = (0..QUEUE_REPS)
        .map(|_| {
            time(|| {
                rt.scope(|s| {
                    let q = Hyperqueue::<u64>::new(s);
                    let mut sum = 0u64;
                    for i in 0..QUEUE_ITEMS / burst as u64 {
                        for v in 0..burst as u64 {
                            q.push(i + v);
                        }
                        for _ in 0..burst {
                            sum = sum.wrapping_add(q.pop());
                        }
                    }
                    std::hint::black_box(sum);
                })
            })
            .0
        })
        .collect();
    let batched: Vec<f64> = (0..QUEUE_REPS)
        .map(|_| {
            time(|| {
                rt.scope(|s| {
                    let q = Hyperqueue::<u64>::new(s);
                    let buf: Vec<u64> = (0..burst as u64).collect();
                    let mut sum = 0u64;
                    for _ in 0..QUEUE_ITEMS / burst as u64 {
                        q.push_slice(&buf);
                        let mut got = 0;
                        while got < burst {
                            let slice = q.read_slice(burst - got).expect("pushed above");
                            got += slice.len();
                            sum = sum.wrapping_add(slice.as_slice().iter().sum::<u64>());
                        }
                    }
                    std::hint::black_box(sum);
                })
            })
            .0
        })
        .collect();
    // Producer and consumer tasks on different workers, scalar calls.
    let mut stats = hyperqueue::QueueStats::default();
    let cross: Vec<f64> = (0..QUEUE_REPS)
        .map(|_| {
            time(|| {
                rt.scope(|s| {
                    let q = Hyperqueue::<u64>::new(s);
                    s.spawn((q.pushdep(),), |_, (mut push,)| {
                        for i in 0..QUEUE_ITEMS {
                            push.push(i);
                        }
                    });
                    s.spawn((q.popdep(),), |_, (mut pop,)| {
                        let mut sum = 0u64;
                        while !pop.empty() {
                            sum = sum.wrapping_add(pop.pop());
                        }
                        assert_eq!(sum, QUEUE_ITEMS * (QUEUE_ITEMS - 1) / 2);
                    });
                    s.sync();
                    stats = q.stats();
                })
            })
            .0
        })
        .collect();
    let ns_per_item = |v: &[f64]| median(v) * 1e9 / QUEUE_ITEMS as f64;
    let kitems = QUEUE_ITEMS as f64 / 1e3;
    // Wakeup opportunities of the scalar path: one per segment the
    // producer fills, plus the two tasks' completions.
    let publications = QUEUE_ITEMS as f64 / hyperqueue::DEFAULT_SEGMENT_CAPACITY as f64 + 2.0;
    vec![
        metric("hyperqueue.push_pop_ns", ns_per_item(&scalar), "ns"),
        metric(
            "hyperqueue.batched_ns_per_item",
            ns_per_item(&batched),
            "ns",
        ),
        metric(
            "hyperqueue.cross_thread_ns_per_item",
            ns_per_item(&cross),
            "ns",
        ),
        metric(
            "hyperqueue.lock_acquisitions_per_kitem",
            stats.lock_acquisitions as f64 / kitems,
            "count",
        ),
        metric(
            "hyperqueue.chain_advances_per_kitem",
            stats.chain_advances as f64 / kitems,
            "count",
        ),
        metric(
            "hyperqueue.notifies_suppressed_share",
            stats.notifies_suppressed as f64 / publications,
            "ratio",
        ),
    ]
}

fn swan_probe(ctx: &Ctx) -> Vec<Metric> {
    const TASKS: usize = 20_000;
    const WAKES: usize = 200;
    let rt = Runtime::with_workers(ctx.workers);
    let spawn_join: Vec<f64> = (0..5)
        .map(|_| {
            time(|| {
                rt.scope(|s| {
                    for _ in 0..TASKS {
                        s.spawn((), |_, ()| {});
                    }
                })
            })
            .0
        })
        .collect();
    // Idle workers park; time from a spawn to the task body running.
    let wakes: Vec<f64> = (0..WAKES)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            let mut started = None;
            let t0 = Instant::now();
            rt.scope(|s| s.spawn((), |_, ()| started = Some(Instant::now())));
            us((started.expect("task ran") - t0).as_secs_f64())
        })
        .collect();
    vec![
        metric(
            "swan.spawn_join_ns",
            median(&spawn_join) * 1e9 / TASKS as f64,
            "ns",
        ),
        metric("swan.wake_latency_us", median(&wakes), "us"),
    ]
}

const PROBE_JOBS: usize = 2_000;

/// The in-process service layer, no socket.
fn service_probe(ctx: &Ctx, pool: &JobPool, log: &mut SpanLog) -> Vec<Metric> {
    let rt = Arc::new(Runtime::with_workers(ctx.workers));
    let (compile_s, graph) = time(|| build_wordcount_service(Arc::clone(&rt), &pool.cfg));
    graph
        .submit(pool.lines[0].clone(), Admission::Unbounded)
        .expect_accepted()
        .join();
    let (prewarm_s, ()) = time(|| graph.prewarm(pool.cfg.prewarm_depth()));
    let before = graph.telemetry();
    let mut submit_us = Vec::with_capacity(PROBE_JOBS);
    let mut join_us = Vec::with_capacity(PROBE_JOBS);
    let mut serial_us = Vec::with_capacity(PROBE_JOBS);
    for j in 0..PROBE_JOBS {
        let lines = &pool.lines[j % pool.lines.len()];
        let t0 = Instant::now();
        let handle = graph
            .submit(lines.clone(), Admission::Unbounded)
            .expect_accepted();
        let t1 = Instant::now();
        let out = handle.join();
        let t2 = Instant::now();
        assert_eq!(out, pool.expected_pairs[j % pool.lines.len()]);
        let root = log.record("service.op", j as u64, 0, t0, t2);
        log.record("service.submit", j as u64, root, t0, t1);
        log.record("service.join", j as u64, root, t1, t2);
        submit_us.push(us((t1 - t0).as_secs_f64()));
        join_us.push(us((t2 - t0).as_secs_f64()));
        serial_us.push(us(time(|| std::hint::black_box(wordcount_serial(lines))).0));
    }
    let after = graph.telemetry();
    let snapshot_us: Vec<f64> = (0..200)
        .map(|_| us(time(|| std::hint::black_box(graph.telemetry())).0))
        .collect();
    let encode_us: Vec<f64> = (0..200)
        .map(|_| us(time(|| std::hint::black_box(after.encode_text())).0))
        .collect();
    let submit_join = median(&join_us);
    let serial = median(&serial_us);
    vec![
        metric("pipelines.service.compile_ms", compile_s * 1e3, "ms"),
        metric("pipelines.service.prewarm_ms", prewarm_s * 1e3, "ms"),
        metric("pipelines.service.submit_call_us", median(&submit_us), "us"),
        metric("pipelines.service.submit_join_us_p50", submit_join, "us"),
        metric("pipelines.service.self_us", submit_join - serial, "us"),
        metric("workloads.wordcount.serial_us", serial, "us"),
        metric(
            "hyperqueue.segments_allocated_steady",
            (after.storage.segments_allocated - before.storage.segments_allocated) as f64,
            "count",
        ),
        metric(
            "hyperqueue.pool_draws_per_job",
            (after.queues.pool_draws - before.queues.pool_draws) as f64 / PROBE_JOBS as f64,
            "count",
        ),
        metric(
            "pipelines.telemetry.snapshot_us",
            median(&snapshot_us),
            "us",
        ),
        metric(
            "pipelines.telemetry.encode_text_us",
            median(&encode_us),
            "us",
        ),
    ]
}

/// One unloaded connection against a fresh daemon; every job also runs
/// in-process on the same graph, so `self_us` is the socket's share.
fn ingress_probe(ctx: &Ctx, pool: &JobPool) -> Vec<Metric> {
    let daemon = Daemon::start(pool, ctx.workers, None);
    let addr = daemon.server.local_addr();
    let connect: Vec<f64> = (0..50)
        .map(|_| us(time(|| IngressClient::connect(addr).expect("connect")).0))
        .collect();
    let mut client = IngressClient::connect(addr).expect("connect");
    let mut rtt = Vec::with_capacity(PROBE_JOBS);
    let mut in_process = Vec::with_capacity(PROBE_JOBS);
    for j in 0..PROBE_JOBS {
        let i = j % pool.lines.len();
        let payload = encode_lines(&pool.lines[i]);
        let (secs, outcome) =
            time(|| client.submit_and_wait(j as u64 + 1, &payload, RETRY_BACKOFF));
        assert_eq!(
            outcome.expect("probe job"),
            JobOutcome::Result(pool.expected_bytes[i].clone())
        );
        rtt.push(us(secs));
        let lines = pool.lines[i].clone();
        let (secs, out) = time(|| {
            daemon
                .graph
                .submit(lines, Admission::Unbounded)
                .expect_accepted()
                .join()
        });
        assert_eq!(out, pool.expected_pairs[i]);
        in_process.push(us(secs));
    }
    let null_rtt: Vec<f64> = (0..PROBE_JOBS)
        .map(|j| {
            us(time(|| {
                client.subscribe(j as u64, 0).expect("subscribe");
                let frame = client.recv().expect("stats event");
                assert_eq!(frame.kind, FrameKind::StatsEvent);
            })
            .0)
        })
        .collect();
    drop(client);
    daemon.stop();

    let payload = encode_lines(&pool.lines[0]);
    let mut framed = Vec::new();
    encode_frame(FrameKind::Submit, 1, &payload, &mut framed);
    let encode: Vec<f64> = (0..PROBE_JOBS)
        .map(|_| {
            let mut buf = Vec::with_capacity(framed.len());
            time(|| {
                encode_frame(
                    FrameKind::Submit,
                    1,
                    std::hint::black_box(&payload),
                    &mut buf,
                )
            })
            .0 * 1e9
        })
        .collect();
    let decode: Vec<f64> = (0..PROBE_JOBS)
        .map(|_| {
            let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
            time(|| {
                dec.extend(std::hint::black_box(&framed));
                dec.next_frame().expect("valid frame").expect("whole frame")
            })
            .0 * 1e9
        })
        .collect();
    let rtt_p50 = median(&rtt);
    vec![
        metric("pipelines.ingress.rtt_us_p50", rtt_p50, "us"),
        metric(
            "pipelines.ingress.self_us",
            rtt_p50 - median(&in_process),
            "us",
        ),
        metric("pipelines.ingress.null_rtt_us_p50", median(&null_rtt), "us"),
        metric("pipelines.ingress.encode_frame_ns", median(&encode), "ns"),
        metric("pipelines.ingress.decode_frame_ns", median(&decode), "ns"),
        metric("pipelines.ingress.connect_us", median(&connect), "us"),
    ]
}

/// The journal alone: open, group commit at depth 1 and 8, replay.
fn journal_probe(ctx: &Ctx, pool: &JobPool, log: &mut SpanLog) -> Vec<Metric> {
    const APPENDS: usize = 200;
    const DEPTH: usize = 8;
    let payload = encode_lines(&pool.lines[0]);
    let open: Vec<f64> = (0..5)
        .map(|i| {
            let dir = ctx.scratch.join(format!("probe-journal-open{i}"));
            let (secs, opened) = time(|| Journal::open(JournalConfig::at(&dir)).expect("open"));
            drop(opened);
            let _ = std::fs::remove_dir_all(dir);
            secs * 1e3
        })
        .collect();
    let dir = ctx.scratch.join("probe-journal");
    let (journal, _) = Journal::open(JournalConfig::at(&dir)).expect("open journal");
    let d1: Vec<f64> = (0..APPENDS)
        .map(|i| {
            let t0 = Instant::now();
            journal.append_sync(RecordKind::Submit, i as u64 + 1, &payload);
            let t1 = Instant::now();
            log.record("journal.append_sync", i as u64, 0, t0, t1);
            us((t1 - t0).as_secs_f64())
        })
        .collect();
    let before = journal.stats();
    let d8: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DEPTH)
            .map(|t| {
                let (journal, payload) = (&journal, &payload);
                scope.spawn(move || {
                    (0..APPENDS / DEPTH)
                        .map(|i| {
                            let id = (APPENDS * (t + 1) + i) as u64 + 1;
                            us(time(|| journal.append_sync(RecordKind::Submit, id, payload)).0)
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("appender thread"))
            .collect()
    });
    let after = journal.stats();
    drop(journal);
    let (replay_s, replay) = time(|| replay_dir(&dir).expect("replay"));
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        metric("pipelines.journal.append_sync_us_d1", median(&d1), "us"),
        metric("pipelines.journal.append_sync_us_d8", median(&d8), "us"),
        metric(
            "pipelines.journal.fsyncs_per_append",
            (after.fsyncs - before.fsyncs) as f64 / (after.appends - before.appends).max(1) as f64,
            "ratio",
        ),
        metric("pipelines.journal.open_ms", median(&open), "ms"),
        metric(
            "pipelines.journal.replay_krecords_s",
            replay.records as f64 / replay_s / 1e3,
            "1/s",
        ),
    ]
}

/// One unloaded durable job at a time, alternately through the router
/// and straight to shard 0, so drift in fsync cost cancels in `self_us`.
fn router_probe(ctx: &Ctx, pool: &JobPool) -> Vec<Metric> {
    const JOBS: usize = 500;
    let stack = Stack::durable_routed(pool, &ctx.scratch, "probe");
    let router = stack.router.as_ref().expect("routed stack");
    let mut clients = [
        IngressClient::connect(router.local_addr()).expect("connect to router"),
        IngressClient::connect(stack.daemons[0].server.local_addr()).expect("connect to shard"),
    ];
    let mut rtt = [Vec::with_capacity(JOBS), Vec::with_capacity(JOBS)];
    for j in 0..2 * JOBS {
        let i = j % pool.lines.len();
        let id = j as u64 + 1;
        let payload = encode_lines(&pool.lines[i]);
        let client = &mut clients[j % 2];
        let (secs, outcome) = time(|| client.submit_durable_and_wait(id, &payload, RETRY_BACKOFF));
        assert_eq!(
            outcome.expect("probe job"),
            JobOutcome::Result(pool.expected_bytes[i].clone())
        );
        client.ack(id).expect("ack");
        rtt[j % 2].push(us(secs));
    }
    drop(clients);
    if let Some(r) = stack.router {
        r.shutdown();
    }
    for d in stack.daemons {
        d.stop();
    }
    let routed = median(&rtt[0]);
    vec![
        metric("pipelines.router.rtt_us_p50", routed, "us"),
        metric("pipelines.router.self_us", routed - median(&rtt[1]), "us"),
    ]
}

fn partition_probe(ctx: &Ctx) -> Metric {
    let mut rng = SplitMix64::new(ctx.seed);
    let vertices = 64u64;
    let graph = Hypergraph {
        vertex_weights: (0..vertices).map(|_| 1 + rng.next_below(16)).collect(),
        edges: (0..96)
            .map(|_| Hyperedge {
                pins: (0..2 + rng.next_below(3))
                    .map(|_| rng.next_below(vertices) as u32)
                    .collect(),
                weight: 1 + rng.next_below(8),
            })
            .collect(),
    };
    let plan: Vec<f64> = (0..50)
        .map(|_| {
            us(time(|| std::hint::black_box(partition(&graph, &PartitionConfig::default()))).0)
        })
        .collect();
    metric("pipelines.partition.plan_us", median(&plan), "us")
}

/// The paper's pipelines, one shot each: ferret's four drivers and stage
/// shares, and dedup / bzip2 speedups as informational cross-checks.
fn paper_probe(ctx: &Ctx) -> Vec<Metric> {
    let cfg = crate::ferret::config(ctx.seed, crate::ferret::IMAGES);
    let rt1 = Runtime::with_workers(1);
    let rt = Runtime::with_workers(ctx.workers);
    let (serial_s, (serial_out, clock)) = time(|| run_serial(&cfg));
    let want = serial_out.checksum();
    // The better of two runs: the first one of a driver pays for its
    // threads and first-touched pages.
    let timed = |f: &mut dyn FnMut() -> u64| {
        let ms: Vec<f64> = (0..2)
            .map(|_| {
                let (secs, got) = time(&mut *f);
                assert_eq!(got, want, "ferret driver diverged from the serial elision");
                secs * 1e3
            })
            .collect();
        ms[0].min(ms[1])
    };
    let hq1_ms = timed(&mut || run_hyperqueue(&cfg, &rt1).checksum());
    let hqn_ms = timed(&mut || run_hyperqueue(&cfg, &rt).checksum());
    let tbb_ms = timed(&mut || run_tbb(&cfg, ctx.workers, 4 * ctx.workers).checksum());
    let pthread_ms =
        timed(&mut || run_pthread(&cfg, &PthreadTuning::oversubscribed(ctx.workers)).checksum());
    let serial_ms = (serial_s * 1e3).min(timed(&mut || run_serial(&cfg).0.checksum()));
    let mut out = vec![
        metric("workloads.ferret.serial_ms", serial_ms, "ms"),
        metric("workloads.ferret.hq1_ms", hq1_ms, "ms"),
        metric("workloads.ferret.hqN_ms", hqn_ms, "ms"),
        metric(
            "workloads.ferret.handbuilt_ms",
            tbb_ms.min(pthread_ms),
            "ms",
        ),
        metric(
            "workloads.ferret.serial_overhead_ratio",
            hq1_ms / serial_ms,
            "ratio",
        ),
    ];
    let total = clock.total().as_secs_f64();
    for stage in [
        "Input",
        "Segmentation",
        "Extraction",
        "Vectorizing",
        "Ranking",
        "Output",
    ] {
        let secs = clock
            .entries()
            .iter()
            .find(|e| e.name == stage)
            .map_or(0.0, |e| e.time.as_secs_f64());
        out.push(metric(
            &format!("workloads.ferret.stage_share.{stage}"),
            secs / total,
            "ratio",
        ));
    }

    let dcfg = dedup::DedupConfig {
        seed: cfg.seed,
        ..dedup::DedupConfig::bench(4 << 20)
    };
    let data = dedup::corpus(&dcfg);
    let (serial_s, (archive, _)) = time(|| dedup::run_serial(&dcfg, &data));
    let (hq_s, hq_archive) = time(|| dedup::run_hyperqueue(&dcfg, &data, &rt));
    assert_eq!(hq_archive.checksum(), archive.checksum(), "dedup diverged");
    out.push(metric(
        "workloads.dedup.speedup_vs_serial",
        serial_s / hq_s,
        "ratio",
    ));

    let bcfg = bzip2::Bzip2Config {
        seed: cfg.seed,
        ..bzip2::Bzip2Config::bench(2 << 20)
    };
    let data = bzip2::corpus(&bcfg);
    let (serial_s, (bytes, _)) = time(|| bzip2::run_serial(&bcfg, &data));
    let (hq_s, hq_bytes) = time(|| bzip2::run_hyperqueue(&bcfg, &data, &rt));
    assert_eq!(hq_bytes, bytes, "bzip2 diverged");
    out.push(metric(
        "workloads.bzip2.speedup_vs_serial",
        serial_s / hq_s,
        "ratio",
    ));
    out
}
