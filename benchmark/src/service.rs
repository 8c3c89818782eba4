//! The two network workloads, sharing one closed-loop client.
//!
//! * `service_tcp` — `nproc` blocking `IngressClient` connections, one
//!   job in flight each, firing wordcount jobs at an in-process
//!   `IngressServer` over loopback. Per-job overhead dominates.
//! * `durable_routed` — the same jobs as `SubmitDurable` + `Ack` through
//!   an in-process `Router` over two durable shards (1 worker, 1 event
//!   loop each), each connection pipelining a window of 8 submits.
//!
//! The whole window belongs to the network path: every job's send→reply
//! time is a latency sample and throughput is jobs ÷ window. The serial
//! elision rides along: after every 16th reply the client thread runs
//! `wordcount_serial` on that job (≈0.5% of the window), which checks the
//! reply a second way and samples one thread's time per job evenly across
//! the window for `speedup_vs_serial`. Every reply is byte-compared with
//! the serial elision's encoding.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipelines::ingress::{retry_delay, FrameKind, IngressClient, IngressConfig, IngressServer};
use pipelines::telemetry::{JournalTelemetry, TelemetrySnapshot};
use pipelines::{
    Admission, CompiledGraph, IngressStats, Journal, JournalConfig, JournalStats, Router,
    RouterConfig, RouterStats,
};
use swan::Runtime;
use workloads::service::{
    build_wordcount_service, job_lines, wordcount_serial, ServiceWorkloadConfig,
};
use workloads::util::SplitMix64;
use workloads::wire::{encode_lines, expected_wordcount_bytes, WordcountCodec};

use crate::layers::WindowCounters;
use crate::measure::{cpu_seconds, median, peak_rss_mb, quantile, time, EndToEnd};
use crate::trace::SpanLog;
use crate::{Ctx, Report};

pub type Graph = CompiledGraph<String, (String, u64)>;

/// Distinct jobs generated from the seed; clients cycle through them.
const POOL_JOBS: usize = 256;
/// Jobs completed before the window opens (a count, not a time).
const WARMUP_JOBS: u64 = 2_000;
/// Outstanding submits per connection on `durable_routed`.
const PIPELINE_WINDOW: usize = 8;
const SHARDS: usize = 2;
/// Resubmissions after a Retry frame before the op counts as failed.
const MAX_RETRIES: u32 = 8;
pub const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// One job in this many also runs through the serial elision.
const SERIAL_EVERY: u64 = 16;

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

/// Pre-generated jobs with the outputs their serial elision produces.
pub struct JobPool {
    pub cfg: ServiceWorkloadConfig,
    pub lines: Vec<Vec<String>>,
    pub expected_bytes: Vec<Vec<u8>>,
    pub expected_pairs: Vec<Vec<(String, u64)>>,
}

impl JobPool {
    pub fn generate(seed: u64) -> Self {
        let cfg = ServiceWorkloadConfig {
            seed: SplitMix64::new(seed).next(),
            ..ServiceWorkloadConfig::bench(0)
        };
        let lines: Vec<Vec<String>> = (0..POOL_JOBS).map(|j| job_lines(&cfg, j)).collect();
        JobPool {
            expected_bytes: lines.iter().map(|l| expected_wordcount_bytes(l)).collect(),
            expected_pairs: lines.iter().map(|l| wordcount_serial(l)).collect(),
            lines,
            cfg,
        }
    }

    fn index(&self, id: u64) -> usize {
        id as usize % self.lines.len()
    }
}

// ---------------------------------------------------------------------------
// The stacks under test.
// ---------------------------------------------------------------------------

/// One daemon: runtime, compiled + prewarmed graph, ingress server and —
/// for durable shards — its journal.
pub struct Daemon {
    pub rt: Arc<Runtime>,
    pub graph: Arc<Graph>,
    pub server: IngressServer,
    pub journal: Option<Arc<Journal>>,
}

impl Daemon {
    /// Runtime start → compile → one job + prewarm → (journal open) → bind,
    /// everything at the libraries' defaults except what the workload
    /// definition fixes (`workers`, one event loop per durable shard).
    pub fn start(pool: &JobPool, workers: usize, journal_dir: Option<&Path>) -> Daemon {
        let rt = Arc::new(Runtime::with_workers(workers));
        let graph = Arc::new(build_wordcount_service(Arc::clone(&rt), &pool.cfg));
        graph
            .submit(pool.lines[0].clone(), Admission::Unbounded)
            .expect_accepted()
            .join();
        graph.prewarm(pool.cfg.prewarm_depth());
        let codec = Arc::new(WordcountCodec);
        let (server, journal) = match journal_dir {
            None => (
                IngressServer::bind(
                    "127.0.0.1:0",
                    Arc::clone(&graph),
                    codec,
                    IngressConfig::default(),
                )
                .expect("bind loopback ingress"),
                None,
            ),
            Some(dir) => {
                let (journal, replay) =
                    Journal::open(JournalConfig::at(dir)).expect("open journal");
                let cfg = IngressConfig {
                    event_loops: 1,
                    ..IngressConfig::default()
                };
                let (server, _) = IngressServer::bind_durable(
                    "127.0.0.1:0",
                    Arc::clone(&graph),
                    codec,
                    cfg,
                    Arc::clone(&journal),
                    &replay,
                )
                .expect("bind durable loopback ingress");
                (server, Some(journal))
            }
        };
        Daemon {
            rt,
            graph,
            server,
            journal,
        }
    }

    /// Every public counter of this daemon as `key value` lines.
    pub fn counters(&self, prefix: &str) -> String {
        let snap = TelemetrySnapshot {
            ingress: Some(self.server.stats()),
            journal: self.journal.as_ref().map(|j| JournalTelemetry {
                stats: j.stats(),
                lag: j.lag(),
            }),
            ..self.graph.telemetry()
        };
        snap.encode_text()
            .lines()
            .map(|l| format!("{prefix}{l}\n"))
            .collect()
    }

    /// Graceful stop; returns the final ingress and journal counters.
    pub fn stop(self) -> (IngressStats, Option<JournalStats>) {
        let stats = self.server.shutdown();
        self.rt.quiesce();
        let journal = self.journal.map(|j| {
            j.flush();
            let stats = j.stats();
            let dir = j.dir().to_path_buf();
            drop(j);
            let _ = std::fs::remove_dir_all(dir);
            stats
        });
        (stats, journal)
    }
}

/// What the clients talk to: one daemon, or a router over durable shards.
pub struct Stack {
    pub daemons: Vec<Daemon>,
    pub router: Option<Router>,
}

impl Stack {
    pub fn tcp(pool: &JobPool, workers: usize) -> Stack {
        Stack {
            daemons: vec![Daemon::start(pool, workers, None)],
            router: None,
        }
    }

    pub fn durable_routed(pool: &JobPool, scratch: &Path, tag: &str) -> Stack {
        let daemons: Vec<Daemon> = (0..SHARDS)
            .map(|i| {
                let dir = scratch.join(format!("{tag}-shard{i}"));
                let _ = std::fs::remove_dir_all(&dir);
                Daemon::start(pool, 1, Some(&dir))
            })
            .collect();
        let backends: Vec<String> = daemons
            .iter()
            .map(|d| d.server.local_addr().to_string())
            .collect();
        let router = Router::bind("127.0.0.1:0", RouterConfig::to(backends)).expect("bind router");
        Stack {
            daemons,
            router: Some(router),
        }
    }

    fn front_addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.daemons[0].server.local_addr(),
        }
    }

    fn durable(&self) -> bool {
        self.router.is_some()
    }

    fn counters(&self) -> String {
        let mut s = String::new();
        for (i, d) in self.daemons.iter().enumerate() {
            s.push_str(&d.counters(&format!("shard{i}.")));
        }
        if let Some(r) = &self.router {
            let st = r.stats();
            for (k, v) in [
                ("connections", st.connections),
                ("frames_in", st.frames_in),
                ("replies_out", st.replies_out),
                ("retries_synthesized", st.retries_synthesized),
                ("errors_synthesized", st.errors_synthesized),
                ("reconnects", st.reconnects),
                ("shard_failures", st.shard_failures),
                ("protocol_errors", st.protocol_errors),
            ] {
                s.push_str(&format!("router.{k} {v}\n"));
            }
        }
        s
    }
}

// ---------------------------------------------------------------------------
// The closed-loop client.
// ---------------------------------------------------------------------------

/// One completed op.
struct Sample {
    /// Completion time, ns since `Ctx::epoch`.
    end_ns: u64,
    latency_ns: u64,
}

/// State the main thread and the clients share.
struct Control {
    stop: AtomicBool,
    next_id: AtomicU64,
    completed: AtomicU64,
    /// Client threads still in their loop. Zero before `stop` is set means
    /// every transport broke.
    live: AtomicUsize,
}

impl Control {
    fn new(clients: usize) -> Control {
        Control {
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            completed: AtomicU64::new(0),
            live: AtomicUsize::new(clients),
        }
    }
}

struct Client<'a> {
    pool: &'a JobPool,
    control: &'a Control,
    epoch: Instant,
    conn: IngressClient,
    durable: bool,
    /// Submits kept outstanding on the connection.
    window: usize,
    samples: Vec<Sample>,
    /// Seconds `wordcount_serial` took on every `SERIAL_EVERY`th job.
    serial_secs: Vec<f64>,
    /// Record spans (traced runs).
    trace: bool,
    log: SpanLog,
    /// Ops started, ops that reached a reply (good or bad), ops that failed.
    attempted: u64,
    finished: u64,
    failed: u64,
    acks_sent: u64,
    /// Seconds this client's loop ran, and those spent in the generator's
    /// own code.
    loop_secs: f64,
    encode_secs: f64,
    verify_secs: f64,
}

struct InFlight {
    id: u64,
    attempt: u32,
    encode: (Instant, Instant),
    /// Latency runs from the start of the send to the reply.
    send: (Instant, Instant),
}

impl Client<'_> {
    /// Sends one submit for `id`.
    fn submit(&mut self, id: u64, attempt: u32) -> std::io::Result<InFlight> {
        let t0 = Instant::now();
        let payload = encode_lines(&self.pool.lines[self.pool.index(id)]);
        let t1 = Instant::now();
        if self.durable {
            self.conn.submit_durable(id, &payload)?;
        } else {
            self.conn.submit(id, &payload)?;
        }
        let t2 = Instant::now();
        self.encode_secs += (t1 - t0).as_secs_f64();
        Ok(InFlight {
            id,
            attempt,
            encode: (t0, t1),
            send: (t1, t2),
        })
    }

    /// Keeps `window` submits outstanding until told to stop, then drains
    /// what is in flight.
    fn closed_loop(&mut self) -> std::io::Result<()> {
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(self.window);
        loop {
            while inflight.len() < self.window && !self.control.stop.load(Ordering::Relaxed) {
                let id = self.control.next_id.fetch_add(1, Ordering::Relaxed);
                self.attempted += 1;
                inflight.push_back(self.submit(id, 0)?);
            }
            let Some(op) = inflight.pop_front() else {
                return Ok(());
            };
            let t_wait = Instant::now();
            let frame = self.conn.recv()?;
            let t_reply = Instant::now();
            if frame.req_id != op.id {
                return Err(std::io::Error::other(format!(
                    "reply for {} while awaiting {}",
                    frame.req_id, op.id
                )));
            }
            match frame.kind {
                FrameKind::Result => {
                    let job = self.pool.index(op.id);
                    let mut ok = frame.body == self.pool.expected_bytes[job];
                    if self.durable {
                        self.conn.ack(op.id)?;
                        self.acks_sent += 1;
                    }
                    let t_done = Instant::now();
                    if op.id % SERIAL_EVERY == 0 {
                        let lines = std::hint::black_box(&self.pool.lines[job]);
                        let (secs, pairs) = time(|| wordcount_serial(lines));
                        ok &= pairs == self.pool.expected_pairs[job];
                        self.serial_secs.push(secs);
                    }
                    if !ok {
                        eprintln!(
                            "hqbench: job {} reply differs from the serial elision",
                            op.id
                        );
                        self.failed += 1;
                    }
                    self.verify_secs += (t_done - t_reply).as_secs_f64();
                    if self.trace {
                        let root = self.log.record("loadgen.op", op.id, 0, op.encode.0, t_done);
                        self.log
                            .record("loadgen.encode", op.id, root, op.encode.0, op.encode.1);
                        self.log
                            .record("ingress.send", op.id, root, op.send.0, op.send.1);
                        self.log
                            .record("ingress.wait", op.id, root, t_wait, t_reply);
                        self.log
                            .record("loadgen.verify", op.id, root, t_reply, t_done);
                    }
                    self.samples.push(Sample {
                        end_ns: t_reply.duration_since(self.epoch).as_nanos() as u64,
                        latency_ns: (t_reply - op.send.0).as_nanos() as u64,
                    });
                    self.finished += 1;
                    self.control.completed.fetch_add(1, Ordering::Relaxed);
                }
                FrameKind::Retry if op.attempt < MAX_RETRIES => {
                    std::thread::sleep(retry_delay(RETRY_BACKOFF, op.id, op.attempt));
                    inflight.push_back(self.submit(op.id, op.attempt + 1)?);
                }
                other => {
                    eprintln!("hqbench: job {} ended with a {other:?} frame", op.id);
                    self.finished += 1;
                    self.failed += 1;
                }
            }
        }
    }

    fn run(&mut self) {
        let (secs, outcome) = time(|| self.closed_loop());
        self.loop_secs = secs;
        if let Err(e) = outcome {
            // A broken transport fails every op it strands.
            eprintln!("hqbench: transport error: {e}");
            self.failed += self.attempted - self.finished;
        }
        self.control.live.fetch_sub(1, Ordering::Release);
    }
}

fn connect_clients<'a>(
    ctx: &Ctx,
    stack: &Stack,
    pool: &'a JobPool,
    control: &'a Control,
) -> Vec<Client<'a>> {
    (0..ctx.clients)
        .map(|_| Client {
            pool,
            control,
            epoch: ctx.epoch,
            conn: IngressClient::connect(stack.front_addr()).expect("connect to front door"),
            durable: stack.durable(),
            window: if stack.durable() { PIPELINE_WINDOW } else { 1 },
            samples: Vec::with_capacity(1 << 19),
            serial_secs: Vec::with_capacity(1 << 15),
            trace: ctx.trace,
            log: SpanLog::new(ctx.epoch, if ctx.trace { 1 << 19 } else { 0 }),
            attempted: 0,
            finished: 0,
            failed: 0,
            acks_sent: 0,
            loop_secs: 0.0,
            encode_secs: 0.0,
            verify_secs: 0.0,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Set-up timing, the reference phases, the window, the counter checks.
// ---------------------------------------------------------------------------

/// Builds the stack under test; the tag names its scratch files.
type Build<'a> = dyn Fn(&JobPool, &str) -> Stack + 'a;

/// Times from nothing to the first op done on every connection: runtime
/// start, compile, prewarm, journal open, bind, connect, first reply.
/// Teardown runs between cycles and is not timed.
fn setup_cycles(ctx: &Ctx, pool: &JobPool, build: &Build, cycles: usize) -> Vec<f64> {
    let poll = RouterConfig::to(Vec::<String>::new()).poll_interval;
    (0..cycles)
        .map(|cycle| {
            let control = Control::new(0);
            let (build_secs, stack) = time(|| build(pool, &format!("setup{cycle}")));
            // The router polls `accept` on an interval, so a first op
            // waits anywhere from nothing to a whole interval. Stepping
            // the connects across the interval (off the clock) samples
            // that wait evenly instead of wherever this run's timing
            // happened to put it.
            std::thread::sleep(poll * cycle as u32 / cycles as u32);
            let (first_op_secs, clients) = time(|| {
                let mut clients = connect_clients(ctx, &stack, pool, &control);
                for c in &mut clients {
                    let id = control.next_id.fetch_add(1, Ordering::Relaxed);
                    let op = c.submit(id, 0).expect("first submit");
                    let frame = c.conn.recv().expect("first reply");
                    assert_eq!(frame.req_id, op.id);
                    assert_eq!(frame.kind, FrameKind::Result, "first op must succeed");
                    assert_eq!(frame.body, pool.expected_bytes[pool.index(id)]);
                    if c.durable {
                        c.conn.ack(id).expect("first ack");
                    }
                }
                clients
            });
            drop(clients);
            teardown(stack);
            build_secs + first_op_secs
        })
        .collect()
}

/// Final counters of a stopped stack.
struct Final {
    ingress: Vec<IngressStats>,
    journal: Vec<Option<JournalStats>>,
    router: Option<RouterStats>,
}

fn teardown(stack: Stack) -> Final {
    let router = stack.router.map(Router::shutdown);
    let mut ingress = Vec::new();
    let mut journal = Vec::new();
    for d in stack.daemons {
        let (i, j) = d.stop();
        ingress.push(i);
        journal.push(j);
    }
    Final {
        ingress,
        journal,
        router,
    }
}

/// Checks made and how many of them failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Counter totals the per-layer window metrics are read from.
#[derive(Clone, Default)]
struct Totals {
    tasks: u64,
    parks: u64,
    steals: u64,
    steal_failures: u64,
    loop_wakeups: u64,
    ingress_bytes: u64,
    ingress_retries: u64,
    journal_bytes: u64,
    shard_jobs: Vec<u64>,
    router_retries: u64,
    router_reconnects: u64,
}

impl Totals {
    fn read(stack: &Stack) -> Totals {
        let mut t = Totals::default();
        for d in &stack.daemons {
            let m = d.rt.metrics();
            t.tasks += m.tasks_executed;
            t.parks += m.parks;
            t.steals += m.steals;
            t.steal_failures += m.steal_failures;
            let i = d.server.stats();
            t.loop_wakeups += i.loop_wakeups;
            t.ingress_bytes += i.bytes_in + i.bytes_out;
            t.ingress_retries += i.retries_sent;
            t.shard_jobs.push(i.jobs_completed);
            if let Some(j) = &d.journal {
                t.journal_bytes += j.stats().bytes_written;
            }
        }
        if let Some(r) = &stack.router {
            let st = r.stats();
            t.router_retries = st.retries_synthesized;
            t.router_reconnects = st.reconnects;
        }
        t
    }

    /// `later - self`, counter by counter.
    fn delta_to(&self, later: &Totals) -> Totals {
        Totals {
            tasks: later.tasks - self.tasks,
            parks: later.parks - self.parks,
            steals: later.steals - self.steals,
            steal_failures: later.steal_failures - self.steal_failures,
            loop_wakeups: later.loop_wakeups - self.loop_wakeups,
            ingress_bytes: later.ingress_bytes - self.ingress_bytes,
            ingress_retries: later.ingress_retries - self.ingress_retries,
            journal_bytes: later.journal_bytes - self.journal_bytes,
            shard_jobs: later
                .shard_jobs
                .iter()
                .zip(&self.shard_jobs)
                .map(|(l, e)| l - e)
                .collect(),
            router_retries: later.router_retries - self.router_retries,
            router_reconnects: later.router_reconnects - self.router_reconnects,
        }
    }
}

/// What the measured window produced.
#[derive(Default)]
struct Window {
    secs: f64,
    cpu_secs: f64,
    /// Send→reply time of every job that completed inside the window, ms.
    latencies_ms: Vec<f64>,
    /// One thread's seconds per job on the serial elision, sampled across
    /// the clients' whole run.
    serial_secs: Vec<f64>,
    /// Counter deltas over the window (traced runs).
    totals: Totals,
    attempted: u64,
    failed: u64,
    acks_sent: u64,
    /// Generator thread seconds (warm-up and drain included), and the part
    /// of them spent encoding and verifying.
    generator_secs: f64,
    encode_secs: f64,
    verify_secs: f64,
    logs: Vec<SpanLog>,
    counters_start: String,
    counters_end: String,
}

/// Connects the clients, warms the stack up, and measures `seconds` of
/// the closed loop.
fn run_window(ctx: &Ctx, pool: &JobPool, stack: &Stack) -> Window {
    let control = Control::new(ctx.clients);
    let mut clients = connect_clients(ctx, stack, pool, &control);
    let alive = || control.live.load(Ordering::Acquire) > 0;
    let mut win = Window::default();
    let (mut open_ns, mut close_ns) = (0, 0);
    std::thread::scope(|scope| {
        for client in &mut clients {
            scope.spawn(move || client.run());
        }
        // Warm-up is a job count, never a time: lazy set-up (pools,
        // connections, journals' first segments) finishes before timing.
        // A client whose transport broke leaves its loop; with none left
        // the run ends early, their stranded ops failed.
        while control.completed.load(Ordering::Relaxed) < WARMUP_JOBS && alive() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let totals_start = ctx.trace.then(|| Totals::read(stack));
        if ctx.trace {
            win.counters_start = stack.counters();
        }
        let (start, cpu_start) = (Instant::now(), cpu_seconds());
        open_ns = start.duration_since(ctx.epoch).as_nanos() as u64;
        let window = Duration::from_secs_f64(ctx.seconds);
        while start.elapsed() < window && alive() {
            let left = window.saturating_sub(start.elapsed());
            std::thread::sleep(left.min(Duration::from_millis(100)));
        }
        win.secs = start.elapsed().as_secs_f64();
        win.cpu_secs = cpu_seconds() - cpu_start;
        close_ns = open_ns + (win.secs * 1e9) as u64;
        if let Some(t) = totals_start {
            win.totals = t.delta_to(&Totals::read(stack));
            win.counters_end = stack.counters();
        }
        control.stop.store(true, Ordering::Relaxed);
    });

    for c in &mut clients {
        win.latencies_ms.extend(
            c.samples
                .iter()
                .filter(|s| s.end_ns > open_ns && s.end_ns <= close_ns)
                .map(|s| s.latency_ns as f64 * 1e-6),
        );
        win.serial_secs.append(&mut c.serial_secs);
        win.attempted += c.attempted;
        win.failed += c.failed;
        win.acks_sent += c.acks_sent;
        win.generator_secs += c.loop_secs;
        win.encode_secs += c.encode_secs;
        win.verify_secs += c.verify_secs;
    }
    win.logs = clients.into_iter().map(|c| c.log).collect();
    win
}

/// Stops the stack and checks its own counters against what the clients
/// saw; each check counts as one op attempted.
fn stop_and_check(stack: Stack, acks_sent: u64) -> Tally {
    // Acks are fire-and-forget: give the shards a moment to count them.
    let durable = stack.durable();
    let acked =
        |stack: &Stack| -> u64 { stack.daemons.iter().map(|d| d.server.stats().acks).sum() };
    let deadline = Instant::now() + Duration::from_secs(5);
    while durable && acked(&stack) < acks_sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let fin = teardown(stack);

    let mut tally = Tally::default();
    let mut check = |ok: bool, what: &str| {
        tally.attempted += 1;
        if !ok {
            eprintln!("hqbench: counter check failed: {what}");
            tally.failed += 1;
        }
    };
    let accepted: u64 = fin.ingress.iter().map(|i| i.jobs_accepted).sum();
    let completed: u64 = fin.ingress.iter().map(|i| i.jobs_completed).sum();
    check(accepted == completed, "every accepted job completed");
    if durable {
        let acks: u64 = fin.ingress.iter().map(|i| i.acks).sum();
        let dupes: u64 = fin.ingress.iter().map(|i| i.durable_dupes).sum();
        check(acks == acks_sent, "every durable id acked exactly once");
        check(dupes == 0, "no durable id ran or was submitted twice");
        let r = fin.router.expect("durable stack has a router");
        // Acks are the only request frames that get no reply.
        check(
            r.frames_in == r.replies_out + acks_sent,
            "router frames_in == replies_out + acks",
        );
        check(
            r.retries_synthesized == 0 && r.shard_failures == 0,
            "router saw no shard failure",
        );
        check(
            fin.journal.iter().flatten().all(|j| j.appends > 0),
            "every shard journaled",
        );
    }
    tally
}

fn run_network(ctx: &Ctx, build: &Build, cycles: usize) -> Report {
    let pool = JobPool::generate(ctx.seed);
    // Half the set-up cycles run before the window and half after it, so
    // one slow minute of the host cannot own the median.
    let mut setup = setup_cycles(ctx, &pool, build, cycles / 2);

    let stack = build(&pool, "window");
    let win = run_window(ctx, &pool, &stack);
    let high_water = stack
        .daemons
        .iter()
        .map(|d| d.graph.telemetry().admission.high_water_in_flight)
        .max()
        .unwrap_or(0);
    let tally = stop_and_check(stack, win.acks_sent);
    let peak_rss_mb = peak_rss_mb();
    setup.extend(setup_cycles(ctx, &pool, build, cycles / 2));

    let mut report = Report::new(tally.attempted + win.attempted, tally.failed + win.failed);
    report
        .notes
        .push(format!("scratch {}", ctx.scratch.display()));
    if win.latencies_ms.is_empty() || win.serial_secs.is_empty() {
        // Every transport broke before the window: nothing to report but
        // the failures.
        return report;
    }
    let ops = win.latencies_ms.len() as u64;
    report.notes.push(format!(
        "latency samples {ops} (tail = p99), serial-elision samples {}",
        win.serial_secs.len()
    ));
    let e2e = EndToEnd {
        setup_s: median(&setup),
        peak_rss_mb,
        secs_per_op: win.secs / ops as f64,
        cpu_secs_per_op: win.cpu_secs / ops as f64,
        p50_ms: median(&win.latencies_ms),
        tail_ms: quantile(&win.latencies_ms, 0.99),
        serial_secs_per_op: median(&win.serial_secs),
    };
    report.end_to_end = e2e.metrics();
    report.informational = e2e.raw();
    if ctx.trace {
        let window = &win.totals;
        let mean_jobs =
            window.shard_jobs.iter().sum::<u64>() as f64 / window.shard_jobs.len().max(1) as f64;
        report.window = WindowCounters {
            ops,
            tasks: window.tasks,
            parks: window.parks,
            steals: window.steals,
            steal_failures: window.steal_failures,
            high_water_in_flight: high_water as u64,
            loop_wakeups: window.loop_wakeups,
            ingress_bytes: window.ingress_bytes,
            ingress_retries: window.ingress_retries,
            journal_bytes: window.journal_bytes,
            router_retries: window.router_retries,
            router_reconnects: window.router_reconnects,
            shard_skew: if window.shard_jobs.len() > 1 && mean_jobs > 0.0 {
                window.shard_jobs.iter().copied().max().unwrap_or(0) as f64 / mean_jobs
            } else {
                0.0
            },
            encode_us: win.encode_secs * 1e6 / win.attempted.max(1) as f64,
            verify_us: win.verify_secs * 1e6 / win.attempted.max(1) as f64,
            busy_share: (win.encode_secs + win.verify_secs) / win.generator_secs,
            overhead_pct: win.logs.iter().map(|l| l.recording_secs).sum::<f64>()
                / win.generator_secs
                * 100.0,
        };
        report.counters_start = win.counters_start;
        report.counters_end = win.counters_end;
        report.logs = win.logs;
    }
    report
}

pub fn run_tcp(ctx: &Ctx) -> Report {
    run_network(ctx, &|pool, _tag| Stack::tcp(pool, ctx.workers), 100)
}

pub fn run_durable_routed(ctx: &Ctx) -> Report {
    // A cycle opens two journals and waits out the router's accept poll:
    // ten times a `service_tcp` cycle, so fewer of them.
    run_network(
        ctx,
        &|pool, tag| Stack::durable_routed(pool, &ctx.scratch, tag),
        40,
    )
}
