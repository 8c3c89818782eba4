//! The service layer: persistent, multi-tenant pipeline graphs.
//!
//! Everything in [`crate::graph`] is one-shot: build a graph inside a
//! scope, drain one input, tear the world down. This module makes the
//! same graphs **long-lived**: a [`GraphSpec`] captures the stage
//! topology once (closures behind `Arc`s, no borrows), and
//! [`GraphSpec::compile`] turns it into a [`CompiledGraph`] that serves
//! many independent jobs:
//!
//! * [`CompiledGraph::submit_with`] submits one job (a finite input
//!   stream) under an [`Admission`] discipline and returns immediately;
//!   the job runs as a detached root on the runtime's workers
//!   ([`swan::Runtime::spawn_root`]) and its completion callback fires
//!   exactly once, on the worker that finished it. No thread waits on a
//!   job's behalf; [`CompiledGraph::submit`] is the same path with a
//!   one-shot [`JobHandle`] as the callback. Accepted jobs run
//!   concurrently up to the admission bound and each job's output is
//!   bitwise-identical to its serial elision, regardless of how jobs
//!   interleave;
//! * admission is FIFO-fair and bounded by a [`swan::JobTable`]
//!   (`max_in_flight` in [`ServiceConfig`]): past the bound the *request*
//!   waits in the table and the next finishing job starts it;
//!   `Admission::Bounded` adds the accepted-but-waiting backpressure
//!   bound network front-ends use;
//! * every graph edge owns a [`SegmentPool`]: job N's queues hand their
//!   segments back on teardown and job N+1's queues draw them out again,
//!   so a warm graph sustains jobs with **zero segment allocations**
//!   (asserted by `tests/service.rs`; observable via
//!   [`CompiledGraph::telemetry`]).
//!
//! ```
//! use std::sync::Arc;
//! use pipelines::graph::{Admission, GraphSpec, ServiceConfig};
//! use swan::Runtime;
//!
//! let rt = Arc::new(Runtime::with_workers(2));
//! let graph = GraphSpec::<u64, u64>::new()
//!     .fanout_map(4, 32, |x| x * x)
//!     .compile(Arc::clone(&rt), ServiceConfig::default());
//! let jobs: Vec<_> = (0..4)
//!     .map(|j| {
//!         graph
//!             .submit((j * 100..j * 100 + 100).collect(), Admission::Unbounded)
//!             .expect_accepted()
//!     })
//!     .collect();
//! for (j, job) in jobs.into_iter().enumerate() {
//!     let expect: Vec<u64> = (j as u64 * 100..j as u64 * 100 + 100)
//!         .map(|x| x * x)
//!         .collect();
//!     assert_eq!(job.join(), expect);
//! }
//! ```

use std::any::Any;
use std::cell::Cell;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyperqueue::{PoolStats, QueueStats, SegmentPool, Tagged};
use parking_lot::Mutex;
use swan::{Entered, JobTable, Refused, RetryDecision, RetryPolicy, Runtime, Scope};

use crate::graph::{GraphBuilder, Node, Partition, DEFAULT_EDGE_CAPACITY, DEFAULT_IO_BATCH};
use crate::telemetry::{
    ClassLatency, EdgeTelemetry, LatencyHistogram, TelemetrySnapshot, TelemetrySource,
    TELEMETRY_VERSION,
};

// ---------------------------------------------------------------------------
// Per-edge segment pools.
// ---------------------------------------------------------------------------

/// Type-erased registry of one [`SegmentPool`] per graph edge, shared by
/// every job a [`CompiledGraph`] runs. Edges are identified by creation
/// order, which the compiled plan makes identical across jobs.
struct EdgeSlot {
    pool: Arc<dyn Any + Send + Sync>,
    stats: Box<dyn Fn() -> PoolStats + Send + Sync>,
    /// Lifetime [`QueueStats`] totals of every queue retired on this edge.
    queue_totals: Box<dyn Fn() -> QueueStats + Send + Sync>,
    /// Tops the pool up to the given parked-segment depth.
    prewarm: Box<dyn Fn(usize) + Send + Sync>,
}

pub(crate) struct EdgePools {
    slots: Mutex<Vec<EdgeSlot>>,
}

impl EdgePools {
    fn new() -> Self {
        EdgePools {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Opens a per-job cursor over the pools (edge 0, 1, 2, … in graph
    /// construction order).
    pub(crate) fn cursor(&self) -> PoolCursor<'_> {
        PoolCursor {
            pools: self,
            next: Cell::new(0),
        }
    }

    fn get_or_create<T: Send + 'static>(&self, idx: usize, seg_cap: usize) -> Arc<SegmentPool<T>> {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(idx) {
            return Arc::downcast::<SegmentPool<T>>(Arc::clone(&slot.pool)).expect(
                "compiled graph instantiation must be type-stable: edge k carried a \
                 different payload type on an earlier job",
            );
        }
        debug_assert_eq!(idx, slots.len(), "edges register in creation order");
        let pool = Arc::new(SegmentPool::<T>::new(seg_cap));
        let stats_pool = Arc::clone(&pool);
        let totals_pool = Arc::clone(&pool);
        let warm_pool = Arc::clone(&pool);
        slots.push(EdgeSlot {
            pool: pool.clone(),
            stats: Box::new(move || stats_pool.stats()),
            queue_totals: Box::new(move || totals_pool.retired_queue_stats()),
            prewarm: Box::new(move |depth| {
                let have = warm_pool.stats().available as usize;
                warm_pool.preallocate(depth.saturating_sub(have));
            }),
        });
        pool
    }

    /// Per-edge pool + retired-queue counters, in edge creation order —
    /// one locked walk feeding every aggregate the snapshot derives.
    fn edge_telemetry(&self) -> Vec<EdgeTelemetry> {
        self.slots
            .lock()
            .iter()
            .map(|s| EdgeTelemetry {
                pool: (s.stats)(),
                queues: (s.queue_totals)(),
            })
            .collect()
    }

    fn prewarm(&self, depth: usize) {
        for slot in self.slots.lock().iter() {
            (slot.prewarm)(depth);
        }
    }
}

/// A per-job walk over a [`CompiledGraph`]'s per-edge segment pools; see
/// [`GraphBuilder::pooled`](crate::graph::GraphBuilder::pooled).
pub struct PoolCursor<'a> {
    pools: &'a EdgePools,
    next: Cell<usize>,
}

impl PoolCursor<'_> {
    pub(crate) fn next_pool<T: Send + 'static>(&self, seg_cap: usize) -> Arc<SegmentPool<T>> {
        let idx = self.next.get();
        self.next.set(idx + 1);
        self.pools.get_or_create::<T>(idx, seg_cap)
    }
}

// ---------------------------------------------------------------------------
// Stage plans: the reusable (per-job re-instantiable) graph description.
// ---------------------------------------------------------------------------

/// One reusable graph segment: instantiates its stages into a live
/// [`Node`] chain for a single job. All captured state sits behind `Arc`s,
/// so a plan can be rebuilt for every job without borrowing anything
/// job-local.
trait StagePlan<I: Send + 'static, O: Send + 'static>: Send + Sync + 'static {
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, I>) -> Node<'g, 'scope, O>;
}

struct IdentityPlan;

impl<I: Send + 'static> StagePlan<I, I> for IdentityPlan {
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, I>) -> Node<'g, 'scope, I> {
        node
    }
}

struct ChainPlan<I: Send + 'static, M: Send + 'static, O: Send + 'static> {
    a: Arc<dyn StagePlan<I, M>>,
    b: Arc<dyn StagePlan<M, O>>,
}

impl<I: Send + 'static, M: Send + 'static, O: Send + 'static> StagePlan<I, O>
    for ChainPlan<I, M, O>
{
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, I>) -> Node<'g, 'scope, O> {
        self.b.build(self.a.build(node))
    }
}

struct MapPlan<T, U> {
    f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Send + 'static, U: Send + 'static> StagePlan<T, U> for MapPlan<T, U> {
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, T>) -> Node<'g, 'scope, U> {
        let f = Arc::clone(&self.f);
        node.map(move |x| f(x))
    }
}

struct FilterMapPlan<T, U> {
    f: Arc<dyn Fn(T) -> Option<U> + Send + Sync>,
}

impl<T: Send + 'static, U: Send + 'static> StagePlan<T, U> for FilterMapPlan<T, U> {
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, T>) -> Node<'g, 'scope, U> {
        let f = Arc::clone(&self.f);
        node.filter_map(move |x| f(x))
    }
}

struct FlatMapPlan<T, U> {
    f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
}

impl<T: Send + 'static, U: Send + 'static> StagePlan<T, U> for FlatMapPlan<T, U> {
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, T>) -> Node<'g, 'scope, U> {
        let f = Arc::clone(&self.f);
        node.flat_map(move |x| f(x))
    }
}

struct FanoutMapPlan<T, U> {
    degree: usize,
    window: usize,
    f: Arc<dyn Fn(T) -> U + Send + Sync>,
}

impl<T: Send + 'static, U: Send + 'static> StagePlan<T, U> for FanoutMapPlan<T, U> {
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, T>) -> Node<'g, 'scope, U> {
        let f = Arc::clone(&self.f);
        node.split(self.degree, Partition::RoundRobin)
            .map(move |x| f(x))
            .merge(self.window)
    }
}

#[allow(clippy::type_complexity)]
struct ShardedPlan<T, S, U, K> {
    degree: usize,
    window: usize,
    route: Arc<dyn Fn(&T) -> u64 + Send + Sync>,
    init: Arc<dyn Fn(usize) -> S + Send + Sync>,
    step: Arc<dyn Fn(&mut S, T, &mut Vec<U>) + Send + Sync>,
    finish: Arc<dyn Fn(S, &mut Vec<U>) + Send + Sync>,
    key: Arc<dyn Fn(&U) -> K + Send + Sync>,
}

impl<T, S, U, K> StagePlan<T, U> for ShardedPlan<T, S, U, K>
where
    T: Send + 'static,
    S: 'static,
    U: Send + 'static,
    K: Ord + 'static,
{
    fn build<'g, 'scope>(&self, node: Node<'g, 'scope, T>) -> Node<'g, 'scope, U> {
        let route = Arc::clone(&self.route);
        let (init, step, finish) = (
            Arc::clone(&self.init),
            Arc::clone(&self.step),
            Arc::clone(&self.finish),
        );
        let key = Arc::clone(&self.key);
        node.split(self.degree, Partition::keyed(move |v: &T| route(v)))
            .shard(
                move |idx| init(idx),
                move |state: &mut S, t: Tagged<T>, emit: &mut Vec<U>| step(state, t.value, emit),
                move |state, emit| finish(state, emit),
            )
            .merge_by_key(self.window, move |v| key(v))
    }
}

// ---------------------------------------------------------------------------
// GraphSpec: the builder.
// ---------------------------------------------------------------------------

/// A reusable, borrow-free description of a pipeline graph from input
/// values `I` to output values `O` — the "program text" a
/// [`CompiledGraph`] re-instantiates for every job. Build one with the
/// combinators below, then [`compile`](GraphSpec::compile) it onto a
/// runtime.
pub struct GraphSpec<I: Send + 'static, O: Send + 'static> {
    plan: Arc<dyn StagePlan<I, O>>,
}

impl<I: Send + 'static> GraphSpec<I, I> {
    /// The identity spec: jobs flow straight from source to sink. Chain
    /// combinators to add stages.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        GraphSpec {
            plan: Arc::new(IdentityPlan),
        }
    }
}

impl<I: Send + 'static, O: Send + 'static> GraphSpec<I, O> {
    fn then<U: Send + 'static>(self, plan: impl StagePlan<O, U>) -> GraphSpec<I, U> {
        GraphSpec {
            plan: Arc::new(ChainPlan {
                a: self.plan,
                b: Arc::new(plan),
            }),
        }
    }

    /// A linear 1:1 transform stage (see [`Node::map`]).
    pub fn map<U: Send + 'static>(
        self,
        f: impl Fn(O) -> U + Send + Sync + 'static,
    ) -> GraphSpec<I, U> {
        self.then(MapPlan { f: Arc::new(f) })
    }

    /// A linear filter/transform stage (see [`Node::filter_map`]).
    pub fn filter_map<U: Send + 'static>(
        self,
        f: impl Fn(O) -> Option<U> + Send + Sync + 'static,
    ) -> GraphSpec<I, U> {
        self.then(FilterMapPlan { f: Arc::new(f) })
    }

    /// A linear 1:N expansion stage (see [`Node::flat_map`]).
    pub fn flat_map<U: Send + 'static>(
        self,
        f: impl Fn(O) -> Vec<U> + Send + Sync + 'static,
    ) -> GraphSpec<I, U> {
        self.then(FlatMapPlan { f: Arc::new(f) })
    }

    /// Deterministic round-robin fan-out across `degree` replicas of a
    /// 1:1 stage, rejoined in serial order through a reorder window (see
    /// [`Node::split`] / [`crate::graph::Fanout::merge`]).
    pub fn fanout_map<U: Send + 'static>(
        self,
        degree: usize,
        window: usize,
        f: impl Fn(O) -> U + Send + Sync + 'static,
    ) -> GraphSpec<I, U> {
        self.then(FanoutMapPlan {
            degree: degree.max(1),
            window: window.max(1),
            f: Arc::new(f),
        })
    }

    /// Keyed fan-out over `degree` stateful shards with an ordered k-way
    /// fan-in — the sharded-aggregation shape (see
    /// [`crate::graph::Fanout::shard`] /
    /// [`crate::graph::Shards::merge_by_key`]). Values route by
    /// `route(v) % degree`; each shard folds its values through
    /// `init`/`step`/`finish`, and must emit ascending by `key`.
    pub fn sharded<S, U, K>(
        self,
        degree: usize,
        window: usize,
        route: impl Fn(&O) -> u64 + Send + Sync + 'static,
        init: impl Fn(usize) -> S + Send + Sync + 'static,
        step: impl Fn(&mut S, O, &mut Vec<U>) + Send + Sync + 'static,
        finish: impl Fn(S, &mut Vec<U>) + Send + Sync + 'static,
        key: impl Fn(&U) -> K + Send + Sync + 'static,
    ) -> GraphSpec<I, U>
    where
        S: 'static,
        U: Send + 'static,
        K: Ord + 'static,
    {
        self.then(ShardedPlan {
            degree: degree.max(1),
            window: window.max(1),
            route: Arc::new(route),
            init: Arc::new(init),
            step: Arc::new(step),
            finish: Arc::new(finish),
            key: Arc::new(key),
        })
    }

    /// Compiles the spec into a persistent, job-serving graph on `rt`.
    /// `I: Clone` is the retry reservation: a failed job can only be
    /// re-admitted if its input could be kept.
    pub fn compile(self, rt: Arc<Runtime>, cfg: ServiceConfig) -> CompiledGraph<I, O>
    where
        I: Clone,
    {
        CompiledGraph::start(rt, self.plan, cfg)
    }
}

// ---------------------------------------------------------------------------
// The persistent service graph.
// ---------------------------------------------------------------------------

/// Knobs of a [`CompiledGraph`] (see the README's "Service layer"
/// section for how they interact).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission bound: at most this many jobs execute concurrently;
    /// excess requests queue FIFO (see [`swan::JobTable`]). Default 4.
    pub max_in_flight: usize,
    /// Segment capacity of every graph edge, rounded up to a power of two
    /// ([`hyperqueue::segment_capacity_for`]). Default
    /// [`DEFAULT_EDGE_CAPACITY`].
    pub segment_capacity: usize,
    /// Per-round stage batch size. Default [`DEFAULT_IO_BATCH`].
    pub io_batch: usize,
    /// Retry discipline for failed (panicking) jobs. The default,
    /// [`RetryPolicy::none`], keeps the historical fail-fast behaviour; a
    /// non-zero `max_retries` re-admits failed jobs through the normal
    /// admission gate after an exponential backoff, and only a job that
    /// exhausts its budget surfaces a [`JobError`] (whose
    /// [`attempts`](JobError::attempts) then counts every execution).
    pub retry: RetryPolicy,
    /// Label under which this graph's jobs report their latency
    /// histogram in [`CompiledGraph::telemetry`] (`hqd` sets the
    /// workload name). Restricted to `[A-Za-z0-9_-]` on the wire; other
    /// characters are replaced with `_`. Default `"jobs"`.
    pub job_class: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 4,
            segment_capacity: DEFAULT_EDGE_CAPACITY,
            io_batch: DEFAULT_IO_BATCH,
            retry: RetryPolicy::none(),
            job_class: "jobs".to_string(),
        }
    }
}

/// Aggregate segment-storage counters of a [`CompiledGraph`] (summed over
/// its per-edge pools; see [`TelemetrySnapshot::edges`] for the
/// per-edge breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStorageStats {
    /// Graph edges instantiated so far (pools created).
    pub edges: usize,
    /// Heap segment allocations across all edges — pool misses. Flat
    /// across jobs once the graph is warm: the zero-allocation steady
    /// state.
    pub segments_allocated: u64,
    /// Allocation requests served by the pools without heap traffic.
    pub pool_hits: u64,
    /// Segments currently parked in the pools.
    pub segments_pooled: u64,
    /// Segments handed back by completed jobs' queues.
    pub segments_returned: u64,
}

/// A job's completion callback (see [`CompiledGraph::submit_with`]).
type DoneFn<O> = Box<dyn FnOnce(Result<Vec<O>, JobError>) + Send>;

/// Everything needed to start one execution of a job — what the
/// admission gate parks while every slot is taken, and what the retry
/// timer holds through a backoff.
struct JobRequest<I, O> {
    input: Vec<I>,
    on_done: DoneFn<O>,
    /// 0-based execution attempt; > 0 only for retry re-admissions.
    attempt: u32,
    /// When the job was first submitted — retries keep the original, so
    /// the latency histogram measures submit-to-final-outcome.
    submitted: Instant,
}

struct ServiceCore<I: Send + 'static, O: Send + 'static> {
    rt: Arc<Runtime>,
    plan: Arc<dyn StagePlan<I, O>>,
    pools: EdgePools,
    jobs: JobTable<JobRequest<I, O>>,
    seg_cap: usize,
    io_batch: usize,
    retry: RetryPolicy,
    retry_timer: RetryTimer,
    /// Submit-to-completion latency (µs), recorded by the finishing
    /// worker once the job's outcome is known — off the fast path, and
    /// allocation-free (see [`LatencyHistogram::record`]).
    latency: LatencyHistogram,
    /// The job-class label the histogram reports under.
    job_class: String,
}

impl<I: Clone + Send + 'static, O: Send + 'static> ServiceCore<I, O> {
    /// Enters `req` at the back of the admission line and starts it if a
    /// slot is free; `Ok` is its place in the admission order.
    fn enter(
        self: &Arc<Self>,
        req: JobRequest<I, O>,
        max_queued: usize,
    ) -> Result<u64, Refused<JobRequest<I, O>>> {
        let Entered { seq, start } = self.jobs.enter(req, max_queued)?;
        if let Some(req) = start {
            self.start(req);
        }
        Ok(seq)
    }

    /// Folds a finished job into the latency histogram. One relaxed
    /// `fetch_add`; called only once the outcome (success or terminal
    /// failure) is settled, never on a retry re-queue.
    #[inline]
    fn record_latency(&self, submitted: Instant) {
        self.latency.record(submitted.elapsed().as_micros() as u64);
    }

    /// Starts one execution of an admitted job (it holds an in-flight
    /// slot) as a detached root: the root task instantiates the graph,
    /// and the root's completion hook — on whichever worker finished the
    /// job — passes the slot on, then settles the outcome.
    fn start(self: &Arc<Self>, req: JobRequest<I, O>) {
        let JobRequest {
            input,
            on_done,
            attempt,
            submitted,
        } = req;
        // The input clone is the retry reservation; skipped entirely when
        // retries are off.
        let retry_input = (self.retry.max_retries > 0).then(|| input.clone());
        let out = Arc::new(Mutex::new(Vec::new()));
        let (build, sink) = (Arc::clone(self), Arc::clone(&out));
        let core = Arc::clone(self);
        self.rt.spawn_root(
            move |s| build.instantiate(s, input, sink),
            move |panic| {
                // Slot first: the next job in line starts before this
                // one's reply is encoded, and a backoff never holds it.
                if let Some(next) = core.jobs.leave() {
                    core.start(next);
                }
                let Some(payload) = panic else {
                    core.record_latency(submitted);
                    return on_done(Ok(std::mem::take(&mut *out.lock())));
                };
                match (core.retry.on_failure(attempt), retry_input) {
                    (RetryDecision::Retry { backoff }, Some(input)) => {
                        core.jobs.note_retry();
                        let req = JobRequest {
                            input,
                            on_done,
                            attempt: attempt + 1,
                            submitted,
                        };
                        // A fresh, unbounded entry (never refused): jobs
                        // that were already waiting keep their turn.
                        let again = Arc::clone(&core);
                        let readmit = move || drop(again.enter(req, usize::MAX));
                        core.retry_timer.schedule(backoff, Box::new(readmit));
                    }
                    (..) => {
                        core.jobs.note_failed();
                        core.record_latency(submitted);
                        on_done(Err(JobError::from_panic(payload, attempt + 1)));
                    }
                }
            },
        );
    }

    /// The root task's body: instantiate the plan over pooled edges; the
    /// sink stage leaves the job's output in `out`.
    fn instantiate(&self, s: &Scope<'static>, input: Vec<I>, out: Arc<Mutex<Vec<O>>>) {
        let cursor = self.pools.cursor();
        let gb = GraphBuilder::on(s)
            .segment_capacity(self.seg_cap)
            .io_batch(self.io_batch)
            .pooled(&cursor);
        self.plan
            .build(gb.source_iter(input))
            .collect_with(move |vals| *out.lock() = vals);
    }
}

/// A closure and when to run it.
type Timed = (Instant, Box<dyn FnOnce() + Send>);

/// Runs closures after a delay: where a failed job waits out its retry
/// backoff. The job holds no execution slot and no thread meanwhile —
/// its request sits here until due, then re-enters admission. The one
/// timer thread starts with the first retry; a service that never
/// retries never has it.
struct RetryTimer(Mutex<Option<(mpsc::Sender<Timed>, JoinHandle<()>)>>);

impl RetryTimer {
    fn schedule(&self, delay: Duration, f: Box<dyn FnOnce() + Send>) {
        let mut started = self.0.lock();
        let (tx, _) = started.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            let thread = std::thread::Builder::new()
                .name("hq-retry".to_string())
                .spawn(move || timer_loop(rx))
                .expect("failed to spawn retry timer thread");
            (tx, thread)
        });
        tx.send((Instant::now() + delay, f))
            .expect("the timer thread runs until its sender is dropped");
    }
}

fn timer_loop(rx: mpsc::Receiver<Timed>) {
    let mut due: Vec<Timed> = Vec::new();
    loop {
        let now = Instant::now();
        if let Some(i) = due.iter().position(|(at, _)| *at <= now) {
            (due.swap_remove(i).1)();
            continue;
        }
        let next = match due.iter().map(|(at, _)| *at).min() {
            Some(at) => rx.recv_timeout(at - now),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match next {
            Ok(timed) => due.push(timed),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // The service is gone; its pending closures held it alive, so
            // none are left.
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

impl Drop for RetryTimer {
    fn drop(&mut self) {
        if let Some((tx, thread)) = self.0.get_mut().take() {
            drop(tx);
            // The timer's own closure may have released the last handle.
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

/// A persistent pipeline graph serving many independent jobs (see module
/// docs). Create with [`GraphSpec::compile`]; share across client threads
/// by reference (`submit` takes `&self`). The graph owns no threads: jobs
/// are tasks on the runtime's workers. Dropping the handle cancels
/// nothing — accepted jobs still run and answer their callbacks, and the
/// pooled storage is released with the last of them.
pub struct CompiledGraph<I: Send + 'static, O: Send + 'static> {
    core: Arc<ServiceCore<I, O>>,
}

impl<I: Clone + Send + 'static, O: Send + 'static> CompiledGraph<I, O> {
    fn start(rt: Arc<Runtime>, plan: Arc<dyn StagePlan<I, O>>, cfg: ServiceConfig) -> Self {
        let core = Arc::new(ServiceCore {
            rt,
            plan,
            pools: EdgePools::new(),
            jobs: JobTable::new(cfg.max_in_flight),
            seg_cap: cfg.segment_capacity,
            io_batch: cfg.io_batch.max(1),
            retry: cfg.retry,
            retry_timer: RetryTimer(Mutex::new(None)),
            latency: LatencyHistogram::new(),
            job_class: cfg.job_class,
        });
        CompiledGraph { core }
    }

    /// Submits one job — a finite stream of inputs — under `admission`
    /// and returns immediately: `Ok` with the job's position in the
    /// global admission order, or the input handed back in
    /// [`Refused::request`] with the waiting-line depth observed.
    ///
    /// With [`Admission::Unbounded`] the job is always accepted. With
    /// [`Admission::Bounded`] — the backpressure entry point for network
    /// front-ends — the job is accepted only while fewer than
    /// `max_queued` accepted jobs are still waiting for an in-flight slot
    /// (executing jobs don't count; see [`swan::JobTable::enter`]), and a
    /// refusal lets the caller tell its client to retry instead of
    /// buffering without bound.
    ///
    /// An accepted job runs when the admission gate (FIFO, bounded
    /// in-flight) lets it through; its output is the serial elision of
    /// the graph applied to `input`, independent of worker count and of
    /// whatever other jobs are in flight. `on_done` then fires **exactly
    /// once**, on the worker that finished the job: with the output, or
    /// with the [`JobError`] of a stage panic once the retry budget is
    /// spent. It is never invoked for a rejected job. It runs on a
    /// worker, so it must not block on other jobs.
    pub fn submit_with(
        &self,
        input: Vec<I>,
        admission: Admission,
        on_done: impl FnOnce(Result<Vec<O>, JobError>) + Send + 'static,
    ) -> Result<u64, Refused<Vec<I>>> {
        let max_queued = match admission {
            Admission::Unbounded => usize::MAX,
            Admission::Bounded { max_queued } => max_queued,
        };
        let req = JobRequest {
            input,
            on_done: Box::new(on_done),
            attempt: 0,
            submitted: Instant::now(),
        };
        self.core
            .enter(req, max_queued)
            .map_err(|Refused { depth, request }| Refused {
                depth,
                request: request.input,
            })
    }

    /// [`submit_with`](CompiledGraph::submit_with) for callers that want
    /// to block on the result: the callback fills the one-shot slot
    /// behind the returned [`JobHandle`] (a channel of one).
    pub fn submit(&self, input: Vec<I>, admission: Admission) -> Submission<I, O> {
        let (fill, slot) = mpsc::sync_channel(1);
        // The handle may be gone by then: nobody wants the result.
        let on_done = move |result| drop(fill.send(result));
        match self.submit_with(input, admission, on_done) {
            Ok(id) => Submission::Accepted(JobHandle { id, slot }),
            Err(Refused { depth, request }) => Submission::Rejected {
                depth,
                input: request,
            },
        }
    }

    /// The runtime this graph serves jobs on.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.core.rt
    }

    /// The consolidated observability snapshot (DESIGN.md §6.5): one
    /// [`TelemetrySnapshot`] carrying the scheduler counters, per-edge
    /// and aggregate queue/storage counters, the admission gate, and
    /// this graph's per-job-class latency histogram.
    ///
    /// Counter values follow the [`crate::telemetry::read_counter`]
    /// contract: individually monotonic, approximate while jobs run,
    /// exact once the graph is idle.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let edges = self.core.pools.edge_telemetry();
        let mut queues = QueueStats::default();
        let mut storage = ServiceStorageStats {
            edges: edges.len(),
            ..Default::default()
        };
        for e in &edges {
            queues.merge(&e.queues);
            storage.segments_allocated += e.pool.misses;
            storage.pool_hits += e.pool.hits;
            storage.segments_pooled += e.pool.available;
            storage.segments_returned += e.pool.returned;
        }
        TelemetrySnapshot {
            version: TELEMETRY_VERSION,
            sched: self.core.rt.metrics(),
            queues,
            storage,
            admission: self.core.jobs.stats(),
            edges,
            latency: vec![ClassLatency {
                class: self.core.job_class.clone(),
                histogram: self.core.latency.snapshot(),
            }],
            ingress: None,
            journal: None,
        }
    }

    /// Tops every edge pool up to `segments_per_edge` parked segments, so
    /// subsequent jobs provably never touch the heap. How many segments a
    /// job can demand per edge is timing-dependent (an unthrottled
    /// producer may chain segments as far ahead of its consumer as the
    /// job's item count allows), so the *deterministic* zero-allocation
    /// recipe is: run one job to instantiate the edges, then prewarm with
    /// `ceil(job_items / segment_capacity) + 2` — the worst case any
    /// schedule can reach, with `segment_capacity` the value segments
    /// really have ([`hyperqueue::segment_capacity_for`] of the configured
    /// one, which telemetry reports per edge). Call while idle: segments checked out by
    /// running jobs are not counted as parked.
    pub fn prewarm(&self, segments_per_edge: usize) {
        self.core.pools.prewarm(segments_per_edge);
    }
}

impl<I: Clone + Send + 'static, O: Send + 'static> TelemetrySource for CompiledGraph<I, O> {
    fn telemetry(&self) -> TelemetrySnapshot {
        CompiledGraph::telemetry(self)
    }
}

// ---------------------------------------------------------------------------
// Job handles.
// ---------------------------------------------------------------------------

/// Admission discipline for [`CompiledGraph::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Always accept. In-process callers that tolerate queueing (tests,
    /// benches, batch drivers) use this; the job still waits its FIFO
    /// turn at the in-flight gate.
    Unbounded,
    /// Accept only while fewer than `max_queued` accepted jobs are still
    /// waiting for admission — the backpressure discipline for network
    /// front-ends (a refusal maps to the ingress protocol's RETRY).
    Bounded {
        /// Bound on accepted-but-not-yet-admitted jobs (min 1 applies at
        /// the [`swan::JobTable`]).
        max_queued: usize,
    },
}

/// The typed outcome of [`CompiledGraph::submit`].
#[must_use = "a rejected submission carries the input back; an accepted one carries the handle"]
pub enum Submission<I, O> {
    /// The job was accepted; await its output through the handle.
    Accepted(JobHandle<O>),
    /// The admission queue was at its [`Admission::Bounded`] bound. The
    /// input comes back so the caller can retry without cloning it up
    /// front; `depth` is the waiting-line length observed at refusal.
    Rejected {
        /// Jobs accepted but not yet admitted when the refusal happened.
        depth: usize,
        /// The rejected job input, returned to the caller.
        input: Vec<I>,
    },
}

impl<I, O> Submission<I, O> {
    /// The handle if accepted, `None` if rejected (dropping the input).
    pub fn accepted(self) -> Option<JobHandle<O>> {
        match self {
            Submission::Accepted(handle) => Some(handle),
            Submission::Rejected { .. } => None,
        }
    }

    /// Unwraps the accepted handle; panics on a rejection. Infallible for
    /// [`Admission::Unbounded`] submissions, which are never rejected.
    pub fn expect_accepted(self) -> JobHandle<O> {
        match self {
            Submission::Accepted(handle) => handle,
            Submission::Rejected { depth, .. } => {
                panic!("job rejected: admission queue full ({depth} jobs waiting)")
            }
        }
    }

    /// True when the submission was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Submission::Accepted(_))
    }
}

/// Why a job failed (a stage or the job scope panicked), after how many
/// execution attempts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobError {
    message: String,
    attempts: u32,
}

impl JobError {
    fn from_panic(payload: Box<dyn Any + Send>, attempts: u32) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked".to_string());
        JobError { message, attempts }
    }

    /// Total execution attempts the job consumed before failing
    /// terminally (1 with retries disabled; 0 only for the synthetic
    /// "abandoned" error of a job whose callback was dropped unfired).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JobError {}

/// Handle to one submitted job. Await the output with
/// [`join`](JobHandle::join) / [`wait`](JobHandle::wait); dropping the
/// handle abandons the result but not the job.
pub struct JobHandle<O> {
    id: u64,
    /// One-shot: filled by the job's completion callback.
    slot: mpsc::Receiver<Result<Vec<O>, JobError>>,
}

impl<O> JobHandle<O> {
    /// The job's position in the global admission order (0-based,
    /// monotonic per graph).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the job completes; `Err` if a stage panicked (past
    /// the retry budget), or if the callback was dropped unfired because
    /// the runtime was torn down with the job still open.
    pub fn wait(self) -> Result<Vec<O>, JobError> {
        self.slot.recv().unwrap_or_else(|_| {
            Err(JobError {
                message: "job abandoned: the runtime shut down before it completed".to_string(),
                attempts: 0,
            })
        })
    }

    /// Blocks until the job completes and returns its output; panics on
    /// job failure (the ergonomic path for tests and drivers).
    pub fn join(self) -> Vec<O> {
        match self.wait() {
            Ok(out) => out,
            Err(e) => panic!("job failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_graph(
        workers: usize,
        max_in_flight: usize,
    ) -> (Arc<Runtime>, CompiledGraph<u64, u64>) {
        let rt = Arc::new(Runtime::with_workers(workers));
        let graph = GraphSpec::<u64, u64>::new()
            .fanout_map(3, 16, |x| x * x)
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    max_in_flight,
                    segment_capacity: 8,
                    ..ServiceConfig::default()
                },
            );
        (rt, graph)
    }

    #[test]
    fn single_job_equals_serial_elision() {
        let (_rt, graph) = square_graph(2, 2);
        let out = graph
            .submit((0..200).collect(), Admission::Unbounded)
            .expect_accepted()
            .join();
        assert_eq!(out, (0..200).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn many_concurrent_jobs_stay_isolated() {
        let (_rt, graph) = square_graph(4, 3);
        let handles: Vec<_> = (0..20)
            .map(|j| {
                graph
                    .submit((j * 37..j * 37 + 64).collect(), Admission::Unbounded)
                    .expect_accepted()
            })
            .collect();
        for (j, h) in handles.into_iter().enumerate() {
            let j = j as u64;
            assert_eq!(
                h.join(),
                (j * 37..j * 37 + 64).map(|x| x * x).collect::<Vec<u64>>(),
                "job {j} output polluted by a concurrent job"
            );
        }
        let js = graph.telemetry().admission;
        assert_eq!(js.completed, 20);
        assert!(js.high_water_in_flight <= 3, "admission bound violated");
    }

    #[test]
    fn telemetry_reports_the_rounded_segment_capacity() {
        for (requested, real) in [(3, 4), (100, 128)] {
            let rt = Arc::new(Runtime::with_workers(2));
            let graph = GraphSpec::<u64, u64>::new()
                .fanout_map(2, 16, |x| x + 1)
                .compile(
                    rt,
                    ServiceConfig {
                        segment_capacity: requested,
                        ..ServiceConfig::default()
                    },
                );
            graph
                .submit((0..300).collect(), Admission::Unbounded)
                .expect_accepted()
                .join();
            let snap = graph.telemetry();
            assert!(!snap.edges.is_empty());
            for e in &snap.edges {
                assert_eq!(e.pool.segment_capacity, real, "requested {requested}");
            }
            // The depth recipe with the real capacity is enough: no
            // allocation after prewarming to it.
            graph.prewarm(300usize.div_ceil(real) + 2);
            let warm = graph.telemetry().storage.segments_allocated;
            for _ in 0..5 {
                graph
                    .submit((0..300).collect(), Admission::Unbounded)
                    .expect_accepted()
                    .join();
            }
            assert_eq!(graph.telemetry().storage.segments_allocated, warm);
        }
    }

    #[test]
    fn warm_graph_reuses_segments() {
        let (_rt, graph) = square_graph(2, 1);
        graph
            .submit((0..500).collect(), Admission::Unbounded)
            .expect_accepted()
            .join();
        // 500 items, capacity-8 segments: no schedule can chain more than
        // ceil(500/8) + 2 segments on any edge.
        graph.prewarm(500 / 8 + 3);
        let warm = graph.telemetry();
        for _ in 0..10 {
            graph
                .submit((0..500).collect(), Admission::Unbounded)
                .expect_accepted()
                .join();
        }
        let after = graph.telemetry();
        assert_eq!(
            after.storage.segments_allocated, warm.storage.segments_allocated,
            "a warm graph must serve jobs without heap segment allocations: {:?}",
            after.storage
        );
        assert!(after.storage.pool_hits > warm.storage.pool_hits);
        assert!(after.storage.segments_returned > warm.storage.segments_returned);
        // The latency histogram saw every completion, without perturbing
        // the zero-allocation property just asserted above.
        assert_eq!(after.latency.len(), 1);
        assert_eq!(after.latency[0].class, "jobs");
        assert_eq!(after.latency[0].histogram.count(), 11);
        assert!(after.latency[0].histogram.quantile(0.5) > 0);
    }

    #[test]
    fn sharded_spec_aggregates_per_key() {
        let rt = Arc::new(Runtime::with_workers(4));
        let graph = GraphSpec::<u64, u64>::new()
            .sharded(
                3,
                8,
                // Route by the aggregation key so each key lives on
                // exactly one shard.
                |v: &u64| *v % 13,
                |_idx| std::collections::BTreeMap::<u64, u64>::new(),
                |counts, v, _emit| *counts.entry(v % 13).or_insert(0) += 1,
                |counts, emit| emit.extend(counts),
                |&(k, _)| k,
            )
            .compile(rt, ServiceConfig::default());
        let out = graph
            .submit((0..300).collect(), Admission::Unbounded)
            .expect_accepted()
            .join();
        let mut expect = std::collections::BTreeMap::<u64, u64>::new();
        for v in 0..300u64 {
            *expect.entry(v % 13).or_insert(0) += 1;
        }
        assert_eq!(out, expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bounded_submit_refuses_beyond_the_queue_bound() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let release = Arc::new(AtomicBool::new(false));
        let gate = Arc::clone(&release);
        let rt = Arc::new(Runtime::with_workers(2));
        let graph = GraphSpec::<u64, u64>::new()
            .map(move |x| {
                // Input 0 parks its job until the test opens the gate.
                while x == 0 && !gate.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                x + 1
            })
            .compile(
                Arc::clone(&rt),
                ServiceConfig {
                    max_in_flight: 1,
                    ..ServiceConfig::default()
                },
            );
        let blocker = graph
            .submit(vec![0], Admission::Unbounded)
            .expect_accepted();
        // Wait until the blocker is admitted, so it occupies the in-flight
        // slot rather than the waiting line.
        while graph.telemetry().admission.in_flight == 0 {
            std::thread::yield_now();
        }
        let bounded = Admission::Bounded { max_queued: 2 };
        let a = graph.submit(vec![1], bounded).expect_accepted();
        let b = graph.submit(vec![2], bounded).expect_accepted();
        match graph.submit(vec![3], bounded) {
            Submission::Rejected { depth, input } => {
                assert_eq!(depth, 2);
                assert_eq!(input, vec![3], "refused input must come back");
            }
            Submission::Accepted(_) => panic!("third queued job must be refused at bound 2"),
        }
        release.store(true, Ordering::Release);
        assert_eq!(blocker.join(), vec![1]);
        assert_eq!(a.join(), vec![2]);
        assert_eq!(b.join(), vec![3]);
        // The line drained: bounded submission works again.
        assert!(graph.submit(vec![4], bounded).is_accepted());
    }

    #[test]
    fn panicking_job_reports_error_and_service_survives() {
        let rt = Arc::new(Runtime::with_workers(2));
        let graph = GraphSpec::<u64, u64>::new()
            .map(|x| {
                assert!(x != 13, "unlucky");
                x + 1
            })
            .compile(rt, ServiceConfig::default());
        let bad = graph
            .submit(vec![12, 13, 14], Admission::Unbounded)
            .expect_accepted()
            .wait();
        assert!(bad.is_err(), "panicking stage must surface as JobError");
        let ok = graph
            .submit(vec![1, 2, 3], Admission::Unbounded)
            .expect_accepted()
            .join();
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn flaky_job_succeeds_within_retry_budget() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let failures_left = Arc::new(AtomicU32::new(2));
        let gate = Arc::clone(&failures_left);
        let rt = Arc::new(Runtime::with_workers(2));
        let graph = GraphSpec::<u64, u64>::new()
            .map(move |x| {
                // Input 13 panics until the counter drains — a job that
                // fails twice, then succeeds on its third attempt.
                if x == 13 {
                    let left = gate.load(Ordering::Acquire);
                    if left > 0 {
                        gate.store(left - 1, Ordering::Release);
                        panic!("transient failure ({left} left)");
                    }
                }
                x + 1
            })
            .compile(
                rt,
                ServiceConfig {
                    retry: swan::RetryPolicy::retries(3),
                    ..ServiceConfig::default()
                },
            );
        let out = graph
            .submit(vec![12, 13, 14], Admission::Unbounded)
            .expect_accepted()
            .join();
        assert_eq!(out, vec![13, 14, 15]);
        let js = graph.telemetry().admission;
        assert_eq!(js.retries, 2, "two failed attempts were re-admitted");
        assert_eq!(js.failed, 0);
        // Untouched jobs still run fine alongside.
        let ok = graph
            .submit(vec![1, 2], Admission::Unbounded)
            .expect_accepted()
            .join();
        assert_eq!(ok, vec![2, 3]);
    }

    #[test]
    fn exhausted_retries_fail_terminally_with_attempt_count() {
        let rt = Arc::new(Runtime::with_workers(2));
        let graph = GraphSpec::<u64, u64>::new()
            .map(|x| {
                assert!(x != 13, "always unlucky");
                x + 1
            })
            .compile(
                rt,
                ServiceConfig {
                    retry: swan::RetryPolicy::retries(2),
                    ..ServiceConfig::default()
                },
            );
        let err = graph
            .submit(vec![13], Admission::Unbounded)
            .expect_accepted()
            .wait()
            .expect_err("a deterministic panic must exhaust the budget");
        assert_eq!(err.attempts(), 3, "initial run + 2 retries");
        let js = graph.telemetry().admission;
        assert_eq!((js.retries, js.failed), (2, 1));
        // The service survives: later jobs run normally.
        let ok = graph
            .submit(vec![1], Admission::Unbounded)
            .expect_accepted()
            .join();
        assert_eq!(ok, vec![2]);
    }

    #[test]
    fn telemetry_snapshot_reflects_completed_work() {
        let (_rt, graph) = square_graph(2, 2);
        graph
            .submit((0..200).collect(), Admission::Unbounded)
            .expect_accepted()
            .join();
        drop(graph);
        let (_rt, graph) = square_graph(2, 2);
        graph
            .submit((0..200).collect(), Admission::Unbounded)
            .expect_accepted()
            .join();
        let stats = graph.telemetry();
        assert_eq!(stats.version, TELEMETRY_VERSION);
        assert_eq!(stats.admission.completed, 1);
        assert!(
            stats.sched.tasks_executed > 0,
            "runtime must have executed tasks: {:?}",
            stats.sched
        );
        assert!(
            stats.storage.segments_allocated > 0,
            "edges must have allocated segments: {:?}",
            stats.storage
        );
        assert_eq!(stats.edges.len(), stats.storage.edges);
        assert_eq!(stats.latency[0].histogram.count(), 1);
        // And the wire encoding of a real snapshot round-trips.
        let back =
            TelemetrySnapshot::parse_text(&stats.encode_text()).expect("well-formed encoding");
        assert_eq!(back, stats);
    }
}
