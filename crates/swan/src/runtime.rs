//! The runtime: worker pool, task execution, and the blocking/help protocol.
//!
//! # Scheduling discipline
//!
//! This is a *help-first* (child-stealing) runtime: `spawn` enqueues the
//! child and the parent keeps running. Cilk/Swan are *work-first*
//! (continuation-stealing), which stock Rust cannot express safely. The
//! difference matters in exactly one place: what a **blocked** worker is
//! allowed to run on top of its stack. Under work-first, stacks naturally
//! hold earlier work above later work, which is the property that makes the
//! paper's blocking `empty()` deadlock-free (§4.5). We restore that
//! property with *filtered help*:
//!
//! * blocked at `sync` → may run only **descendants** of the syncing frame;
//! * blocked in a queue operation → may run descendants or any task whose
//!   subtree **strictly precedes** the blocked frame in program order
//!   (exactly the tasks that can still produce values the consumer waits
//!   for).
//!
//! Both filters preserve the invariant "every native stack is ordered
//! earlier-above-later (with ancestors below their descendants)", so a
//! blocked frame never waits on work buried beneath it. Combined with the
//! paper's observation that hyperqueue dependences respect the serial
//! elision's total order, this yields deadlock freedom.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::config::RuntimeConfig;
use crate::frame::{Frame, FrameId, HelpMode};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::sched::{Deque, Injector, Registry, RunnableTask, Sleeper};
use crate::scope::Scope;
use crate::util::{Backoff, XorShift64};

/// Capacity of each per-worker deque; overflow goes to the unbounded
/// global injector.
const QUEUE_CAPACITY: usize = 512;

/// Upper bound on one steal batch: a thief takes
/// `min(STEAL_BATCH, ceil(victim_len/2))` ids per successful probe.
const STEAL_BATCH: usize = 16;

/// Maximum depth of nested "help" execution a blocked worker will stack
/// before falling back to passive waiting. Bounds stack growth of
/// filtered help (see DESIGN.md §3.1).
const MAX_HELP_DEPTH: usize = 64;

/// How long a worker parks at a time while idle or blocked. Short parks
/// sidestep lost-wakeup corner cases at negligible cost for the
/// millisecond-scale pipeline stages this runtime targets.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

thread_local! {
    /// The worker slot the current thread staffs: its runtime (the
    /// address of the `RtInner` the worker's own `Arc` keeps alive) and
    /// queue index. None on external threads.
    static WORKER_SLOT: Cell<Option<(*const RtInner, usize)>> = const { Cell::new(None) };
    /// Nesting depth of help-execution on this thread's stack.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

pub(crate) struct RtInner {
    pub(crate) config: RuntimeConfig,
    pub(crate) registry: Registry,
    pub(crate) injector: Injector,
    pub(crate) queues: Vec<Deque>,
    pub(crate) sleeper: Sleeper,
    pub(crate) metrics: Metrics,
    /// Elastic worker target: the worker on queue `idx` retires as soon as
    /// it observes `idx >= target_workers` (see `worker_main`). Always in
    /// `1..=queues.len()`.
    target_workers: AtomicUsize,
    /// Scopes and detached roots currently open on this runtime (see
    /// [`Runtime::quiesce`]).
    open_scopes: AtomicUsize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

/// Counts one scope or detached root out of [`RtInner::open_scopes`].
/// The decrement lives in `Drop` so panicking scopes and hooks are
/// counted out too, and it notifies the sleeper so a quiescing thread
/// re-checks promptly.
struct OpenScope<'rt>(&'rt RtInner);

impl Drop for OpenScope<'_> {
    fn drop(&mut self) {
        self.0.open_scopes.fetch_sub(1, Ordering::SeqCst);
        self.0.sleeper.notify_all();
    }
}

impl RtInner {
    pub(crate) fn alloc_id(&self) -> FrameId {
        FrameId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Queue index of the current thread if it is one of *this* runtime's
    /// workers. A worker of another runtime that opens a scope or helps
    /// here is an external thread: its index names a slot in its own
    /// runtime, and deque pushes are owner-only.
    fn worker_index(&self) -> Option<usize> {
        WORKER_SLOT.with(|w| match w.get() {
            Some((rt, idx)) if std::ptr::eq(rt, self) => Some(idx),
            _ => None,
        })
    }

    /// Makes task `id` runnable: local queue if on a worker, else injector.
    pub(crate) fn enqueue(&self, id: FrameId) {
        let pushed = self
            .worker_index()
            .is_some_and(|idx| self.queues[idx].push(id.0).is_ok());
        if !pushed {
            self.injector.push(id.0);
        }
        self.sleeper.notify_all();
    }

    fn chaos_delay(&self, id: FrameId) {
        if let Some(chaos) = &self.config.chaos {
            let mut rng = XorShift64::new(chaos.seed ^ id.0.wrapping_mul(0x9E37_79B9));
            let delay_us = rng.next_u64() % (chaos.max_delay_us + 1);
            if delay_us > 0 {
                let start = std::time::Instant::now();
                while (start.elapsed().as_micros() as u64) < delay_us {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Runs a claimed task to completion: body, implicit sync over its
    /// children, release callbacks (dataflow/hyperqueue completion
    /// handling), successor notification, and parent bookkeeping.
    pub(crate) fn execute(self: &Arc<Self>, task: RunnableTask) {
        self.chaos_delay(task.id);
        let frame = Arc::clone(&task.frame);
        let body = task.body;
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(body)) {
            frame.record_panic(payload);
        }
        // Implicit sync: a procedure completes only after all children have
        // (Cilk's implicit sync at function end). Panics propagate to the
        // parent rather than unwinding the worker.
        self.wait_children(&frame, false);
        // Release callbacks run *after* the implicit sync: this is the
        // "task completion" moment of §4.2 where views are reduced.
        for release in task.releases {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(release)) {
                frame.record_panic(payload);
            }
        }
        for id in self.registry.complete(task.id) {
            self.enqueue(id);
        }
        if let Some(parent) = &frame.parent {
            if let Some(payload) = frame.take_panic() {
                parent.record_panic(payload);
            }
            parent.child_completed();
        }
        Metrics::incr(&self.metrics.tasks_executed);
        self.sleeper.notify_all();
        if let Some(on_done) = task.on_done {
            // A detached root: this worker is the thread that would have
            // slept in `Runtime::scope`. The root stays open until the
            // hook has returned and its captures are dropped (`_open`
            // outlives the call); a panicking hook must not take the
            // worker down with it.
            let _open = OpenScope(self);
            let payload = frame.take_panic();
            let _ = panic::catch_unwind(AssertUnwindSafe(move || on_done(payload)));
        }
    }

    /// Passively waits for `frame`'s children without executing tasks.
    /// Used by the scope root on a non-worker thread: "P workers" must
    /// mean P executing threads, so the caller parks instead of becoming
    /// an extra worker (it still helps inside blocking *operations* like
    /// an owner-side `pop`, where its progress is semantically needed).
    pub(crate) fn wait_children_passive(&self, frame: &Arc<Frame>) {
        let mut backoff = Backoff::new();
        while frame.children_active() > 0 {
            if backoff.is_completed() {
                self.sleeper.park(PARK_TIMEOUT);
            } else {
                backoff.snooze();
            }
        }
    }

    /// Blocks until `frame` has no active children, helping with
    /// descendants meanwhile. With `rethrow`, resumes any panic collected
    /// from the subtree (used by explicit `sync` and scope roots).
    pub(crate) fn wait_children(self: &Arc<Self>, frame: &Arc<Frame>, rethrow: bool) {
        if frame.children_active() > 0 {
            let mut backoff = Backoff::new();
            loop {
                if frame.children_active() == 0 {
                    break;
                }
                if self.try_help(frame, HelpMode::Descendants) {
                    backoff.reset();
                    continue;
                }
                if backoff.is_completed() {
                    Metrics::incr(&self.metrics.parks);
                    self.sleeper.park(PARK_TIMEOUT);
                } else {
                    backoff.snooze();
                }
            }
        }
        if rethrow {
            if let Some(payload) = frame.take_panic() {
                panic::resume_unwind(payload);
            }
        }
    }

    /// Blocks until `cond` returns true, helping with `mode`-eligible tasks
    /// meanwhile. This is the waiting engine behind hyperqueue `empty()` /
    /// `pop()` and selective sync.
    pub(crate) fn block_until(
        self: &Arc<Self>,
        frame: &Arc<Frame>,
        mode: HelpMode,
        mut cond: impl FnMut() -> bool,
    ) {
        let mut backoff = Backoff::new();
        loop {
            if cond() {
                return;
            }
            if self.try_help(frame, mode) {
                backoff.reset();
                continue;
            }
            if backoff.is_completed() {
                Metrics::incr(&self.metrics.parks);
                self.sleeper.park(PARK_TIMEOUT);
            } else {
                backoff.snooze();
            }
        }
    }

    /// Claims and executes one help-eligible task. Returns false if none is
    /// eligible or the help stack is already [`MAX_HELP_DEPTH`] deep.
    fn try_help(self: &Arc<Self>, blocked: &Arc<Frame>, mode: HelpMode) -> bool {
        let depth = HELP_DEPTH.with(Cell::get);
        if depth >= MAX_HELP_DEPTH {
            return false;
        }
        let Some(task) = self.registry.claim_filtered(mode, blocked) else {
            return false;
        };
        match mode {
            HelpMode::Descendants => Metrics::incr(&self.metrics.helps_sync),
            HelpMode::Preceding => Metrics::incr(&self.metrics.helps_queue),
        }
        HELP_DEPTH.with(|d| d.set(depth + 1));
        self.execute(task);
        HELP_DEPTH.with(|d| d.set(depth));
        true
    }

    /// Worker's task-finding order (DESIGN.md §3.1): the local deque
    /// (LIFO), then steal-half batches from random victims, then the
    /// global injector. An idle worker first rebalances in-flight work
    /// (the Cilk regime), touching the shared injector only when every
    /// victim probe fails.
    fn find_task(&self, idx: usize, rng: &mut XorShift64) -> Option<RunnableTask> {
        while let Some(id) = self.queues[idx].pop() {
            if let Some(task) = self.registry.claim(id) {
                return Some(task);
            }
        }
        self.steal(idx, rng).or_else(|| self.pop_injector())
    }

    /// Claims the next runnable task from the global injector.
    fn pop_injector(&self) -> Option<RunnableTask> {
        while let Some(id) = self.injector.pop() {
            if let Some(task) = self.registry.claim(id) {
                return Some(task);
            }
        }
        None
    }

    /// Random victim probes (a couple of rounds; the worker loop
    /// retries). Steals up to [`STEAL_BATCH`] ids per successful probe;
    /// extras land in this worker's own queue.
    fn steal(&self, idx: usize, rng: &mut XorShift64) -> Option<RunnableTask> {
        let n = self.queues.len();
        if n <= 1 {
            return None;
        }
        for _ in 0..2 * n {
            let victim = rng.next_below(n);
            if victim == idx {
                continue;
            }
            let (first, stolen) =
                self.queues[victim].steal_batch_into(&self.queues[idx], STEAL_BATCH);
            let Some(first) = first else {
                Metrics::incr(&self.metrics.steal_failures);
                continue;
            };
            Metrics::incr(&self.metrics.steals);
            Metrics::add(&self.metrics.steal_batch_items, stolen as u64);
            if let Some(task) = self.registry.claim(first) {
                return Some(task);
            }
            // The first id was stale; any extras landed in our own queue —
            // drain them through the normal local path before re-probing.
            while let Some(id) = self.queues[idx].pop() {
                if let Some(task) = self.registry.claim(id) {
                    return Some(task);
                }
            }
        }
        None
    }

    fn worker_main(self: Arc<Self>, idx: usize) {
        WORKER_SLOT.with(|w| w.set(Some((Arc::as_ptr(&self), idx))));
        let mut rng =
            XorShift64::new(0xC0FF_EE00 ^ (idx as u64 + 1).wrapping_mul(0x1234_5678_9ABC));
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            // Elastic shrink: retire promptly (before claiming more work)
            // so a later grow can re-staff this slot without waiting out a
            // backlog. Anything left in this worker's queue stays stealable
            // by the survivors; queue 0 never retires (target >= 1).
            if idx >= self.target_workers.load(Ordering::Acquire) {
                break;
            }
            if let Some(task) = self.find_task(idx, &mut rng) {
                self.execute(task);
                continue;
            }
            Metrics::incr(&self.metrics.parks);
            self.sleeper.park(PARK_TIMEOUT);
        }
        WORKER_SLOT.with(|w| w.set(None));
    }
}

/// Spawns the worker thread for queue slot `idx`.
fn spawn_worker(inner: &Arc<RtInner>, idx: usize) -> JoinHandle<()> {
    let rt = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("swan-worker-{idx}"))
        .spawn(move || rt.worker_main(idx))
        .expect("failed to spawn worker thread")
}

/// A work-stealing task-dataflow runtime, in the mold of Swan.
///
/// Create one per process (or per benchmark configuration), then open
/// [`Runtime::scope`]s to spawn tasks. Dropping the runtime joins all
/// workers.
///
/// ```
/// let rt = swan::Runtime::with_workers(4);
/// let mut x = 0u64;
/// rt.scope(|s| {
///     s.spawn((), |_, ()| { /* runs in parallel */ });
///     x = 42; // the closure may borrow the environment
/// });
/// assert_eq!(x, 42);
/// ```
pub struct Runtime {
    inner: Arc<RtInner>,
    /// One slot per worker queue; `None` for slots whose worker is not
    /// currently staffed (never started, or retired by an elastic shrink).
    threads: Mutex<Vec<Option<JoinHandle<()>>>>,
}

impl Runtime {
    /// Builds a runtime from a configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let workers = config.workers.max(1);
        let max_workers = config.max_workers.max(workers);
        let queues = (0..max_workers)
            .map(|_| Deque::with_capacity(QUEUE_CAPACITY))
            .collect();
        let inner = Arc::new(RtInner {
            config,
            registry: Registry::new(),
            injector: Injector::new(),
            queues,
            sleeper: Sleeper::new(),
            metrics: Metrics::default(),
            target_workers: AtomicUsize::new(workers),
            open_scopes: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..max_workers)
            .map(|idx| (idx < workers).then(|| spawn_worker(&inner, idx)))
            .collect();
        Self {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Runtime with `workers` threads and default settings.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(RuntimeConfig::new().workers(workers))
    }

    /// A long-lived **service** runtime: one worker per machine core, kept
    /// hot across jobs (idle workers park on the sleeper, costing nothing
    /// between jobs), with elastic headroom to [`Runtime::resize_workers`]
    /// anywhere in `1..=max(cores, 8)`. Services enter each job as a
    /// detached root ([`Runtime::spawn_root`]) — a task on these workers
    /// with a completion hook, no thread of its own — and drain with
    /// [`Runtime::quiesce`]. Because hyperqueue programs are scale-free,
    /// resizing never changes observable job output — only throughput.
    pub fn persistent() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(RuntimeConfig::new().workers(cores..=cores.max(8)))
    }

    /// Number of worker threads the runtime was configured with (the
    /// initial staffing; see [`Runtime::active_workers`] for the current
    /// elastic target).
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// Current elastic worker target (threads serving tasks right now,
    /// modulo retirements still in flight).
    pub fn active_workers(&self) -> usize {
        self.inner.target_workers.load(Ordering::Acquire)
    }

    /// Upper bound for [`Runtime::resize_workers`].
    pub fn max_workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Elastically grows or shrinks the worker pool to `n` threads
    /// (clamped to `1..=max_workers`); returns the applied target.
    ///
    /// Shrinking is asynchronous: surplus workers retire as soon as they
    /// next look for work, and any tasks left in their queues remain
    /// stealable by the survivors. Growing first joins the retired threads
    /// of the re-staffed slots, then spawns fresh ones. Determinism is
    /// unaffected — programs on this runtime are scale-free, so a resize
    /// (even mid-job) changes throughput, never output.
    pub fn resize_workers(&self, n: usize) -> usize {
        let n = n.clamp(1, self.inner.queues.len());
        let mut threads = self.threads.lock();
        let cur = self.inner.target_workers.load(Ordering::Acquire);
        if n > cur {
            // Re-staffed slots may still hold a retiring thread from an
            // earlier shrink: join it before handing the queue to a new
            // one (retirement is prompt — checked before claiming work).
            for slot in threads[cur..n].iter_mut() {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
            }
            self.inner.target_workers.store(n, Ordering::Release);
            for (off, slot) in threads[cur..n].iter_mut().enumerate() {
                *slot = Some(spawn_worker(&self.inner, cur + off));
            }
        } else if n < cur {
            self.inner.target_workers.store(n, Ordering::Release);
            // Wake parked surplus workers so they notice and retire.
            self.inner.sleeper.notify_all();
        }
        n
    }

    /// Opens a scope: tasks spawned within may borrow from the enclosing
    /// environment; the scope returns only after every transitively spawned
    /// task has completed (this is the `sync` at the end of the paper's
    /// top-level procedure). Panics from tasks resurface here.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        self.inner.open_scopes.fetch_add(1, Ordering::SeqCst);
        let _open = OpenScope(&self.inner);
        let root = Frame::new_root(self.inner.alloc_id());
        let scope = Scope::new(Arc::clone(&self.inner), Arc::clone(&root));
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always wait — spawned tasks may borrow the environment. The
        // caller parks rather than helping: the configured worker count is
        // the whole compute budget (Cilk counts the caller as one of its P
        // workers; we keep it out of the pool instead so `with_workers(c)`
        // means exactly c executing threads).
        self.inner.wait_children_passive(&root);
        match result {
            Ok(value) => {
                if let Some(payload) = root.take_panic() {
                    panic::resume_unwind(payload);
                }
                value
            }
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Spawns a **detached root**: `body` runs as an ordinary task on a
    /// worker, with a [`Scope`] for a fresh spawn tree, and nobody waits
    /// for it. In place of the thread that sleeps in [`Runtime::scope`],
    /// `on_done` fires exactly once on the worker that finished the root —
    /// after the whole subtree has completed and its release callbacks
    /// have run — with the first panic payload of the subtree, if any.
    /// Everything is `'static`: there is no caller frame to borrow from.
    ///
    /// The root counts as open (see [`Runtime::open_scopes`]) from this
    /// call until `on_done` has returned and been dropped, so
    /// [`Runtime::quiesce`] covers the hook and whatever it captured. The
    /// hook may release the last handle to this runtime (dropping it on a
    /// worker is safe), but it must not block on other work of the
    /// runtime — it occupies a worker. Dropping the runtime abandons
    /// roots that are still open — quiesce first.
    ///
    /// ```
    /// use std::sync::mpsc;
    ///
    /// let rt = swan::Runtime::with_workers(2);
    /// let (tx, rx) = mpsc::channel();
    /// let tx2 = tx.clone();
    /// rt.spawn_root(
    ///     move |s| s.spawn((), move |_, ()| tx2.send(1).unwrap()),
    ///     move |panic| tx.send(if panic.is_none() { 2 } else { 0 }).unwrap(),
    /// );
    /// assert_eq!((rx.recv(), rx.recv()), (Ok(1), Ok(2)));
    /// rt.quiesce();
    /// ```
    pub fn spawn_root<F, H>(&self, body: F, on_done: H)
    where
        F: FnOnce(&Scope<'static>) + Send + 'static,
        H: FnOnce(Option<Box<dyn Any + Send>>) + Send + 'static,
    {
        // Counted out by the worker, after the hook.
        self.inner.open_scopes.fetch_add(1, Ordering::SeqCst);
        let id = self.inner.alloc_id();
        let root = Frame::new_root(id);
        let (rt, frame) = (Arc::clone(&self.inner), Arc::clone(&root));
        self.inner.registry.insert_root(
            id,
            root,
            Box::new(move || body(&Scope::new(rt, frame))),
            Box::new(on_done),
        );
        self.inner.enqueue(id);
    }

    /// Scopes and detached roots currently open on this runtime (jobs, in
    /// service terms).
    pub fn open_scopes(&self) -> usize {
        self.inner.open_scopes.load(Ordering::SeqCst)
    }

    /// Drains the runtime: blocks until every currently open
    /// [`Runtime::scope`] has returned and every detached root
    /// ([`Runtime::spawn_root`]) has run its hook to the end. This is the
    /// graceful-shutdown primitive for persistent services (see
    /// [`Runtime::persistent`]): stop submitting new work first
    /// (quiescing does not fence new scopes), then `quiesce()` guarantees
    /// all in-flight jobs have fully drained before the process tears the
    /// service down.
    ///
    /// The caller parks on the runtime's sleeper between checks, so
    /// waiting costs nothing while jobs run.
    pub fn quiesce(&self) {
        while self.inner.open_scopes.load(Ordering::SeqCst) > 0 {
            self.inner.sleeper.park(PARK_TIMEOUT);
        }
    }

    /// Bounded [`Runtime::quiesce`]: `true` if the runtime drained within
    /// `timeout`, `false` if scopes were still open when it elapsed.
    pub fn quiesce_timeout(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.inner.open_scopes.load(Ordering::SeqCst) > 0 {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.sleeper.park((deadline - now).min(PARK_TIMEOUT));
        }
        true
    }

    /// A snapshot of the scheduler counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// A cheap handle for use by dependency objects (hyperqueues).
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.sleeper.notify_all();
        // A detached root's hook may release the last handle, which lands
        // this drop on one of our own workers: that thread cannot join
        // itself. It holds its own `Arc<RtInner>`, sees the flag when the
        // hook returns, and exits unjoined; all others are reaped here.
        let me = std::thread::current().id();
        for t in self.threads.get_mut().iter_mut().filter_map(Option::take) {
            if t.thread().id() != me {
                let _ = t.join();
            }
        }
    }
}

/// A cheap, clonable reference to a runtime, used by dependency objects
/// (notably hyperqueues) to access the blocking/help protocol without a
/// lifetime tie to the [`Runtime`] value.
#[derive(Clone)]
pub struct RuntimeHandle {
    pub(crate) inner: Arc<RtInner>,
}

impl RuntimeHandle {
    /// Blocks the calling worker until `cond` holds, executing only
    /// help-eligible tasks meanwhile (see module docs). This implements the
    /// paper's design choice of *blocking the worker* on `empty()` (§4.5)
    /// while remaining deadlock-free under help-first scheduling.
    pub fn block_until(&self, frame: &Arc<Frame>, mode: HelpMode, cond: impl FnMut() -> bool) {
        self.inner.block_until(frame, mode, cond);
    }

    /// Wakes parked workers; called e.g. after a hyperqueue push so blocked
    /// consumers re-check their condition. Returns `false` when the wake
    /// was suppressed because no worker was parked (the common steady-state
    /// case) — callers may count suppressions for observability.
    pub fn notify(&self) -> bool {
        self.inner.sleeper.notify_all()
    }

    /// Number of worker threads in the runtime.
    pub fn workers(&self) -> usize {
        self.inner.config.workers
    }

    /// Scheduler metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runtime_starts_and_stops() {
        let rt = Runtime::with_workers(2);
        assert_eq!(rt.workers(), 2);
        drop(rt);
    }

    #[test]
    fn scope_runs_simple_task() {
        let rt = Runtime::with_workers(2);
        let counter = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..10 {
                s.spawn((), |_, ()| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn scope_allows_borrowing_environment() {
        let rt = Runtime::with_workers(2);
        let data = [1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        let sum_ref = &sum;
        rt.scope(|s| {
            for chunk in data.chunks(2) {
                s.spawn((), move |_, ()| {
                    // `chunk` borrows `data` from outside the scope.
                    sum_ref.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn nested_spawns_complete_before_scope_returns() {
        for workers in [1usize, 2, 4] {
            let rt = Runtime::with_workers(workers);
            let counter = Arc::new(AtomicUsize::new(0));
            let c2 = Arc::clone(&counter);
            rt.scope(move |s| {
                let c3 = c2;
                s.spawn((), move |s, ()| {
                    for _ in 0..32 {
                        let c = Arc::clone(&c3);
                        s.spawn((), move |_, ()| {
                            c.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
            assert_eq!(counter.load(Ordering::SeqCst), 32, "{workers} workers");
        }
    }

    #[test]
    fn deep_recursion_fork_join() {
        // fib via counting: fib(n) equals the number of `1` leaves reached.
        fn go<'s>(s: &crate::scope::Scope<'s>, n: u64, out: &'s AtomicU64) {
            if n < 2 {
                out.fetch_add(n, Ordering::Relaxed);
                return;
            }
            s.spawn((), move |s, ()| go(s, n - 1, out));
            go(s, n - 2, out);
        }
        let rt = Runtime::with_workers(4);
        let out = AtomicU64::new(0);
        rt.scope(|s| go(s, 15, &out));
        assert_eq!(out.load(Ordering::SeqCst), 610); // fib(15)
    }

    #[test]
    fn panic_in_task_propagates_to_scope() {
        let rt = Runtime::with_workers(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                s.spawn((), |_, ()| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // The runtime must still be usable afterwards.
        let ok = AtomicUsize::new(0);
        rt.scope(|s| {
            s.spawn((), |_, ()| {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_worker_runtime_makes_progress() {
        let rt = Runtime::with_workers(1);
        let counter = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..100 {
                s.spawn((), |_, ()| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn elastic_resize_grows_and_shrinks_between_work() {
        let rt = Runtime::new(RuntimeConfig::new().workers(1..=4));
        assert_eq!((rt.active_workers(), rt.max_workers()), (1, 4));
        let run_batch = |expect: usize| {
            let counter = AtomicUsize::new(0);
            rt.scope(|s| {
                for _ in 0..expect {
                    s.spawn((), |_, ()| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::SeqCst), expect);
        };
        run_batch(32);
        assert_eq!(rt.resize_workers(4), 4);
        run_batch(32);
        assert_eq!(rt.resize_workers(2), 2);
        run_batch(32);
        // Grow again: re-staffs slots whose threads retired above.
        assert_eq!(rt.resize_workers(3), 3);
        run_batch(32);
        // Clamping: 0 -> 1, beyond max -> max.
        assert_eq!(rt.resize_workers(0), 1);
        assert_eq!(rt.resize_workers(99), 4);
        run_batch(32);
    }

    #[test]
    fn resize_mid_job_does_not_lose_tasks() {
        let rt = Runtime::new(RuntimeConfig::new().workers(4..=8));
        let counter = AtomicUsize::new(0);
        rt.scope(|s| {
            for i in 0..256 {
                s.spawn((), |_, ()| {
                    let mut x = 0u64;
                    for j in 0..20_000u64 {
                        x = x.wrapping_mul(31).wrapping_add(j);
                    }
                    std::hint::black_box(x);
                    counter.fetch_add(1, Ordering::SeqCst);
                });
                if i == 64 {
                    rt.resize_workers(1);
                }
                if i == 128 {
                    rt.resize_workers(8);
                }
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn persistent_runtime_serves_scopes_from_multiple_threads() {
        let rt = Arc::new(Runtime::persistent());
        assert!(rt.max_workers() >= rt.active_workers());
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (rt, total) = (Arc::clone(&rt), Arc::clone(&total));
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        rt.scope(|s| {
                            for _ in 0..4 {
                                let t = Arc::clone(&total);
                                s.spawn((), move |_, ()| {
                                    t.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 8 * 4);
    }

    #[test]
    fn quiesce_waits_for_open_scopes() {
        let rt = Arc::new(Runtime::with_workers(2));
        assert_eq!(rt.open_scopes(), 0);
        rt.quiesce(); // idle runtime: returns immediately
        let release = Arc::new(AtomicBool::new(false));
        let (rt2, release2) = (Arc::clone(&rt), Arc::clone(&release));
        let worker = std::thread::spawn(move || {
            rt2.scope(|s| {
                s.spawn((), move |_, ()| {
                    while !release2.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                });
            });
        });
        // The scope above is held open by its spinning task.
        while rt.open_scopes() == 0 {
            std::thread::yield_now();
        }
        assert!(
            !rt.quiesce_timeout(std::time::Duration::from_millis(30)),
            "quiesce must not report drained while a scope is open"
        );
        release.store(true, Ordering::Release);
        rt.quiesce();
        assert_eq!(rt.open_scopes(), 0);
        worker.join().unwrap();
    }

    #[test]
    fn quiesce_counts_out_panicking_scopes() {
        let rt = Runtime::with_workers(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                s.spawn((), |_, ()| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        assert_eq!(rt.open_scopes(), 0, "panicked scope still counted open");
        assert!(rt.quiesce_timeout(std::time::Duration::from_secs(1)));
    }

    #[test]
    fn detached_root_hook_fires_once_after_the_whole_subtree() {
        use crate::Versioned;
        for workers in [1usize, 2, 4] {
            let rt = Runtime::with_workers(workers);
            let ran = Arc::new(AtomicUsize::new(0));
            let cell = Arc::new(Versioned::new(0u64));
            let (tx, rx) = std::sync::mpsc::channel();
            let (ran_body, ran_hook) = (Arc::clone(&ran), Arc::clone(&ran));
            let (cell_body, cell_hook) = (Arc::clone(&cell), Arc::clone(&cell));
            rt.spawn_root(
                move |s| {
                    // A grandchild tree plus a writer whose release
                    // callback publishes the cell's new version.
                    s.spawn((), move |s, ()| {
                        for _ in 0..16 {
                            let ran = Arc::clone(&ran_body);
                            s.spawn((), move |_, ()| {
                                std::thread::sleep(Duration::from_micros(50));
                                ran.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                    s.spawn((cell_body.write(),), |_, (mut w,)| *w = 7);
                },
                move |panic| {
                    let seen = (ran_hook.load(Ordering::SeqCst), cell_hook.read_latest());
                    tx.send((panic.is_none(), seen)).unwrap();
                },
            );
            assert_eq!(rx.recv(), Ok((true, (16, 7))), "{workers} workers");
            rt.quiesce();
            assert!(rx.try_recv().is_err(), "hook fired twice");
            assert_eq!(rt.open_scopes(), 0);
        }
    }

    #[test]
    fn detached_root_hook_receives_the_subtree_panic() {
        let rt = Runtime::with_workers(2);
        let (tx, rx) = std::sync::mpsc::channel();
        rt.spawn_root(
            |s| s.spawn((), |s, ()| s.spawn((), |_, ()| panic!("deep in a root"))),
            move |panic| {
                let message = panic.and_then(|p| p.downcast_ref::<&str>().map(|m| m.to_string()));
                tx.send(message).unwrap();
            },
        );
        assert_eq!(rx.recv(), Ok(Some("deep in a root".to_string())));
        // A panicking *hook* is contained too: the worker survives it.
        rt.spawn_root(|_| {}, |_| panic!("hook blew up"));
        rt.quiesce();
        let ok = AtomicUsize::new(0);
        rt.scope(|s| {
            s.spawn((), |_, ()| {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn quiesce_counts_a_detached_root_until_its_hook_is_dropped() {
        struct SetOnDrop(Arc<AtomicBool>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let rt = Runtime::with_workers(2);
        let release = Arc::new(AtomicBool::new(false));
        let dropped = Arc::new(AtomicBool::new(false));
        let in_hook = Arc::new(AtomicBool::new(false));
        let (gate, entered) = (Arc::clone(&release), Arc::clone(&in_hook));
        let capture = SetOnDrop(Arc::clone(&dropped));
        rt.spawn_root(
            |_| {},
            move |_| {
                let _capture = &capture;
                entered.store(true, Ordering::SeqCst);
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            },
        );
        while !in_hook.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The subtree is long done; the hook alone keeps the root open.
        assert_eq!(rt.open_scopes(), 1);
        assert!(!rt.quiesce_timeout(Duration::from_millis(30)));
        release.store(true, Ordering::Release);
        rt.quiesce();
        assert!(
            dropped.load(Ordering::SeqCst),
            "quiesce returned while the hook still owned its captures"
        );
    }

    #[test]
    fn full_deque_overflow_spills_to_injector() {
        // Spawn far more tasks than one deque holds (capacity 512) from a
        // single frame: the overflow must ride the injector, and every
        // child must still run exactly once. At 1 worker no thief can
        // drain the deque, so all of the excess takes the injector path.
        const CHILDREN: usize = 2000;
        for workers in [1usize, 2] {
            let rt = Runtime::with_workers(workers);
            let runs: Vec<AtomicUsize> = (0..CHILDREN).map(|_| AtomicUsize::new(0)).collect();
            rt.scope(|s| {
                s.spawn((), |s, ()| {
                    for run in &runs {
                        s.spawn((), move |_, ()| {
                            run.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
            for (i, run) in runs.iter().enumerate() {
                assert_eq!(
                    run.load(Ordering::SeqCst),
                    1,
                    "child {i}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn work_is_actually_stolen_across_workers() {
        // A chain of sequentially-spawning tasks from one frame, each doing
        // real work, should exercise the deques; with several workers some
        // steals or injector traffic must occur. We assert the weaker
        // property that all tasks ran and multiple workers participated.
        let rt = Runtime::with_workers(4);
        let ids = parking_lot::Mutex::new(std::collections::HashSet::new());
        rt.scope(|s| {
            for _ in 0..64 {
                s.spawn((), |_, ()| {
                    let mut x = 0u64;
                    for i in 0..200_000u64 {
                        x = x.wrapping_mul(31).wrapping_add(i);
                    }
                    std::hint::black_box(x);
                    ids.lock().insert(std::thread::current().id());
                });
            }
        });
        let n = ids.lock().len();
        assert!(n >= 2, "expected multiple workers to run tasks, got {n}");
    }
}
