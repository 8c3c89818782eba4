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
//!
//! # Queues
//!
//! A task is its [`Frame`], and the queues hold frames: each worker owns a
//! [`TaskQueue`], and one more serves as the injector for threads that are
//! not this runtime's workers. A ready task sits in exactly one queue, so
//! popping it is claiming it. A task with dataflow predecessors waits in
//! their successor lists instead, and the predecessor that completes last
//! enqueues it. Workers and blocked operations park on the [`Sleeper`];
//! threads that only wait (`Runtime::scope`'s caller, `Runtime::quiesce`)
//! wait on the [`Latch`].

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::RuntimeConfig;
use crate::frame::{Frame, FrameId, HelpMode, Releases, TaskBody};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::sched::{Latch, Sleeper, TaskQueue};
use crate::scope::Scope;
use crate::util::{Backoff, XorShift64};

/// Upper bound on one steal batch: a thief takes
/// `min(STEAL_BATCH, ceil(victim_len/2))` tasks per successful probe.
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
    /// One queue per worker; the owner pushes and pops at the back.
    queues: Vec<TaskQueue>,
    /// Tasks made ready by threads that are not this runtime's workers.
    injector: TaskQueue,
    pub(crate) sleeper: Sleeper,
    /// Releases `Runtime::scope`'s caller and `Runtime::quiesce`.
    latch: Latch,
    pub(crate) metrics: Metrics,
    /// Scopes and detached roots currently open on this runtime (see
    /// [`Runtime::quiesce`]).
    open_scopes: AtomicUsize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

/// Counts one scope or detached root out of [`RtInner::open_scopes`].
/// The decrement lives in `Drop` so panicking scopes and hooks are
/// counted out too; the last one releases a quiescing thread.
struct OpenScope<'rt>(&'rt RtInner);

impl Drop for OpenScope<'_> {
    fn drop(&mut self) {
        if self.0.open_scopes.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.0.latch.release();
        }
    }
}

impl RtInner {
    pub(crate) fn alloc_id(&self) -> FrameId {
        FrameId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Queue index of the current thread if it is one of *this* runtime's
    /// workers. A worker of another runtime that opens a scope or helps
    /// here is an external thread: its index names a slot in its own
    /// runtime, and it enqueues through the injector.
    fn worker_index(&self) -> Option<usize> {
        WORKER_SLOT.with(|w| match w.get() {
            Some((rt, idx)) if std::ptr::eq(rt, self) => Some(idx),
            _ => None,
        })
    }

    /// Makes `task` runnable: local queue if on a worker, else injector.
    pub(crate) fn enqueue(&self, task: Arc<Frame>) {
        match self.worker_index() {
            Some(idx) => self.queues[idx].push(task),
            None => self.injector.push(task),
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

    /// Runs a popped task to completion: body, implicit sync over its
    /// children, release callbacks (dataflow/hyperqueue completion
    /// handling), successor hand-off, and parent bookkeeping.
    pub(crate) fn execute(self: &Arc<Self>, frame: Arc<Frame>) {
        self.chaos_delay(frame.id);
        let (body, releases, on_done) = frame.take_task();
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(self, &frame))) {
            frame.record_panic(payload);
        }
        // Implicit sync: a procedure completes only after all children have
        // (Cilk's implicit sync at function end). Panics propagate to the
        // parent rather than unwinding the worker.
        self.wait_children(&frame, false);
        self.finish(&frame, releases);
        Metrics::incr(&self.metrics.tasks_executed);
        self.sleeper.notify_all();
        if let Some(on_done) = on_done {
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

    /// Completes `frame`'s task: release callbacks, successor hand-off and
    /// parent bookkeeping. Also ends a task whose spawn failed while
    /// acquiring its arguments, so the grants already taken are released.
    pub(crate) fn finish(&self, frame: &Arc<Frame>, releases: Releases) {
        // Release callbacks run *after* the implicit sync: this is the
        // "task completion" moment of §4.2 where views are reduced.
        for (object, slot) in releases.hooks() {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| object.release(slot))) {
                frame.record_panic(payload);
            }
        }
        frame.complete(|succ| self.enqueue(succ));
        if let Some(parent) = &frame.parent {
            if let Some(payload) = frame.take_panic() {
                parent.record_panic(payload);
            }
            if parent.child_completed() && parent.parent.is_none() {
                // A root's last child: its scope's caller may be waiting.
                self.latch.release();
            }
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
                self.latch.wait_until(None, || frame.children_active() == 0);
            } else {
                backoff.snooze();
            }
        }
    }

    /// Blocks until `frame` has no active children, helping with
    /// descendants meanwhile. With `rethrow`, resumes any panic collected
    /// from the subtree (used by explicit `sync` and scope roots).
    pub(crate) fn wait_children(self: &Arc<Self>, frame: &Arc<Frame>, rethrow: bool) {
        self.block_until(frame, HelpMode::Descendants, || {
            frame.children_active() == 0
        });
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
        let Some(task) = self.take_eligible(mode, blocked) else {
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

    /// The help scan: a task `blocked` may run under `mode`, looked for in
    /// this thread's own queue, then the other workers' queues, then the
    /// injector, one queue lock at a time. Of each queue's oldest eligible
    /// task it takes the one with the lowest id. A task another thread
    /// takes between the scan and the removal restarts the scan.
    fn take_eligible(&self, mode: HelpMode, blocked: &Frame) -> Option<Arc<Frame>> {
        let own = self.worker_index();
        let queues = own
            .into_iter()
            .chain((0..self.queues.len()).filter(|&i| Some(i) != own))
            .map(|i| &self.queues[i])
            .chain(std::iter::once(&self.injector));
        loop {
            let (queue, id) = queues
                .clone()
                .filter_map(|q| q.first_eligible(mode, blocked).map(|id| (q, id)))
                .min_by_key(|&(_, id)| id)?;
            if let Some(task) = queue.take(id) {
                return Some(task);
            }
        }
    }

    /// Worker's task-finding order (DESIGN.md §3.1): the local queue
    /// (LIFO), then steal-half batches from random victims, then the
    /// injector. An idle worker first rebalances in-flight work (the Cilk
    /// regime), touching the shared injector only when every victim probe
    /// fails.
    fn find_task(&self, idx: usize, rng: &mut XorShift64) -> Option<Arc<Frame>> {
        self.queues[idx]
            .pop()
            .or_else(|| self.steal(idx, rng))
            .or_else(|| self.injector.pop_front())
    }

    /// Random victim probes (a couple of rounds; the worker loop
    /// retries). Steals up to [`STEAL_BATCH`] tasks per successful probe:
    /// the oldest runs now, the rest land in this worker's own queue.
    fn steal(&self, idx: usize, rng: &mut XorShift64) -> Option<Arc<Frame>> {
        let n = self.queues.len();
        if n <= 1 {
            return None;
        }
        for _ in 0..2 * n {
            let victim = rng.next_below(n);
            if victim == idx {
                continue;
            }
            let mut batch: [Option<Arc<Frame>>; STEAL_BATCH] = Default::default();
            let stolen = self.queues[victim].steal_half(&mut batch);
            if stolen == 0 {
                Metrics::incr(&self.metrics.steal_failures);
                continue;
            }
            Metrics::incr(&self.metrics.steals);
            Metrics::add(&self.metrics.steal_batch_items, stolen as u64);
            let mut batch = batch.into_iter().flatten();
            let first = batch.next();
            if stolen > 1 {
                self.queues[idx].extend(batch);
            }
            return first;
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
    /// One thread per worker queue, joined on drop.
    threads: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Builds a runtime from a configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(RtInner {
            config,
            queues: (0..workers).map(|_| TaskQueue::default()).collect(),
            injector: TaskQueue::default(),
            sleeper: Sleeper::new(),
            latch: Latch::default(),
            metrics: Metrics::default(),
            open_scopes: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|idx| {
                let rt = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("swan-worker-{idx}"))
                    .spawn(move || rt.worker_main(idx))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { inner, threads }
    }

    /// Runtime with `workers` threads and default settings.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(RuntimeConfig::new().workers(workers))
    }

    /// Number of worker threads, fixed at construction (at least 1).
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
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
        let root = Frame::new_root(self.inner.alloc_id());
        let body: TaskBody =
            Box::new(move |rt, frame| body(&Scope::new(Arc::clone(rt), Arc::clone(frame))));
        let ready = root.install(body, Releases::default(), Some(Box::new(on_done)));
        debug_assert!(ready, "a detached root has no predecessors");
        self.inner.enqueue(root);
    }

    /// Scopes and detached roots currently open on this runtime (jobs, in
    /// service terms).
    pub fn open_scopes(&self) -> usize {
        self.inner.open_scopes.load(Ordering::SeqCst)
    }

    /// Drains the runtime: blocks until every currently open
    /// [`Runtime::scope`] has returned and every detached root
    /// ([`Runtime::spawn_root`]) has run its hook to the end. This is the
    /// graceful-shutdown primitive for long-lived services: stop
    /// submitting new work first (quiescing does not fence new scopes),
    /// then `quiesce()` guarantees all in-flight jobs have fully drained
    /// before the process tears the service down.
    ///
    /// The caller waits on the runtime's latch, which the last open
    /// scope's close releases, so waiting costs nothing while jobs run.
    pub fn quiesce(&self) {
        self.drained_by(None);
    }

    /// Bounded [`Runtime::quiesce`]: `true` if the runtime drained within
    /// `timeout`, `false` if scopes were still open when it elapsed.
    pub fn quiesce_timeout(&self, timeout: std::time::Duration) -> bool {
        self.drained_by(Some(std::time::Instant::now() + timeout))
    }

    fn drained_by(&self, deadline: Option<std::time::Instant>) -> bool {
        let inner = &self.inner;
        inner
            .latch
            .wait_until(deadline, || inner.open_scopes.load(Ordering::SeqCst) == 0)
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
        for t in self.threads.drain(..) {
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
        // The fields are public, so a config can bypass the builder's
        // clamp: the runtime reports the count it actually staffs.
        let rt = Runtime::new(RuntimeConfig {
            workers: 0,
            ..RuntimeConfig::default()
        });
        assert_eq!(rt.workers(), 1);
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
    fn persistent_runtime_serves_scopes_from_multiple_threads() {
        let rt = Arc::new(Runtime::with_workers(2));
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
    fn work_is_actually_stolen_across_workers() {
        // A chain of sequentially-spawning tasks from one frame, each doing
        // real work, should exercise the queues; with several workers some
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
