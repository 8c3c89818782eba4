//! The public hyperqueue API: the queue object, access-mode dependency
//! arguments (`pushdep`/`popdep`/`pushpopdep`), and the per-task tokens
//! through which tasks push and pop.
//!
//! # Ownership & privilege model
//!
//! * [`Hyperqueue`] is created by (and stays with) one *owner* task, which
//!   holds both push and pop privileges (§4: "the top-level task always has
//!   both"). It is `!Send`: it cannot leave its task.
//! * Privileges are delegated to children by passing
//!   [`Hyperqueue::pushdep`]/[`popdep`](Hyperqueue::popdep)/
//!   [`pushpopdep`](Hyperqueue::pushpopdep) values ([`Dep`]s) as spawn
//!   dependencies; the child's body receives a [`Token`] of the same mode
//!   ([`PushToken`]/[`PopToken`]/[`PushPopToken`]). Tokens can delegate
//!   further, but only a *subset* of their privileges (§2.3) — enforced by
//!   which methods the mode parameter makes available, and re-checked at
//!   run time.
//! * The owner and every token operate through one `Grant`: the queue,
//!   the holder's frame and its slot in the view table. The view table
//!   is a slab, so a grant costs one queue-lock section at spawn and one
//!   at completion, and its release names the queue and the slot.
//!
//! # Fast paths and slow paths
//!
//! Tokens perform pushes and pops through lock-free SPSC fast paths on a
//! cached segment. The queue mutex is confined to *structural* events:
//! producer segment transitions, consumer probes that must consult the
//! view table (blocking or deciding permanent emptiness), spawns and
//! completions. Two mechanisms keep the steady state entirely off the
//! mutex:
//!
//! * **Consumer chain advance**: when the cached head segment drains but
//!   already has a published `next` link, the consumer follows the link
//!   and keeps popping without touching [`QueueState`](crate::state) —
//!   legal because physical `next` links are created exactly when the
//!   linked data becomes visible to the consumer (invariant 6 plus the
//!   reduction discipline of §4.2). Lock-free advances are capped at
//!   [`MAX_LOCKFREE_ADVANCES`] so drained segments are still handed back
//!   to the recycling freelist at a bounded lag.
//! * **Notify suppression**: segment publications only wake the runtime
//!   when a worker is actually parked (see `swan::sched::Sleeper`);
//!   suppressed wakeups are counted in [`QueueStats::notifies_suppressed`].
//!
//! The batched entry points ([`Hyperqueue::push_iter`],
//! [`Hyperqueue::pop_batch`], [`Hyperqueue::for_each_batch`]) amortize
//! even the fast path's per-item atomics over whole slices.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use swan::util::CachePadded;
use swan::{AcquireCtx, DepArg, Frame, HelpMode, Release, RuntimeHandle, Scope};

use crate::pool::SegmentPool;
use crate::segment::Segment;
use crate::slice::{ReadSlice, WriteSlice};
use crate::state::{EmptyProbe, Mode, Probe, QueueState, QueueStats, Slot, OWNER};

/// Bytes of value storage in a default segment. The segment is the unit
/// of structural cost — a queue lock, a link, a wake check and a cold
/// header per segment filled — so it must hold many batches for that cost
/// to vanish per item, yet stay small enough that the drained segments a
/// queue has not recycled yet (up to [`MAX_LOCKFREE_ADVANCES`] of them)
/// fit in cache. DESIGN.md §2.1 has the sweep.
const DEFAULT_SEGMENT_BYTES: usize = 32 * 1024;

/// Default number of word-sized values per queue segment (32 KiB of
/// `u64`). §5.1 discusses tuning this;
/// [`Hyperqueue::with_segment_capacity`] sets it per queue, and
/// [`Hyperqueue::new`] scales it down for wider payloads.
pub const DEFAULT_SEGMENT_CAPACITY: usize = DEFAULT_SEGMENT_BYTES / std::mem::size_of::<u64>();

/// Fewest values a default segment holds, however wide the payload.
const MIN_DEFAULT_CAPACITY: usize = 16;

/// The capacity [`Hyperqueue::new`] picks for payload type `T`: the
/// largest power of two whose buffer fits [`DEFAULT_SEGMENT_BYTES`], but
/// at least [`MIN_DEFAULT_CAPACITY`] values, so a queue of wide values
/// does not allocate megabytes for its first segment. Zero-sized values
/// occupy no storage; they count as one byte.
fn default_capacity<T>() -> usize {
    let fit = DEFAULT_SEGMENT_BYTES / std::mem::size_of::<T>().max(1);
    // Round *down*: rounding up could double the byte budget.
    1 << fit.max(MIN_DEFAULT_CAPACITY).ilog2()
}

/// Upper bound on consecutive lock-free consumer chain advances before the
/// slow path is forced once. Advancing lock-free leaves drained segments
/// unrecycled (only the locked `consumer_advance` may hand them to the
/// freelist, because only it can prove nobody still points at them), so
/// this cap bounds the un-recycled backlog to a constant number of
/// segments while keeping the amortized locking cost at one acquisition
/// per `MAX_LOCKFREE_ADVANCES` segment transitions.
const MAX_LOCKFREE_ADVANCES: u32 = 32;

/// Lock-free observability counters (see [`QueueStats`]) and the blocked-
/// consumer count. These live outside the mutex precisely because the
/// events they count must not take it — and they are grouped by the role
/// that writes them, one cache line per role, apart from each other and
/// from the mutex word: the producer counts a suppressed notify per
/// published slice and the consumer a chain advance per segment, and on one
/// shared line each of those read-modify-writes would pull the line away
/// from the other core.
///
/// # Memory-ordering contract
///
/// Every counter increment and every counter read uses
/// `Ordering::Relaxed` — deliberately and uniformly. The counters are
/// *statistics*, not synchronization: no control flow depends on them, so
/// they need no happens-before edges, and anything stronger would put
/// fence traffic on the paths whose lock-freedom they exist to
/// demonstrate. The consequence, documented on [`QueueStats`]: each
/// counter is individually monotonic and exact over its own event stream,
/// but a snapshot taken while producers/consumers are running may lag
/// concurrent fast-path events and may be mutually inconsistent across
/// counters. Quiesce first (`sync` on the producing/consuming tasks) for
/// exact totals. (`waiters` is not a statistic: see its field docs.)
#[derive(Default)]
pub(crate) struct FastStats {
    producer: CachePadded<ProducerStats>,
    consumer: CachePadded<ConsumerStats>,
}

/// Written on the publishing side. (Consumer slow paths also count their
/// lock acquisitions here; a slow path is about to contend for the mutex
/// anyway.)
#[derive(Default)]
struct ProducerStats {
    lock_acquisitions: AtomicU64,
    notifies_suppressed: AtomicU64,
}

/// Written on the consuming side.
#[derive(Default)]
struct ConsumerStats {
    chain_advances: AtomicU64,
    /// Number of tasks currently blocked in this queue's `pop`/`empty`
    /// slow paths. Data publications skip the runtime wakeup entirely
    /// while this is zero: a publication can only unblock a waiter of
    /// *this* queue, and a waiter that races past the check re-polls
    /// within one bounded park interval anyway (see `swan::sched::Sleeper`).
    /// Producers only read it, so the line stays shared until a consumer
    /// actually blocks.
    waiters: AtomicUsize,
}

impl FastStats {
    /// One increment path for all three counters, so the ordering contract
    /// above is enforced in exactly one place.
    #[inline]
    fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the three fast-path counters with the same (Relaxed) ordering
    /// the increments use; see the struct docs for what that means.
    pub(crate) fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.producer.lock_acquisitions.load(Ordering::Relaxed),
            self.consumer.chain_advances.load(Ordering::Relaxed),
            self.producer.notifies_suppressed.load(Ordering::Relaxed),
        )
    }
}

pub(crate) struct QueueInner<T: Send + 'static> {
    pub(crate) rt: RuntimeHandle,
    pub(crate) state: Mutex<QueueState<T>>,
    pub(crate) fast: FastStats,
}

impl<T: Send + 'static> QueueInner<T> {
    /// Locks the queue state on behalf of a data-path operation,
    /// incrementing the observability counter.
    fn lock_counted(&self) -> parking_lot::MutexGuard<'_, QueueState<T>> {
        FastStats::incr(&self.fast.producer.lock_acquisitions);
        self.state.lock()
    }
}

impl<T: Send + 'static> Drop for QueueInner<T> {
    fn drop(&mut self) {
        // The fast-path counters live here (outside the state mutex) and
        // die with this value: compose them with the state's counters and
        // hand the total to the shared pool before the state drops.
        let fast = self.fast.snapshot();
        self.state.get_mut().absorb_stats_into_pool(fast);
    }
}

/// Wakes the runtime after a publication — unless no consumer of this
/// queue is blocked, or no worker is parked at all. Suppressed wakeups
/// are counted.
#[inline]
pub(crate) fn notify_counted<T: Send + 'static>(inner: &QueueInner<T>) {
    if inner.fast.consumer.waiters.load(Ordering::SeqCst) == 0 || !inner.rt.notify() {
        FastStats::incr(&inner.fast.producer.notifies_suppressed);
    }
}

/// RAII registration of a blocked consumer (kept through panics — the
/// pop-on-permanently-empty path unwinds out of `block_until`).
struct WaiterGuard<'a>(&'a AtomicUsize);

impl<'a> WaiterGuard<'a> {
    fn register(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        WaiterGuard(counter)
    }
}

impl Drop for WaiterGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

type SegCache<T> = Option<NonNull<Segment<T>>>;

/// Consumer-side cache: the segment being drained plus the number of
/// lock-free chain advances taken since the last locked probe.
pub(crate) struct PopCache<T> {
    seg: SegCache<T>,
    advances: u32,
}

impl<T> Clone for PopCache<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PopCache<T> {}

impl<T> Default for PopCache<T> {
    fn default() -> Self {
        PopCache {
            seg: None,
            advances: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The grant: one implementation of the push/pop/slice surface, shared by the
// owner object and every token.
// ---------------------------------------------------------------------------

/// A task's privileges on one queue: the queue, the task's frame and its
/// slot in the view table. The owner's grant is slot [`OWNER`]; a token's
/// is the one its spawn filled. The caches live beside it, with the
/// holder, so one implementation serves the owner's `&self` methods and
/// the tokens' `&mut self` ones.
struct Grant<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
    frame: Arc<Frame>,
    slot: Slot,
}

impl<T: Send + 'static> Grant<T> {
    /// A spawn argument delegating `M` privileges from this grant.
    fn dep<M: Access>(&self) -> Dep<T, M> {
        Dep {
            inner: Arc::clone(&self.inner),
            parent: self.slot,
            _mode: PhantomData,
        }
    }

    #[inline]
    fn push(&self, cache: &mut SegCache<T>, value: T) {
        if let Some(seg) = cache {
            // SAFETY: token/view discipline makes us the unique producer of
            // the cached user-view tail segment.
            match unsafe { seg.as_ref().try_push(value) } {
                Ok(()) => {}
                Err(v) => self.push_slow(cache, v), // full → slow path
            }
        } else {
            self.push_slow(cache, value);
        }
    }

    #[cold]
    #[inline(never)]
    fn push_slow(&self, cache: &mut SegCache<T>, value: T) {
        let seg = {
            let mut st = self.inner.lock_counted();
            // Over-provision: ask for a whole segment of room rather than
            // one slot, so the next ~capacity pushes stay on the lock-free
            // fast path instead of re-entering this slow path for the dregs
            // of a nearly-full tail.
            let room = st.segment_capacity();
            let seg = st.producer_segment(self.slot, room);
            // SAFETY: unique producer; `producer_segment` guarantees the
            // room.
            unsafe {
                seg.as_ref()
                    .try_push(value)
                    .unwrap_or_else(|_| unreachable!("fresh segment has room"))
            };
            seg
        };
        *cache = Some(seg);
        // Segment transitions are rare; wake blocked consumers so freshly
        // linked data is noticed promptly (suppressed when nobody is
        // parked).
        notify_counted(&self.inner);
    }

    /// The consumer's lock-free fast path: runs `take` on the cached head
    /// segment and then on each published successor until `take` yields,
    /// the chain ends, or [`MAX_LOCKFREE_ADVANCES`] advances have been
    /// taken since the last locked probe (only that probe recycles drained
    /// segments). `None` sends the caller to its slow path.
    #[inline]
    fn walk_chain<R>(
        &self,
        cache: &mut PopCache<T>,
        mut take: impl FnMut(&Segment<T>) -> Option<R>,
    ) -> Option<R> {
        let mut seg = cache.seg?;
        loop {
            // SAFETY: the arena keeps the segment alive; the delegation
            // gate and rule 3 make us its unique consumer.
            let s = unsafe { seg.as_ref() };
            if let Some(r) = take(s) {
                return Some(r);
            }
            // Drained. If a successor is published, the Acquire load of
            // `next` also makes every pre-link push visible — so re-check
            // before advancing past the segment (a value may have been
            // published between the check above and the link).
            let next = NonNull::new(s.next())?;
            if let Some(r) = take(s) {
                return Some(r);
            }
            if cache.advances >= MAX_LOCKFREE_ADVANCES {
                return None;
            }
            cache.seg = Some(next);
            cache.advances += 1;
            FastStats::incr(&self.inner.fast.consumer.chain_advances);
            seg = next;
        }
    }

    #[inline]
    fn pop(&self, cache: &mut PopCache<T>) -> T {
        // SAFETY: unique consumer (see `walk_chain`).
        match self.walk_chain(cache, |s| unsafe { s.try_pop() }) {
            Some(v) => v,
            None => self.pop_slow(cache),
        }
    }

    #[cold]
    #[inline(never)]
    fn pop_slow(&self, cache: &mut PopCache<T>) -> T {
        let (inner, slot) = (&self.inner, self.slot);
        let mut result: Option<T> = None;
        let _waiting = WaiterGuard::register(&inner.fast.consumer.waiters);
        inner.rt.block_until(&self.frame, HelpMode::Preceding, || {
            let mut st = inner.lock_counted();
            match st.pop_probe(slot) {
                Probe::Value(v, seg) => {
                    result = Some(v);
                    cache.seg = Some(seg);
                    cache.advances = 0;
                    true
                }
                Probe::Empty => panic!(
                    "hyperqueue: pop() on a permanently empty queue is an error (§2.1); \
                     guard pops with empty()"
                ),
                Probe::Blocked => false,
            }
        });
        result.expect("block_until returns only once the condition holds")
    }

    #[inline]
    fn empty(&self, cache: &mut PopCache<T>) -> bool {
        // SAFETY: unique consumer (see `walk_chain`).
        let has_data = self.walk_chain(cache, |s| unsafe { !s.is_empty() }.then_some(()));
        has_data.is_none() && self.empty_slow(cache)
    }

    #[cold]
    #[inline(never)]
    fn empty_slow(&self, cache: &mut PopCache<T>) -> bool {
        let (inner, slot) = (&self.inner, self.slot);
        let mut result: Option<bool> = None;
        let _waiting = WaiterGuard::register(&inner.fast.consumer.waiters);
        inner.rt.block_until(&self.frame, HelpMode::Preceding, || {
            let mut st = inner.lock_counted();
            match st.empty_probe(slot) {
                EmptyProbe::HasData(seg) => {
                    cache.seg = Some(seg);
                    cache.advances = 0;
                    result = Some(false);
                    true
                }
                EmptyProbe::Empty => {
                    // The probe's consumer_advance may have recycled the
                    // cached segment (drained and linked-past, e.g. when
                    // the advance cap broke mid-chain before an empty
                    // reserved tail). Drop the cache: the owner may push
                    // again after a true-empty verdict, and a recycled
                    // segment must not be read through a stale pointer.
                    cache.seg = None;
                    cache.advances = 0;
                    result = Some(true);
                    true
                }
                EmptyProbe::Blocked => false,
            }
        });
        result.expect("block_until returns only once the condition holds")
    }

    #[inline]
    fn write_slice(&self, cache: &mut SegCache<T>, len: usize) -> WriteSlice<'_, T> {
        let len = len.max(1);
        // Fast path: the cached tail segment has *any* room — return a
        // (possibly shorter) slice over it without locking. This is the
        // paper's §5.2 contract: "the slice must fit inside a single
        // segment; if not, a shorter slice will be returned". Slices are
        // additionally clamped to the ring's contiguous span so staging
        // writes need no per-value index arithmetic.
        if let Some(seg) = cache {
            // SAFETY: unique producer of the cached segment.
            let avail = unsafe { seg.as_ref().contiguous_writable(len) };
            if avail >= 1 {
                // SAFETY: unique producer; `avail` (at most `len`)
                // contiguous slots are free.
                return unsafe { WriteSlice::new(&self.inner, *seg, avail) };
            }
        }
        self.write_slice_slow(cache, len)
    }

    #[cold]
    #[inline(never)]
    fn write_slice_slow(&self, cache: &mut SegCache<T>, len: usize) -> WriteSlice<'_, T> {
        let mut st = self.inner.lock_counted();
        let len = len.min(st.segment_capacity());
        let seg = st.producer_segment(self.slot, len);
        drop(st);
        *cache = Some(seg);
        // `producer_segment` guarantees `len` free slots, but a reused
        // segment's tail may sit mid-ring: clamp to the contiguous span
        // (never zero when free ≥ 1).
        // SAFETY: unique producer of `seg`.
        let len = unsafe { seg.as_ref().contiguous_writable(len) };
        unsafe { WriteSlice::new(&self.inner, seg, len) }
    }

    fn read_slice(&self, cache: &mut PopCache<T>, max_len: usize) -> Option<ReadSlice<'_, T>> {
        if self.empty(cache) {
            return None;
        }
        let seg = cache.seg.expect("empty() == false caches the head segment");
        // SAFETY: unique consumer of the head segment.
        Some(unsafe { ReadSlice::new(&self.inner, seg, max_len) })
    }

    /// The batched push: drains `iter` through write slices, publishing
    /// once per slice instead of once per value.
    fn push_iter(&self, cache: &mut SegCache<T>, iter: impl IntoIterator<Item = T>) -> u64 {
        let mut it = iter.into_iter();
        let mut pushed = 0u64;
        loop {
            let Some(first) = it.next() else {
                return pushed;
            };
            // Reserve generously: unwritten reservation slots are simply
            // never published, so over-asking costs nothing, while
            // under-asking costs an extra slice per segment.
            let want = it.size_hint().0.saturating_add(1).max(32);
            let mut ws = self.write_slice(cache, want);
            ws.push(first);
            pushed += 1;
            while ws.remaining() > 0 {
                match it.next() {
                    Some(v) => {
                        ws.push(v);
                        pushed += 1;
                    }
                    None => return pushed,
                }
            }
        }
    }

    /// The copying batched push: memcpys `vals` through write slices (for
    /// `Copy` payloads — the fastest producer path).
    fn push_slice(&self, cache: &mut SegCache<T>, mut vals: &[T]) -> u64
    where
        T: Copy,
    {
        let total = vals.len() as u64;
        while !vals.is_empty() {
            let mut ws = self.write_slice(cache, vals.len());
            let n = ws.extend_from_slice(vals);
            vals = &vals[n..];
        }
        total
    }

    /// The batched pop: bulk-moves up to `max` currently-visible values
    /// into `out` (appending), following published chain links lock-free.
    /// Blocks only when nothing is visible yet; returns the number
    /// appended — `0` iff the queue is permanently empty, except that
    /// `max == 0` short-circuits to `0` without inspecting the queue.
    /// Taking the destination by reference lets steady-state consumers
    /// reuse one buffer instead of allocating a vector per round.
    fn pop_batch_into(&self, cache: &mut PopCache<T>, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let base = out.len();
        // Saturate: `usize::MAX` is a legitimate "take everything visible"
        // request, and the buffer may already hold values.
        let target = base.saturating_add(max);
        loop {
            let full = self.walk_chain(cache, |s| {
                // SAFETY: unique consumer (see `walk_chain`).
                unsafe { s.pop_bulk(target - out.len(), out) };
                (out.len() == target).then_some(())
            });
            if full.is_some() || out.len() > base {
                return out.len() - base;
            }
            // Nothing visible: wait for data or the permanent-empty verdict.
            if self.empty_slow(cache) {
                return 0;
            }
        }
    }

    /// Owning wrapper over [`Grant::pop_batch_into`]: empty vector iff the
    /// queue is permanently empty.
    fn pop_batch(&self, cache: &mut PopCache<T>, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_batch_into(cache, max, &mut out);
        out
    }

    /// The batched visitor: feeds `f` contiguous slices until the queue is
    /// permanently empty. Returns the total number of values consumed.
    fn for_each_batch(
        &self,
        cache: &mut PopCache<T>,
        max_batch: usize,
        mut f: impl FnMut(&[T]),
    ) -> u64 {
        let mut total = 0u64;
        while let Some(rs) = self.read_slice(cache, max_batch) {
            f(rs.as_slice());
            total += rs.len() as u64;
        }
        total
    }

    /// Selective sync (§5.5): waits, running descendants meanwhile, until
    /// this grant has no live push-privileged children (`push`) or no live
    /// pop-privileged ones. Panics from the subtree resurface here.
    fn sync(&self, scope: &Scope<'_>, push: bool) {
        debug_assert!(
            Arc::ptr_eq(scope.frame(), &self.frame),
            "selective sync runs in the task holding the grant"
        );
        let live = || {
            let (pushes, pops) = self.inner.state.lock().delegations(self.slot);
            if push {
                pushes
            } else {
                pops
            }
        };
        self.inner
            .rt
            .block_until(&self.frame, HelpMode::Descendants, || live() == 0);
        if let Some(payload) = scope.frame().take_panic() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A grant's end: the spawned task completed (after its implicit sync), so
/// its views reduce into their predecessor's (§4.2).
impl<T: Send + 'static> Release for QueueInner<T> {
    fn release(&self, slot: usize) {
        self.state.lock().complete(slot);
        // Completion may have linked new data into the consumer chain or
        // retired the last preceding producer: wake blocked waiters.
        notify_counted(self);
    }
}

/// Runs `f` on a copy of one of the owner's caches and stores the copy
/// back.
fn with<C: Copy, R>(cache: &Cell<C>, f: impl FnOnce(&mut C) -> R) -> R {
    let mut c = cache.get();
    let r = f(&mut c);
    cache.set(c);
    r
}

// ---------------------------------------------------------------------------
// The queue object (owner side).
// ---------------------------------------------------------------------------

/// A deterministic single-producer/single-consumer queue abstraction for
/// pipeline parallelism (the paper's `hyperqueue<T>`).
///
/// ```
/// use swan::Runtime;
/// use hyperqueue::Hyperqueue;
///
/// let rt = Runtime::with_workers(4);
/// let mut out = Vec::new();
/// rt.scope(|s| {
///     let q = Hyperqueue::<u32>::new(s);
///     // Producer task runs concurrently with the owner's pops below.
///     s.spawn((q.pushdep(),), |_, (mut push,)| {
///         for i in 0..100 {
///             push.push(i);
///         }
///     });
///     while !q.empty() {
///         out.push(q.pop());
///     }
/// });
/// assert_eq!(out, (0..100).collect::<Vec<_>>());
/// ```
pub struct Hyperqueue<T: Send + 'static> {
    grant: Grant<T>,
    push_cache: Cell<SegCache<T>>,
    pop_cache: Cell<PopCache<T>>,
    /// The queue must not leave its owner task.
    _not_send: PhantomData<*mut ()>,
}

impl<T: Send + 'static> Hyperqueue<T> {
    /// Creates a hyperqueue owned by the current scope's task, with the
    /// default segment size: 32 KiB of values —
    /// [`DEFAULT_SEGMENT_CAPACITY`] word-sized ones, proportionally fewer
    /// wide ones (never fewer than 16).
    pub fn new(scope: &Scope<'_>) -> Self {
        Self::with_config(scope, default_capacity::<T>(), true)
    }

    /// Creates a hyperqueue with an explicit segment capacity (§5.1:
    /// programmers often know the right granularity), rounded up to a
    /// power of two (see [`segment_capacity_for`](crate::segment_capacity_for)).
    pub fn with_segment_capacity(scope: &Scope<'_>, capacity: usize) -> Self {
        Self::with_config(scope, capacity, true)
    }

    /// Creates a hyperqueue whose segments come from (and return to) a
    /// shared [`SegmentPool`] — the service-layer constructor: successive
    /// queue instantiations over one pool reuse each other's storage, so a
    /// warm pipeline pays **zero segment allocations per job** (see the
    /// pool docs and [`QueueStats::pool_draws`]). The segment capacity is
    /// the pool's.
    pub fn with_pool(scope: &Scope<'_>, pool: &Arc<SegmentPool<T>>) -> Self {
        Self::build(scope, pool.segment_capacity(), true, Some(Arc::clone(pool)))
    }

    /// Full-control constructor; `recycle` toggles the drained-segment
    /// freelist (kept switchable for the ablation benchmarks).
    pub fn with_config(scope: &Scope<'_>, capacity: usize, recycle: bool) -> Self {
        Self::build(scope, capacity, recycle, None)
    }

    fn build(
        scope: &Scope<'_>,
        capacity: usize,
        recycle: bool,
        pool: Option<Arc<SegmentPool<T>>>,
    ) -> Self {
        let owner = Arc::clone(scope.frame());
        let state = QueueState::new(&owner, capacity, recycle, pool);
        let push_cache = state.user_tail(OWNER);
        let inner = Arc::new(QueueInner {
            rt: scope.runtime(),
            state: Mutex::new(state),
            fast: FastStats::default(),
        });
        Hyperqueue {
            grant: Grant {
                inner,
                frame: owner,
                slot: OWNER,
            },
            push_cache: Cell::new(push_cache),
            pop_cache: Cell::new(PopCache::default()),
            _not_send: PhantomData,
        }
    }

    /// `pushdep` access for a spawn: the child may only push.
    pub fn pushdep(&self) -> PushDep<T> {
        // The child takes the user view; our cached tail is no longer ours.
        self.push_cache.set(None);
        self.grant.dep()
    }

    /// `popdep` access for a spawn: the child may only pop.
    pub fn popdep(&self) -> PopDep<T> {
        // Pop spawns also take the user view (§4.2) and the consumer role.
        self.push_cache.set(None);
        self.pop_cache.set(PopCache::default());
        self.grant.dep()
    }

    /// `pushpopdep` access for a spawn: the child may push and pop.
    pub fn pushpopdep(&self) -> PushPopDep<T> {
        self.push_cache.set(None);
        self.pop_cache.set(PopCache::default());
        self.grant.dep()
    }

    /// Pushes a value as the owner task.
    pub fn push(&self, value: T) {
        with(&self.push_cache, |c| self.grant.push(c, value))
    }

    /// Pushes every value of `iter`, in order, through write slices —
    /// one publication per slice rather than per value. Returns the
    /// number of values pushed.
    ///
    /// ```
    /// use swan::Runtime;
    /// use hyperqueue::Hyperqueue;
    ///
    /// let rt = Runtime::with_workers(2);
    /// rt.scope(|s| {
    ///     let q = Hyperqueue::<u32>::new(s);
    ///     assert_eq!(q.push_iter(0..10), 10);
    ///     assert_eq!(q.pop_batch(4), vec![0, 1, 2, 3]);
    ///     assert_eq!(q.pop_batch(100), (4..10).collect::<Vec<_>>());
    ///     assert!(q.pop_batch(8).is_empty()); // permanently empty
    /// });
    /// ```
    pub fn push_iter(&self, iter: impl IntoIterator<Item = T>) -> u64 {
        with(&self.push_cache, |c| self.grant.push_iter(c, iter))
    }

    /// Alias of [`Hyperqueue::push_iter`] mirroring `Extend::extend`.
    pub fn extend(&self, iter: impl IntoIterator<Item = T>) {
        self.push_iter(iter);
    }

    /// Copies every value of `vals` into the queue — one memcpy per write
    /// slice, the fastest producer path for `Copy` payloads. Returns the
    /// number of values pushed.
    pub fn push_slice(&self, vals: &[T]) -> u64
    where
        T: Copy,
    {
        with(&self.push_cache, |c| self.grant.push_slice(c, vals))
    }

    /// Pops the next value as the owner task. Blocks while the value is in
    /// flight; **panics** if the queue is permanently empty (guard with
    /// [`Hyperqueue::empty`]).
    pub fn pop(&self) -> T {
        with(&self.pop_cache, |c| self.grant.pop(c))
    }

    /// Pops up to `max` currently-visible values in one batch (a single
    /// published head update per segment). Blocks only while *nothing* is
    /// visible; an empty vector means the queue is permanently empty, so
    /// this doubles as the loop condition:
    ///
    /// ```
    /// use swan::Runtime;
    /// use hyperqueue::Hyperqueue;
    ///
    /// let rt = Runtime::with_workers(2);
    /// let mut sum = 0u64;
    /// rt.scope(|s| {
    ///     let q = Hyperqueue::<u64>::with_segment_capacity(s, 64);
    ///     s.spawn((q.pushdep(),), |_, (mut p,)| {
    ///         p.push_iter(0..1000);
    ///     });
    ///     loop {
    ///         let batch = q.pop_batch(128);
    ///         if batch.is_empty() {
    ///             break; // permanently empty
    ///         }
    ///         sum += batch.iter().sum::<u64>();
    ///     }
    /// });
    /// assert_eq!(sum, 1000 * 999 / 2);
    /// ```
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        with(&self.pop_cache, |c| self.grant.pop_batch(c, max))
    }

    /// Like [`Hyperqueue::pop_batch`] but appends into a caller-owned
    /// buffer, returning how many values were appended — the
    /// allocation-free loop shape for steady-state consumers. With
    /// `max ≥ 1` the return is `0` iff the queue is permanently empty;
    /// `max == 0` appends nothing and returns `0` without inspecting the
    /// queue, so pass a positive `max` when the result doubles as the
    /// loop condition:
    ///
    /// ```
    /// use swan::Runtime;
    /// use hyperqueue::Hyperqueue;
    ///
    /// let rt = Runtime::with_workers(2);
    /// rt.scope(|s| {
    ///     let q = Hyperqueue::<u32>::new(s);
    ///     q.push_iter(0..100);
    ///     let mut buf = Vec::with_capacity(32);
    ///     let mut total = 0;
    ///     while q.pop_batch_into(32, &mut buf) > 0 {
    ///         total += buf.drain(..).count();
    ///     }
    ///     assert_eq!(total, 100);
    /// });
    /// ```
    pub fn pop_batch_into(&self, max: usize, out: &mut Vec<T>) -> usize {
        with(&self.pop_cache, |c| self.grant.pop_batch_into(c, max, out))
    }

    /// Drains the queue through read slices of up to `max_batch` values,
    /// invoking `f` on each contiguous batch until the queue is
    /// permanently empty. Values are dropped after `f` observes them.
    /// Returns the total number of values consumed.
    pub fn for_each_batch(&self, max_batch: usize, f: impl FnMut(&[T])) -> u64 {
        with(&self.pop_cache, |c| {
            self.grant.for_each_batch(c, max_batch, f)
        })
    }

    /// The paper's `empty()`: `false` iff a value is available to this
    /// task; `true` iff no more values can ever become visible to it;
    /// blocks until one of the two is certain (§2.1).
    pub fn empty(&self) -> bool {
        with(&self.pop_cache, |c| self.grant.empty(c))
    }

    /// Requests a write slice of up to `len` values (§5.2). The returned
    /// slice may be shorter than `len` when the current segment has less
    /// room ("if not, a shorter slice will be returned") — size loops with
    /// [`WriteSlice::capacity`], or use [`Hyperqueue::push_iter`].
    pub fn write_slice(&self, len: usize) -> WriteSlice<'_, T> {
        with(&self.push_cache, |c| self.grant.write_slice(c, len))
    }

    /// Requests a read slice of up to `max_len` currently-visible values;
    /// `None` iff the queue is permanently empty (§5.2).
    pub fn read_slice(&self, max_len: usize) -> Option<ReadSlice<'_, T>> {
        with(&self.pop_cache, |c| self.grant.read_slice(c, max_len))
    }

    /// Selective sync over pop-privileged children (§5.5:
    /// `sync (popdep<T>) queue;`). `scope` is the owner's.
    pub fn sync_pop(&self, scope: &Scope<'_>) {
        self.grant.sync(scope, false);
    }

    /// Selective sync over push-privileged children. `scope` is the
    /// owner's.
    pub fn sync_push(&self, scope: &Scope<'_>) {
        self.grant.sync(scope, true);
    }

    /// Allocation/recycling counters plus the fast-path observability
    /// counters (lock acquisitions, lock-free chain advances, suppressed
    /// notifies). The first group is read under the queue mutex and is
    /// exact; the fast-path group is read with the same `Relaxed` ordering
    /// its increments use and is approximate while tasks are still
    /// running — see [`QueueStats`] for the precise contract.
    pub fn stats(&self) -> QueueStats {
        let inner = &self.grant.inner;
        let mut s = inner.state.lock().stats;
        let (locks, advances, suppressed) = inner.fast.snapshot();
        s.lock_acquisitions = locks;
        s.chain_advances = advances;
        s.notifies_suppressed = suppressed;
        s
    }
}

// ---------------------------------------------------------------------------
// Access modes, dependency arguments and tokens.
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Push {}
    impl Sealed for super::Pop {}
    impl Sealed for super::PushPop {}
}

/// A grant's access mode at the type level: the `M` of [`Dep`] and
/// [`Token`]. Implemented by [`Push`], [`Pop`] and [`PushPop`] only.
pub trait Access: sealed::Sealed + Send + 'static {
    /// The same mode as a value.
    const MODE: Mode;
}

/// Modes that grant push privileges: [`Push`] and [`PushPop`].
pub trait CanPush: Access {}

/// Modes that grant pop privileges: [`Pop`] and [`PushPop`].
pub trait CanPop: Access {}

/// Push-only access (`pushdep`).
pub enum Push {}

/// Pop-only access (`popdep`).
pub enum Pop {}

/// Combined access (`pushpopdep`).
pub enum PushPop {}

impl Access for Push {
    const MODE: Mode = Mode::Push;
}
impl Access for Pop {
    const MODE: Mode = Mode::Pop;
}
impl Access for PushPop {
    const MODE: Mode = Mode::PushPop;
}
impl CanPush for Push {}
impl CanPush for PushPop {}
impl CanPop for Pop {}
impl CanPop for PushPop {}

/// Spawn argument granting `M` access to a hyperqueue (the paper's
/// `pushdep<T>`, `popdep<T>` and `pushpopdep<T>`). Made by the owner
/// object or a token, and spent in a spawn by the task that made it; the
/// child's body receives a [`Token`] of the same mode.
pub struct Dep<T: Send + 'static, M: Access> {
    inner: Arc<QueueInner<T>>,
    /// The spawning task's slot.
    parent: Slot,
    _mode: PhantomData<M>,
}

/// Spawn argument granting push-only access (the paper's `pushdep<T>`).
pub type PushDep<T> = Dep<T, Push>;
/// Spawn argument granting pop-only access (`popdep<T>`).
pub type PopDep<T> = Dep<T, Pop>;
/// Spawn argument granting combined access (`pushpopdep<T>`).
pub type PushPopDep<T> = Dep<T, PushPop>;

impl<T: Send + 'static, M: Access> DepArg for Dep<T, M> {
    type Guard = Token<T, M>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> Token<T, M> {
        let frame = Arc::clone(ctx.frame());
        let transfer = self.inner.state.lock().spawn_transfer(
            self.parent,
            ctx.parent_frame(),
            &frame,
            M::MODE,
        );
        if let Some(p) = transfer.pred {
            // Rule 3: serialize pop-privileged siblings.
            ctx.add_predecessor(&p);
        }
        ctx.on_release(Arc::clone(&self.inner) as Arc<dyn Release>, transfer.slot);
        Token {
            grant: Grant {
                inner: self.inner,
                frame,
                slot: transfer.slot,
            },
            push_cache: transfer.push_tail,
            pop_cache: PopCache::default(),
            _mode: PhantomData,
        }
    }
}

/// The capability a task spawned with a [`Dep`] holds: it pushes if `M`
/// is [`CanPush`], pops if `M` is [`CanPop`], and delegates to its own
/// children only privileges it has (§2.3) — which methods exist is
/// decided by `M`, and the view table re-checks at spawn time.
pub struct Token<T: Send + 'static, M: Access> {
    grant: Grant<T>,
    push_cache: SegCache<T>,
    pop_cache: PopCache<T>,
    _mode: PhantomData<M>,
}

/// Push capability held by a task spawned with [`PushDep`].
pub type PushToken<T> = Token<T, Push>;
/// Pop capability held by a task spawned with [`PopDep`].
pub type PopToken<T> = Token<T, Pop>;
/// Combined capability held by a task spawned with [`PushPopDep`].
pub type PushPopToken<T> = Token<T, PushPop>;

// SAFETY: a token moves into exactly one task body (possibly on another
// thread). The cached raw segment pointers are owned by the queue arena,
// which the Arc keeps alive, and the view discipline makes this token the
// unique producer (consumer) of the segment it caches.
unsafe impl<T: Send + 'static, M: Access> Send for Token<T, M> {}

impl<T: Send + 'static, M: CanPush> Token<T, M> {
    /// Appends `value` to the queue in this task's position of the serial
    /// order.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.grant.push(&mut self.push_cache, value);
    }

    /// Pushes every value of `iter` through write slices (see
    /// [`Hyperqueue::push_iter`]). Returns the number of values pushed.
    pub fn push_iter(&mut self, iter: impl IntoIterator<Item = T>) -> u64 {
        self.grant.push_iter(&mut self.push_cache, iter)
    }

    /// Copies `vals` into the queue (see [`Hyperqueue::push_slice`]).
    pub fn push_slice(&mut self, vals: &[T]) -> u64
    where
        T: Copy,
    {
        self.grant.push_slice(&mut self.push_cache, vals)
    }

    /// Requests a write slice of up to `len` values (§5.2); may be
    /// shorter (see [`Hyperqueue::write_slice`]).
    pub fn write_slice(&mut self, len: usize) -> WriteSlice<'_, T> {
        self.grant.write_slice(&mut self.push_cache, len)
    }

    /// Delegates push privileges to a child spawn (recursive producers,
    /// Fig. 2/3).
    pub fn pushdep(&mut self) -> PushDep<T> {
        self.push_cache = None; // the child takes the user view
        self.grant.dep()
    }

    /// Selective sync over this task's push-privileged children.
    pub fn sync_push(&self, scope: &Scope<'_>) {
        self.grant.sync(scope, true);
    }
}

impl<T: Send + 'static, M: CanPush> Extend<T> for Token<T, M> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.push_iter(iter);
    }
}

impl<T: Send + 'static, M: CanPop> Token<T, M> {
    /// Removes and returns the next value in serial order. Blocks while
    /// the value is in flight; panics if permanently empty.
    #[inline]
    pub fn pop(&mut self) -> T {
        self.grant.pop(&mut self.pop_cache)
    }

    /// Pops up to `max` values in one batch (see
    /// [`Hyperqueue::pop_batch`]); empty iff permanently empty.
    pub fn pop_batch(&mut self, max: usize) -> Vec<T> {
        self.grant.pop_batch(&mut self.pop_cache, max)
    }

    /// Appends up to `max` values into `out` (see
    /// [`Hyperqueue::pop_batch_into`]); `0` iff permanently empty.
    pub fn pop_batch_into(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        self.grant.pop_batch_into(&mut self.pop_cache, max, out)
    }

    /// Drains the queue through batches of up to `max_batch` values (see
    /// [`Hyperqueue::for_each_batch`]). Returns the number consumed.
    pub fn for_each_batch(&mut self, max_batch: usize, f: impl FnMut(&[T])) -> u64 {
        self.grant.for_each_batch(&mut self.pop_cache, max_batch, f)
    }

    /// The paper's `empty()` (see [`Hyperqueue::empty`]).
    #[inline]
    pub fn empty(&mut self) -> bool {
        self.grant.empty(&mut self.pop_cache)
    }

    /// Requests a read slice of up to `max_len` values; `None` iff
    /// permanently empty (§5.2).
    pub fn read_slice(&mut self, max_len: usize) -> Option<ReadSlice<'_, T>> {
        self.grant.read_slice(&mut self.pop_cache, max_len)
    }

    /// Delegates pop privileges to a child spawn.
    pub fn popdep(&mut self) -> PopDep<T> {
        // Pop spawns take the user view (§4.2) and the consumer role.
        self.push_cache = None;
        self.pop_cache = PopCache::default();
        self.grant.dep()
    }

    /// Selective sync over this task's pop-privileged children.
    pub fn sync_pop(&self, scope: &Scope<'_>) {
        self.grant.sync(scope, false);
    }
}

impl<T: Send + 'static> Token<T, PushPop> {
    /// Delegates both privileges.
    pub fn pushpopdep(&mut self) -> PushPopDep<T> {
        self.push_cache = None;
        self.pop_cache = PopCache::default();
        self.grant.dep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan::Runtime;

    fn default_capacity_of<T: Send + 'static>(s: &Scope<'_>) -> usize {
        let q = Hyperqueue::<T>::new(s);
        let st = q.grant.inner.state.lock();
        let cap = st.segment_capacity();
        let first = st.user_tail(OWNER).expect("owner's segment");
        // SAFETY: the queue keeps its first segment alive.
        assert_eq!(unsafe { first.as_ref() }.capacity(), cap);
        cap
    }

    /// `new` sizes segments by bytes: word-sized payloads get the
    /// documented default, wide ones proportionally fewer slots (the
    /// eager first segment must not cost megabytes), never fewer than 16.
    #[test]
    fn default_capacity_stays_inside_the_byte_budget() {
        let rt = Runtime::with_workers(1);
        rt.scope(|s| {
            assert_eq!(default_capacity_of::<u64>(s), DEFAULT_SEGMENT_CAPACITY);
            // 24-byte values: 1365 fit, rounded *down* to stay in budget.
            assert_eq!(default_capacity_of::<[u64; 3]>(s), 1024);
            assert_eq!(default_capacity_of::<[u8; 512]>(s), 64);
            // Past the floor the budget gives way, at 16 values.
            assert_eq!(default_capacity_of::<[u8; 4096]>(s), MIN_DEFAULT_CAPACITY);
            // Zero-sized values: any capacity is inside the budget; the
            // division must not trap.
            assert_eq!(default_capacity_of::<()>(s), DEFAULT_SEGMENT_BYTES);
            // ...and such a queue works across segment boundaries.
            let q = Hyperqueue::<()>::new(s);
            let pushed = 3 * DEFAULT_SEGMENT_BYTES;
            for _ in 0..pushed {
                q.push(());
            }
            let mut popped = 0;
            while !q.empty() {
                q.pop();
                popped += 1;
            }
            assert_eq!(popped, pushed);
        });
    }
}
