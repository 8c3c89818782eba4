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
//!   [`pushpopdep`](Hyperqueue::pushpopdep) values as spawn dependencies;
//!   the child's body receives a [`PushToken`]/[`PopToken`]/
//!   [`PushPopToken`]. Tokens can delegate further, but only a *subset* of
//!   their privileges (§2.3) — enforced by which methods exist on each
//!   token type, and re-checked at run time.
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
use swan::{AcquireCtx, DepArg, Frame, HelpMode, RuntimeHandle, Scope};

use crate::pool::SegmentPool;
use crate::segment::Segment;
use crate::slice::{ReadSlice, WriteSlice};
use crate::state::{EmptyProbe, Mode, Probe, QueueState, QueueStats, POP_LABEL, PUSH_LABEL};

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
    pub(crate) id: u64,
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
// Shared op implementations (used by the owner object and all tokens).
// ---------------------------------------------------------------------------

#[inline]
fn push_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut SegCache<T>,
    value: T,
) {
    if let Some(seg) = cache {
        // SAFETY: token/view discipline makes us the unique producer of the
        // cached user-view tail segment.
        match unsafe { seg.as_ref().try_push(value) } {
            Ok(()) => {}
            Err(v) => push_slow(inner, frame, cache, v), // full → slow path
        }
    } else {
        push_slow(inner, frame, cache, value);
    }
}

#[cold]
#[inline(never)]
fn push_slow<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut SegCache<T>,
    value: T,
) {
    let seg = {
        let mut st = inner.lock_counted();
        // Over-provision: ask for a whole segment of room rather than one
        // slot, so the next ~capacity pushes stay on the lock-free fast
        // path instead of re-entering this slow path for the dregs of a
        // nearly-full tail.
        let room = st.segment_capacity();
        let seg = st.producer_segment(frame.id.0, room);
        // SAFETY: unique producer; `producer_segment` guarantees the room.
        unsafe {
            seg.as_ref()
                .try_push(value)
                .unwrap_or_else(|_| unreachable!("fresh segment has room"))
        };
        seg
    };
    *cache = Some(seg);
    // Segment transitions are rare; wake blocked consumers so freshly
    // linked data is noticed promptly (suppressed when nobody is parked).
    notify_counted(inner);
}

/// Commits one lock-free consumer step to `next` (the current segment's
/// published successor, Acquire-loaded by the caller). Returns `None`
/// without advancing when the budget is spent and the caller must take
/// the slow path. The caller must have re-checked the current segment for
/// data *after* its Acquire load of `next` — see the call sites.
#[inline]
fn chain_advance<T: Send + 'static>(
    inner: &QueueInner<T>,
    cache: &mut PopCache<T>,
    next: NonNull<Segment<T>>,
) -> Option<NonNull<Segment<T>>> {
    if cache.advances >= MAX_LOCKFREE_ADVANCES {
        return None;
    }
    cache.seg = Some(next);
    cache.advances += 1;
    FastStats::incr(&inner.fast.consumer.chain_advances);
    Some(next)
}

#[inline]
fn pop_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
) -> T {
    if let Some(mut seg) = cache.seg {
        loop {
            // SAFETY: delegation gate + rule 3 make us the unique consumer.
            if let Some(v) = unsafe { seg.as_ref().try_pop() } {
                return v;
            }
            // Drained. If a successor is published, the Acquire load of
            // `next` also makes every pre-link push visible — so re-check
            // before advancing past the segment (a value may have been
            // published between the failed pop above and the link).
            let Some(next) = NonNull::new(unsafe { seg.as_ref().next() }) else {
                break;
            };
            if let Some(v) = unsafe { seg.as_ref().try_pop() } {
                return v;
            }
            match chain_advance(inner, cache, next) {
                Some(n) => seg = n,
                None => break,
            }
        }
    }
    pop_slow(inner, frame, cache)
}

#[cold]
#[inline(never)]
fn pop_slow<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
) -> T {
    let mut result: Option<T> = None;
    let fid = frame.id.0;
    let _waiting = WaiterGuard::register(&inner.fast.consumer.waiters);
    inner.rt.block_until(frame, HelpMode::Preceding, || {
        let mut st = inner.lock_counted();
        match st.pop_probe(fid) {
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
fn empty_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
) -> bool {
    if let Some(mut seg) = cache.seg {
        loop {
            // SAFETY: unique consumer.
            if unsafe { !seg.as_ref().is_empty() } {
                return false;
            }
            let Some(next) = NonNull::new(unsafe { seg.as_ref().next() }) else {
                break;
            };
            // Re-check after the Acquire load of `next` (see pop_impl).
            if unsafe { !seg.as_ref().is_empty() } {
                return false;
            }
            match chain_advance(inner, cache, next) {
                Some(n) => seg = n,
                None => break,
            }
        }
    }
    empty_slow(inner, frame, cache)
}

#[cold]
#[inline(never)]
fn empty_slow<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
) -> bool {
    let mut result: Option<bool> = None;
    let fid = frame.id.0;
    let _waiting = WaiterGuard::register(&inner.fast.consumer.waiters);
    inner.rt.block_until(frame, HelpMode::Preceding, || {
        let mut st = inner.lock_counted();
        match st.empty_probe(fid) {
            EmptyProbe::HasData(seg) => {
                cache.seg = Some(seg);
                cache.advances = 0;
                result = Some(false);
                true
            }
            EmptyProbe::Empty => {
                // The probe's consumer_advance may have recycled the
                // cached segment (drained and linked-past, e.g. when the
                // advance cap broke mid-chain before an empty reserved
                // tail). Drop the cache: the owner may push again after a
                // true-empty verdict, and a recycled segment must not be
                // read through a stale pointer.
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
fn write_slice_impl<'t, T: Send + 'static>(
    inner: &'t Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut SegCache<T>,
    len: usize,
) -> WriteSlice<'t, T> {
    let len = len.max(1);
    // Fast path: the cached tail segment has *any* room — return a
    // (possibly shorter) slice over it without locking. This is the
    // paper's §5.2 contract: "the slice must fit inside a single segment;
    // if not, a shorter slice will be returned". Slices are additionally
    // clamped to the ring's contiguous span so staging writes need no
    // per-value index arithmetic.
    if let Some(seg) = cache {
        // SAFETY: unique producer of the cached segment.
        let avail = unsafe { seg.as_ref().contiguous_writable(len) };
        if avail >= 1 {
            // SAFETY: unique producer; `avail` (at most `len`) contiguous
            // slots are free.
            return unsafe { WriteSlice::new(inner, *seg, avail) };
        }
    }
    write_slice_slow(inner, frame, cache, len)
}

#[cold]
#[inline(never)]
fn write_slice_slow<'t, T: Send + 'static>(
    inner: &'t Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut SegCache<T>,
    len: usize,
) -> WriteSlice<'t, T> {
    let mut st = inner.lock_counted();
    let len = len.min(st.segment_capacity());
    let seg = st.producer_segment(frame.id.0, len);
    drop(st);
    *cache = Some(seg);
    // `producer_segment` guarantees `len` free slots, but a reused
    // segment's tail may sit mid-ring: clamp to the contiguous span
    // (never zero when free ≥ 1).
    // SAFETY: unique producer of `seg`.
    let len = unsafe { seg.as_ref().contiguous_writable(len) };
    unsafe { WriteSlice::new(inner, seg, len) }
}

fn read_slice_impl<'t, T: Send + 'static>(
    inner: &'t Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
    max_len: usize,
) -> Option<ReadSlice<'t, T>> {
    if empty_impl(inner, frame, cache) {
        return None;
    }
    let seg = cache
        .seg
        .expect("empty_impl(false) caches the head segment");
    // SAFETY: unique consumer of the head segment.
    Some(unsafe { ReadSlice::new(inner, seg, max_len) })
}

/// Shared implementation of the batched push: drains `iter` through
/// write slices, publishing once per slice instead of once per value.
fn push_iter_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut SegCache<T>,
    iter: impl IntoIterator<Item = T>,
) -> u64 {
    let mut it = iter.into_iter();
    let mut pushed = 0u64;
    loop {
        let Some(first) = it.next() else {
            return pushed;
        };
        // Reserve generously: unwritten reservation slots are simply never
        // published, so over-asking costs nothing, while under-asking
        // costs an extra slice per segment.
        let want = it.size_hint().0.saturating_add(1).max(32);
        let mut ws = write_slice_impl(inner, frame, cache, want);
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

/// Shared implementation of the copying batched push: memcpys `vals`
/// through write slices (for `Copy` payloads — the fastest producer path).
fn push_slice_impl<T: Send + Copy + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut SegCache<T>,
    mut vals: &[T],
) -> u64 {
    let total = vals.len() as u64;
    while !vals.is_empty() {
        let mut ws = write_slice_impl(inner, frame, cache, vals.len());
        let n = ws.extend_from_slice(vals);
        vals = &vals[n..];
    }
    total
}

/// Shared implementation of the batched pop: bulk-moves up to `max`
/// currently-visible values into `out` (appending), following published
/// chain links lock-free. Blocks only when nothing is visible yet;
/// returns the number appended — `0` iff the queue is permanently empty,
/// except that `max == 0` short-circuits to `0` without inspecting the
/// queue. Taking the destination by reference lets steady-state consumers
/// reuse one buffer instead of allocating a vector per round.
fn pop_batch_into_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
    max: usize,
    out: &mut Vec<T>,
) -> usize {
    if max == 0 {
        return 0;
    }
    let base = out.len();
    // Saturate: `usize::MAX` is a legitimate "take everything visible"
    // request, and the buffer may already hold values.
    let target = base.saturating_add(max);
    loop {
        if let Some(mut seg) = cache.seg {
            loop {
                // SAFETY: unique consumer.
                unsafe { seg.as_ref().pop_bulk(target - out.len(), out) };
                if out.len() == target {
                    return out.len() - base;
                }
                let Some(next) = NonNull::new(unsafe { seg.as_ref().next() }) else {
                    break;
                };
                // Re-check after the Acquire load of `next` (see pop_impl).
                unsafe { seg.as_ref().pop_bulk(target - out.len(), out) };
                if out.len() == target {
                    return out.len() - base;
                }
                match chain_advance(inner, cache, next) {
                    Some(n) => seg = n,
                    None => break,
                }
            }
        }
        if out.len() > base {
            return out.len() - base;
        }
        // Nothing visible: wait for data or the permanent-empty verdict.
        if empty_slow(inner, frame, cache) {
            return 0;
        }
    }
}

/// Owning wrapper over [`pop_batch_into_impl`]: empty vector iff the
/// queue is permanently empty.
fn pop_batch_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
    max: usize,
) -> Vec<T> {
    let mut out = Vec::new();
    pop_batch_into_impl(inner, frame, cache, max, &mut out);
    out
}

/// Shared implementation of the batched visitor: feeds `f` contiguous
/// slices until the queue is permanently empty. Returns the total number
/// of values consumed.
fn for_each_batch_impl<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    frame: &Arc<Frame>,
    cache: &mut PopCache<T>,
    max_batch: usize,
    mut f: impl FnMut(&[T]),
) -> u64 {
    let mut total = 0u64;
    while let Some(rs) = read_slice_impl(inner, frame, cache, max_batch) {
        f(rs.as_slice());
        total += rs.len() as u64;
    }
    total
}

fn spawn_transfer_and_release<T: Send + 'static>(
    inner: &Arc<QueueInner<T>>,
    ctx: &mut AcquireCtx<'_>,
    mode: Mode,
) {
    let parent = Arc::clone(ctx.parent_frame());
    let child = Arc::clone(ctx.frame());
    let pred = {
        let mut st = inner.state.lock();
        st.spawn_transfer(parent.id.0, &child, mode)
    };
    if let Some(p) = pred {
        // Rule 3: serialize pop-privileged siblings.
        ctx.add_predecessor(p);
    }
    if mode.has_push() {
        parent.label_incr((inner.id, PUSH_LABEL));
    }
    if mode.has_pop() {
        parent.label_incr((inner.id, POP_LABEL));
    }
    let inner2 = Arc::clone(inner);
    ctx.on_release(move || {
        {
            let mut st = inner2.state.lock();
            st.complete(child.id.0);
        }
        if mode.has_push() {
            parent.label_decr((inner2.id, PUSH_LABEL));
        }
        if mode.has_pop() {
            parent.label_decr((inner2.id, POP_LABEL));
        }
        // Completion may have linked new data into the consumer chain or
        // retired the last preceding producer: wake blocked waiters.
        notify_counted(&inner2);
    });
}

fn initial_push_cache<T: Send + 'static>(inner: &Arc<QueueInner<T>>, frame_id: u64) -> SegCache<T> {
    let st = inner.state.lock();
    st.user_tail_segment(frame_id)
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
    inner: Arc<QueueInner<T>>,
    owner: Arc<Frame>,
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
        let rt = scope.runtime();
        let state = QueueState::new(&owner, capacity, recycle, pool);
        let inner = Arc::new(QueueInner {
            id: swan::next_object_id(),
            rt,
            state: Mutex::new(state),
            fast: FastStats::default(),
        });
        let push_cache = initial_push_cache(&inner, owner.id.0);
        Hyperqueue {
            inner,
            owner,
            push_cache: Cell::new(push_cache),
            pop_cache: Cell::new(PopCache::default()),
            _not_send: PhantomData,
        }
    }

    /// The queue's object id (diagnostics; labels for selective sync).
    pub fn object_id(&self) -> u64 {
        self.inner.id
    }

    /// `pushdep` access for a spawn: the child may only push.
    pub fn pushdep(&self) -> PushDep<T> {
        // The child takes the user view; our cached tail is no longer ours.
        self.push_cache.set(None);
        PushDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// `popdep` access for a spawn: the child may only pop.
    pub fn popdep(&self) -> PopDep<T> {
        // Pop spawns also take the user view (§4.2) and the consumer role.
        self.push_cache.set(None);
        self.pop_cache.set(PopCache::default());
        PopDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// `pushpopdep` access for a spawn: the child may push and pop.
    pub fn pushpopdep(&self) -> PushPopDep<T> {
        self.push_cache.set(None);
        self.pop_cache.set(PopCache::default());
        PushPopDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Pushes a value as the owner task.
    pub fn push(&self, value: T) {
        let mut cache = self.push_cache.get();
        push_impl(&self.inner, &self.owner, &mut cache, value);
        self.push_cache.set(cache);
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
        let mut cache = self.push_cache.get();
        let n = push_iter_impl(&self.inner, &self.owner, &mut cache, iter);
        self.push_cache.set(cache);
        n
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
        let mut cache = self.push_cache.get();
        let n = push_slice_impl(&self.inner, &self.owner, &mut cache, vals);
        self.push_cache.set(cache);
        n
    }

    /// Pops the next value as the owner task. Blocks while the value is in
    /// flight; **panics** if the queue is permanently empty (guard with
    /// [`Hyperqueue::empty`]).
    pub fn pop(&self) -> T {
        let mut cache = self.pop_cache.get();
        let v = pop_impl(&self.inner, &self.owner, &mut cache);
        self.pop_cache.set(cache);
        v
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
        let mut cache = self.pop_cache.get();
        let v = pop_batch_impl(&self.inner, &self.owner, &mut cache, max);
        self.pop_cache.set(cache);
        v
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
        let mut cache = self.pop_cache.get();
        let n = pop_batch_into_impl(&self.inner, &self.owner, &mut cache, max, out);
        self.pop_cache.set(cache);
        n
    }

    /// Drains the queue through read slices of up to `max_batch` values,
    /// invoking `f` on each contiguous batch until the queue is
    /// permanently empty. Values are dropped after `f` observes them.
    /// Returns the total number of values consumed.
    pub fn for_each_batch(&self, max_batch: usize, f: impl FnMut(&[T])) -> u64 {
        let mut cache = self.pop_cache.get();
        let n = for_each_batch_impl(&self.inner, &self.owner, &mut cache, max_batch, f);
        self.pop_cache.set(cache);
        n
    }

    /// The paper's `empty()`: `false` iff a value is available to this
    /// task; `true` iff no more values can ever become visible to it;
    /// blocks until one of the two is certain (§2.1).
    pub fn empty(&self) -> bool {
        let mut cache = self.pop_cache.get();
        let r = empty_impl(&self.inner, &self.owner, &mut cache);
        self.pop_cache.set(cache);
        r
    }

    /// Requests a write slice of up to `len` values (§5.2). The returned
    /// slice may be shorter than `len` when the current segment has less
    /// room ("if not, a shorter slice will be returned") — size loops with
    /// [`WriteSlice::capacity`], or use [`Hyperqueue::push_iter`].
    pub fn write_slice(&self, len: usize) -> WriteSlice<'_, T> {
        let mut cache = self.push_cache.get();
        let ws = write_slice_impl(&self.inner, &self.owner, &mut cache, len);
        self.push_cache.set(cache);
        ws
    }

    /// Requests a read slice of up to `max_len` currently-visible values;
    /// `None` iff the queue is permanently empty (§5.2).
    pub fn read_slice(&self, max_len: usize) -> Option<ReadSlice<'_, T>> {
        let mut cache = self.pop_cache.get();
        let rs = read_slice_impl(&self.inner, &self.owner, &mut cache, max_len);
        self.pop_cache.set(cache);
        rs
    }

    /// Selective sync over pop-privileged children (§5.5:
    /// `sync (popdep<T>) queue;`).
    pub fn sync_pop(&self, scope: &Scope<'_>) {
        scope.sync_label((self.inner.id, POP_LABEL));
    }

    /// Selective sync over push-privileged children.
    pub fn sync_push(&self, scope: &Scope<'_>) {
        scope.sync_label((self.inner.id, PUSH_LABEL));
    }

    /// Allocation/recycling counters plus the fast-path observability
    /// counters (lock acquisitions, lock-free chain advances, suppressed
    /// notifies). The first group is read under the queue mutex and is
    /// exact; the fast-path group is read with the same `Relaxed` ordering
    /// its increments use and is approximate while tasks are still
    /// running — see [`QueueStats`] for the precise contract.
    pub fn stats(&self) -> QueueStats {
        let mut s = self.inner.state.lock().stats;
        let (locks, advances, suppressed) = self.inner.fast.snapshot();
        s.lock_acquisitions = locks;
        s.chain_advances = advances;
        s.notifies_suppressed = suppressed;
        s
    }
}

// ---------------------------------------------------------------------------
// Dependency arguments.
// ---------------------------------------------------------------------------

/// Spawn argument granting push-only access (the paper's `pushdep<T>`).
pub struct PushDep<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
}

/// Spawn argument granting pop-only access (`popdep<T>`).
pub struct PopDep<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
}

/// Spawn argument granting combined access (`pushpopdep<T>`).
pub struct PushPopDep<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
}

impl<T: Send + 'static> DepArg for PushDep<T> {
    type Guard = PushToken<T>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> PushToken<T> {
        spawn_transfer_and_release(&self.inner, ctx, Mode::Push);
        let frame = Arc::clone(ctx.frame());
        let cache = initial_push_cache(&self.inner, frame.id.0);
        PushToken {
            inner: self.inner,
            frame,
            cache,
        }
    }
}

impl<T: Send + 'static> DepArg for PopDep<T> {
    type Guard = PopToken<T>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> PopToken<T> {
        spawn_transfer_and_release(&self.inner, ctx, Mode::Pop);
        let frame = Arc::clone(ctx.frame());
        PopToken {
            inner: self.inner,
            frame,
            cache: PopCache::default(),
        }
    }
}

impl<T: Send + 'static> DepArg for PushPopDep<T> {
    type Guard = PushPopToken<T>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> PushPopToken<T> {
        spawn_transfer_and_release(&self.inner, ctx, Mode::PushPop);
        let frame = Arc::clone(ctx.frame());
        let push_cache = initial_push_cache(&self.inner, frame.id.0);
        PushPopToken {
            inner: self.inner,
            frame,
            push_cache,
            pop_cache: PopCache::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Tokens (task-side capability objects).
// ---------------------------------------------------------------------------

/// Push capability held by a task spawned with [`PushDep`].
pub struct PushToken<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
    frame: Arc<Frame>,
    cache: SegCache<T>,
}

// SAFETY: tokens move into exactly one task body (possibly on another
// thread). The cached raw segment pointer is owned by the queue arena,
// which the Arc keeps alive, and the view discipline makes this token the
// unique producer of that segment.
unsafe impl<T: Send + 'static> Send for PushToken<T> {}

impl<T: Send + 'static> PushToken<T> {
    /// Appends `value` to the queue in this task's position of the serial
    /// order.
    #[inline]
    pub fn push(&mut self, value: T) {
        push_impl(&self.inner, &self.frame, &mut self.cache, value);
    }

    /// Pushes every value of `iter` through write slices (see
    /// [`Hyperqueue::push_iter`]). Returns the number of values pushed.
    pub fn push_iter(&mut self, iter: impl IntoIterator<Item = T>) -> u64 {
        push_iter_impl(&self.inner, &self.frame, &mut self.cache, iter)
    }

    /// Copies `vals` into the queue (see [`Hyperqueue::push_slice`]).
    pub fn push_slice(&mut self, vals: &[T]) -> u64
    where
        T: Copy,
    {
        push_slice_impl(&self.inner, &self.frame, &mut self.cache, vals)
    }

    /// Delegates push privileges to a child spawn (recursive producers,
    /// Fig. 2/3).
    pub fn pushdep(&mut self) -> PushDep<T> {
        self.cache = None; // the child takes the user view
        PushDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Requests a write slice of up to `len` values (§5.2); may be
    /// shorter (see [`Hyperqueue::write_slice`]).
    pub fn write_slice(&mut self, len: usize) -> WriteSlice<'_, T> {
        write_slice_impl(&self.inner, &self.frame, &mut self.cache, len)
    }

    /// Selective sync over push-privileged children of the current task.
    pub fn sync_push(&self, scope: &Scope<'_>) {
        scope.sync_label((self.inner.id, PUSH_LABEL));
    }

    /// The queue's object id.
    pub fn object_id(&self) -> u64 {
        self.inner.id
    }
}

impl<T: Send + 'static> Extend<T> for PushToken<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.push_iter(iter);
    }
}

/// Pop capability held by a task spawned with [`PopDep`].
pub struct PopToken<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
    frame: Arc<Frame>,
    cache: PopCache<T>,
}

// SAFETY: see PushToken.
unsafe impl<T: Send + 'static> Send for PopToken<T> {}

impl<T: Send + 'static> PopToken<T> {
    /// Removes and returns the next value in serial order. Blocks while
    /// the value is in flight; panics if permanently empty.
    #[inline]
    pub fn pop(&mut self) -> T {
        pop_impl(&self.inner, &self.frame, &mut self.cache)
    }

    /// Pops up to `max` values in one batch (see
    /// [`Hyperqueue::pop_batch`]); empty iff permanently empty.
    pub fn pop_batch(&mut self, max: usize) -> Vec<T> {
        pop_batch_impl(&self.inner, &self.frame, &mut self.cache, max)
    }

    /// Appends up to `max` values into `out` (see
    /// [`Hyperqueue::pop_batch_into`]); `0` iff permanently empty.
    pub fn pop_batch_into(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        pop_batch_into_impl(&self.inner, &self.frame, &mut self.cache, max, out)
    }

    /// Drains the queue through batches of up to `max_batch` values (see
    /// [`Hyperqueue::for_each_batch`]). Returns the number consumed.
    pub fn for_each_batch(&mut self, max_batch: usize, f: impl FnMut(&[T])) -> u64 {
        for_each_batch_impl(&self.inner, &self.frame, &mut self.cache, max_batch, f)
    }

    /// The paper's `empty()` (see [`Hyperqueue::empty`]).
    #[inline]
    pub fn empty(&mut self) -> bool {
        empty_impl(&self.inner, &self.frame, &mut self.cache)
    }

    /// Delegates pop privileges to a child spawn.
    pub fn popdep(&mut self) -> PopDep<T> {
        self.cache = PopCache::default(); // the child becomes the consumer
        PopDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Requests a read slice of up to `max_len` values; `None` iff
    /// permanently empty (§5.2).
    pub fn read_slice(&mut self, max_len: usize) -> Option<ReadSlice<'_, T>> {
        read_slice_impl(&self.inner, &self.frame, &mut self.cache, max_len)
    }

    /// Selective sync over pop-privileged children of the current task.
    pub fn sync_pop(&self, scope: &Scope<'_>) {
        scope.sync_label((self.inner.id, POP_LABEL));
    }

    /// The queue's object id.
    pub fn object_id(&self) -> u64 {
        self.inner.id
    }
}

/// Combined capability held by a task spawned with [`PushPopDep`].
pub struct PushPopToken<T: Send + 'static> {
    inner: Arc<QueueInner<T>>,
    frame: Arc<Frame>,
    push_cache: SegCache<T>,
    pop_cache: PopCache<T>,
}

// SAFETY: see PushToken.
unsafe impl<T: Send + 'static> Send for PushPopToken<T> {}

impl<T: Send + 'static> PushPopToken<T> {
    /// Pushes a value (see [`PushToken::push`]).
    #[inline]
    pub fn push(&mut self, value: T) {
        push_impl(&self.inner, &self.frame, &mut self.push_cache, value);
    }

    /// Pushes every value of `iter` (see [`Hyperqueue::push_iter`]).
    pub fn push_iter(&mut self, iter: impl IntoIterator<Item = T>) -> u64 {
        push_iter_impl(&self.inner, &self.frame, &mut self.push_cache, iter)
    }

    /// Copies `vals` into the queue (see [`Hyperqueue::push_slice`]).
    pub fn push_slice(&mut self, vals: &[T]) -> u64
    where
        T: Copy,
    {
        push_slice_impl(&self.inner, &self.frame, &mut self.push_cache, vals)
    }

    /// Pops a value (see [`PopToken::pop`]).
    #[inline]
    pub fn pop(&mut self) -> T {
        pop_impl(&self.inner, &self.frame, &mut self.pop_cache)
    }

    /// Pops up to `max` values in one batch (see
    /// [`Hyperqueue::pop_batch`]).
    pub fn pop_batch(&mut self, max: usize) -> Vec<T> {
        pop_batch_impl(&self.inner, &self.frame, &mut self.pop_cache, max)
    }

    /// Appends up to `max` values into `out` (see
    /// [`Hyperqueue::pop_batch_into`]); `0` iff permanently empty.
    pub fn pop_batch_into(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        pop_batch_into_impl(&self.inner, &self.frame, &mut self.pop_cache, max, out)
    }

    /// Drains the queue through batches (see
    /// [`Hyperqueue::for_each_batch`]).
    pub fn for_each_batch(&mut self, max_batch: usize, f: impl FnMut(&[T])) -> u64 {
        for_each_batch_impl(&self.inner, &self.frame, &mut self.pop_cache, max_batch, f)
    }

    /// `empty()` (see [`Hyperqueue::empty`]).
    #[inline]
    pub fn empty(&mut self) -> bool {
        empty_impl(&self.inner, &self.frame, &mut self.pop_cache)
    }

    /// Delegates push privileges only.
    pub fn pushdep(&mut self) -> PushDep<T> {
        self.push_cache = None;
        PushDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Delegates pop privileges only.
    pub fn popdep(&mut self) -> PopDep<T> {
        self.push_cache = None;
        self.pop_cache = PopCache::default();
        PopDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Delegates both privileges.
    pub fn pushpopdep(&mut self) -> PushPopDep<T> {
        self.push_cache = None;
        self.pop_cache = PopCache::default();
        PushPopDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Requests a write slice (§5.2); may be shorter than requested.
    pub fn write_slice(&mut self, len: usize) -> WriteSlice<'_, T> {
        write_slice_impl(&self.inner, &self.frame, &mut self.push_cache, len)
    }

    /// Requests a read slice (§5.2).
    pub fn read_slice(&mut self, max_len: usize) -> Option<ReadSlice<'_, T>> {
        read_slice_impl(&self.inner, &self.frame, &mut self.pop_cache, max_len)
    }

    /// The queue's object id.
    pub fn object_id(&self) -> u64 {
        self.inner.id
    }
}

impl<T: Send + 'static> Extend<T> for PushPopToken<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.push_iter(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan::Runtime;

    fn default_capacity_of<T: Send + 'static>(s: &Scope<'_>) -> usize {
        let q = Hyperqueue::<T>::new(s);
        let st = q.inner.state.lock();
        let cap = st.segment_capacity();
        let first = st.user_tail_segment(q.owner.id.0).expect("owner's segment");
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
