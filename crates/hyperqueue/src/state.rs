//! The per-queue view table: §4 of the paper.
//!
//! Every task holding privileges on a hyperqueue has an entry here with its
//! `user`, `children` and `right` views (§4). The consumer-side `queue`
//! view is a singleton (invariant 2: exactly one view with a local head
//! exists); instead of physically handing it from frame to frame as the
//! paper narrates, we keep it in the state and gate access with a
//! *delegation count*: a frame may consume only while it has no outstanding
//! pop-privileged children — observationally identical to "the parent's
//! queue view is empty while the consumer child executes" (Fig. 6
//! discussion), see DESIGN.md §2.
//!
//! All view-linking operations run under the queue mutex. The paper's
//! "special optimization" (reduce only on steals) is explicitly *not*
//! implemented — the paper's own evaluation omits it too (§4.5).

use std::collections::HashMap;
use std::ptr::NonNull;
use std::sync::Arc;

use swan::frame::{program_order, Frame, FrameId, ProgramOrder};

use crate::pool::SegmentPool;
use crate::segment::{segment_capacity_for, Segment};
use crate::view::{Ptr, View};

/// Access mode of a grant (the paper's `pushdep` / `popdep` /
/// `pushpopdep`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// May only push (`pushdep`).
    Push,
    /// May only pop (`popdep`).
    Pop,
    /// May do both (`pushpopdep`).
    PushPop,
}

impl Mode {
    /// Whether the mode grants push privileges.
    pub fn has_push(self) -> bool {
        matches!(self, Mode::Push | Mode::PushPop)
    }
    /// Whether the mode grants pop privileges.
    pub fn has_pop(self) -> bool {
        matches!(self, Mode::Pop | Mode::PushPop)
    }
}

/// Selective-sync label tag for push privileges.
pub const PUSH_LABEL: u8 = 1;
/// Selective-sync label tag for pop privileges.
pub const POP_LABEL: u8 = 2;

pub(crate) struct FrameEntry<T> {
    pub(crate) frame: Arc<Frame>,
    parent: Option<u64>,
    /// Nearest *live* older sibling with privileges on this queue.
    left: Option<u64>,
    /// Nearest live younger sibling.
    right_sib: Option<u64>,
    /// Youngest live child with privileges on this queue.
    last_live_child: Option<u64>,
    pub(crate) user: View<T>,
    pub(crate) children: View<T>,
    pub(crate) right: View<T>,
    pub(crate) has_push: bool,
    pub(crate) has_pop: bool,
    /// Live pop-privileged children; consuming requires 0 (see module docs).
    pub(crate) pop_delegations: usize,
    /// Rule-3 predecessor tracking: last pop-privileged child spawned.
    last_pop_child: Option<FrameId>,
}

/// Counters reported by [`crate::Hyperqueue::stats`].
///
/// # Exact vs approximate counters
///
/// The first four (`segments_allocated`, `segments_recycled`,
/// `freelist_hits`, `head_attaches`) are maintained under the queue mutex:
/// a snapshot is exact at the instant the lock was held.
///
/// The last three (`lock_acquisitions`, `chain_advances`,
/// `notifies_suppressed`) are fast-path observability counters kept in
/// atomics outside the lock, incremented *and* read with
/// `Ordering::Relaxed` (uniformly — see `FastStats` in `queue.rs`). Each
/// is monotonic and eventually exact, but while producer/consumer tasks
/// are still running a snapshot is **approximate**: it may lag in-flight
/// fast-path events, and the three values need not be mutually consistent
/// (e.g. a `chain_advances` increment may be visible while a
/// `lock_acquisitions` increment that happened earlier on another thread
/// is not). Read after quiescing (e.g. after `Scope::sync`) — as the
/// fast-path assertions in `tests/fastpath.rs` do — when exact totals
/// matter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Segments allocated from the heap. Exact (mutex-guarded).
    pub segments_allocated: u64,
    /// Segments returned to the freelist after being drained. Exact
    /// (mutex-guarded).
    pub segments_recycled: u64,
    /// Freelist hits (allocations served without heap traffic). Exact
    /// (mutex-guarded).
    pub freelist_hits: u64,
    /// Early head attachments (§4.1 "double reduction" first step). Exact
    /// (mutex-guarded).
    pub head_attaches: u64,
    /// Segments drawn from a shared [`SegmentPool`] instead of the heap
    /// (queues created with [`crate::Hyperqueue::with_pool`]). A warm
    /// service-layer queue has `segments_allocated == 0` and all its
    /// storage accounted here. Exact (mutex-guarded).
    pub pool_draws: u64,
    /// Data-path acquisitions of the queue mutex (push/pop/empty/slice
    /// slow paths). Zero while a producer/consumer pair streams through
    /// already-published segments — the paper's steady-state claim.
    /// Approximate under concurrency (Relaxed; see struct docs).
    pub lock_acquisitions: u64,
    /// Consumer segment transitions taken lock-free by following a
    /// published `next` link instead of probing the queue state.
    /// Approximate under concurrency (Relaxed; see struct docs).
    pub chain_advances: u64,
    /// Runtime wakeups skipped because no worker was parked. Approximate
    /// under concurrency (Relaxed; see struct docs).
    pub notifies_suppressed: u64,
}

impl QueueStats {
    /// Adds `other`'s counters into `self`, field by field. Used to
    /// accumulate totals across queues — per-edge lifetime history in
    /// [`crate::SegmentPool::retired_queue_stats`], and cross-edge sums in
    /// the service layer's consolidated stats snapshot.
    pub fn merge(&mut self, other: &QueueStats) {
        self.segments_allocated += other.segments_allocated;
        self.segments_recycled += other.segments_recycled;
        self.freelist_hits += other.freelist_hits;
        self.head_attaches += other.head_attaches;
        self.pool_draws += other.pool_draws;
        self.lock_acquisitions += other.lock_acquisitions;
        self.chain_advances += other.chain_advances;
        self.notifies_suppressed += other.notifies_suppressed;
    }
}

/// Result of a consumer-side probe.
pub(crate) enum Probe<T> {
    /// A value was popped; the new head segment is returned for caching.
    Value(T, NonNull<Segment<T>>),
    /// No value now, but more may become visible: caller must wait.
    Blocked,
    /// Permanently empty for this consumer (paper `empty() == true`).
    Empty,
}

/// Result of an `empty()` probe.
pub(crate) enum EmptyProbe<T> {
    /// Data is available; head segment returned for caching.
    HasData(NonNull<Segment<T>>),
    /// Undecidable yet: caller must wait.
    Blocked,
    /// Permanently empty.
    Empty,
}

pub(crate) struct QueueState<T> {
    pub(crate) frames: HashMap<u64, FrameEntry<T>>,
    /// The singleton consumer view (invariant 2).
    pub(crate) queue_view: View<T>,
    /// Frame id of the owning task (diagnostics).
    #[allow(dead_code)]
    owner: u64,
    next_nonlocal: u64,
    seg_cap: usize,
    recycle_enabled: bool,
    /// Shared segment pool, if this queue participates in service-layer
    /// storage reuse: allocations draw from it first, and drop returns
    /// every owned segment to it instead of freeing.
    pool: Option<Arc<SegmentPool<T>>>,
    /// Every segment this queue owns (heap-allocated or drawn from the
    /// pool); released on drop — freed, or handed back to the pool.
    arena: Vec<NonNull<Segment<T>>>,
    freelist: Vec<NonNull<Segment<T>>>,
    pub(crate) stats: QueueStats,
}

// SAFETY: the raw segment pointers are owned by the arena and only
// dereferenced under the queue mutex or through the SPSC token protocol;
// `T: Send` is required for the values stored inside.
unsafe impl<T: Send> Send for QueueState<T> {}

impl<T> QueueState<T> {
    /// Builds the initial state: one segment, queue view and the owner's
    /// user view split over it (§4.1 `(queue, user) ← split((snew, snew))`).
    pub(crate) fn new(
        owner: &Arc<Frame>,
        seg_cap: usize,
        recycle: bool,
        pool: Option<Arc<SegmentPool<T>>>,
    ) -> Self {
        let mut st = QueueState {
            frames: HashMap::new(),
            queue_view: View::EMPTY,
            owner: owner.id.0,
            next_nonlocal: 0,
            seg_cap: segment_capacity_for(seg_cap),
            recycle_enabled: recycle,
            pool,
            arena: Vec::new(),
            freelist: Vec::new(),
            stats: QueueStats::default(),
        };
        let s0 = st.alloc_segment();
        let nl = st.fresh_nonlocal();
        let (queue, user) = View::local(s0).split(nl);
        st.queue_view = queue;
        st.frames.insert(
            owner.id.0,
            FrameEntry {
                frame: Arc::clone(owner),
                parent: None,
                left: None,
                right_sib: None,
                last_live_child: None,
                user,
                children: View::EMPTY,
                right: View::EMPTY,
                has_push: true,
                has_pop: true,
                pop_delegations: 0,
                last_pop_child: None,
            },
        );
        st
    }

    fn fresh_nonlocal(&mut self) -> u64 {
        let id = self.next_nonlocal;
        self.next_nonlocal += 1;
        id
    }

    fn alloc_segment(&mut self) -> NonNull<Segment<T>> {
        if let Some(seg) = self.freelist.pop() {
            self.stats.freelist_hits += 1;
            return seg;
        }
        if let Some(seg) = self.pool.as_ref().and_then(|p| p.take()) {
            self.arena.push(seg);
            self.stats.pool_draws += 1;
            return seg;
        }
        let seg = NonNull::new(Box::into_raw(Segment::new(self.seg_cap))).expect("Box is nonnull");
        self.arena.push(seg);
        self.stats.segments_allocated += 1;
        seg
    }

    /// Number of live entries (grants) on this queue.
    #[allow(dead_code)]
    pub(crate) fn live_grants(&self) -> usize {
        self.frames.len()
    }

    /// Capacity of every segment this queue allocates (the requested
    /// capacity after [`segment_capacity_for`]).
    pub(crate) fn segment_capacity(&self) -> usize {
        self.seg_cap
    }

    /// The segment a producer token may cache at acquire time (the user
    /// view's local tail, if any).
    pub(crate) fn user_tail_segment(&self, id: u64) -> Option<NonNull<Segment<T>>> {
        self.frames.get(&id).and_then(|e| e.user.tail.as_local())
    }

    // ---- spawn-time transfer (§4.2) -------------------------------------

    /// Handles a spawn of `child` with `mode` privileges by the task owning
    /// `parent_id`'s entry. Returns the rule-3 predecessor (the previously
    /// spawned pop-privileged sibling) if the mode has pop privileges.
    pub(crate) fn spawn_transfer(
        &mut self,
        parent_id: u64,
        child: &Arc<Frame>,
        mode: Mode,
    ) -> Option<FrameId> {
        let child_id = child.id.0;
        assert!(
            !self.frames.contains_key(&child_id),
            "a task may hold at most one grant per hyperqueue; \
             use pushpopdep for combined access"
        );
        let (user, pred, left) = {
            let p = self
                .frames
                .get_mut(&parent_id)
                .expect("spawning task holds no grant on this hyperqueue");
            if mode.has_push() {
                assert!(
                    p.has_push,
                    "child cannot receive push privileges its parent lacks (§2.3)"
                );
            }
            if mode.has_pop() {
                assert!(
                    p.has_pop,
                    "child cannot receive pop privileges its parent lacks (§2.3)"
                );
            }
            // "The user view, if any, is passed from the parent frame to
            // the child frame. The parent's user view is cleared." (§4.2)
            let user = p.user.take();
            let mut pred = None;
            if mode.has_pop() {
                // Rule 3: a pop task waits for the previous pop task.
                pred = p.last_pop_child.replace(child.id);
                p.pop_delegations += 1;
            }
            let left = p.last_live_child.replace(child_id);
            (user, pred, left)
        };
        if let Some(l) = left {
            self.frames
                .get_mut(&l)
                .expect("live-chain left sibling present")
                .right_sib = Some(child_id);
        }
        self.frames.insert(
            child_id,
            FrameEntry {
                frame: Arc::clone(child),
                parent: Some(parent_id),
                left,
                right_sib: None,
                last_live_child: None,
                user,
                children: View::EMPTY,
                right: View::EMPTY,
                has_push: mode.has_push(),
                has_pop: mode.has_pop(),
                pop_delegations: 0,
                last_pop_child: None,
            },
        );
        self.debug_validate();
        pred
    }

    // ---- completion-time reduction (§4.2) --------------------------------

    /// Handles completion of the task owning entry `id`: reduces its views
    /// in view order (children < user < right) and merges the result into
    /// the live left sibling's right view, or the parent's children view
    /// (the Cilk++ reducer discipline the paper builds on).
    pub(crate) fn complete(&mut self, id: u64) {
        let entry = self.frames.remove(&id).expect("completing unknown grant");
        debug_assert!(
            entry.last_live_child.is_none(),
            "children complete before their parent (implicit sync)"
        );
        debug_assert_eq!(entry.pop_delegations, 0, "pop children still live");
        // SAFETY: queue lock held (we have &mut self); segments alive in
        // the arena.
        let mut v = unsafe { View::reduce(entry.children, entry.user) };
        v = unsafe { View::reduce(v, entry.right) };
        if let Some(l) = entry.left {
            let le = self
                .frames
                .get_mut(&l)
                .expect("live left sibling entry present");
            let lr = le.right.take();
            le.right = unsafe { View::reduce(lr, v) };
            le.right_sib = entry.right_sib;
        } else if let Some(p) = entry.parent {
            let pe = self.frames.get_mut(&p).expect("parent entry present");
            let pc = pe.children.take();
            pe.children = unsafe { View::reduce(pc, v) };
        } else {
            // The owner entry completes only via Hyperqueue::drop; data, if
            // any, stays reachable from the queue view.
        }
        if let Some(r) = entry.right_sib {
            self.frames
                .get_mut(&r)
                .expect("live right sibling entry present")
                .left = entry.left;
        }
        if let Some(p) = entry.parent {
            let pe = self.frames.get_mut(&p).expect("parent entry present");
            if pe.last_live_child == Some(id) {
                pe.last_live_child = entry.left;
            }
            if entry.has_pop {
                debug_assert!(pe.pop_delegations > 0);
                pe.pop_delegations -= 1;
            }
        }
        self.debug_validate();
    }

    // ---- producer side ----------------------------------------------------

    /// Slow-path push support: returns the segment the producer of entry
    /// `id` must push to, allocating/attaching as needed. The caller caches
    /// the returned pointer for lock-free fast-path pushes.
    pub(crate) fn producer_segment(&mut self, id: u64, need: usize) -> NonNull<Segment<T>> {
        let seg = self.producer_segment_inner(id, need);
        self.debug_validate();
        seg
    }

    fn producer_segment_inner(&mut self, id: u64, need: usize) -> NonNull<Segment<T>> {
        let e = self.frames.get(&id).expect("push without a grant");
        assert!(e.has_push, "push requires push privileges");
        match e.user.tail {
            Ptr::Local(seg) => {
                // SAFETY: we are the unique producer of our user-view tail.
                let full = unsafe {
                    let s = seg.as_ref();
                    s.capacity() - s.len() < need
                };
                if !full {
                    return seg;
                }
                let fresh = self.alloc_segment();
                // SAFETY: lock held; `seg` is a tail (next == null by
                // invariant 5).
                unsafe { seg.as_ref().set_next(fresh.as_ptr()) };
                let e = self.frames.get_mut(&id).expect("just read");
                e.user.tail = Ptr::Local(fresh);
                fresh
            }
            Ptr::Nil => self.attach_fresh_head(id),
            Ptr::NonLocal(_) => unreachable!(
                "a push grant's user view never has a non-local tail \
                 (it is ε or ends in the segment being produced)"
            ),
        }
    }

    /// §4.1: push found an empty user view. Create a segment, split it, set
    /// the tail half as the user view, and merge the head half into the
    /// *maximal materialized view strictly preceding this task's user view*
    /// in the §4.4 view order: the last live child's right view, the
    /// (non-empty) children view, the live left sibling's right view, or —
    /// recursively through the ancestors — ultimately the owner's children
    /// view.
    fn attach_fresh_head(&mut self, id: u64) -> NonNull<Segment<T>> {
        let snew = self.alloc_segment();
        let nl = self.fresh_nonlocal();
        let (tmp, user) = View::local(snew).split(nl);
        self.stats.head_attaches += 1;
        {
            let e = self.frames.get_mut(&id).expect("push without a grant");
            debug_assert!(e.user.is_empty());
            e.user = user;
        }
        // Level 0: the pushing frame's own completed/live children precede
        // its continuation.
        {
            let e = &self.frames[&id];
            if let Some(lc) = e.last_live_child {
                let le = self.frames.get_mut(&lc).expect("live child entry");
                let lr = le.right.take();
                le.right = unsafe { View::reduce(lr, tmp) };
                return snew;
            }
            if !e.children.is_empty() {
                let e = self.frames.get_mut(&id).expect("just read");
                let c = e.children.take();
                e.children = unsafe { View::reduce(c, tmp) };
                return snew;
            }
        }
        // Ascend: live left sibling's right view, else the parent's
        // children view if non-empty, else recurse (paper §4.1).
        let mut cur = id;
        loop {
            let e = &self.frames[&cur];
            if let Some(l) = e.left {
                let le = self.frames.get_mut(&l).expect("live left sibling");
                let lr = le.right.take();
                le.right = unsafe { View::reduce(lr, tmp) };
                return snew;
            }
            match e.parent {
                None => {
                    // Top-level (owner) reached: merge with its children
                    // view even if empty.
                    let oe = self.frames.get_mut(&cur).expect("owner entry");
                    let c = oe.children.take();
                    oe.children = unsafe { View::reduce(c, tmp) };
                    return snew;
                }
                Some(p) => {
                    let pe = &self.frames[&p];
                    if !pe.children.is_empty() {
                        let pe = self.frames.get_mut(&p).expect("just read");
                        let c = pe.children.take();
                        pe.children = unsafe { View::reduce(c, tmp) };
                        return snew;
                    }
                    cur = p;
                }
            }
        }
    }

    // ---- consumer side ----------------------------------------------------

    /// Advances the queue view over drained segments, recycling them.
    /// Returns the current head segment.
    fn consumer_advance(&mut self) -> NonNull<Segment<T>> {
        let mut cur = self
            .queue_view
            .head
            .as_local()
            .expect("queue view head is always local (invariants 1-2)");
        loop {
            // SAFETY: head segments are alive (arena) and we are the unique
            // consumer (delegation gate).
            let (next, empty) = unsafe {
                let s = cur.as_ref();
                // Load `next` BEFORE emptiness: observing a non-null next
                // (Acquire) also makes all prior pushes visible, so an
                // empty check afterwards cannot miss values.
                let n = s.next();
                (n, s.is_empty())
            };
            if !empty {
                break;
            }
            let Some(next) = NonNull::new(next) else {
                break;
            };
            self.queue_view.head = Ptr::Local(next);
            // `cur` is drained and linked-past: per invariants 4-5 nobody
            // else can reach it — recycle.
            if self.recycle_enabled {
                // SAFETY: unreachable by any other task (see above).
                unsafe { cur.as_ref().reset() };
                self.freelist.push(cur);
                self.stats.segments_recycled += 1;
            }
            cur = next;
        }
        self.debug_validate();
        cur
    }

    /// True if any *live* push-privileged grant precedes `consumer` in
    /// program order — i.e. more values may still become visible (this
    /// replaces the paper's per-segment `producing` flag; see DESIGN.md §2).
    ///
    /// "Precedes" = the grant's subtree lies strictly before the consumer,
    /// or the grant is a descendant of the consumer (work the consumer
    /// already spawned). Ancestors do not count: their *future* pushes come
    /// after the consumer in the serial elision and are invisible to it.
    fn live_push_grant_precedes(&self, consumer: &Arc<Frame>) -> bool {
        self.frames.values().any(|e| {
            e.has_push
                && e.frame.id != consumer.id
                && matches!(
                    program_order(&e.frame.path, &consumer.path),
                    ProgramOrder::Before | ProgramOrder::DescendantOfB
                )
        })
    }

    /// Consumer-side pop probe. The caller must be the task owning entry
    /// `id` (enforced structurally by token ownership).
    pub(crate) fn pop_probe(&mut self, id: u64) -> Probe<T> {
        let e = self.frames.get(&id).expect("pop without a grant");
        assert!(e.has_pop, "pop requires pop privileges");
        if e.pop_delegations > 0 {
            // The queue view is (logically) with a pop-privileged child.
            return Probe::Blocked;
        }
        let consumer = Arc::clone(&e.frame);
        let seg = self.consumer_advance();
        // SAFETY: unique consumer (delegation gate + rule 3).
        if let Some(v) = unsafe { seg.as_ref().try_pop() } {
            return Probe::Value(v, seg);
        }
        if self.live_push_grant_precedes(&consumer) {
            Probe::Blocked
        } else {
            Probe::Empty
        }
    }

    /// Consumer-side `empty()` probe (paper §2.1: false only when a value
    /// is available; true only when no more values can become visible;
    /// otherwise the caller must block).
    pub(crate) fn empty_probe(&mut self, id: u64) -> EmptyProbe<T> {
        let e = self.frames.get(&id).expect("empty() without a grant");
        assert!(e.has_pop, "empty() requires pop privileges");
        if e.pop_delegations > 0 {
            return EmptyProbe::Blocked;
        }
        let consumer = Arc::clone(&e.frame);
        let seg = self.consumer_advance();
        // SAFETY: unique consumer.
        if unsafe { !seg.as_ref().is_empty() } {
            return EmptyProbe::HasData(seg);
        }
        if self.live_push_grant_precedes(&consumer) {
            EmptyProbe::Blocked
        } else {
            EmptyProbe::Empty
        }
    }

    /// Read-slice support: the head segment if it currently holds data.
    #[allow(dead_code)]
    pub(crate) fn reader_segment(&mut self, id: u64) -> Option<NonNull<Segment<T>>> {
        match self.empty_probe(id) {
            EmptyProbe::HasData(seg) => Some(seg),
            _ => None,
        }
    }

    /// Checks the structural invariants of §4.4 (1-6; 7-9 are ordering
    /// statements validated behaviourally by the determinism tests).
    /// Panics on violation. Called from tests and, in debug builds, after
    /// every view-table mutation.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn validate_invariants(&self) {
        use std::collections::{HashMap as Map, HashSet};
        let free: HashSet<*mut Segment<T>> = self.freelist.iter().map(|p| p.as_ptr()).collect();
        let mut head_refs: Map<*mut Segment<T>, usize> = Map::new();
        let mut tail_refs: Map<*mut Segment<T>, usize> = Map::new();
        let count = |v: &View<T>,
                     heads: &mut Map<*mut Segment<T>, usize>,
                     tails: &mut Map<*mut Segment<T>, usize>| {
            if let Some(p) = v.head.as_local() {
                *heads.entry(p.as_ptr()).or_insert(0) += 1;
            }
            if let Some(p) = v.tail.as_local() {
                *tails.entry(p.as_ptr()).or_insert(0) += 1;
            }
        };
        count(&self.queue_view, &mut head_refs, &mut tail_refs);
        for e in self.frames.values() {
            count(&e.user, &mut head_refs, &mut tail_refs);
            count(&e.children, &mut head_refs, &mut tail_refs);
            count(&e.right, &mut head_refs, &mut tail_refs);
            // Invariant 3 (half of it): a user view's head is never local
            // — it is ε or starts at a non-local boundary.
            assert!(
                !e.user.head.is_local(),
                "invariant 3: user view with a local head: {:?}",
                e.user
            );
        }
        // Invariants 1-2: at least one segment; the singleton queue view
        // has a local head and a non-local tail.
        assert!(!self.arena.is_empty(), "invariant 1: no segments");
        assert!(
            self.queue_view.head.is_local(),
            "invariant 2: queue view head must be local"
        );
        assert!(
            !self.queue_view.tail.is_local(),
            "invariant 3: queue view tail must be non-local"
        );
        // Incoming next-pointer counts.
        let mut next_refs: Map<*mut Segment<T>, usize> = Map::new();
        for &seg in &self.arena {
            if free.contains(&seg.as_ptr()) {
                continue;
            }
            // SAFETY: arena segments are alive; we hold the state lock.
            let n = unsafe { seg.as_ref().next() };
            if !n.is_null() {
                *next_refs.entry(n).or_insert(0) += 1;
            }
        }
        for &seg in &self.arena {
            let p = seg.as_ptr();
            if free.contains(&p) {
                continue;
            }
            let h = head_refs.get(&p).copied().unwrap_or(0);
            let n = next_refs.get(&p).copied().unwrap_or(0);
            let t = tail_refs.get(&p).copied().unwrap_or(0);
            // SAFETY: as above.
            let next_is_null = unsafe { seg.as_ref().next().is_null() };
            // Invariant 4: at most one incoming head-or-next pointer (it
            // is exactly one unless recycling is disabled, in which case
            // drained segments linger unreferenced instead of being freed).
            assert!(
                h + n <= 1,
                "invariant 4: segment with {h} head refs and {n} next refs"
            );
            // Invariant 5: at most one tail pointer; a tail-pointed
            // segment is a list tail (null next).
            assert!(t <= 1, "invariant 5: {t} tail refs on one segment");
            if t == 1 {
                assert!(
                    next_is_null,
                    "invariant 5: tail-pointed segment has a successor"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    pub(crate) fn debug_validate(&self) {
        self.validate_invariants();
    }

    #[cfg(not(debug_assertions))]
    pub(crate) fn debug_validate(&self) {}
}

impl<T> QueueState<T> {
    /// End-of-life stats handoff: folds this queue's final counters
    /// (mutex-guarded ones from `self.stats`, the fast-path trio passed
    /// in by the owner) into the shared pool's lifetime totals, so the
    /// service layer can still observe an edge's history after its
    /// queues retire. No-op for unpooled queues.
    pub(crate) fn absorb_stats_into_pool(&mut self, fast: (u64, u64, u64)) {
        if let Some(pool) = &self.pool {
            let mut s = self.stats;
            (s.lock_acquisitions, s.chain_advances, s.notifies_suppressed) = fast;
            pool.absorb(&s);
        }
    }
}

impl<T> Drop for QueueState<T> {
    fn drop(&mut self) {
        // A hyperqueue may be destroyed with values still inside (§2.1):
        // drop every unconsumed value, then release all segments — back to
        // the shared pool when this queue participates in service-layer
        // reuse, to the heap otherwise.
        if let Some(pool) = self.pool.take() {
            for &seg in &self.arena {
                // SAFETY: no tasks are live at destruction time (tokens
                // hold an Arc on the inner, so the state only drops after
                // every token is gone); after drop_remaining the segment is
                // empty, so reset() leaves it pristine for the next queue.
                unsafe {
                    seg.as_ref().drop_remaining();
                    seg.as_ref().reset();
                }
            }
            // This end-of-life recycling is observable through the pool's
            // `returned` counter (the queue's own stats die with it here).
            // SAFETY: every arena segment is now drained, unlinked and —
            // all tasks having completed — unreachable.
            unsafe { pool.put_all(self.arena.drain(..)) };
            return;
        }
        for &seg in &self.arena {
            // SAFETY: as above; freelist segments are empty so
            // drop_remaining is a no-op for them.
            unsafe {
                seg.as_ref().drop_remaining();
                drop(Box::from_raw(seg.as_ptr()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan::frame::Frame;

    fn state_with_owner(cap: usize) -> (QueueState<u32>, Arc<Frame>) {
        let owner = Frame::new_root(FrameId(100));
        let st = QueueState::new(&owner, cap, true, None);
        (st, owner)
    }

    /// Pushes `vals` as the producer of entry `id`, via the slow path.
    fn push_all(st: &mut QueueState<u32>, id: u64, vals: &[u32]) {
        for &v in vals {
            let seg = st.producer_segment(id, 1);
            // SAFETY: tests run single-threaded; unique producer.
            unsafe { seg.as_ref().try_push(v).unwrap() };
        }
    }

    fn pop_expect(st: &mut QueueState<u32>, id: u64, expect: u32) {
        match st.pop_probe(id) {
            Probe::Value(v, _) => assert_eq!(v, expect),
            Probe::Blocked => panic!("unexpected Blocked while popping"),
            Probe::Empty => panic!("unexpected Empty while popping"),
        }
    }

    #[test]
    fn owner_push_then_pop_in_order() {
        let (mut st, _o) = state_with_owner(4);
        push_all(&mut st, 100, &[1, 2, 3, 4, 5, 6, 7]); // spans 2+ segments
        for i in 1..=7 {
            pop_expect(&mut st, 100, i);
        }
        match st.pop_probe(100) {
            Probe::Empty => {}
            _ => panic!("owner with no children: queue must be permanently empty"),
        }
    }

    #[test]
    fn segment_overflow_links_segments() {
        let (mut st, _o) = state_with_owner(2);
        push_all(&mut st, 100, &[10, 20, 30, 40, 50]);
        assert!(st.stats.segments_allocated >= 3);
        for v in [10, 20, 30, 40, 50] {
            pop_expect(&mut st, 100, v);
        }
    }

    #[test]
    fn drained_segments_are_recycled() {
        let (mut st, _o) = state_with_owner(2);
        push_all(&mut st, 100, &[1, 2, 3, 4]);
        for v in [1, 2, 3, 4] {
            pop_expect(&mut st, 100, v);
        }
        assert!(st.stats.segments_recycled >= 1, "expected recycling");
        // Freelist reuse on the next overflow.
        let before = st.stats.segments_allocated;
        push_all(&mut st, 100, &[5, 6, 7, 8]);
        assert!(st.stats.freelist_hits >= 1);
        assert_eq!(
            st.stats.segments_allocated, before,
            "steady state must not allocate"
        );
        for v in [5, 6, 7, 8] {
            pop_expect(&mut st, 100, v);
        }
    }

    #[test]
    fn child_inherits_user_view_and_merges_back() {
        // owner spawns push child A; A pushes; A completes; owner pops.
        let (mut st, owner) = state_with_owner(8);
        let a = Frame::new_child(&owner, FrameId(101));
        let pred = st.spawn_transfer(100, &a, Mode::Push);
        assert!(pred.is_none(), "push tasks have no rule-3 predecessor");
        push_all(&mut st, 101, &[7, 8, 9]);
        st.complete(101);
        for v in [7, 8, 9] {
            pop_expect(&mut st, 100, v);
        }
    }

    #[test]
    fn two_producers_merge_in_program_order() {
        // owner spawns A then B (both push); B pushes first (out of order
        // in time), then A; the consumer must still see A's values first.
        let (mut st, owner) = state_with_owner(4);
        let a = Frame::new_child(&owner, FrameId(101));
        let b = Frame::new_child(&owner, FrameId(102));
        st.spawn_transfer(100, &a, Mode::Push);
        st.spawn_transfer(100, &b, Mode::Push);
        push_all(&mut st, 102, &[20, 21]); // B goes first in time
        push_all(&mut st, 101, &[10, 11]);
        st.complete(102); // B completes first
        st.complete(101);
        for v in [10, 11, 20, 21] {
            pop_expect(&mut st, 100, v);
        }
        match st.pop_probe(100) {
            Probe::Empty => {}
            _ => panic!("should be permanently empty"),
        }
    }

    #[test]
    fn consumer_sees_data_from_incomplete_producer_chain() {
        // A pushes into the initial segment: values are visible to the
        // owner even while A is still live (rule 2 concurrency).
        let (mut st, owner) = state_with_owner(4);
        let a = Frame::new_child(&owner, FrameId(101));
        st.spawn_transfer(100, &a, Mode::Push);
        push_all(&mut st, 101, &[1, 2]);
        pop_expect(&mut st, 100, 1);
        // ...but after draining, the owner must BLOCK (A might push more),
        // not report empty.
        pop_expect(&mut st, 100, 2);
        match st.pop_probe(100) {
            Probe::Blocked => {}
            _ => panic!("live preceding producer ⇒ Blocked"),
        }
        st.complete(101);
        match st.pop_probe(100) {
            Probe::Empty => {}
            _ => panic!("producer done ⇒ Empty"),
        }
    }

    #[test]
    fn early_head_attach_makes_second_producer_visible_after_first_completes() {
        // Fig. 4(a)/(b): A holds the initial segment; B attaches a fresh
        // segment to A.right. While A is live, B's values are unreachable;
        // once A completes they become poppable in order.
        let (mut st, owner) = state_with_owner(4);
        let a = Frame::new_child(&owner, FrameId(101));
        let b = Frame::new_child(&owner, FrameId(102));
        st.spawn_transfer(100, &a, Mode::Push);
        st.spawn_transfer(100, &b, Mode::Push);
        push_all(&mut st, 102, &[5, 6]); // B: fresh segment via attach
        assert_eq!(st.stats.head_attaches, 1);
        match st.pop_probe(100) {
            Probe::Blocked => {} // A live, nothing linked yet
            _ => panic!("B's values must be invisible while A is live"),
        }
        st.complete(101); // A pushed nothing, completes
        pop_expect(&mut st, 100, 5);
        pop_expect(&mut st, 100, 6);
        st.complete(102);
        match st.pop_probe(100) {
            Probe::Empty => {}
            _ => panic!("all producers done"),
        }
    }

    #[test]
    fn pop_delegation_blocks_parent() {
        let (mut st, owner) = state_with_owner(4);
        push_all(&mut st, 100, &[1]);
        let c = Frame::new_child(&owner, FrameId(101));
        let pred = st.spawn_transfer(100, &c, Mode::Pop);
        assert!(pred.is_none(), "first pop child has no predecessor");
        // Parent now blocked from consuming (queue view delegated).
        match st.pop_probe(100) {
            Probe::Blocked => {}
            _ => panic!("parent must not pop while a pop child is live"),
        }
        // The child consumes...
        pop_expect(&mut st, 101, 1);
        st.complete(101);
        // ...and the parent regains access.
        match st.pop_probe(100) {
            Probe::Empty => {}
            _ => panic!("no producers left: Empty"),
        }
    }

    #[test]
    fn rule3_second_pop_child_names_first_as_predecessor() {
        let (mut st, owner) = state_with_owner(4);
        let c1 = Frame::new_child(&owner, FrameId(101));
        let c2 = Frame::new_child(&owner, FrameId(102));
        assert!(st.spawn_transfer(100, &c1, Mode::Pop).is_none());
        assert_eq!(st.spawn_transfer(100, &c2, Mode::Pop), Some(FrameId(101)));
        // pushpop also participates in the pop chain.
        let c3 = Frame::new_child(&owner, FrameId(103));
        assert_eq!(
            st.spawn_transfer(100, &c3, Mode::PushPop),
            Some(FrameId(102))
        );
    }

    #[test]
    #[should_panic(expected = "push privileges")]
    fn privilege_subsetting_is_enforced() {
        let (mut st, owner) = state_with_owner(4);
        let c = Frame::new_child(&owner, FrameId(101));
        st.spawn_transfer(100, &c, Mode::Pop);
        // A pop-only child trying to delegate push privileges must panic.
        let gc = Frame::new_child(&c, FrameId(102));
        st.spawn_transfer(101, &gc, Mode::Push);
    }

    #[test]
    fn nested_producers_preserve_order() {
        // owner -> A(push); A -> A1(push), A2(push); order must be
        // A1's values, A2's values, then A's own later pushes.
        let (mut st, owner) = state_with_owner(4);
        let a = Frame::new_child(&owner, FrameId(101));
        st.spawn_transfer(100, &a, Mode::Push);
        let a1 = Frame::new_child(&a, FrameId(102));
        let a2 = Frame::new_child(&a, FrameId(103));
        st.spawn_transfer(101, &a1, Mode::Push);
        st.spawn_transfer(101, &a2, Mode::Push);
        push_all(&mut st, 103, &[30]); // A2 first in time
        push_all(&mut st, 102, &[20]);
        push_all(&mut st, 101, &[40]); // A pushes after spawning children
        st.complete(103);
        st.complete(102);
        st.complete(101);
        for v in [20, 30, 40] {
            pop_expect(&mut st, 100, v);
        }
    }

    #[test]
    fn pooled_state_draws_and_returns_segments() {
        let pool = Arc::new(SegmentPool::<u32>::new(2));
        {
            let owner = Frame::new_root(FrameId(100));
            let mut st = QueueState::new(&owner, 2, true, Some(Arc::clone(&pool)));
            push_all(&mut st, 100, &[1, 2, 3, 4, 5]);
            // Cold pool: every segment was a miss (heap allocation).
            assert!(st.stats.segments_allocated >= 2);
            assert_eq!(st.stats.pool_draws, 0);
            drop(st); // values dropped, segments handed to the pool
        }
        let s = pool.stats();
        assert!(s.returned >= 2, "drop must hand segments back: {s:?}");
        assert_eq!(s.available, s.returned);
        {
            // Warm pool: the next state allocates nothing from the heap.
            let owner = Frame::new_root(FrameId(200));
            let mut st = QueueState::new(&owner, 2, true, Some(Arc::clone(&pool)));
            push_all(&mut st, 200, &[7, 8, 9]);
            for v in [7, 8, 9] {
                pop_expect(&mut st, 200, v);
            }
            assert_eq!(st.stats.segments_allocated, 0, "warm pool must serve");
            assert!(st.stats.pool_draws >= 1);
        }
    }

    #[test]
    fn values_survive_destruction() {
        // Destroying a queue with values inside must drop them cleanly
        // (checked under miri-like logic by using Arc counters in the
        // segment test; here we just exercise the path).
        let (mut st, _o) = state_with_owner(4);
        push_all(&mut st, 100, &[1, 2, 3]);
        drop(st); // must not leak or double-free
    }
}
