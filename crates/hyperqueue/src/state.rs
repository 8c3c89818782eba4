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
//! The table is a slab: a task's grant is an index ([`Slot`]) into it,
//! carried by the task's token and by its release hook, and the owner's
//! entry is slot [`OWNER`]. A grant costs one lock section at spawn
//! ([`QueueState::spawn_transfer`]) and one at completion
//! ([`QueueState::complete`]). Each entry also counts its live push- and
//! pop-privileged children; selective sync (§5.5) waits on those counts.
//!
//! All view-linking operations run under the queue mutex. The paper's
//! "special optimization" (reduce only on steals) is explicitly *not*
//! implemented — the paper's own evaluation omits it too (§4.5).

use std::ptr::NonNull;
use std::sync::{Arc, Weak};

use swan::frame::{program_order, Frame, ProgramOrder};

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

/// Index of a grant's entry in the view table.
pub(crate) type Slot = usize;

/// The owner's slot: [`QueueState::new`] fills it first, and it stays
/// until the queue drops.
pub(crate) const OWNER: Slot = 0;

struct Entry<T> {
    frame: Arc<Frame>,
    parent: Option<Slot>,
    /// Nearest *live* older sibling with privileges on this queue.
    left: Option<Slot>,
    /// Nearest live younger sibling.
    right_sib: Option<Slot>,
    /// Youngest live child with privileges on this queue.
    last_live_child: Option<Slot>,
    user: View<T>,
    children: View<T>,
    right: View<T>,
    has_push: bool,
    has_pop: bool,
    /// Live push-privileged children; `sync_push` waits for 0.
    push_delegations: usize,
    /// Live pop-privileged children; consuming (and `sync_pop`) requires 0
    /// (see module docs).
    pop_delegations: usize,
    /// Rule-3 predecessor tracking: last pop-privileged child spawned.
    last_pop_child: Option<Weak<Frame>>,
}

impl<T> Entry<T> {
    fn new(
        frame: &Arc<Frame>,
        parent: Option<Slot>,
        left: Option<Slot>,
        user: View<T>,
        mode: Mode,
    ) -> Self {
        Entry {
            frame: Arc::clone(frame),
            parent,
            left,
            right_sib: None,
            last_live_child: None,
            user,
            children: View::EMPTY,
            right: View::EMPTY,
            has_push: mode.has_push(),
            has_pop: mode.has_pop(),
            push_delegations: 0,
            pop_delegations: 0,
            last_pop_child: None,
        }
    }
}

/// What a spawn hands the child's grant.
pub(crate) struct Transfer<T> {
    /// The child's entry.
    pub(crate) slot: Slot,
    /// Rule-3 predecessor: the previously spawned pop-privileged sibling
    /// (pop modes only).
    pub(crate) pred: Option<Weak<Frame>>,
    /// The segment the child's user view ends in, for a push grant to
    /// cache: its first pushes then take no lock.
    pub(crate) push_tail: Option<NonNull<Segment<T>>>,
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
    /// The view table, indexed by [`Slot`]; `None` marks a vacant slot.
    entries: Vec<Option<Entry<T>>>,
    /// Vacant slots, reused before the table grows.
    vacant: Vec<Slot>,
    /// The singleton consumer view (invariant 2).
    queue_view: View<T>,
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
            entries: Vec::new(),
            vacant: Vec::new(),
            queue_view: View::EMPTY,
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
        let slot = st.insert(Entry::new(owner, None, None, user, Mode::PushPop));
        debug_assert_eq!(slot, OWNER);
        st
    }

    fn insert(&mut self, entry: Entry<T>) -> Slot {
        match self.vacant.pop() {
            Some(slot) => {
                self.entries[slot] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        }
    }

    fn entry(&self, slot: Slot) -> &Entry<T> {
        self.entries[slot].as_ref().expect("a live grant's slot")
    }

    fn entry_mut(&mut self, slot: Slot) -> &mut Entry<T> {
        self.entries[slot].as_mut().expect("a live grant's slot")
    }

    fn live(&self) -> impl Iterator<Item = &Entry<T>> {
        self.entries.iter().flatten()
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

    /// Capacity of every segment this queue allocates (the requested
    /// capacity after [`segment_capacity_for`]).
    pub(crate) fn segment_capacity(&self) -> usize {
        self.seg_cap
    }

    /// The segment `slot`'s user view ends in, if it is local: what a
    /// producer may cache for lock-free pushes.
    pub(crate) fn user_tail(&self, slot: Slot) -> Option<NonNull<Segment<T>>> {
        self.entry(slot).user.tail.as_local()
    }

    /// Live (push-privileged, pop-privileged) children of `slot`: what
    /// selective sync waits on.
    pub(crate) fn delegations(&self, slot: Slot) -> (usize, usize) {
        let e = self.entry(slot);
        (e.push_delegations, e.pop_delegations)
    }

    // ---- spawn-time transfer (§4.2) -------------------------------------

    /// Handles a spawn of `child` with `mode` privileges by `spawner`, the
    /// task holding the grant in `parent`.
    pub(crate) fn spawn_transfer(
        &mut self,
        parent: Slot,
        spawner: &Arc<Frame>,
        child: &Arc<Frame>,
        mode: Mode,
    ) -> Transfer<T> {
        let p = self
            .entries
            .get(parent)
            .and_then(Option::as_ref)
            .filter(|p| Arc::ptr_eq(&p.frame, spawner))
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
        // A spawn acquires its arguments in a row, so a second grant to
        // the same child finds it as the parent's youngest live child.
        let left = p.last_live_child;
        if let Some(l) = left {
            assert!(
                !Arc::ptr_eq(&self.entry(l).frame, child),
                "a task may hold at most one grant per hyperqueue; \
                 use pushpopdep for combined access"
            );
        }
        let p = self.entry_mut(parent);
        // "The user view, if any, is passed from the parent frame to the
        // child frame. The parent's user view is cleared." (§4.2)
        let user = p.user.take();
        let mut pred = None;
        if mode.has_pop() {
            // Rule 3: a pop task waits for the previous pop task.
            pred = p.last_pop_child.replace(Arc::downgrade(child));
            p.pop_delegations += 1;
        }
        if mode.has_push() {
            p.push_delegations += 1;
        }
        let push_tail = user.tail.as_local().filter(|_| mode.has_push());
        let slot = self.insert(Entry::new(child, Some(parent), left, user, mode));
        self.entry_mut(parent).last_live_child = Some(slot);
        if let Some(l) = left {
            self.entry_mut(l).right_sib = Some(slot);
        }
        self.debug_validate();
        Transfer {
            slot,
            pred,
            push_tail,
        }
    }

    // ---- completion-time reduction (§4.2) --------------------------------

    /// Handles completion of the task holding `slot`: reduces its views
    /// in view order (children < user < right) and merges the result into
    /// the live left sibling's right view, or the parent's children view
    /// (the Cilk++ reducer discipline the paper builds on).
    pub(crate) fn complete(&mut self, slot: Slot) {
        let entry = self.entries[slot].take().expect("completing a vacant slot");
        self.vacant.push(slot);
        debug_assert!(
            entry.last_live_child.is_none(),
            "children complete before their parent (implicit sync)"
        );
        debug_assert_eq!(entry.push_delegations, 0, "push children still live");
        debug_assert_eq!(entry.pop_delegations, 0, "pop children still live");
        // SAFETY: queue lock held (we have &mut self); segments alive in
        // the arena.
        let mut v = unsafe { View::reduce(entry.children, entry.user) };
        v = unsafe { View::reduce(v, entry.right) };
        if let Some(l) = entry.left {
            let le = self.entry_mut(l);
            Self::append(&mut le.right, v);
            le.right_sib = entry.right_sib;
        } else if let Some(p) = entry.parent {
            Self::append(&mut self.entry_mut(p).children, v);
        } else {
            // The owner entry completes only via Hyperqueue::drop; data, if
            // any, stays reachable from the queue view.
        }
        if let Some(r) = entry.right_sib {
            self.entry_mut(r).left = entry.left;
        }
        if let Some(p) = entry.parent {
            let pe = self.entry_mut(p);
            if pe.last_live_child == Some(slot) {
                pe.last_live_child = entry.left;
            }
            pe.push_delegations -= usize::from(entry.has_push);
            pe.pop_delegations -= usize::from(entry.has_pop);
        }
        self.debug_validate();
    }

    // ---- producer side ----------------------------------------------------

    /// Slow-path push support: returns the segment the producer holding
    /// `slot` must push to, allocating/attaching as needed. The caller
    /// caches the returned pointer for lock-free fast-path pushes.
    pub(crate) fn producer_segment(&mut self, slot: Slot, need: usize) -> NonNull<Segment<T>> {
        let seg = self.producer_segment_inner(slot, need);
        self.debug_validate();
        seg
    }

    fn producer_segment_inner(&mut self, slot: Slot, need: usize) -> NonNull<Segment<T>> {
        let e = self.entry(slot);
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
                self.entry_mut(slot).user.tail = Ptr::Local(fresh);
                fresh
            }
            Ptr::Nil => self.attach_fresh_head(slot),
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
    fn attach_fresh_head(&mut self, slot: Slot) -> NonNull<Segment<T>> {
        let snew = self.alloc_segment();
        let nl = self.fresh_nonlocal();
        let (tmp, user) = View::local(snew).split(nl);
        self.stats.head_attaches += 1;
        let e = self.entry_mut(slot);
        debug_assert!(e.user.is_empty());
        e.user = user;
        // Level 0: the pushing frame's own completed/live children precede
        // its continuation.
        if let Some(lc) = e.last_live_child {
            Self::append(&mut self.entry_mut(lc).right, tmp);
            return snew;
        }
        if !e.children.is_empty() {
            Self::append(&mut e.children, tmp);
            return snew;
        }
        // Ascend: live left sibling's right view, else the parent's
        // children view if non-empty, else recurse (paper §4.1).
        let mut cur = slot;
        loop {
            let e = self.entry(cur);
            if let Some(l) = e.left {
                Self::append(&mut self.entry_mut(l).right, tmp);
                return snew;
            }
            match e.parent {
                // Top-level (owner) reached: merge with its children view
                // even if empty.
                None => {
                    Self::append(&mut self.entry_mut(cur).children, tmp);
                    return snew;
                }
                Some(p) => {
                    let pe = self.entry_mut(p);
                    if !pe.children.is_empty() {
                        Self::append(&mut pe.children, tmp);
                        return snew;
                    }
                    cur = p;
                }
            }
        }
    }

    /// `*view ← reduce(*view, tail)`, for views of this table: callers
    /// hold `&mut self`, so the queue lock.
    fn append(view: &mut View<T>, tail: View<T>) {
        // SAFETY: queue lock held (see above); segments alive in the arena.
        *view = unsafe { View::reduce(view.take(), tail) };
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
    ///
    /// A live grant keeps its ancestors' grants live (implicit sync) and
    /// holds no privilege they lack (§2.3), so it suffices to look at the
    /// consumer's live push children and, for it and each ancestor, at the
    /// live older siblings.
    fn live_push_grant_precedes(&self, consumer: Slot) -> bool {
        let mut found = self.entry(consumer).push_delegations > 0;
        let mut cur = Some(consumer);
        while let (false, Some(c)) = (found, cur) {
            let mut older = self.entry(c).left;
            while let (false, Some(l)) = (found, older) {
                found = self.entry(l).has_push;
                older = self.entry(l).left;
            }
            cur = self.entry(c).parent;
        }
        debug_assert_eq!(
            found,
            self.live().any(|e| e.has_push
                && matches!(
                    program_order(&e.frame.path, &self.entry(consumer).frame.path),
                    ProgramOrder::Before | ProgramOrder::DescendantOfB
                )),
            "the view table's shape disagrees with program order"
        );
        found
    }

    /// Consumer-side pop probe. The caller must be the task holding
    /// `slot` (enforced structurally by token ownership).
    pub(crate) fn pop_probe(&mut self, slot: Slot) -> Probe<T> {
        let e = self.entry(slot);
        assert!(e.has_pop, "pop requires pop privileges");
        if e.pop_delegations > 0 {
            // The queue view is (logically) with a pop-privileged child.
            return Probe::Blocked;
        }
        let seg = self.consumer_advance();
        // SAFETY: unique consumer (delegation gate + rule 3).
        if let Some(v) = unsafe { seg.as_ref().try_pop() } {
            return Probe::Value(v, seg);
        }
        if self.live_push_grant_precedes(slot) {
            Probe::Blocked
        } else {
            Probe::Empty
        }
    }

    /// Consumer-side `empty()` probe (paper §2.1: false only when a value
    /// is available; true only when no more values can become visible;
    /// otherwise the caller must block).
    pub(crate) fn empty_probe(&mut self, slot: Slot) -> EmptyProbe<T> {
        let e = self.entry(slot);
        assert!(e.has_pop, "empty() requires pop privileges");
        if e.pop_delegations > 0 {
            return EmptyProbe::Blocked;
        }
        let seg = self.consumer_advance();
        // SAFETY: unique consumer.
        if unsafe { !seg.as_ref().is_empty() } {
            return EmptyProbe::HasData(seg);
        }
        if self.live_push_grant_precedes(slot) {
            EmptyProbe::Blocked
        } else {
            EmptyProbe::Empty
        }
    }

    /// Checks the structural invariants of §4.4 (1-6; 7-9 are ordering
    /// statements validated behaviourally by the determinism tests) and
    /// the slab's own: vacant slots are empty, and each entry's delegation
    /// counts equal its live children. Panics on violation. Called from tests and, in debug builds, after
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
        assert!(self.vacant.iter().all(|&v| self.entries[v].is_none()));
        let mut delegations = vec![(0, 0); self.entries.len()];
        for e in self.live() {
            if let Some(p) = e.parent {
                delegations[p].0 += usize::from(e.has_push);
                delegations[p].1 += usize::from(e.has_pop);
            }
        }
        for (slot, e) in self.entries.iter().enumerate() {
            if let Some(e) = e {
                assert_eq!(
                    (e.push_delegations, e.pop_delegations),
                    delegations[slot],
                    "delegation counts of slot {slot}"
                );
            }
        }
        for e in self.live() {
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
    use swan::frame::{Frame, FrameId};

    /// The id of a rule-3 predecessor, if it names a live frame.
    fn pred_id(pred: Option<Weak<Frame>>) -> Option<FrameId> {
        pred.and_then(|p| p.upgrade()).map(|f| f.id)
    }

    fn state_with_owner(cap: usize) -> (QueueState<u32>, Arc<Frame>) {
        let owner = Frame::new_root(FrameId(100));
        let st = QueueState::new(&owner, cap, true, None);
        (st, owner)
    }

    /// A child `id` of the task holding `parent` (whose frame is
    /// `spawner`), granted `mode`: its frame and its transfer.
    fn grant(
        st: &mut QueueState<u32>,
        parent: Slot,
        spawner: &Arc<Frame>,
        id: u64,
        mode: Mode,
    ) -> (Arc<Frame>, Transfer<u32>) {
        let child = Frame::new_child(spawner, FrameId(id));
        let t = st.spawn_transfer(parent, spawner, &child, mode);
        (child, t)
    }

    /// Pushes `vals` as the producer holding `slot`, via the slow path.
    fn push_all(st: &mut QueueState<u32>, slot: Slot, vals: &[u32]) {
        for &v in vals {
            let seg = st.producer_segment(slot, 1);
            // SAFETY: tests run single-threaded; unique producer.
            unsafe { seg.as_ref().try_push(v).unwrap() };
        }
    }

    fn pop_expect(st: &mut QueueState<u32>, slot: Slot, expect: u32) {
        match st.pop_probe(slot) {
            Probe::Value(v, _) => assert_eq!(v, expect),
            Probe::Blocked => panic!("unexpected Blocked while popping"),
            Probe::Empty => panic!("unexpected Empty while popping"),
        }
    }

    #[test]
    fn owner_push_then_pop_in_order() {
        let (mut st, _o) = state_with_owner(4);
        push_all(&mut st, OWNER, &[1, 2, 3, 4, 5, 6, 7]); // spans 2+ segments
        for i in 1..=7 {
            pop_expect(&mut st, OWNER, i);
        }
        match st.pop_probe(OWNER) {
            Probe::Empty => {}
            _ => panic!("owner with no children: queue must be permanently empty"),
        }
    }

    #[test]
    fn segment_overflow_links_segments() {
        let (mut st, _o) = state_with_owner(2);
        push_all(&mut st, OWNER, &[10, 20, 30, 40, 50]);
        assert!(st.stats.segments_allocated >= 3);
        for v in [10, 20, 30, 40, 50] {
            pop_expect(&mut st, OWNER, v);
        }
    }

    #[test]
    fn drained_segments_are_recycled() {
        let (mut st, _o) = state_with_owner(2);
        push_all(&mut st, OWNER, &[1, 2, 3, 4]);
        for v in [1, 2, 3, 4] {
            pop_expect(&mut st, OWNER, v);
        }
        assert!(st.stats.segments_recycled >= 1, "expected recycling");
        // Freelist reuse on the next overflow.
        let before = st.stats.segments_allocated;
        push_all(&mut st, OWNER, &[5, 6, 7, 8]);
        assert!(st.stats.freelist_hits >= 1);
        assert_eq!(
            st.stats.segments_allocated, before,
            "steady state must not allocate"
        );
        for v in [5, 6, 7, 8] {
            pop_expect(&mut st, OWNER, v);
        }
    }

    #[test]
    fn child_inherits_user_view_and_merges_back() {
        // owner spawns push child A; A pushes; A completes; owner pops.
        let (mut st, owner) = state_with_owner(8);
        let (_a, a) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        assert!(a.pred.is_none(), "push tasks have no rule-3 predecessor");
        assert!(a.push_tail.is_some(), "A inherits the owner's segment");
        push_all(&mut st, a.slot, &[7, 8, 9]);
        st.complete(a.slot);
        for v in [7, 8, 9] {
            pop_expect(&mut st, OWNER, v);
        }
    }

    #[test]
    fn two_producers_merge_in_program_order() {
        // owner spawns A then B (both push); B pushes first (out of order
        // in time), then A; the consumer must still see A's values first.
        let (mut st, owner) = state_with_owner(4);
        let (_a, a) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        let (_b, b) = grant(&mut st, OWNER, &owner, 102, Mode::Push);
        push_all(&mut st, b.slot, &[20, 21]); // B goes first in time
        push_all(&mut st, a.slot, &[10, 11]);
        st.complete(b.slot); // B completes first
        st.complete(a.slot);
        for v in [10, 11, 20, 21] {
            pop_expect(&mut st, OWNER, v);
        }
        match st.pop_probe(OWNER) {
            Probe::Empty => {}
            _ => panic!("should be permanently empty"),
        }
    }

    #[test]
    fn consumer_sees_data_from_incomplete_producer_chain() {
        // A pushes into the initial segment: values are visible to the
        // owner even while A is still live (rule 2 concurrency).
        let (mut st, owner) = state_with_owner(4);
        let (_a, a) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        push_all(&mut st, a.slot, &[1, 2]);
        pop_expect(&mut st, OWNER, 1);
        // ...but after draining, the owner must BLOCK (A might push more),
        // not report empty.
        pop_expect(&mut st, OWNER, 2);
        match st.pop_probe(OWNER) {
            Probe::Blocked => {}
            _ => panic!("live preceding producer ⇒ Blocked"),
        }
        st.complete(a.slot);
        match st.pop_probe(OWNER) {
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
        let (_a, a) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        let (_b, b) = grant(&mut st, OWNER, &owner, 102, Mode::Push);
        assert!(b.push_tail.is_none(), "B starts with an empty user view");
        push_all(&mut st, b.slot, &[5, 6]); // B: fresh segment via attach
        assert_eq!(st.stats.head_attaches, 1);
        match st.pop_probe(OWNER) {
            Probe::Blocked => {} // A live, nothing linked yet
            _ => panic!("B's values must be invisible while A is live"),
        }
        st.complete(a.slot); // A pushed nothing, completes
        pop_expect(&mut st, OWNER, 5);
        pop_expect(&mut st, OWNER, 6);
        st.complete(b.slot);
        match st.pop_probe(OWNER) {
            Probe::Empty => {}
            _ => panic!("all producers done"),
        }
    }

    #[test]
    fn pop_delegation_blocks_parent() {
        let (mut st, owner) = state_with_owner(4);
        push_all(&mut st, OWNER, &[1]);
        let (_c, c) = grant(&mut st, OWNER, &owner, 101, Mode::Pop);
        assert!(c.pred.is_none(), "first pop child has no predecessor");
        assert!(c.push_tail.is_none(), "a pop grant caches no push tail");
        // Parent now blocked from consuming (queue view delegated).
        match st.pop_probe(OWNER) {
            Probe::Blocked => {}
            _ => panic!("parent must not pop while a pop child is live"),
        }
        // The child consumes...
        pop_expect(&mut st, c.slot, 1);
        st.complete(c.slot);
        // ...and the parent regains access.
        match st.pop_probe(OWNER) {
            Probe::Empty => {}
            _ => panic!("no producers left: Empty"),
        }
    }

    #[test]
    fn rule3_second_pop_child_names_first_as_predecessor() {
        let (mut st, owner) = state_with_owner(4);
        let (_c1, t1) = grant(&mut st, OWNER, &owner, 101, Mode::Pop);
        assert!(t1.pred.is_none());
        let (_c2, t2) = grant(&mut st, OWNER, &owner, 102, Mode::Pop);
        assert_eq!(pred_id(t2.pred), Some(FrameId(101)));
        // pushpop also participates in the pop chain.
        let (_c3, t3) = grant(&mut st, OWNER, &owner, 103, Mode::PushPop);
        assert_eq!(pred_id(t3.pred), Some(FrameId(102)));
    }

    #[test]
    #[should_panic(expected = "push privileges")]
    fn privilege_subsetting_is_enforced() {
        let (mut st, owner) = state_with_owner(4);
        let (c, t) = grant(&mut st, OWNER, &owner, 101, Mode::Pop);
        // A pop-only child trying to delegate push privileges must panic.
        grant(&mut st, t.slot, &c, 102, Mode::Push);
    }

    #[test]
    #[should_panic(expected = "holds no grant")]
    fn a_grant_is_spawned_only_by_its_holder() {
        let (mut st, owner) = state_with_owner(4);
        let (c, _t) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        // The owner's slot, but the child's frame spawning.
        grant(&mut st, OWNER, &c, 102, Mode::Push);
    }

    #[test]
    fn nested_producers_preserve_order() {
        // owner -> A(push); A -> A1(push), A2(push); order must be
        // A1's values, A2's values, then A's own later pushes.
        let (mut st, owner) = state_with_owner(4);
        let (a, ta) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        let (_a1, t1) = grant(&mut st, ta.slot, &a, 102, Mode::Push);
        let (_a2, t2) = grant(&mut st, ta.slot, &a, 103, Mode::Push);
        push_all(&mut st, t2.slot, &[30]); // A2 first in time
        push_all(&mut st, t1.slot, &[20]);
        push_all(&mut st, ta.slot, &[40]); // A pushes after spawning children
        st.complete(t2.slot);
        st.complete(t1.slot);
        st.complete(ta.slot);
        for v in [20, 30, 40] {
            pop_expect(&mut st, OWNER, v);
        }
    }

    /// The entry counts selective sync waits on: each grant counts its
    /// live push- and pop-privileged children (a `pushpopdep` child in
    /// both), and only its own.
    #[test]
    fn delegation_counts_track_live_children() {
        let (mut st, owner) = state_with_owner(4);
        assert_eq!(st.delegations(OWNER), (0, 0));
        let (a, ta) = grant(&mut st, OWNER, &owner, 101, Mode::Push);
        let (_b, tb) = grant(&mut st, OWNER, &owner, 102, Mode::Pop);
        let (_c, tc) = grant(&mut st, OWNER, &owner, 103, Mode::PushPop);
        assert_eq!(st.delegations(OWNER), (2, 2));
        // A grandchild counts for its parent, not for the owner.
        let (_g, tg) = grant(&mut st, ta.slot, &a, 104, Mode::Push);
        assert_eq!(st.delegations(ta.slot), (1, 0));
        assert_eq!(st.delegations(OWNER), (2, 2));
        st.complete(tb.slot);
        assert_eq!(st.delegations(OWNER), (2, 1));
        st.complete(tg.slot);
        st.complete(ta.slot);
        assert_eq!(st.delegations(OWNER), (1, 1));
        st.complete(tc.slot);
        assert_eq!(st.delegations(OWNER), (0, 0));
    }

    /// Completed grants free their slots and later grants reuse them, so
    /// the table stays as large as the most grants ever live at once.
    #[test]
    fn vacant_slots_are_reused() {
        let (mut st, owner) = state_with_owner(4);
        for round in 0..3u64 {
            let ts: Vec<_> = (0..4)
                .map(|i| grant(&mut st, OWNER, &owner, 200 + 10 * round + i, Mode::Push))
                .collect();
            for (_, t) in &ts {
                st.complete(t.slot);
            }
        }
        assert_eq!(st.entries.len(), 5, "owner plus four live grants at most");
    }

    #[test]
    fn pooled_state_draws_and_returns_segments() {
        let pool = Arc::new(SegmentPool::<u32>::new(2));
        {
            let owner = Frame::new_root(FrameId(100));
            let mut st = QueueState::new(&owner, 2, true, Some(Arc::clone(&pool)));
            push_all(&mut st, OWNER, &[1, 2, 3, 4, 5]);
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
            push_all(&mut st, OWNER, &[7, 8, 9]);
            for v in [7, 8, 9] {
                pop_expect(&mut st, OWNER, v);
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
        push_all(&mut st, OWNER, &[1, 2, 3]);
        drop(st); // must not leak or double-free
    }
}
