//! Queue segments: fixed-size single-producer/single-consumer circular
//! buffers, linkable into lists (paper §3.2).
//!
//! A segment is the unit of storage of a hyperqueue. At any moment a
//! segment is operated on by **at most one producer task and at most one
//! consumer task** (invariant 6 of §4.4): the producer owns the `tail`
//! index, the consumer owns the `head` index, and both are monotonic
//! counters addressing the buffer by mask (Lamport's classic SPSC queue;
//! the capacity is a power of two). A concurrent producer/consumer pair
//! can therefore reuse a single segment indefinitely — the zero-allocation
//! steady state the paper highlights.
//!
//! # Layout and the cached-index protocol
//!
//! The header is grouped by writer, one cache line each: the producer's
//! line holds `tail` and the producer's *cached copy* of `head`; the
//! consumer's line holds `head` and its cached copy of `tail`; a third,
//! read-mostly line holds the buffer pointer, the mask and `next`. An
//! operation reads the other side's line only when its cached copy says
//! there is not enough room (producer) or not enough data (consumer);
//! otherwise a push or pop touches its own line and the slot.
//!
//! A cached copy is a *lower bound* of the real index (indices only grow),
//! so it can only under-report room or data. Every decision made from it
//! has the form "cached amount `>=` what I need, else refresh and decide
//! from the real index" — never an equality test — so a "full" or "empty"
//! answer always comes from a fresh Acquire load, and a cached copy that
//! has fallen arbitrarily far behind (or that a lifecycle operation left
//! behind the owner's own index) costs one refresh, never a wrong answer.
//!
//! `next` links segments into lists; it is written at most once between
//! resets (either by the producer appending a continuation segment, or by a
//! view reduction concatenating two lists) and is read by the consumer to
//! advance.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use swan::util::CachePadded;

/// The capacity a segment created for `requested` values really has: at
/// least 2, rounded up to a power of two (slots are addressed by mask).
/// Every constructor that takes a capacity applies this once, so queues,
/// pools, statistics and telemetry all report the same number.
pub const fn segment_capacity_for(requested: usize) -> usize {
    let at_least_two = if requested < 2 { 2 } else { requested };
    match at_least_two.checked_next_power_of_two() {
        Some(cap) => cap,
        None => panic!("segment capacity overflows usize"),
    }
}

/// The producer's cache line. The cached copy is an atomic accessed with
/// `Relaxed` only by the producer (and by `reset`, which has exclusive
/// access): it publishes nothing, it merely remembers an earlier Acquire
/// load of `head`.
struct ProducerSide {
    /// Producer index (monotonic; slot = tail & mask).
    tail: AtomicUsize,
    cached_head: AtomicUsize,
}

/// The consumer's cache line (see [`ProducerSide`]).
struct ConsumerSide {
    /// Consumer index (monotonic; slot = head & mask).
    head: AtomicUsize,
    cached_tail: AtomicUsize,
}

/// A fixed-capacity SPSC circular buffer with a link to the next segment.
#[repr(C)]
pub(crate) struct Segment<T> {
    // Read-mostly line: `buf` and `mask` never change, `next` is written
    // once per link. The two padded groups below are line-aligned, so
    // this group shares a line with neither index.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `buf.len() - 1`; `buf.len()` is a power of two.
    mask: usize,
    /// Next segment in the list; null while this segment is a list tail.
    next: AtomicPtr<Segment<T>>,
    producer: CachePadded<ProducerSide>,
    consumer: CachePadded<ConsumerSide>,
}

// SAFETY: the buffer cells are accessed only through the SPSC protocol
// (producer writes slot `tail` before publishing `tail+1` with Release; the
// consumer reads slots below an Acquire-loaded `tail`), and the hyperqueue
// view machinery guarantees a single producer and single consumer per
// segment (invariant 6). Every other field is an atomic.
unsafe impl<T: Send> Send for Segment<T> {}
unsafe impl<T: Send> Sync for Segment<T> {}

impl<T> Segment<T> {
    /// Allocates an empty segment holding [`segment_capacity_for`]`(cap)`
    /// values.
    pub(crate) fn new(cap: usize) -> Box<Self> {
        let cap = segment_capacity_for(cap);
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::new(Self {
            buf,
            mask: cap - 1,
            next: AtomicPtr::new(ptr::null_mut()),
            producer: CachePadded::new(ProducerSide {
                tail: AtomicUsize::new(0),
                cached_head: AtomicUsize::new(0),
            }),
            consumer: CachePadded::new(ConsumerSide {
                head: AtomicUsize::new(0),
                cached_tail: AtomicUsize::new(0),
            }),
        })
    }

    /// Buffer capacity (a power of two).
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Number of values currently stored, from the real indices (racy but
    /// monotonic-consistent: producer sees an underestimate of pops,
    /// consumer of pushes). Slow paths only — it reads both sides' lines.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        let tail = self.producer.tail.load(Ordering::Acquire);
        let head = self.consumer.head.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// Raw pointer to the slot at absolute index `idx`. Dereferencing is
    /// governed by the SPSC protocol (see the methods that use it).
    #[inline]
    pub(crate) fn slot_ptr(&self, idx: usize) -> *mut T {
        self.buf[idx & self.mask].get() as *mut T
    }

    /// Producer side: the number of free slots, exact whenever it is below
    /// `want` (a larger answer may under-report: it is the cached view).
    /// `want` must not exceed the capacity.
    ///
    /// # Safety
    /// Caller must be the unique producer and `tail` its current index.
    #[inline]
    unsafe fn free_slots(&self, tail: usize, want: usize) -> usize {
        let cap = self.capacity();
        // `cached <= head <= tail <= cached + cap` always holds here: only
        // this side (and `reset`) writes `tail` and the cached copy, and
        // `tail` only ever advances into slots this function reported.
        let limit = self.producer.cached_head.load(Ordering::Relaxed) + cap;
        if limit >= tail + want {
            return limit - tail;
        }
        let head = self.consumer.head.load(Ordering::Acquire);
        self.producer.cached_head.store(head, Ordering::Relaxed);
        head + cap - tail
    }

    /// Consumer side: the number of published, unread values, exact
    /// whenever it is below `want` (see [`Segment::free_slots`]).
    /// `want` must not exceed the capacity.
    ///
    /// # Safety
    /// Caller must be the unique consumer and `head` its current index.
    #[inline]
    unsafe fn readable(&self, head: usize, want: usize) -> usize {
        // A cached tail *behind* `head` (see `drop_remaining`) fails this
        // test like any other stale copy and is refreshed.
        let cached = self.consumer.cached_tail.load(Ordering::Relaxed);
        if cached >= head + want {
            return cached - head;
        }
        let tail = self.producer.tail.load(Ordering::Acquire);
        self.consumer.cached_tail.store(tail, Ordering::Relaxed);
        tail - head
    }

    /// True if the consumer would find nothing. A `true` answer always
    /// comes from a fresh Acquire load of `tail`, so callers may rely on
    /// it after an Acquire load of `next` (see `pop_impl`).
    ///
    /// # Safety
    /// Caller must be the unique consumer of this segment.
    #[inline]
    pub(crate) unsafe fn is_empty(&self) -> bool {
        let head = self.consumer.head.load(Ordering::Relaxed); // we own head
        unsafe { self.readable(head, 1) == 0 }
    }

    /// Producer-side push. Fails (returning the value) when full.
    ///
    /// # Safety
    /// Caller must be the unique producer of this segment.
    #[inline]
    pub(crate) unsafe fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.producer.tail.load(Ordering::Relaxed); // we own tail
        if unsafe { self.free_slots(tail, 1) } == 0 {
            return Err(value);
        }
        // SAFETY: slot `tail & mask` is vacant: the consumer only reads
        // slots below `tail` (it Acquire-loads our Release store), a free
        // slot means the consumer's Release store of `head` past it
        // happened-before the Acquire load that counted it free, and we
        // are the only producer.
        unsafe { self.slot_ptr(tail).write(value) };
        self.producer.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Consumer-side pop. Returns `None` when currently empty.
    ///
    /// # Safety
    /// Caller must be the unique consumer of this segment.
    #[inline]
    pub(crate) unsafe fn try_pop(&self) -> Option<T> {
        let head = self.consumer.head.load(Ordering::Relaxed); // we own head
        if unsafe { self.readable(head, 1) } == 0 {
            return None;
        }
        // SAFETY: slot `head & mask` was initialized by the producer's
        // write that happens-before the Acquire load of `tail` that
        // counted it readable; we are the only consumer, so the slot is
        // read exactly once.
        let value = unsafe { self.slot_ptr(head).read() };
        self.consumer.head.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// The link to the next segment (null = list tail).
    #[inline]
    pub(crate) fn next(&self) -> *mut Segment<T> {
        self.next.load(Ordering::Acquire)
    }

    /// Consumer-side bulk pop: moves up to `max` values into `out` with a
    /// single published head update (one Release store for the whole
    /// batch, vs one per value with [`Segment::try_pop`]) and at most two
    /// contiguous copies (the span may wrap the ring once).
    /// Returns the number of values moved.
    ///
    /// # Safety
    /// Caller must be the unique consumer of this segment.
    pub(crate) unsafe fn pop_bulk(&self, max: usize, out: &mut Vec<T>) -> usize {
        let cap = self.capacity();
        let head = self.consumer.head.load(Ordering::Relaxed); // we own head
        let n = unsafe { self.readable(head, max.min(cap)) }.min(max);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        // SAFETY: slots [head, head+n) were initialized by producer writes
        // that happen-before the Acquire load of `tail` that counted them;
        // we are the only consumer, so each slot is moved out exactly
        // once. The two copies cover the spans before and after the ring
        // wrap point.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len());
            let first = n.min(cap - (head & self.mask));
            ptr::copy_nonoverlapping(self.slot_ptr(head) as *const T, dst, first);
            if n > first {
                ptr::copy_nonoverlapping(self.slot_ptr(0) as *const T, dst.add(first), n - first);
            }
            out.set_len(out.len() + n);
        }
        self.consumer.head.store(head + n, Ordering::Release);
        n
    }

    /// Links `next` after this segment.
    ///
    /// Called either by the unique producer (appending when full) or by a
    /// view reduction holding the queue lock; per invariant 5 the segment
    /// has no successor yet.
    pub(crate) fn set_next(&self, next: *mut Segment<T>) {
        let prev = self.next.swap(next, Ordering::AcqRel);
        debug_assert!(prev.is_null(), "segment already linked (invariant 5)");
    }

    // ---- slice support (paper §5.2) ------------------------------------

    /// Producer-owned tail index (for write slices).
    pub(crate) fn raw_tail(&self) -> usize {
        self.producer.tail.load(Ordering::Relaxed)
    }

    /// Consumer-owned head index (for read slices).
    pub(crate) fn raw_head(&self) -> usize {
        self.consumer.head.load(Ordering::Relaxed)
    }

    /// Publishes values written up to absolute index `new_tail`.
    ///
    /// # Safety
    /// Caller is the unique producer and has initialized all slots in
    /// `[tail, new_tail)`, a span [`Segment::contiguous_writable`]
    /// reported free.
    pub(crate) unsafe fn publish_tail(&self, new_tail: usize) {
        debug_assert!(new_tail >= self.raw_tail());
        debug_assert!(new_tail - self.consumer.head.load(Ordering::Relaxed) <= self.capacity());
        self.producer.tail.store(new_tail, Ordering::Release);
    }

    /// Drops `n` values from the front and advances the head.
    ///
    /// # Safety
    /// Caller is the unique consumer; the `n` front values are a span
    /// [`Segment::contiguous_readable`] reported (or any `n <= len()`).
    pub(crate) unsafe fn consume_front(&self, n: usize) {
        let head = self.consumer.head.load(Ordering::Relaxed);
        debug_assert!(n <= self.len());
        // Without drop glue the loop below is pure index arithmetic —
        // skip it so consuming a slice is a single head update.
        if std::mem::needs_drop::<T>() {
            for i in 0..n {
                // SAFETY: slots [head, head+n) are published and unread.
                unsafe { ptr::drop_in_place(self.slot_ptr(head + i)) };
            }
        }
        self.consumer.head.store(head + n, Ordering::Release);
    }

    /// How many of the `want` (at least 1) next values the consumer can
    /// view contiguously, i.e. without crossing the ring wrap point. Zero
    /// iff the segment is empty.
    ///
    /// # Safety
    /// Caller must be the unique consumer of this segment.
    pub(crate) unsafe fn contiguous_readable(&self, want: usize) -> usize {
        let head = self.consumer.head.load(Ordering::Relaxed); // we own head
        let want = want.clamp(1, self.capacity() - (head & self.mask));
        unsafe { self.readable(head, want) }.min(want)
    }

    /// How many of the `want` (at least 1) next slots the producer can
    /// fill contiguously, i.e. without crossing the ring wrap point. Zero
    /// iff the segment is full.
    ///
    /// # Safety
    /// Caller must be the unique producer of this segment.
    pub(crate) unsafe fn contiguous_writable(&self, want: usize) -> usize {
        let tail = self.producer.tail.load(Ordering::Relaxed); // we own tail
        let want = want.clamp(1, self.capacity() - (tail & self.mask));
        unsafe { self.free_slots(tail, want) }.min(want)
    }

    /// A contiguous array view over `[idx, idx+len)`.
    ///
    /// # Safety
    /// Caller is the unique consumer; the span is published, within one
    /// ring wrap, and not consumed while the reference is live.
    pub(crate) unsafe fn read_slice_raw(&self, idx: usize, len: usize) -> &[T] {
        debug_assert!(
            (idx & self.mask) + len <= self.capacity(),
            "slice wraps the ring"
        );
        // SAFETY: slots are adjacent `UnsafeCell<MaybeUninit<T>>`, layout-
        // compatible with `T`, and the span is initialized per the caller
        // contract.
        unsafe { std::slice::from_raw_parts(self.slot_ptr(idx) as *const T, len) }
    }

    // ---- lifecycle ------------------------------------------------------

    /// Resets a fully drained segment for reuse from the freelist.
    ///
    /// # Safety
    /// No task may hold any pointer to this segment (the recycling rules in
    /// `state.rs` guarantee this: the segment was drained by the consumer
    /// and has a non-null `next`, so per invariants 4–5 nobody else can
    /// reach it).
    pub(crate) unsafe fn reset(&self) {
        debug_assert_eq!(self.len(), 0, "resetting a non-empty segment");
        // The cached copies go back with the indices: a stale cached tail
        // above the new head would read as published data.
        self.consumer.head.store(0, Ordering::Relaxed);
        self.consumer.cached_tail.store(0, Ordering::Relaxed);
        self.producer.tail.store(0, Ordering::Relaxed);
        self.producer.cached_head.store(0, Ordering::Relaxed);
        self.next.store(ptr::null_mut(), Ordering::Release);
    }

    /// Drops all unconsumed values (used when the hyperqueue is destroyed
    /// with values still inside, which the model allows — §2.1).
    ///
    /// # Safety
    /// No concurrent access to the segment.
    pub(crate) unsafe fn drop_remaining(&self) {
        let head = self.consumer.head.load(Ordering::Relaxed);
        let tail = self.producer.tail.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: [head, tail) hold unconsumed initialized values and
            // the caller has exclusive access.
            unsafe { ptr::drop_in_place(self.slot_ptr(i)) };
        }
        // This moves `head` past the consumer's cached tail; the `>=`
        // comparisons in `readable` absorb that (module docs).
        self.consumer.head.store(tail, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        for (requested, real) in [(0, 2), (1, 2), (2, 2), (3, 4), (64, 64), (100, 128)] {
            assert_eq!(segment_capacity_for(requested), real);
            assert_eq!(Segment::<u8>::new(requested).capacity(), real);
        }
    }

    #[test]
    fn header_is_three_lines() {
        // Producer line, consumer line, read-mostly line — one fewer than
        // the four lines of one-index-per-line padding.
        assert_eq!(std::mem::size_of::<Segment<u64>>(), 3 * 128);
    }

    #[test]
    fn push_pop_roundtrip() {
        let s = Segment::<u32>::new(4);
        unsafe {
            assert!(s.try_pop().is_none());
            s.try_push(1).unwrap();
            s.try_push(2).unwrap();
            assert_eq!(s.len(), 2);
            assert_eq!(s.try_pop(), Some(1));
            assert_eq!(s.try_pop(), Some(2));
            assert!(s.try_pop().is_none());
        }
    }

    #[test]
    fn full_rejects_push() {
        let s = Segment::<u32>::new(2);
        unsafe {
            s.try_push(1).unwrap();
            s.try_push(2).unwrap();
            assert_eq!(s.try_push(3), Err(3));
            assert_eq!(s.try_pop(), Some(1));
            s.try_push(3).unwrap();
        }
    }

    #[test]
    fn circular_reuse_wraps_many_times() {
        let s = Segment::<u64>::new(4);
        unsafe {
            for i in 0..1000u64 {
                s.try_push(i).unwrap();
                assert_eq!(s.try_pop(), Some(i));
            }
            assert!(s.is_empty());
        }
    }

    #[test]
    fn next_links_once() {
        let a = Segment::<u32>::new(2);
        let b = Box::into_raw(Segment::<u32>::new(2));
        assert!(a.next().is_null());
        a.set_next(b);
        assert_eq!(a.next(), b);
        unsafe { drop(Box::from_raw(b)) };
    }

    #[test]
    fn reset_clears_state() {
        let s = Segment::<u32>::new(2);
        let b = Box::into_raw(Segment::<u32>::new(2));
        unsafe {
            s.try_push(1).unwrap();
            assert_eq!(s.try_pop(), Some(1));
            s.set_next(b);
            s.reset();
            assert!(s.next().is_null());
            assert!(s.is_empty());
            s.try_push(9).unwrap();
            assert_eq!(s.try_pop(), Some(9));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn drop_remaining_runs_destructors() {
        let counter = Arc::new(());
        let s = Segment::<Arc<()>>::new(8);
        unsafe {
            for _ in 0..5 {
                s.try_push(Arc::clone(&counter)).unwrap();
            }
            assert_eq!(Arc::strong_count(&counter), 6);
            s.drop_remaining();
        }
        assert_eq!(Arc::strong_count(&counter), 1);
    }

    #[test]
    fn pop_bulk_moves_batches_across_the_wrap() {
        let s = Segment::<u32>::new(4);
        let mut out = Vec::new();
        unsafe {
            // Stagger head so the bulk read wraps the ring.
            s.try_push(0).unwrap();
            s.try_push(1).unwrap();
            assert_eq!(s.try_pop(), Some(0));
            assert_eq!(s.try_pop(), Some(1));
            for v in 2..6 {
                s.try_push(v).unwrap();
            }
            assert_eq!(s.pop_bulk(3, &mut out), 3);
            assert_eq!(s.pop_bulk(usize::MAX, &mut out), 1);
            assert_eq!(s.pop_bulk(8, &mut out), 0);
            assert!(s.is_empty());
        }
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    /// A value that counts its own drops, so the model can check that
    /// every path drops each value exactly once.
    #[derive(Debug)]
    struct Counted(u32, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push,
        Pop,
        IsEmpty,
        PopBulk(usize),
        WriteSlice(usize),
        ReadSlice(usize),
        DropRemaining,
        Reset,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Push),
            Just(Op::Push),
            Just(Op::Pop),
            Just(Op::IsEmpty),
            (0usize..12).prop_map(Op::PopBulk),
            (1usize..12).prop_map(Op::WriteSlice),
            (1usize..12).prop_map(Op::ReadSlice),
            Just(Op::DropRemaining),
            Just(Op::Reset),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Single-threaded model check: any interleaving of the scalar,
        /// bulk, slice and lifecycle operations behaves like a bounded
        /// `VecDeque`, across ring wraps, and drops every value exactly
        /// once. The bulk and lifecycle operations are the ones that move
        /// an index without the other side's cached copy following.
        #[test]
        fn segment_behaves_like_a_bounded_vecdeque(
            requested in prop::sample::select(vec![2usize, 3, 8]),
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let drops = Arc::new(AtomicUsize::new(0));
            let seg = Segment::<Counted>::new(requested);
            let cap = seg.capacity();
            prop_assert_eq!(cap, requested.next_power_of_two());
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut next_val = 0u32;
            let mut expect_drops = 0usize;
            let mut fresh = || {
                next_val += 1;
                Counted(next_val, Arc::clone(&drops))
            };
            for op in ops {
                // SAFETY: one thread plays both roles, one call at a time.
                unsafe {
                    match op {
                        Op::Push => {
                            let v = fresh();
                            let id = v.0;
                            match seg.try_push(v) {
                                Ok(()) => {
                                    prop_assert!(model.len() < cap);
                                    model.push_back(id);
                                }
                                Err(back) => {
                                    prop_assert_eq!(model.len(), cap);
                                    drop(back);
                                    expect_drops += 1;
                                }
                            }
                        }
                        Op::Pop => {
                            let got = seg.try_pop();
                            prop_assert_eq!(got.as_ref().map(|c| c.0), model.pop_front());
                            expect_drops += got.is_some() as usize;
                        }
                        Op::IsEmpty => prop_assert_eq!(seg.is_empty(), model.is_empty()),
                        Op::PopBulk(max) => {
                            let mut out = Vec::new();
                            let n = seg.pop_bulk(max, &mut out);
                            prop_assert_eq!(n, max.min(model.len()));
                            for c in &out {
                                prop_assert_eq!(Some(c.0), model.pop_front());
                            }
                            expect_drops += n;
                        }
                        Op::WriteSlice(want) => {
                            // What `WriteSlice` does: stage into the
                            // contiguous span, publish once.
                            let start = seg.raw_tail();
                            let n = seg.contiguous_writable(want);
                            let to_wrap = cap - (start & (cap - 1));
                            prop_assert_eq!(n, want.min(cap - model.len()).min(to_wrap));
                            for i in 0..n {
                                let v = fresh();
                                model.push_back(v.0);
                                seg.slot_ptr(start).add(i).write(v);
                            }
                            seg.publish_tail(start + n);
                        }
                        Op::ReadSlice(max) => {
                            // What `ReadSlice` does: view, then consume.
                            let start = seg.raw_head();
                            let n = seg.contiguous_readable(max);
                            let to_wrap = cap - (start & (cap - 1));
                            prop_assert_eq!(n, max.min(model.len()).min(to_wrap));
                            for c in seg.read_slice_raw(start, n) {
                                prop_assert_eq!(Some(c.0), model.pop_front());
                            }
                            seg.consume_front(n);
                            expect_drops += n;
                        }
                        Op::DropRemaining => {
                            seg.drop_remaining();
                            expect_drops += model.len();
                            model.clear();
                        }
                        Op::Reset => {
                            // Only drained segments are ever reset.
                            seg.drop_remaining();
                            expect_drops += model.len();
                            model.clear();
                            seg.reset();
                            prop_assert_eq!((seg.raw_head(), seg.raw_tail()), (0, 0));
                        }
                    }
                }
                prop_assert_eq!(seg.len(), model.len());
                prop_assert_eq!(drops.load(Ordering::Relaxed), expect_drops);
            }
            // SAFETY: exclusive access.
            unsafe { seg.drop_remaining() };
            prop_assert_eq!(drops.load(Ordering::Relaxed), expect_drops + model.len());
        }
    }

    #[test]
    fn spsc_concurrent_order_preserved() {
        const N: u64 = 200_000;
        let s = Arc::new(Segment::<u64>::new(64));
        let p = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..N {
                    // SAFETY: single producer thread.
                    while unsafe { s.try_push(i) }.is_err() {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let c = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut expect = 0u64;
                while expect < N {
                    // SAFETY: single consumer thread.
                    if let Some(v) = unsafe { s.try_pop() } {
                        assert_eq!(v, expect, "SPSC order violated");
                        expect += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        };
        p.join().unwrap();
        c.join().unwrap();
        assert!(unsafe { s.is_empty() });
    }

    /// Two threads over the smallest ring, the producer mixing scalar
    /// pushes with write slices and the consumer cycling through scalar
    /// pops, `pop_bulk` and read slices: the bulk paths advance an index
    /// by more than one past the other side's cached copy, which an
    /// equality test against the cached copy never recovers from (it
    /// hangs or reads an unpublished slot); the `>=`-and-refresh protocol
    /// must deliver every value once, in order.
    #[test]
    fn capacity_two_stress_mixes_scalar_and_bulk_paths() {
        const N: u64 = 200_000;
        let s = Arc::new(Segment::<u64>::new(2));
        let p = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while i < N {
                    // SAFETY: single producer thread.
                    let pushed = unsafe {
                        if i.is_multiple_of(3) {
                            let start = s.raw_tail();
                            let n = s.contiguous_writable(2).min((N - i) as usize);
                            for k in 0..n {
                                s.slot_ptr(start).add(k).write(i + k as u64);
                            }
                            s.publish_tail(start + n);
                            n as u64
                        } else {
                            s.try_push(i).is_ok() as u64
                        }
                    };
                    if pushed == 0 {
                        // Full: on a busy machine the consumer may be
                        // descheduled; hand it the core.
                        std::thread::yield_now();
                    }
                    i += pushed;
                }
            })
        };
        let mut expect = 0u64;
        let mut round = 0u64;
        let mut buf = Vec::new();
        while expect < N {
            round += 1;
            let before = expect;
            // SAFETY: this is the single consumer thread.
            unsafe {
                match round % 3 {
                    0 => {
                        if let Some(v) = s.try_pop() {
                            assert_eq!(v, expect);
                            expect += 1;
                        }
                    }
                    1 => {
                        s.pop_bulk(2, &mut buf);
                        for v in buf.drain(..) {
                            assert_eq!(v, expect);
                            expect += 1;
                        }
                    }
                    _ => {
                        let start = s.raw_head();
                        let n = s.contiguous_readable(2);
                        for &v in s.read_slice_raw(start, n) {
                            assert_eq!(v, expect);
                            expect += 1;
                        }
                        s.consume_front(n);
                    }
                }
            }
            if expect == before {
                std::thread::yield_now();
            }
        }
        p.join().unwrap();
        assert!(unsafe { s.is_empty() });
    }
}
