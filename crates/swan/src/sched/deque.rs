//! A bounded Chase-Lev work-stealing deque of task ids.
//!
//! The scheduler (DESIGN.md §3.1) gives each worker one of these: the
//! **owner** pushes and pops at the *bottom* (LIFO, depth-first — the
//! freshest spawn runs next, keeping its working set hot), while
//! **thieves** steal from the *top* (FIFO,
//! breadth-first — a thief takes the oldest task, which under help-first
//! spawning is the one closest to the root and therefore the largest
//! chunk of work).
//!
//! Three deliberate deviations from the textbook (Chase & Lev, SPAA'05;
//! C11 orderings per Lê et al., PPoPP'13):
//!
//! 1. **Bounded, non-growing buffer.** `push` returns `Err(value)` when
//!    the buffer is full and the caller overflows into the global
//!    injector. This removes the grow path — the one place the classic
//!    algorithm needs memory reclamation — so there is no epoch GC, no
//!    hazard pointers, no freed-buffer race.
//! 2. **Atomic slots.** Values are `AtomicU64`s accessed with `Relaxed`
//!    loads/stores. A thief with a stale `top` may read a slot the owner
//!    is concurrently overwriting after wraparound; with plain cells that
//!    racy read is formally UB even though the value is discarded when
//!    the subsequent CAS on `top` fails. Relaxed atomics make the race
//!    benign by construction, at zero cost on every ISA we target.
//! 3. **Per-item batch stealing.** `steal_batch_into` claims each item
//!    with its own CAS on `top` rather than one bulk `top += n` CAS. The
//!    bulk CAS is *wrong* here: the owner pops items above `top` without
//!    a CAS (it only arbitrates the last item), so a thief that claims
//!    `top..top+n` in one step can claim items the owner already took.
//!    Item-at-a-time stealing only ever claims the current `top`, which
//!    the owner-side protocol does arbitrate.
//!
//! Ids are *hints*, not owned tasks: the registry's `claim` is the single
//! arbiter of execution, so a duplicated or stale id is harmless. The
//! deque protocol nevertheless delivers each pushed id at most once.

use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};

use crate::util::CachePadded;

/// Bounded single-owner/multi-thief Chase-Lev deque of `u64` task ids.
///
/// `push`/`pop` are owner-only (one thread at a time — the worker that
/// owns the slot); `steal` and `steal_batch_into` are safe from any
/// thread.
pub struct Deque {
    buffer: Box<[AtomicU64]>,
    mask: i64,
    /// Owner end. Written only by the owner; read by thieves.
    bottom: CachePadded<AtomicI64>,
    /// Thief end. CAS-advanced by thieves and by the owner's last-item pop.
    top: CachePadded<AtomicI64>,
}

impl Deque {
    /// Creates a deque with capacity `cap` (rounded up to a power of two,
    /// minimum 2).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        Self {
            buffer: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as i64 - 1,
            bottom: CachePadded::new(AtomicI64::new(0)),
            top: CachePadded::new(AtomicI64::new(0)),
        }
    }

    #[inline]
    fn slot(&self, pos: i64) -> &AtomicU64 {
        &self.buffer[(pos & self.mask) as usize]
    }

    /// Owner-only: pushes `value` at the bottom. Fails when the deque is
    /// full — the caller overflows to the injector (the deque never
    /// grows; see module docs).
    pub fn push(&self, value: u64) -> Result<(), u64> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= self.buffer.len() as i64 {
            return Err(value);
        }
        self.slot(b).store(value, Ordering::Relaxed);
        // Publish: a thief that Acquire-loads the new bottom sees the slot.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner-only: pops the most recently pushed value (LIFO). The
    /// sequentially-consistent fence orders the speculative `bottom`
    /// decrement against thief reads; the last remaining item is
    /// arbitrated by a CAS on `top` against concurrent thieves.
    pub fn pop(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty: undo the decrement.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let value = self.slot(b).load(Ordering::Relaxed);
        if t == b {
            // Last item: race thieves for it.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(value);
        }
        Some(value)
    }

    /// Steals the oldest value (FIFO top). Safe from any thread. Returns
    /// `None` when the deque is empty *or* when the single-item CAS loses
    /// a race (the caller treats both as a failed probe and retries
    /// elsewhere rather than spinning here).
    pub fn steal(&self) -> Option<u64> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        let value = self.slot(t).load(Ordering::Relaxed);
        self.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .ok()
            .map(|_| value)
    }

    /// Steal-half batching: claims up to `min(max, ceil(len/2))` items
    /// from this deque, one CAS each (see module docs for why not a bulk
    /// CAS). The first stolen item is returned for immediate execution;
    /// the rest are pushed onto `dest`, which must be the **calling
    /// thread's own** deque (the push is an owner-side operation).
    ///
    /// Returns the first item and the total number stolen (0, or ≥ 1
    /// including the returned one). Stops early if `dest` runs out of
    /// room — a stolen id is never dropped.
    pub fn steal_batch_into(&self, dest: &Deque, max: usize) -> (Option<u64>, usize) {
        let want = self.len().div_ceil(2);
        let want = want.min(max.max(1));
        let mut first = None;
        let mut stolen = 0usize;
        for _ in 0..want {
            if first.is_some() && !dest.has_room() {
                break;
            }
            let Some(value) = self.steal() else { break };
            stolen += 1;
            if first.is_none() {
                first = Some(value);
            } else {
                // Cannot fail: we are dest's owner and just checked room.
                dest.push(value).expect("dest deque had room");
            }
        }
        (first, stolen)
    }

    /// Approximate number of queued items (racy; heuristics only).
    pub fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Owner-only: whether a push would currently succeed. Exact from the
    /// owner's perspective — only the owner adds items, and concurrent
    /// steals only free space.
    pub fn has_room(&self) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        b - t < self.buffer.len() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn owner_pop_is_lifo() {
        let d = Deque::with_capacity(8);
        for i in 1..=5 {
            d.push(i).unwrap();
        }
        for i in (1..=5).rev() {
            assert_eq!(d.pop(), Some(i));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None); // repeated pops on empty stay sane
    }

    #[test]
    fn thief_steal_is_fifo() {
        let d = Deque::with_capacity(8);
        for i in 1..=5 {
            d.push(i).unwrap();
        }
        for i in 1..=5 {
            assert_eq!(d.steal(), Some(i));
        }
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn push_fails_when_full_and_recovers() {
        let d = Deque::with_capacity(4);
        for i in 0..4 {
            d.push(i).unwrap();
        }
        assert!(!d.has_room());
        assert_eq!(d.push(99), Err(99));
        assert_eq!(d.steal(), Some(0)); // freeing from the top…
        assert!(d.has_room());
        d.push(99).unwrap(); // …makes room at the bottom
        assert_eq!(d.pop(), Some(99));
    }

    #[test]
    fn wraparound_many_times() {
        let d = Deque::with_capacity(4);
        for round in 0..1000u64 {
            for i in 0..3 {
                d.push(round * 10 + i).unwrap();
            }
            assert_eq!(d.steal(), Some(round * 10)); // oldest from the top
            assert_eq!(d.pop(), Some(round * 10 + 2)); // newest from the bottom
            assert_eq!(d.pop(), Some(round * 10 + 1));
            assert_eq!(d.pop(), None);
        }
    }

    #[test]
    fn steal_batch_takes_half_and_keeps_order() {
        let src = Deque::with_capacity(16);
        let dst = Deque::with_capacity(16);
        for i in 1..=8 {
            src.push(i).unwrap();
        }
        // len 8 → steal ceil(8/2) = 4: returns the oldest, parks 3 extras.
        let (first, n) = src.steal_batch_into(&dst, 16);
        assert_eq!((first, n), (Some(1), 4));
        assert_eq!(dst.len(), 3);
        // Extras preserve age order bottom-up: the thief's LIFO pop sees
        // the newest of the stolen extras first.
        assert_eq!(dst.pop(), Some(4));
        assert_eq!(dst.pop(), Some(3));
        assert_eq!(dst.pop(), Some(2));
        assert_eq!(src.len(), 4);
    }

    #[test]
    fn steal_batch_respects_max_and_dest_capacity() {
        let src = Deque::with_capacity(16);
        for i in 1..=10 {
            src.push(i).unwrap();
        }
        let dst = Deque::with_capacity(16);
        let (first, n) = src.steal_batch_into(&dst, 2);
        assert_eq!((first, n), (Some(1), 2));

        // A full destination stops the batch after the returned item.
        let tiny = Deque::with_capacity(2);
        tiny.push(100).unwrap();
        tiny.push(101).unwrap();
        let (first, n) = src.steal_batch_into(&tiny, 8);
        assert_eq!((first, n), (Some(3), 1));
        assert_eq!(tiny.len(), 2);
    }

    #[test]
    fn concurrent_owner_and_thieves_deliver_each_id_once() {
        const ITEMS: u64 = 100_000;
        const THIEVES: usize = 3;
        let d = Arc::new(Deque::with_capacity(64));
        let taken = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicU64::new(0));

        let mut handles = Vec::new();
        for _ in 0..THIEVES {
            let d = Arc::clone(&d);
            let taken = Arc::clone(&taken);
            let sum = Arc::clone(&sum);
            handles.push(std::thread::spawn(move || loop {
                if taken.load(Ordering::Relaxed) >= ITEMS as usize {
                    break;
                }
                if let Some(v) = d.steal() {
                    sum.fetch_add(v, Ordering::Relaxed);
                    taken.fetch_add(1, Ordering::Relaxed);
                } else {
                    std::hint::spin_loop();
                }
            }));
        }
        // Owner: interleave pushes with occasional LIFO pops.
        let mut next = 1u64;
        let mut popped_locally = HashSet::new();
        while next <= ITEMS {
            match d.push(next) {
                Ok(()) => {
                    next += 1;
                    if next.is_multiple_of(7) {
                        if let Some(v) = d.pop() {
                            assert!(popped_locally.insert(v), "duplicate pop {v}");
                            sum.fetch_add(v, Ordering::Relaxed);
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => std::hint::spin_loop(),
            }
        }
        // Drain what the thieves haven't grabbed.
        while taken.load(Ordering::Relaxed) < ITEMS as usize {
            if let Some(v) = d.pop() {
                assert!(popped_locally.insert(v), "duplicate pop {v}");
                sum.fetch_add(v, Ordering::Relaxed);
                taken.fetch_add(1, Ordering::Relaxed);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::Relaxed), ITEMS as usize);
        // Each id delivered exactly once ⇔ the sums match.
        assert_eq!(sum.load(Ordering::Relaxed), ITEMS * (ITEMS + 1) / 2);
    }

    #[test]
    fn concurrent_batch_thieves_preserve_multiset() {
        const ITEMS: u64 = 50_000;
        let src = Arc::new(Deque::with_capacity(128));
        let sum = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let src = Arc::clone(&src);
            let sum = Arc::clone(&sum);
            let taken = Arc::clone(&taken);
            handles.push(std::thread::spawn(move || {
                let mine = Deque::with_capacity(128);
                loop {
                    if taken.load(Ordering::Relaxed) >= ITEMS as usize {
                        break;
                    }
                    let (first, _) = src.steal_batch_into(&mine, 8);
                    if let Some(v) = first {
                        sum.fetch_add(v, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                    while let Some(v) = mine.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        let mut next = 1u64;
        while next <= ITEMS {
            if src.push(next).is_ok() {
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        while taken.load(Ordering::Relaxed) < ITEMS as usize {
            if let Some(v) = src.pop() {
                sum.fetch_add(v, Ordering::Relaxed);
                taken.fetch_add(1, Ordering::Relaxed);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::Relaxed), ITEMS * (ITEMS + 1) / 2);
    }
}
