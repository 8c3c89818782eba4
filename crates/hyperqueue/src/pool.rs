//! Cross-queue segment pools: the storage-reuse layer of the service
//! runtime.
//!
//! A one-shot pipeline recycles drained segments through its queue's
//! private freelist and frees everything when the queue drops. A
//! *persistent* pipeline (see `pipelines::graph::CompiledGraph`) instead
//! instantiates fresh queues for every job — and without help, job N+1
//! would re-allocate every segment job N just freed. A [`SegmentPool`]
//! breaks that cycle: queues created with
//! [`Hyperqueue::with_pool`](crate::Hyperqueue::with_pool) draw their
//! segments from the pool and, when dropped, hand every segment they own
//! back to it (drained, reset, ready for reuse). After a warm-up job the
//! steady state is **zero segment allocations per job** — the service-layer
//! extension of the paper's zero-allocation steady state for a single
//! queue.
//!
//! Pools are `Send + Sync`: concurrent jobs may share one pool per graph
//! edge, and the segments of edge *k* circulate between the successive (or
//! concurrent) instantiations of that edge.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::segment::{segment_capacity_for, Segment};
use crate::state::QueueStats;

/// Counters reported by [`SegmentPool::stats`]. `hits`/`misses`/`returned`
/// are monotonic; `available` is the instantaneous pool depth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Capacity (values per segment) of every segment in this pool.
    pub segment_capacity: usize,
    /// Segments currently parked in the pool.
    pub available: u64,
    /// Allocation requests served from the pool (no heap traffic).
    pub hits: u64,
    /// Allocation requests the pool could not serve — each miss is one
    /// heap allocation somewhere downstream. A flat `misses` curve across
    /// jobs is the zero-allocation steady state.
    pub misses: u64,
    /// Segments handed back by dropped queues.
    pub returned: u64,
}

/// A shared pool of equally-sized segments (see module docs).
///
/// Created once per logical queue *slot* (e.g. per compiled-graph edge)
/// and passed to every [`Hyperqueue`](crate::Hyperqueue) instantiated for
/// that slot via [`with_pool`](crate::Hyperqueue::with_pool).
pub struct SegmentPool<T> {
    seg_cap: usize,
    free: Mutex<Vec<NonNull<Segment<T>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    returned: AtomicU64,
    /// Lifetime [`QueueStats`] totals absorbed from every retired queue
    /// that drew from this pool (a queue's own counters die with it, so
    /// the pool is where the service layer accumulates the history of
    /// its edge).
    retired: Mutex<QueueStats>,
}

// SAFETY: the raw segment pointers are owned by the pool while parked in
// `free` (nobody else holds a reference — queues hand them back only after
// draining and unlinking them), and `T: Send` lets the stored buffers move
// across threads.
unsafe impl<T: Send> Send for SegmentPool<T> {}
unsafe impl<T: Send> Sync for SegmentPool<T> {}

impl<T> SegmentPool<T> {
    /// Creates an empty pool of segments holding
    /// [`segment_capacity_for`]`(segment_capacity)` values each (like
    /// [`Hyperqueue::with_segment_capacity`](crate::Hyperqueue::with_segment_capacity)).
    pub fn new(segment_capacity: usize) -> Self {
        SegmentPool {
            seg_cap: segment_capacity_for(segment_capacity),
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returned: AtomicU64::new(0),
            retired: Mutex::new(QueueStats::default()),
        }
    }

    /// Folds a retired queue's final counters into the pool's lifetime
    /// totals (called from the queue's drop path).
    pub(crate) fn absorb(&self, stats: &QueueStats) {
        self.retired.lock().merge(stats);
    }

    /// [`QueueStats`] totals accumulated across every queue that retired
    /// into this pool. On a compiled service graph this is the lifetime
    /// fast-path history of one edge (live queues report through
    /// [`crate::Hyperqueue::stats`] until they drop).
    pub fn retired_queue_stats(&self) -> QueueStats {
        *self.retired.lock()
    }

    /// Capacity (values per segment) of every segment in this pool — the
    /// rounded value, as [`PoolStats::segment_capacity`] reports it.
    pub fn segment_capacity(&self) -> usize {
        self.seg_cap
    }

    /// Heap-allocates `n` segments straight into the pool, so even the
    /// first job runs allocation-free.
    pub fn preallocate(&self, n: usize) {
        let mut free = self.free.lock();
        for _ in 0..n {
            let seg =
                NonNull::new(Box::into_raw(Segment::<T>::new(self.seg_cap))).expect("Box nonnull");
            free.push(seg);
        }
    }

    /// Counter snapshot (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            segment_capacity: self.seg_cap,
            available: self.free.lock().len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returned: self.returned.load(Ordering::Relaxed),
        }
    }

    /// Takes one reset segment, or records a miss (the caller will
    /// heap-allocate).
    pub(crate) fn take(&self) -> Option<NonNull<Segment<T>>> {
        let seg = self.free.lock().pop();
        match seg {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(s)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Returns a batch of segments to the pool.
    ///
    /// # Safety
    /// Every segment must be drained, unlinked (`next == null`, indices
    /// reset — i.e. [`Segment::reset`] was just called) and unreachable
    /// from any task or view.
    pub(crate) unsafe fn put_all(&self, segs: impl IntoIterator<Item = NonNull<Segment<T>>>) {
        let mut free = self.free.lock();
        let before = free.len();
        free.extend(segs);
        let n = (free.len() - before) as u64;
        drop(free);
        self.returned.fetch_add(n, Ordering::Relaxed);
    }
}

impl<T> Drop for SegmentPool<T> {
    fn drop(&mut self) {
        // Parked segments are empty (reset before return), so freeing them
        // runs no value destructors.
        for seg in self.free.get_mut().drain(..) {
            // SAFETY: the pool exclusively owns parked segments.
            unsafe { drop(Box::from_raw(seg.as_ptr())) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_empty_pool_is_a_miss() {
        let pool = SegmentPool::<u32>::new(8);
        assert!(pool.take().is_none());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.available), (0, 1, 0));
    }

    #[test]
    fn preallocate_then_take_hits() {
        let pool = SegmentPool::<u32>::new(8);
        pool.preallocate(3);
        assert_eq!(pool.stats().available, 3);
        let seg = pool.take().expect("preallocated");
        assert_eq!(pool.stats().hits, 1);
        // SAFETY: fresh segment from the pool, unreachable elsewhere.
        unsafe { pool.put_all([seg]) };
        let s = pool.stats();
        assert_eq!((s.available, s.returned), (3, 1));
    }

    #[test]
    fn capacity_is_rounded_once_and_reported_consistently() {
        for (requested, real) in [(0, 2), (3, 4), (100, 128)] {
            let pool = SegmentPool::<u8>::new(requested);
            assert_eq!(pool.segment_capacity(), real);
            assert_eq!(pool.stats().segment_capacity, real);
            pool.preallocate(1);
            let seg = pool.take().expect("preallocated");
            // SAFETY: the pool handed the segment to us alone.
            assert_eq!(unsafe { seg.as_ref() }.capacity(), real);
            // SAFETY: fresh segment, unreachable elsewhere.
            unsafe { pool.put_all([seg]) };
        }
    }
}
