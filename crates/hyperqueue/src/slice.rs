//! Queue slices (paper §5.2): batched, array-speed access to a segment.
//!
//! Instead of paying one synchronized index update per `push`/`pop`, a task
//! reserves a *slice* and then works on raw slots, publishing (write) or
//! consuming (read) once, when the slice drops. Slices never span segment
//! boundaries — that is the paper's contract ("the slice must fit inside a
//! single segment; if not, a shorter slice will be returned").

use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::Arc;

use crate::queue::{notify_counted, QueueInner};
use crate::segment::Segment;

/// A reserved span of producer slots. Values added with
/// [`WriteSlice::push`] become visible to the consumer *when the slice is
/// dropped* (single publication).
pub struct WriteSlice<'a, T: Send + 'static> {
    seg: NonNull<Segment<T>>,
    /// Pointer to the reserved span's first slot; the whole reservation is
    /// contiguous (it never crosses the ring wrap point), so staging a
    /// value is a raw pointer write — no index arithmetic per value.
    base: *mut T,
    start: usize,
    cap: usize,
    written: usize,
    inner: &'a QueueInner<T>,
    /// Borrows the issuing token mutably: no other queue operation may run
    /// while the slice is live.
    _marker: PhantomData<&'a mut ()>,
}

impl<'a, T: Send + 'static> WriteSlice<'a, T> {
    /// # Safety
    /// `seg` must be the caller's user-view tail segment with at least
    /// `cap` free slots *contiguous in the ring* (no wrap within the
    /// span), and the caller must be its unique producer.
    pub(crate) unsafe fn new(
        inner: &'a Arc<QueueInner<T>>,
        seg: NonNull<Segment<T>>,
        cap: usize,
    ) -> Self {
        // SAFETY: unique producer per caller contract.
        let (start, base) = unsafe {
            let s = seg.as_ref();
            let start = s.raw_tail();
            (start, s.slot_ptr(start))
        };
        WriteSlice {
            seg,
            base,
            start,
            cap,
            written: 0,
            inner: inner.as_ref(),
            _marker: PhantomData,
        }
    }

    /// Number of slots reserved.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of values staged so far.
    pub fn len(&self) -> usize {
        self.written
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Remaining room in the slice.
    pub fn remaining(&self) -> usize {
        self.cap - self.written
    }

    /// Stages a value. Panics if the reservation is exhausted.
    #[inline]
    pub fn push(&mut self, value: T) {
        assert!(
            self.written < self.cap,
            "write slice overflow: capacity {}",
            self.cap
        );
        // SAFETY: unique producer; the slot lies in the reserved span,
        // which is contiguous per the `new` contract.
        unsafe { self.base.add(self.written).write(value) };
        self.written += 1;
    }

    /// Stages as many leading values of `vals` as the reservation still
    /// holds, in one contiguous copy, returning how many were staged —
    /// the bulk analogue of [`WriteSlice::push`].
    pub fn extend_from_slice(&mut self, vals: &[T]) -> usize
    where
        T: Copy,
    {
        let n = vals.len().min(self.remaining());
        // SAFETY: unique producer; the destination span is reserved,
        // contiguous, and vacant (written values only grow forward).
        unsafe { std::ptr::copy_nonoverlapping(vals.as_ptr(), self.base.add(self.written), n) };
        self.written += n;
        n
    }
}

impl<T: Send + 'static> Drop for WriteSlice<'_, T> {
    fn drop(&mut self) {
        if self.written > 0 {
            // SAFETY: slots [start, start+written) were initialized above.
            unsafe { self.seg.as_ref().publish_tail(self.start + self.written) };
            // One wakeup per published batch — and none at all while no
            // worker is parked (the suppressed case is counted).
            notify_counted(self.inner);
        }
    }
}

/// A readable span at the head of the queue. All `len()` values are
/// consumed (popped and dropped) when the slice drops.
pub struct ReadSlice<'a, T: Send + 'static> {
    seg: NonNull<Segment<T>>,
    start: usize,
    len: usize,
    _marker: PhantomData<&'a mut ()>,
}

impl<'a, T: Send + 'static> ReadSlice<'a, T> {
    /// # Safety
    /// `seg` must be the queue-view head segment holding at least one
    /// visible value, and the caller must be its unique consumer.
    pub(crate) unsafe fn new(
        _inner: &'a Arc<QueueInner<T>>,
        seg: NonNull<Segment<T>>,
        max_len: usize,
    ) -> Self {
        // SAFETY: unique consumer per caller contract.
        let (start, len) = unsafe {
            let s = seg.as_ref();
            (s.raw_head(), s.contiguous_readable(max_len))
        };
        debug_assert!(len >= 1, "ReadSlice on a segment without data");
        ReadSlice {
            seg,
            start,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of values in the slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the slice is empty (never happens for slices returned by
    /// the queue API, but keeps clippy and generic code happy).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values, as a contiguous array view.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: [start, start+len) is published and within one wrap (see
        // `contiguous_readable`); we are the unique consumer so the values
        // stay put while the slice is borrowed.
        unsafe { self.seg.as_ref().read_slice_raw(self.start, self.len) }
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Send + 'static> Drop for ReadSlice<'_, T> {
    fn drop(&mut self) {
        // SAFETY: unique consumer; exactly the viewed values are consumed.
        unsafe { self.seg.as_ref().consume_front(self.len) };
    }
}

impl<'s, T: Send + 'static> IntoIterator for &'s ReadSlice<'_, T> {
    type Item = &'s T;
    type IntoIter = std::slice::Iter<'s, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}
