//! A standalone lock-free SPSC bounded ring (Lamport 1983, the paper's
//! ref \[11\]) with blocking wrappers.
//!
//! It is the hand-built reference the benchmarks read the hyperqueue's
//! scalar path against, so it is tuned the way such a ring would be — the
//! same writer-grouped, cached-index layout as the hyperqueue's segment.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use swan::util::CachePadded;

/// The producer's cache line: its own index and its last reading of the
/// consumer's. The cached copy is touched (`Relaxed`) by the producer
/// alone; it publishes nothing.
struct ProducerSide {
    tail: AtomicUsize,
    cached_head: AtomicUsize,
}

/// The consumer's cache line (see [`ProducerSide`]).
struct ConsumerSide {
    head: AtomicUsize,
    cached_tail: AtomicUsize,
}

/// Lock-free bounded SPSC ring buffer, laid out the way a hand-tuned ring
/// is: power-of-two capacity addressed by mask, each side's index on its
/// own cache line next to a cached copy of the other side's, so a push or
/// pop reads the other core's line only when the cached copy says the ring
/// is full or empty. A cached copy is a lower bound of the real index, and
/// every "full"/"empty" answer comes from a fresh Acquire load.
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `buf.len() - 1`; `buf.len()` is a power of two.
    mask: usize,
    closed: AtomicBool,
    producer: CachePadded<ProducerSide>,
    consumer: CachePadded<ConsumerSide>,
}

// SAFETY: Lamport SPSC protocol — producer owns `tail`, consumer owns
// `head`; each slot is written before the Release store that publishes it
// and read after the corresponding Acquire load. Every other field is an
// atomic or immutable after construction.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding at least `cap` values (min 2): the capacity
    /// is rounded up to a power of two, see [`SpscRing::capacity`].
    pub fn new(cap: usize) -> Self {
        let cap = cap
            .max(2)
            .checked_next_power_of_two()
            .expect("ring capacity overflows usize");
        Self {
            buf: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
            closed: AtomicBool::new(false),
            producer: CachePadded::new(ProducerSide {
                tail: AtomicUsize::new(0),
                cached_head: AtomicUsize::new(0),
            }),
            consumer: CachePadded::new(ConsumerSide {
                head: AtomicUsize::new(0),
                cached_tail: AtomicUsize::new(0),
            }),
        }
    }

    /// Number of values the ring holds when full.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    fn slot(&self, idx: usize) -> *mut MaybeUninit<T> {
        self.buf[idx & self.mask].get()
    }

    /// Producer: attempts to enqueue.
    ///
    /// # Safety
    /// Single producer.
    pub unsafe fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.producer.tail.load(Ordering::Relaxed);
        let cap = self.capacity();
        if tail >= self.producer.cached_head.load(Ordering::Relaxed) + cap {
            let head = self.consumer.head.load(Ordering::Acquire);
            self.producer.cached_head.store(head, Ordering::Relaxed);
            if tail >= head + cap {
                return Err(value);
            }
        }
        // SAFETY: slot is vacant (see hyperqueue's segment.rs for the
        // identical proof).
        unsafe { (*self.slot(tail)).write(value) };
        self.producer.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Consumer: attempts to dequeue.
    ///
    /// # Safety
    /// Single consumer.
    pub unsafe fn try_pop(&self) -> Option<T> {
        let head = self.consumer.head.load(Ordering::Relaxed);
        if head >= self.consumer.cached_tail.load(Ordering::Relaxed) {
            let tail = self.producer.tail.load(Ordering::Acquire);
            self.consumer.cached_tail.store(tail, Ordering::Relaxed);
            if head >= tail {
                return None;
            }
        }
        // SAFETY: slot published by the producer.
        let v = unsafe { (*self.slot(head)).assume_init_read() };
        self.consumer.head.store(head + 1, Ordering::Release);
        Some(v)
    }

    /// Marks the stream finished (producer side).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once closed (more values may still be queued).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Number of queued values (racy), from the real indices.
    pub fn len(&self) -> usize {
        self.producer
            .tail
            .load(Ordering::Acquire)
            .saturating_sub(self.consumer.head.load(Ordering::Acquire))
    }

    /// True when nothing is queued (racy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        let head = self.consumer.head.load(Ordering::Relaxed);
        let tail = self.producer.tail.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: [head, tail) hold unconsumed initialized values and
            // we have exclusive access in drop.
            unsafe { (*self.slot(i)).assume_init_drop() };
        }
    }
}

/// Blocking SPSC producer endpoint.
pub struct SpscSender<T> {
    ring: Arc<SpscRing<T>>,
}

/// Blocking SPSC consumer endpoint.
pub struct SpscReceiver<T> {
    ring: Arc<SpscRing<T>>,
}

/// Creates a connected blocking SPSC pair.
pub fn spsc<T>(cap: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let ring = Arc::new(SpscRing::new(cap));
    (
        SpscSender {
            ring: Arc::clone(&ring),
        },
        SpscReceiver { ring },
    )
}

impl<T> SpscSender<T> {
    /// Spins (with yields) until the value fits.
    pub fn send(&self, value: T) {
        let mut v = value;
        loop {
            // SAFETY: the sender endpoint is unique (not Clone).
            match unsafe { self.ring.try_push(v) } {
                Ok(()) => return,
                Err(back) => {
                    v = back;
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.ring.close();
    }
}

impl<T> SpscReceiver<T> {
    /// Blocks (spin+yield) for the next value; `None` when closed and
    /// drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            // SAFETY: the receiver endpoint is unique (not Clone).
            if let Some(v) = unsafe { self.ring.try_pop() } {
                return Some(v);
            }
            if self.ring.is_closed() {
                // Final re-check: a value may have been pushed before close.
                // SAFETY: as above.
                return unsafe { self.ring.try_pop() };
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A value that counts its own drops.
    struct Counted(u32, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Single-threaded model check against a bounded `VecDeque`:
        /// random pushes and pops across many wraps agree on every
        /// result, on `len`, and on each value being dropped exactly
        /// once — including the ones still queued when the ring drops.
        #[test]
        fn ring_behaves_like_a_bounded_vecdeque(
            requested in prop::sample::select(vec![0usize, 2, 3, 8]),
            pushes in prop::collection::vec(any::<bool>(), 1..300),
        ) {
            let drops = Arc::new(AtomicUsize::new(0));
            let ring = SpscRing::<Counted>::new(requested);
            let cap = ring.capacity();
            prop_assert_eq!(cap, requested.max(2).next_power_of_two());
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut expect_drops = 0usize;
            for (i, push) in pushes.into_iter().enumerate() {
                // SAFETY: one thread plays both roles.
                if push {
                    match unsafe { ring.try_push(Counted(i as u32, Arc::clone(&drops))) } {
                        Ok(()) => {
                            prop_assert!(model.len() < cap);
                            model.push_back(i as u32);
                        }
                        Err(back) => {
                            prop_assert_eq!(model.len(), cap);
                            drop(back);
                            expect_drops += 1;
                        }
                    }
                } else {
                    let got = unsafe { ring.try_pop() };
                    prop_assert_eq!(got.as_ref().map(|c| c.0), model.pop_front());
                    expect_drops += got.is_some() as usize;
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert_eq!(ring.is_empty(), model.is_empty());
                prop_assert_eq!(drops.load(Ordering::Relaxed), expect_drops);
            }
            drop(ring);
            prop_assert_eq!(drops.load(Ordering::Relaxed), expect_drops + model.len());
        }
    }

    #[test]
    fn order_preserved_across_threads() {
        // Capacity 2 keeps both cached copies permanently stale.
        for cap in [2, 32] {
            let (tx, rx) = spsc::<u64>(cap);
            let h = std::thread::spawn(move || {
                for i in 0..50_000 {
                    tx.send(i);
                }
            });
            for i in 0..50_000 {
                assert_eq!(rx.recv(), Some(i));
            }
            h.join().unwrap();
            assert!(rx.recv().is_none());
        }
    }

    #[test]
    fn close_with_values_in_flight() {
        let (tx, rx) = spsc::<u32>(8);
        tx.send(1);
        tx.send(2);
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert!(rx.recv().is_none());
    }

    #[test]
    fn drop_with_unconsumed_values_does_not_leak() {
        let marker = Arc::new(());
        let (tx, rx) = spsc::<Arc<()>>(8);
        for _ in 0..5 {
            tx.send(Arc::clone(&marker));
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&marker), 1);
    }
}
