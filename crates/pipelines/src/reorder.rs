//! Reorder queues: restoring sequence order after a parallel stage.
//!
//! A serial *in-order* stage of a pthreads-style baseline (ferret's output
//! stage) must observe items in their original sequence even though the
//! preceding parallel stage completes them out of order: its workers
//! insert `(seq, value)` pairs into a [`ReorderQueue`] and the drainer
//! receives them in sequence order. Hyperqueues get this for free from the
//! view algebra — which is precisely the paper's point, and why the graph
//! layer's [`farm_map`](crate::graph::Node::farm_map) carries no sequence
//! numbers.

use std::collections::BTreeMap;

use parking_lot::{Condvar, Mutex};

/// Non-blocking reorder buffer: feed `(seq, value)` pairs in any order,
/// take values out in exact sequence order.
struct ReorderBuffer<T> {
    pending: BTreeMap<u64, T>,
    next: u64,
}

impl<T> ReorderBuffer<T> {
    /// Creates a buffer expecting sequence numbers starting at 0.
    fn new() -> Self {
        Self {
            pending: BTreeMap::new(),
            next: 0,
        }
    }

    /// Inserts an out-of-order item.
    fn insert(&mut self, seq: u64, value: T) {
        debug_assert!(seq >= self.next, "sequence number {seq} already drained");
        let old = self.pending.insert(seq, value);
        debug_assert!(old.is_none(), "duplicate sequence number {seq}");
    }

    /// Pops the next in-order item, if it has arrived.
    fn pop_next(&mut self) -> Option<T> {
        let v = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(v)
    }

    /// Sequence number the buffer is waiting for.
    fn next_seq(&self) -> u64 {
        self.next
    }
}

/// Blocking multi-producer reorder queue: parallel workers `insert` tagged
/// items; a single drainer calls `recv` and gets them in sequence order.
/// Closes when `close()` has been called and everything drained.
pub struct ReorderQueue<T> {
    state: Mutex<RqState<T>>,
    ready: Condvar,
}

struct RqState<T> {
    buf: ReorderBuffer<T>,
    closed: bool,
    /// Total number of items that will ever be inserted, if known.
    expected: Option<u64>,
}

impl<T> ReorderQueue<T> {
    /// Creates an open reorder queue.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(RqState {
                buf: ReorderBuffer::new(),
                closed: false,
                expected: None,
            }),
            ready: Condvar::new(),
        }
    }

    /// Inserts item `seq`.
    pub fn insert(&self, seq: u64, value: T) {
        let mut st = self.state.lock();
        st.buf.insert(seq, value);
        drop(st);
        self.ready.notify_all();
    }

    /// Declares that sequence numbers `0..total` will be inserted and no
    /// more; `recv` returns `None` after draining them.
    pub fn close_at(&self, total: u64) {
        let mut st = self.state.lock();
        st.expected = Some(total);
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    /// Blocks for the next in-sequence item; `None` when closed and fully
    /// drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(v) = st.buf.pop_next() {
                return Some(v);
            }
            if st.closed {
                match st.expected {
                    Some(total) if st.buf.next_seq() >= total => return None,
                    None => return None,
                    _ => {}
                }
            }
            self.ready.wait(&mut st);
        }
    }
}

impl<T> Default for ReorderQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn buffer_restores_order() {
        let mut b = ReorderBuffer::new();
        b.insert(2, "c");
        b.insert(0, "a");
        assert_eq!(b.pop_next(), Some("a"));
        assert_eq!(b.pop_next(), None); // 1 missing
        b.insert(1, "b");
        assert_eq!(b.pop_next(), Some("b"));
        assert_eq!(b.pop_next(), Some("c"));
        assert_eq!(b.pop_next(), None);
        assert_eq!(b.next_seq(), 3);
    }

    #[test]
    fn queue_orders_across_threads() {
        let q = Arc::new(ReorderQueue::<u64>::new());
        let n = 1000u64;
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut seq = worker;
                while seq < n {
                    q.insert(seq, seq * 10);
                    seq += 4;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close_at(n);
        for i in 0..n {
            assert_eq!(q.recv(), Some(i * 10));
        }
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn recv_blocks_until_gap_fills() {
        let q = Arc::new(ReorderQueue::<u32>::new());
        let q2 = Arc::clone(&q);
        q.insert(1, 11);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            q2.insert(0, 10);
            q2.close_at(2);
        });
        assert_eq!(q.recv(), Some(10));
        assert_eq!(q.recv(), Some(11));
        assert_eq!(q.recv(), None);
        h.join().unwrap();
    }
}
