//! Global injection queue.
//!
//! Overflow from the per-worker deques and submissions from non-worker
//! threads (e.g. the thread calling [`crate::Runtime::scope`]) land here.
//! A mutex-protected deque is sufficient: the injector is off the fast path
//! and contention is bounded by spawn rate, not element rate.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// FIFO overflow queue shared by all workers.
pub struct Injector {
    queue: Mutex<VecDeque<u64>>,
}

impl Injector {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a task id.
    pub fn push(&self, id: u64) {
        self.queue.lock().push_back(id);
    }

    /// Removes the oldest task id, if any.
    pub fn pop(&self) -> Option<u64> {
        self.queue.lock().pop_front()
    }
}

impl Default for Injector {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let inj = Injector::new();
        assert_eq!(inj.pop(), None);
        inj.push(1);
        inj.push(2);
        inj.push(3);
        assert_eq!(inj.pop(), Some(1));
        assert_eq!(inj.pop(), Some(2));
        assert_eq!(inj.pop(), Some(3));
        assert_eq!(inj.pop(), None);
    }
}
