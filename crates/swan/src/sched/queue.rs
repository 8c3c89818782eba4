//! The task queue: one type for every worker and for the injector.
//!
//! A queue holds the ready tasks themselves (their [`Frame`]s), so taking
//! a task out of a queue is claiming it: each ready task sits in exactly
//! one queue until one thread removes it. The owner pushes and pops at the
//! back (LIFO: the freshest spawn runs next, its working set still hot);
//! thieves and the injector's consumers take from the front (FIFO: the
//! oldest task, under help-first spawning the one closest to the root).
//! The queue is unbounded, and no caller ever holds two queue locks at
//! once: a steal moves its batch through a local buffer.
//!
//! Every removal first reads an atomic copy of the length and skips an
//! empty queue without locking it, so idle workers, steal probes and the
//! help scans of blocked workers do not bounce the lock of a queue its
//! owner is using. A stale zero only makes one poll miss a task: whoever
//! enqueues notifies the sleeper afterwards, and every poller polls again.
//! A worker's queue is appended to only by its owner, which therefore
//! never reads a stale zero for its own queue.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::frame::{help_eligible_frames, Frame, FrameId, HelpMode};

/// A locked deque of ready tasks (see module docs).
#[derive(Default)]
pub struct TaskQueue {
    tasks: Mutex<VecDeque<Arc<Frame>>>,
    /// `tasks.len()`, stored under the lock after every change.
    len: AtomicUsize,
}

impl TaskQueue {
    /// Runs `f` on the locked tasks and publishes the new length.
    fn update<R>(&self, f: impl FnOnce(&mut VecDeque<Arc<Frame>>) -> R) -> R {
        let mut tasks = self.tasks.lock();
        let result = f(&mut tasks);
        self.len.store(tasks.len(), Ordering::Release);
        result
    }

    /// Whether the queue looked empty (see module docs).
    fn looks_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Appends a task at the back.
    pub fn push(&self, task: Arc<Frame>) {
        self.update(|tasks| tasks.push_back(task));
    }

    /// Appends tasks at the back, in order, under one lock.
    pub fn extend(&self, tasks: impl IntoIterator<Item = Arc<Frame>>) {
        self.update(|queued| queued.extend(tasks));
    }

    /// Owner side: removes the newest task.
    pub fn pop(&self) -> Option<Arc<Frame>> {
        if self.looks_empty() {
            return None;
        }
        self.update(VecDeque::pop_back)
    }

    /// Injector side: removes the oldest task.
    pub fn pop_front(&self) -> Option<Arc<Frame>> {
        if self.looks_empty() {
            return None;
        }
        self.update(VecDeque::pop_front)
    }

    /// Steal-half: moves the oldest `min(batch.len(), ceil(len/2))` tasks
    /// into `batch`, oldest first, and returns how many it moved.
    pub fn steal_half(&self, batch: &mut [Option<Arc<Frame>>]) -> usize {
        if self.looks_empty() {
            return 0;
        }
        self.update(|tasks| {
            let n = batch.len().min(tasks.len().div_ceil(2));
            for (slot, task) in batch.iter_mut().zip(tasks.drain(..n)) {
                *slot = Some(task);
            }
            n
        })
    }

    /// The oldest task (nearest the front) that a frame blocked at
    /// `blocked` may run under `mode` (DESIGN.md §3.1's filters). Stopping
    /// at the first keeps a sync over many queued children O(1) per probe.
    pub fn first_eligible(&self, mode: HelpMode, blocked: &Frame) -> Option<FrameId> {
        if self.looks_empty() {
            return None;
        }
        self.tasks
            .lock()
            .iter()
            .find(|task| help_eligible_frames(mode, blocked, task))
            .map(|task| task.id)
    }

    /// Removes the task `id`, unless another thread took it first.
    pub fn take(&self, id: FrameId) -> Option<Arc<Frame>> {
        self.update(|tasks| {
            let at = tasks.iter().position(|task| task.id == id)?;
            tasks.remove(at)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(tasks: impl IntoIterator<Item = Option<Arc<Frame>>>) -> Vec<u64> {
        tasks.into_iter().flatten().map(|t| t.id.0).collect()
    }

    #[test]
    fn owner_is_lifo_and_injector_is_fifo() {
        let root = Frame::new_root(FrameId(0));
        let q = TaskQueue::default();
        q.extend((1..=3).map(|i| Frame::new_child(&root, FrameId(i))));
        assert_eq!(ids([q.pop(), q.pop_front(), q.pop(), q.pop()]), [3, 1, 2]);
    }

    #[test]
    fn steal_takes_the_oldest_half_up_to_the_batch() {
        let root = Frame::new_root(FrameId(0));
        let q = TaskQueue::default();
        q.extend((1..=5).map(|i| Frame::new_child(&root, FrameId(i))));
        let mut batch: [Option<Arc<Frame>>; 4] = Default::default();
        assert_eq!(q.steal_half(&mut batch), 3, "ceil(5/2)");
        assert_eq!(ids(batch.clone()), [1, 2, 3]);
        let mut small: [Option<Arc<Frame>>; 1] = Default::default();
        assert_eq!(q.steal_half(&mut small), 1, "capped by the batch");
        assert_eq!(ids(small), [4]);
        assert_eq!(ids([q.pop(), q.pop()]), [5]);
        assert_eq!(q.steal_half(&mut batch), 0);
    }

    #[test]
    fn help_scan_respects_program_order() {
        let root = Frame::new_root(FrameId(0));
        let a = Frame::new_child(&root, FrameId(1)); // path [0]
        let b = Frame::new_child(&root, FrameId(2)); // path [1]
        let c = Frame::new_child(&root, FrameId(3)); // path [2]
        let q = TaskQueue::default();
        q.extend([a, Arc::clone(&b), c]);
        // Frame b (path [1]) helping in Preceding mode must get task 1
        // (path [0]), never task 3 (path [2]).
        assert_eq!(q.first_eligible(HelpMode::Preceding, &b), Some(FrameId(1)));
        assert!(q.take(FrameId(1)).is_some());
        assert!(q.take(FrameId(1)).is_none(), "taken once");
        // Next eligible: nothing (task 2 *is* the blocked frame, task 3 is
        // later in program order).
        assert_eq!(q.first_eligible(HelpMode::Preceding, &b), None);
        // But Descendants mode for the root (path []) takes anything.
        assert_eq!(
            q.first_eligible(HelpMode::Descendants, &root),
            Some(FrameId(2))
        );
    }

    #[test]
    fn help_scan_never_crosses_trees() {
        let tree1 = Frame::new_root(FrameId(0));
        let tree2 = Frame::new_root(FrameId(10));
        let q = TaskQueue::default();
        q.push(Frame::new_child(&tree2, FrameId(11)));
        // A frame of tree1 may not claim tree2's task even in Preceding
        // mode...
        assert_eq!(q.first_eligible(HelpMode::Preceding, &tree1), None);
        // ...but tree2's own root can.
        assert_eq!(
            q.first_eligible(HelpMode::Descendants, &tree2),
            Some(FrameId(11))
        );
    }
}
