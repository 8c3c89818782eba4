//! Spawn-tree frames and program order.
//!
//! Every task instance (and every scope root) owns a [`Frame`] node in the
//! spawn tree. Frames carry a *path*: the sequence of sibling indices from
//! the root. Paths encode the serial elision's program order, which drives
//! two things:
//!
//! 1. the **help filters** that keep blocked workers deadlock-free (a worker
//!    blocked in `sync` may only execute descendants of the syncing frame; a
//!    worker blocked in a hyperqueue operation may only execute tasks that
//!    *precede* the blocked frame in program order — see DESIGN.md §2), and
//! 2. the hyperqueue's view algebra, which merges per-task views "with the
//!    immediate logically preceding task" (paper §4.1).
//!
//! Program order over frames: for sibling frames the order is the spawn
//! order (sibling index); a parent's continuation follows all of its
//! children (Cilk's serial elision runs a child to completion at its spawn
//! point). Hence, comparing paths lexicographically — with the convention
//! that a *descendant* precedes its ancestor's continuation — yields the
//! serial order of the *remaining work* of two frames.
//!
//! A frame is also its task: it owns the body until a worker runs it, the
//! count of predecessors still pending, and the successors waiting on it.
//! The runtime's queues hold frames, so whoever pops a frame owns its
//! task; nothing else arbitrates.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::runtime::RtInner;

/// Type-erased task body. The worker that runs it passes the runtime and
/// the task's own frame, from which the body builds its `Scope`; the
/// `'static` here is a lie upheld by the scope barrier (see `scope.rs`
/// for the safety argument).
pub(crate) type TaskBody = Box<dyn FnOnce(&Arc<RtInner>, &Arc<Frame>) + Send + 'static>;

/// Completion callback registered by dependency objects at spawn time
/// (e.g. hyperqueue view reduction, producer-section release).
pub(crate) type ReleaseFn = Box<dyn FnOnce() + Send + 'static>;

/// Completion hook of a detached root (`Runtime::spawn_root`): receives
/// the subtree's panic payload, if any.
pub(crate) type RootHook = Box<dyn FnOnce(Option<Box<dyn Any + Send>>) + Send + 'static>;

/// Identifies a frame (== the task instance that runs in it).
/// Ids are allocated from a global monotonic counter and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u64);

/// Label for selective sync counters: (object id, access-mode tag).
pub type LabelKey = (u64, u8);

/// A node of the spawn tree.
pub struct Frame {
    /// Unique id of this frame / task instance.
    pub id: FrameId,
    /// Id of the root frame of this spawn tree. Paths are only comparable
    /// within one tree; distinct scopes (even nested ones) form distinct
    /// trees and never help across each other.
    pub root: FrameId,
    /// Parent frame; `None` for a scope root.
    pub parent: Option<Arc<Frame>>,
    /// Sibling indices from the root; the root's path is empty.
    pub path: Box<[u32]>,
    /// Number of direct children that have not completed yet.
    children_active: AtomicUsize,
    /// Next sibling index to hand out to a spawned child.
    next_child_seq: AtomicU32,
    /// First panic payload observed in this frame's subtree.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Outstanding children counted per (object, mode) label; backs the
    /// paper's selective sync (`sync (popdep<int>)queue;`, §5.5).
    labeled: Mutex<HashMap<LabelKey, usize>>,
    /// Predecessors that have not completed, plus one guard the spawner
    /// holds until the task is fully registered ([`Frame::install`]).
    /// Whoever drops it to zero enqueues the task.
    pending: AtomicUsize,
    task: Mutex<TaskState>,
}

/// The task a frame runs, and the tasks that wait for it.
#[derive(Default)]
struct TaskState {
    body: Option<TaskBody>,
    releases: Vec<ReleaseFn>,
    /// `Some` only for a detached root.
    on_done: Option<RootHook>,
    succs: Vec<Arc<Frame>>,
    /// Set once the task has completed: later dependents add no edge.
    done: bool,
}

impl Frame {
    fn new(id: FrameId, root: FrameId, parent: Option<Arc<Frame>>, path: Box<[u32]>) -> Arc<Frame> {
        Arc::new(Frame {
            id,
            root,
            parent,
            path,
            children_active: AtomicUsize::new(0),
            next_child_seq: AtomicU32::new(0),
            panic: Mutex::new(None),
            labeled: Mutex::new(HashMap::new()),
            pending: AtomicUsize::new(1),
            task: Mutex::new(TaskState::default()),
        })
    }

    /// Creates a root frame (used by `Runtime::scope`).
    pub fn new_root(id: FrameId) -> Arc<Frame> {
        Frame::new(id, id, None, Box::new([]))
    }

    /// Creates a child frame of `parent`, assigning the next sibling index.
    /// Also increments the parent's active-children count.
    pub fn new_child(parent: &Arc<Frame>, id: FrameId) -> Arc<Frame> {
        let seq = parent.next_child_seq.fetch_add(1, Ordering::Relaxed);
        parent.children_active.fetch_add(1, Ordering::Relaxed);
        let mut path = Vec::with_capacity(parent.path.len() + 1);
        path.extend_from_slice(&parent.path);
        path.push(seq);
        Frame::new(
            id,
            parent.root,
            Some(Arc::clone(parent)),
            path.into_boxed_slice(),
        )
    }

    /// Makes this task wait for `pred`. A predecessor that has completed
    /// (or no longer exists) adds no edge, and neither does the task
    /// itself. Naming one predecessor twice counts twice and releases
    /// twice.
    pub(crate) fn wait_for(self: &Arc<Self>, pred: &Weak<Frame>) {
        let Some(pred) = pred.upgrade() else { return };
        if Arc::ptr_eq(&pred, self) {
            return;
        }
        // Under the predecessor's lock, so its completion either sees this
        // edge or has already marked itself done. The increment can be
        // Relaxed: the predecessor only decrements after taking the lock
        // this section releases, and the guard keeps the count above zero
        // until `install`.
        let mut state = pred.task.lock();
        if !state.done {
            self.pending.fetch_add(1, Ordering::Relaxed);
            state.succs.push(Arc::clone(self));
        }
    }

    /// Hands the frame its task and drops the spawner's guard. Returns
    /// true if no predecessor is pending: the caller enqueues the task.
    pub(crate) fn install(
        &self,
        body: TaskBody,
        releases: Vec<ReleaseFn>,
        on_done: Option<RootHook>,
    ) -> bool {
        {
            let mut state = self.task.lock();
            state.body = Some(body);
            state.releases = releases;
            state.on_done = on_done;
        }
        self.release_one()
    }

    /// Drops one pending count; true if it was the last.
    fn release_one(&self) -> bool {
        // AcqRel: the releaser that reaches zero sees the installed body
        // and every predecessor's effects, and hands them on via enqueue.
        self.pending.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Takes the task's body, release callbacks and root hook; the worker
    /// that popped the frame calls this exactly once.
    pub(crate) fn take_task(&self) -> (TaskBody, Vec<ReleaseFn>, Option<RootHook>) {
        let mut state = self.task.lock();
        let body = state.body.take().expect("a queued task has a body");
        (
            body,
            std::mem::take(&mut state.releases),
            state.on_done.take(),
        )
    }

    /// Marks the task completed and hands each successor whose last
    /// pending predecessor this was to `ready`.
    pub(crate) fn complete(&self, mut ready: impl FnMut(Arc<Frame>)) {
        let succs = {
            let mut state = self.task.lock();
            state.done = true;
            std::mem::take(&mut state.succs)
        };
        for succ in succs {
            if succ.release_one() {
                ready(succ);
            }
        }
    }

    /// True once the task has completed.
    pub(crate) fn is_done(&self) -> bool {
        self.task.lock().done
    }

    /// Number of direct children still running (or not yet started).
    #[inline]
    pub fn children_active(&self) -> usize {
        // Acquire pairs with the Release decrement in `child_completed` so
        // that a syncing frame observing zero also observes all side effects
        // of its children.
        self.children_active.load(Ordering::Acquire)
    }

    /// Marks one direct child of `self` as completed; true if it was the
    /// last one active.
    pub fn child_completed(&self) -> bool {
        let prev = self.children_active.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "children_active underflow");
        prev == 1
    }

    /// Records a panic payload (first one wins) for propagation at sync.
    pub fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Takes the stored panic payload, if any.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().take()
    }

    /// True if a panic is pending in this frame.
    pub fn has_panic(&self) -> bool {
        self.panic.lock().is_some()
    }

    /// Increments the labeled-children counter for `key`.
    pub fn label_incr(&self, key: LabelKey) {
        *self.labeled.lock().entry(key).or_insert(0) += 1;
    }

    /// Decrements the labeled-children counter for `key`.
    pub fn label_decr(&self, key: LabelKey) {
        let mut map = self.labeled.lock();
        match map.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    map.remove(&key);
                }
            }
            _ => debug_assert!(false, "label_decr without matching incr"),
        }
    }

    /// Number of outstanding children carrying label `key`.
    pub fn label_count(&self, key: LabelKey) -> usize {
        self.labeled.lock().get(&key).copied().unwrap_or(0)
    }

    /// True if `self` is a strict ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &Frame) -> bool {
        other.path.len() > self.path.len() && other.path[..self.path.len()] == *self.path
    }
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("id", &self.id)
            .field("path", &self.path)
            .field("children_active", &self.children_active())
            .finish()
    }
}

/// Relation of two frames in the serial elision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramOrder {
    /// `a`'s entire subtree runs before `b`'s in the serial elision.
    Before,
    /// `a`'s entire subtree runs after `b`'s.
    After,
    /// `a` is a strict ancestor of `b` (so `b` runs inside `a`).
    AncestorOfB,
    /// `a` is a strict descendant of `b`.
    DescendantOfB,
    /// The same frame.
    Equal,
}

/// Compares two frame paths in program order. See module docs.
pub fn program_order(a: &[u32], b: &[u32]) -> ProgramOrder {
    let n = a.len().min(b.len());
    for i in 0..n {
        if a[i] < b[i] {
            return ProgramOrder::Before;
        }
        if a[i] > b[i] {
            return ProgramOrder::After;
        }
    }
    match a.len().cmp(&b.len()) {
        std::cmp::Ordering::Equal => ProgramOrder::Equal,
        std::cmp::Ordering::Less => ProgramOrder::AncestorOfB,
        std::cmp::Ordering::Greater => ProgramOrder::DescendantOfB,
    }
}

/// Which tasks a blocked frame is allowed to execute while waiting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelpMode {
    /// Blocked at `sync`: only descendants of the blocked frame. This is the
    /// productive set (sync waits on children) and keeps each native stack
    /// ordered earlier-above-later.
    Descendants,
    /// Blocked in a hyperqueue `empty()`/`pop()`: descendants (tasks the
    /// blocked frame itself spawned so far — they precede its continuation)
    /// plus any task whose subtree strictly precedes the blocked frame.
    /// These are exactly the tasks that may still produce values visible to
    /// the blocked consumer.
    Preceding,
}

/// Decides whether a blocked frame with path `blocked` may execute a pending
/// task with path `candidate` under `mode`. Both paths must belong to the
/// same spawn tree; see [`help_eligible_frames`] for the tree-aware check.
pub fn help_eligible(mode: HelpMode, blocked: &[u32], candidate: &[u32]) -> bool {
    match program_order(candidate, blocked) {
        ProgramOrder::Equal => false,
        ProgramOrder::DescendantOfB => true, // candidate inside blocked frame
        ProgramOrder::Before => mode == HelpMode::Preceding,
        ProgramOrder::After | ProgramOrder::AncestorOfB => false,
    }
}

/// Tree-aware help eligibility: frames from different scopes (spawn trees)
/// never help each other — their paths are not comparable, and cross-tree
/// claims could stack later work above earlier work.
pub fn help_eligible_frames(mode: HelpMode, blocked: &Frame, candidate: &Frame) -> bool {
    blocked.root == candidate.root && help_eligible(mode, &blocked.path, &candidate.path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Arc<Frame> {
        Frame::new_root(FrameId(0))
    }

    #[test]
    fn child_paths_extend_parent() {
        let r = root();
        let a = Frame::new_child(&r, FrameId(1));
        let b = Frame::new_child(&r, FrameId(2));
        let aa = Frame::new_child(&a, FrameId(3));
        assert_eq!(&*a.path, &[0]);
        assert_eq!(&*b.path, &[1]);
        assert_eq!(&*aa.path, &[0, 0]);
        assert_eq!(r.children_active(), 2);
        assert_eq!(a.children_active(), 1);
    }

    #[test]
    fn child_completed_decrements() {
        let r = root();
        let _a = Frame::new_child(&r, FrameId(1));
        assert_eq!(r.children_active(), 1);
        r.child_completed();
        assert_eq!(r.children_active(), 0);
    }

    #[test]
    fn program_order_siblings() {
        assert_eq!(program_order(&[0], &[1]), ProgramOrder::Before);
        assert_eq!(program_order(&[2], &[1]), ProgramOrder::After);
        assert_eq!(program_order(&[1], &[1]), ProgramOrder::Equal);
    }

    #[test]
    fn program_order_nested() {
        // Child [0,3] precedes sibling [1] entirely.
        assert_eq!(program_order(&[0, 3], &[1]), ProgramOrder::Before);
        // [1] is an ancestor of [1,5].
        assert_eq!(program_order(&[1], &[1, 5]), ProgramOrder::AncestorOfB);
        assert_eq!(program_order(&[1, 5], &[1]), ProgramOrder::DescendantOfB);
    }

    #[test]
    fn is_ancestor_of_works() {
        let r = root();
        let a = Frame::new_child(&r, FrameId(1));
        let aa = Frame::new_child(&a, FrameId(2));
        assert!(r.is_ancestor_of(&a));
        assert!(r.is_ancestor_of(&aa));
        assert!(a.is_ancestor_of(&aa));
        assert!(!a.is_ancestor_of(&r));
        assert!(!aa.is_ancestor_of(&a));
    }

    #[test]
    fn sync_help_only_descendants() {
        // Blocked frame [1]; candidate descendant [1,0] is eligible, the
        // preceding sibling [0] is not (sync mode), the later sibling [2] is
        // never eligible.
        assert!(help_eligible(HelpMode::Descendants, &[1], &[1, 0]));
        assert!(!help_eligible(HelpMode::Descendants, &[1], &[0]));
        assert!(!help_eligible(HelpMode::Descendants, &[1], &[2]));
        assert!(!help_eligible(HelpMode::Descendants, &[1], &[1]));
    }

    #[test]
    fn queue_help_takes_preceding_too() {
        assert!(help_eligible(HelpMode::Preceding, &[1], &[0]));
        assert!(help_eligible(HelpMode::Preceding, &[1], &[0, 7]));
        assert!(help_eligible(HelpMode::Preceding, &[1], &[1, 3]));
        assert!(!help_eligible(HelpMode::Preceding, &[1], &[2]));
        // An ancestor is never pending in the ready pool, but must also
        // never be claimed by a descendant.
        assert!(!help_eligible(HelpMode::Preceding, &[1, 2], &[1]));
    }

    #[test]
    fn panic_first_wins() {
        let r = root();
        r.record_panic(Box::new("first"));
        r.record_panic(Box::new("second"));
        let p = r.take_panic().unwrap();
        assert_eq!(*p.downcast::<&str>().unwrap(), "first");
        assert!(r.take_panic().is_none());
    }

    fn noop() -> TaskBody {
        Box::new(|_, _| {})
    }

    /// Completes `f`; returns the ids of the successors it made ready.
    fn complete(f: &Frame) -> Vec<FrameId> {
        let mut ready = Vec::new();
        f.complete(|s| ready.push(s.id));
        ready
    }

    #[test]
    fn insert_without_preds_is_ready() {
        let r = root();
        let a = Frame::new_child(&r, FrameId(1));
        assert!(a.install(noop(), vec![], None));
        drop(a.take_task());
        assert!(complete(&a).is_empty());
        assert!(a.is_done());
        // A completed task adds no edge, even while its frame lives on.
        let b = Frame::new_child(&r, FrameId(2));
        b.wait_for(&Arc::downgrade(&a));
        assert!(b.install(noop(), vec![], None));
    }

    #[test]
    fn dependent_task_waits_for_predecessor() {
        let r = root();
        let a = Frame::new_child(&r, FrameId(1));
        let b = Frame::new_child(&r, FrameId(2));
        assert!(a.install(noop(), vec![], None));
        b.wait_for(&Arc::downgrade(&a));
        assert!(!b.install(noop(), vec![], None), "not ready yet");
        assert_eq!(complete(&a), vec![FrameId(2)]);
    }

    #[test]
    fn completed_predecessor_contributes_no_edge() {
        let r = root();
        // A predecessor whose frame is gone has completed.
        let gone = Arc::downgrade(&Frame::new_child(&r, FrameId(1)));
        let b = Frame::new_child(&r, FrameId(2));
        b.wait_for(&gone);
        // Self-edges are meaningless (a task reading and updating one
        // object names itself).
        b.wait_for(&Arc::downgrade(&b));
        assert!(b.install(noop(), vec![], None));
    }

    #[test]
    fn duplicate_preds_count_twice_and_release_twice() {
        let r = root();
        let a = Frame::new_child(&r, FrameId(1));
        let b = Frame::new_child(&r, FrameId(2));
        b.wait_for(&Arc::downgrade(&a));
        b.wait_for(&Arc::downgrade(&a));
        assert!(!b.install(noop(), vec![], None));
        assert_eq!(complete(&a), vec![FrameId(2)]);
    }

    #[test]
    fn labeled_counters() {
        let r = root();
        let key = (42u64, 1u8);
        assert_eq!(r.label_count(key), 0);
        r.label_incr(key);
        r.label_incr(key);
        assert_eq!(r.label_count(key), 2);
        r.label_decr(key);
        assert_eq!(r.label_count(key), 1);
        r.label_decr(key);
        assert_eq!(r.label_count(key), 0);
    }
}
