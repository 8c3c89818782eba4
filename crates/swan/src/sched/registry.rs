//! The task registry: the single arbiter of task state.
//!
//! Every spawned task lives here from spawn until completion. Per-worker
//! deques and the injector hold only task *ids* (hints); ownership of a
//! task's body is transferred exactly once through [`Registry::claim`] or
//! [`Registry::claim_filtered`], so duplicated or stale ids in the deques are
//! harmless.
//!
//! The registry also stores the dataflow dependence graph: a task's
//! `pending` counter is the number of incomplete predecessors; completed
//! tasks notify successors via [`Registry::complete`]. Presence in the map
//! is the "incomplete" predicate — ids are never reused, so a predecessor
//! missing from the map has already completed and contributes no edge.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::frame::{help_eligible_frames, Frame, FrameId, HelpMode};

/// Type-erased task body. The worker wraps the frame in a fresh `Scope`
/// before invocation; the `'static` here is a lie upheld by the scope
/// barrier (see `scope.rs` for the safety argument).
pub type TaskBody = Box<dyn FnOnce() + Send + 'static>;

/// Completion callback registered by dependency objects at spawn time
/// (e.g. hyperqueue view reduction, producer-section release).
pub type ReleaseFn = Box<dyn FnOnce() + Send + 'static>;

/// Completion hook of a detached root (`Runtime::spawn_root`): receives
/// the subtree's panic payload, if any.
pub type RootHook = Box<dyn FnOnce(Option<Box<dyn Any + Send>>) + Send + 'static>;

struct TaskEntry {
    frame: Arc<Frame>,
    body: Option<TaskBody>,
    releases: Vec<ReleaseFn>,
    /// `Some` only for a detached root.
    on_done: Option<RootHook>,
    pending: usize,
    succs: Vec<FrameId>,
}

/// A claimed task, ready to execute.
pub struct RunnableTask {
    pub id: FrameId,
    pub frame: Arc<Frame>,
    pub body: TaskBody,
    pub releases: Vec<ReleaseFn>,
    pub on_done: Option<RootHook>,
}

struct Inner {
    tasks: HashMap<u64, TaskEntry>,
    /// Ids of unclaimed, dependence-free tasks, ordered by spawn id. Used by
    /// the filtered-help scan; ascending id approximates program order well
    /// enough to prioritize older work.
    ready: BTreeSet<u64>,
}

/// See module docs.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                tasks: HashMap::new(),
                ready: BTreeSet::new(),
            }),
        }
    }

    /// Registers a spawned task with its predecessor set. Returns `true`
    /// if the task is immediately ready (no incomplete predecessors).
    ///
    /// Linking is atomic under the registry lock: a predecessor listed in
    /// `preds` either is still present (we join its successor list) or has
    /// already completed (no edge needed). This closes the race between a
    /// dependency object naming a predecessor and that predecessor
    /// completing concurrently.
    pub fn insert(
        &self,
        id: FrameId,
        frame: Arc<Frame>,
        body: TaskBody,
        releases: Vec<ReleaseFn>,
        preds: &[FrameId],
    ) -> bool {
        self.insert_entry(id, frame, body, releases, preds, None)
    }

    /// Registers a detached root: a task with no predecessors (always
    /// ready) whose `on_done` hook travels with it to the worker that
    /// executes it.
    pub fn insert_root(&self, id: FrameId, frame: Arc<Frame>, body: TaskBody, on_done: RootHook) {
        self.insert_entry(id, frame, body, Vec::new(), &[], Some(on_done));
    }

    fn insert_entry(
        &self,
        id: FrameId,
        frame: Arc<Frame>,
        body: TaskBody,
        releases: Vec<ReleaseFn>,
        preds: &[FrameId],
        on_done: Option<RootHook>,
    ) -> bool {
        let mut inner = self.inner.lock();
        let mut pending = 0;
        for p in preds {
            if p.0 == id.0 {
                continue; // self-edges are meaningless
            }
            if let Some(entry) = inner.tasks.get_mut(&p.0) {
                entry.succs.push(id);
                pending += 1;
            }
        }
        let ready = pending == 0;
        inner.tasks.insert(
            id.0,
            TaskEntry {
                frame,
                body: Some(body),
                releases,
                on_done,
                pending,
                succs: Vec::new(),
            },
        );
        if ready {
            inner.ready.insert(id.0);
        }
        ready
    }

    /// Attempts to claim task `id` for execution. Returns `None` if the id
    /// is stale (completed), already claimed, or not yet ready.
    pub fn claim(&self, id: u64) -> Option<RunnableTask> {
        let mut inner = self.inner.lock();
        let entry = inner.tasks.get_mut(&id)?;
        if entry.pending > 0 || entry.body.is_none() {
            return None;
        }
        let task = RunnableTask {
            id: FrameId(id),
            frame: Arc::clone(&entry.frame),
            body: entry.body.take().expect("checked above"),
            releases: std::mem::take(&mut entry.releases),
            on_done: entry.on_done.take(),
        };
        inner.ready.remove(&id);
        Some(task)
    }

    /// Claims the oldest ready task whose frame is help-eligible for a
    /// worker blocked at `blocked` under `mode`. Used by `sync` and by
    /// blocked hyperqueue operations.
    pub fn claim_filtered(&self, mode: HelpMode, blocked: &Frame) -> Option<RunnableTask> {
        let mut inner = self.inner.lock();
        let mut chosen = None;
        for &id in inner.ready.iter() {
            let entry = inner.tasks.get(&id).expect("ready id must be present");
            if help_eligible_frames(mode, blocked, &entry.frame) {
                chosen = Some(id);
                break;
            }
        }
        let id = chosen?;
        let entry = inner.tasks.get_mut(&id).expect("just found");
        let task = RunnableTask {
            id: FrameId(id),
            frame: Arc::clone(&entry.frame),
            body: entry.body.take().expect("ready tasks have bodies"),
            releases: std::mem::take(&mut entry.releases),
            on_done: entry.on_done.take(),
        };
        inner.ready.remove(&id);
        Some(task)
    }

    /// Removes a completed task and releases its successors. Returns the
    /// ids of tasks that became ready.
    pub fn complete(&self, id: FrameId) -> Vec<FrameId> {
        let mut inner = self.inner.lock();
        let entry = inner
            .tasks
            .remove(&id.0)
            .expect("complete() on unknown task");
        debug_assert!(entry.body.is_none(), "completing an unclaimed task");
        let mut now_ready = Vec::new();
        for s in entry.succs {
            if let Some(succ) = inner.tasks.get_mut(&s.0) {
                debug_assert!(succ.pending > 0);
                succ.pending -= 1;
                if succ.pending == 0 && succ.body.is_some() {
                    inner.ready.insert(s.0);
                    now_ready.push(s);
                }
            }
        }
        now_ready
    }

    /// True if task `id` has not completed yet (spawned and still present).
    #[allow(dead_code)]
    pub fn is_incomplete(&self, id: FrameId) -> bool {
        self.inner.lock().tasks.contains_key(&id.0)
    }

    /// Number of registered (incomplete) tasks.
    #[allow(dead_code)]
    pub fn len(&self) -> usize {
        self.inner.lock().tasks.len()
    }

    /// True when no tasks are registered.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ready, unclaimed tasks.
    #[allow(dead_code)]
    pub fn ready_len(&self) -> usize {
        self.inner.lock().ready.len()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with_path(id: u64, path: &[u32]) -> Arc<Frame> {
        // Build the chain root -> ... -> leaf to get the desired path.
        let mut f = Frame::new_root(FrameId(1000 + id));
        for &_seg in path {
            // new_child assigns sequential sibling indices; for tests we
            // only need *a* frame with the right path length/ordering, so
            // construct by repeated descent and rely on the sibling counter.
            f = Frame::new_child(&f, FrameId(id));
        }
        f
    }

    fn noop_body() -> TaskBody {
        Box::new(|| {})
    }

    #[test]
    fn insert_without_preds_is_ready() {
        let reg = Registry::new();
        let f = Frame::new_root(FrameId(1));
        assert!(reg.insert(FrameId(1), f, noop_body(), vec![], &[]));
        assert_eq!(reg.ready_len(), 1);
        let t = reg.claim(1).expect("claimable");
        assert_eq!(t.id, FrameId(1));
        assert!(reg.claim(1).is_none(), "double claim must fail");
        reg.complete(FrameId(1));
        assert!(reg.is_empty());
    }

    #[test]
    fn dependent_task_waits_for_predecessor() {
        let reg = Registry::new();
        let f1 = Frame::new_root(FrameId(1));
        let f2 = Frame::new_root(FrameId(2));
        assert!(reg.insert(FrameId(1), f1, noop_body(), vec![], &[]));
        assert!(!reg.insert(FrameId(2), f2, noop_body(), vec![], &[FrameId(1)]));
        assert!(reg.claim(2).is_none(), "not ready yet");
        let t1 = reg.claim(1).unwrap();
        drop(t1.body);
        let ready = reg.complete(FrameId(1));
        assert_eq!(ready, vec![FrameId(2)]);
        assert!(reg.claim(2).is_some());
    }

    #[test]
    fn completed_predecessor_contributes_no_edge() {
        let reg = Registry::new();
        let f2 = Frame::new_root(FrameId(2));
        // Predecessor 1 never existed / already completed.
        assert!(reg.insert(FrameId(2), f2, noop_body(), vec![], &[FrameId(1)]));
    }

    #[test]
    fn duplicate_preds_count_twice_and_release_twice() {
        let reg = Registry::new();
        let f1 = Frame::new_root(FrameId(1));
        let f2 = Frame::new_root(FrameId(2));
        reg.insert(FrameId(1), f1, noop_body(), vec![], &[]);
        assert!(!reg.insert(
            FrameId(2),
            f2,
            noop_body(),
            vec![],
            &[FrameId(1), FrameId(1)]
        ));
        reg.claim(1).unwrap();
        let ready = reg.complete(FrameId(1));
        assert_eq!(ready, vec![FrameId(2)]);
    }

    #[test]
    fn claim_filtered_respects_program_order() {
        let reg = Registry::new();
        let root = Frame::new_root(FrameId(0));
        let a = Frame::new_child(&root, FrameId(1)); // path [0]
        let b = Frame::new_child(&root, FrameId(2)); // path [1]
        let c = Frame::new_child(&root, FrameId(3)); // path [2]
        reg.insert(FrameId(1), Arc::clone(&a), noop_body(), vec![], &[]);
        reg.insert(FrameId(2), Arc::clone(&b), noop_body(), vec![], &[]);
        reg.insert(FrameId(3), Arc::clone(&c), noop_body(), vec![], &[]);

        // Frame b (path [1]) helping in Preceding mode must get task 1
        // (path [0]), never task 3 (path [2]).
        let t = reg.claim_filtered(HelpMode::Preceding, &b).unwrap();
        assert_eq!(t.id, FrameId(1));
        // Next eligible: nothing (task 2 *is* the blocked frame, task 3 is
        // later in program order).
        assert!(reg.claim_filtered(HelpMode::Preceding, &b).is_none());
        // But Descendants mode for the root (path []) takes anything.
        assert!(reg.claim_filtered(HelpMode::Descendants, &root).is_some());
    }

    #[test]
    fn claim_filtered_never_crosses_trees() {
        let reg = Registry::new();
        let tree1 = Frame::new_root(FrameId(0));
        let tree2 = Frame::new_root(FrameId(10));
        let t2_child = Frame::new_child(&tree2, FrameId(11));
        reg.insert(FrameId(11), t2_child, noop_body(), vec![], &[]);
        // A frame of tree1 may not claim tree2's task even in Preceding
        // mode...
        assert!(reg.claim_filtered(HelpMode::Preceding, &tree1).is_none());
        // ...but tree2's own root can.
        assert!(reg.claim_filtered(HelpMode::Descendants, &tree2).is_some());
    }

    #[test]
    fn frame_with_path_helper_builds_descendants() {
        let f = frame_with_path(5, &[0, 0]);
        assert_eq!(f.path.len(), 2);
    }
}
