//! Scopes: the spawn/sync surface of the runtime.
//!
//! A [`Scope`] corresponds to one procedure instance (frame) in the spawn
//! tree. `Runtime::scope` opens the root (`Runtime::spawn_root` a detached
//! one, as a task of its own); every spawned task body receives a
//! scope for its own frame, through which it can spawn children (with a
//! subset of its privileges — enforced by the dependency-object types) and
//! `sync` on them, mirroring the paper's Cilk-style `spawn`/`sync`.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::dataflow::engine::{AcquireCtx, DepList};
use crate::frame::{Frame, FrameId, HelpMode, LabelKey};
use crate::metrics::Metrics;
use crate::runtime::{RtInner, RuntimeHandle};
use crate::sched::TaskBody;

/// Handle to the current procedure instance; grants `spawn` and `sync`.
///
/// The `'scope` lifetime ties every spawned closure to the environment of
/// the enclosing `Runtime::scope` call, exactly like `std::thread::scope`:
/// tasks may borrow anything that outlives the scope because the scope does
/// not return until all transitively spawned tasks complete.
pub struct Scope<'scope> {
    rt: Arc<RtInner>,
    frame: Arc<Frame>,
    // Invariant over 'scope (same trick as rayon / std::thread::scope).
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    pub(crate) fn new(rt: Arc<RtInner>, frame: Arc<Frame>) -> Self {
        Self {
            rt,
            frame,
            _marker: PhantomData,
        }
    }

    /// Spawns a child task.
    ///
    /// `deps` is a tuple of dependency arguments (versioned-object access
    /// modes, hyperqueue access modes, or `()` for a pure fork); the task
    /// starts once all its predecessors have completed. `body` receives a
    /// scope for the child frame plus the guards produced by the
    /// dependencies.
    ///
    /// The child is **not** executed inline (help-first scheduling); the
    /// runtime guarantees it completes before the enclosing frame does
    /// (implicit sync, as in Cilk).
    pub fn spawn<D, F>(&self, deps: D, body: F)
    where
        D: DepList,
        D::Guards: 'scope,
        F: FnOnce(&Scope<'scope>, D::Guards) + Send + 'scope,
    {
        let id = self.rt.alloc_id();
        let frame = Frame::new_child(&self.frame, id);
        let mut ctx = AcquireCtx::new(&self.rt, id, &frame, &self.frame);
        let guards = deps.acquire_all(&mut ctx);
        let preds = std::mem::take(&mut ctx.preds);
        let releases = std::mem::take(&mut ctx.releases);

        let rt2 = Arc::clone(&self.rt);
        let frame2 = Arc::clone(&frame);
        let closure: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope: Scope<'scope> = Scope::new(rt2, frame2);
            body(&scope, guards);
        });
        // SAFETY: extending the closure's lifetime to 'static is sound
        // because (a) `Runtime::scope` does not return before every
        // transitively spawned task has completed (root `wait_children`
        // plus each task's implicit sync), so all 'scope borrows the
        // closure captures remain live while it can run, and (b) the
        // closure is never invoked after the registry drops it. Under a
        // detached root (`Runtime::spawn_root`) 'scope is already
        // 'static and nothing is extended.
        let task: TaskBody = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(
                closure,
            )
        };
        let ready = self.rt.registry.insert(id, frame, task, releases, &preds);
        if ready {
            self.rt.enqueue(id);
        } else {
            Metrics::incr(&self.rt.metrics.deferred_tasks);
        }
    }

    /// Spawns one task per element of `deps`, sharing a single body closure
    /// across the replicas — the spawn surface of fan-out pipeline stages
    /// (one replica per dependency bundle, e.g. one per shard queue). The
    /// body receives the replica index alongside the guards; replicas are
    /// spawned in `deps` order, so dependence edges derive from program
    /// order exactly as with individual [`Scope::spawn`] calls.
    pub fn spawn_replicas<D, F>(&self, deps: impl IntoIterator<Item = D>, body: F)
    where
        D: DepList,
        D::Guards: 'scope,
        F: Fn(&Scope<'scope>, usize, D::Guards) + Send + Sync + 'scope,
    {
        let body = Arc::new(body);
        for (idx, d) in deps.into_iter().enumerate() {
            let b = Arc::clone(&body);
            self.spawn(d, move |s, guards| b(s, idx, guards));
        }
    }

    /// Waits until all children spawned by this scope have completed,
    /// executing descendant tasks meanwhile. Panics from the subtree
    /// resurface here. This is the paper's `sync` statement.
    pub fn sync(&self) {
        self.rt.wait_children(&self.frame, true);
    }

    /// Cilk's `SYNCHED` pseudo-variable (§5.3): true if this frame
    /// currently has no outstanding children, i.e. a `sync` would not
    /// block. The paper warns that acting on this can violate determinism;
    /// it exists for memory-footprint control idioms.
    pub fn synched(&self) -> bool {
        self.frame.children_active() == 0
    }

    /// Selective sync (§5.5): waits until all outstanding children carrying
    /// `label` have completed. Hyperqueue handles expose a typed wrapper
    /// (`sync (popdep<T>)queue`).
    pub fn sync_label(&self, label: LabelKey) {
        let frame = Arc::clone(&self.frame);
        let f2 = Arc::clone(&self.frame);
        self.rt.block_until(&frame, HelpMode::Descendants, move || {
            f2.label_count(label) == 0
        });
        if let Some(payload) = self.frame.take_panic() {
            std::panic::resume_unwind(payload);
        }
    }

    /// The frame backing this scope.
    pub fn frame(&self) -> &Arc<Frame> {
        &self.frame
    }

    /// A clonable runtime handle (used by dependency objects created inside
    /// the scope, e.g. `Hyperqueue::new`).
    pub fn runtime(&self) -> RuntimeHandle {
        RuntimeHandle {
            inner: Arc::clone(&self.rt),
        }
    }

    /// Id of this scope's frame.
    pub fn id(&self) -> FrameId {
        self.frame.id
    }
}

#[cfg(test)]
mod tests {
    use crate::Runtime;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn explicit_sync_waits_for_children() {
        let rt = Runtime::with_workers(4);
        let done = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..16 {
                s.spawn((), |_, ()| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            s.sync();
            assert_eq!(done.load(Ordering::SeqCst), 16);
        });
    }

    #[test]
    fn synched_reflects_outstanding_children() {
        let rt = Runtime::with_workers(2);
        let gate = AtomicBool::new(false);
        let gate_ref = &gate;
        rt.scope(|s| {
            assert!(s.synched(), "fresh scope has no children");
            s.spawn((), move |_, ()| {
                while !gate_ref.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
            assert!(!s.synched(), "child outstanding");
            gate.store(true, Ordering::Release);
            s.sync();
            assert!(s.synched());
        });
    }

    #[test]
    fn sync_inside_task_waits_for_grandchildren() {
        let rt = Runtime::with_workers(4);
        let order = parking_lot::Mutex::new(Vec::new());
        let order_ref = &order;
        rt.scope(|s| {
            s.spawn((), move |s, ()| {
                for i in 0..4 {
                    s.spawn((), move |_, ()| {
                        order_ref.lock().push(i);
                    });
                }
                s.sync();
                order_ref.lock().push(99);
            });
        });
        let v = order.into_inner();
        assert_eq!(v.len(), 5);
        assert_eq!(*v.last().unwrap(), 99, "sync must come after children");
    }

    #[test]
    fn spawn_replicas_runs_one_task_per_dep_bundle() {
        use crate::Versioned;
        let rt = Runtime::with_workers(4);
        let cells: Vec<Versioned<usize>> = (0..6).map(|_| Versioned::new(0)).collect();
        rt.scope(|s| {
            let deps: Vec<_> = cells.iter().map(|c| (c.write(),)).collect();
            s.spawn_replicas(deps, |_, idx, (mut w,)| {
                *w = idx + 1;
            });
        });
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.read_latest(), i + 1, "replica {i} did not run");
        }
    }

    #[test]
    fn vec_deps_gate_on_every_element() {
        use crate::Versioned;
        let rt = Runtime::with_workers(4);
        let cells: Vec<Versioned<u32>> = (0..5).map(|_| Versioned::new(0)).collect();
        let total = Versioned::new(0u32);
        rt.scope(|s| {
            for (i, c) in cells.iter().enumerate() {
                s.spawn((c.write(),), move |_, (mut w,)| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    *w = i as u32 + 1;
                });
            }
            // One task reading through a Vec dep: must wait for all writers.
            let reads: Vec<_> = cells.iter().map(|c| c.read()).collect();
            s.spawn((reads, total.write()), |_, (gs, mut out)| {
                *out = gs.iter().map(|g| **g).sum();
            });
        });
        assert_eq!(total.read_latest(), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn tasks_spawned_after_sync_also_run() {
        let rt = Runtime::with_workers(2);
        let count = AtomicUsize::new(0);
        rt.scope(|s| {
            s.spawn((), |_, ()| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            s.sync();
            s.spawn((), |_, ()| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }
}
