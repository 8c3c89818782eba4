//! The generic dependence engine.
//!
//! Swan decides when a spawned task may start from the *access modes* of its
//! arguments (`indep`/`outdep`/`inoutdep` on versioned objects,
//! `pushdep`/`popdep`/`pushpopdep` on hyperqueues — paper §2.3). This module
//! keeps the runtime object-agnostic: an argument is anything implementing
//! [`DepArg`]. At spawn time the argument's `acquire` runs **in program
//! order with respect to its object** (guaranteed because only the task
//! holding privileges on an object can spawn accessors to it — paper §2.3,
//! ref \[10\]); it names predecessor tasks, may register completion callbacks,
//! and returns the guard value handed to the task body.

use std::sync::{Arc, Weak};

use crate::frame::{Frame, ReleaseFn};
use crate::runtime::{RtInner, RuntimeHandle};

/// Context available to [`DepArg::acquire`] during a spawn.
pub struct AcquireCtx<'a> {
    pub(crate) rt: &'a Arc<RtInner>,
    pub(crate) frame: &'a Arc<Frame>,
    pub(crate) parent: &'a Arc<Frame>,
    pub(crate) releases: Vec<ReleaseFn>,
}

impl<'a> AcquireCtx<'a> {
    pub(crate) fn new(rt: &'a Arc<RtInner>, frame: &'a Arc<Frame>, parent: &'a Arc<Frame>) -> Self {
        Self {
            rt,
            frame,
            parent,
            releases: Vec::new(),
        }
    }

    /// The frame of the task being spawned. Dependency objects remember
    /// it as `Arc::downgrade(ctx.frame())` to name it as a later task's
    /// predecessor without keeping it alive.
    pub fn frame(&self) -> &Arc<Frame> {
        self.frame
    }

    /// The spawning (parent) frame.
    pub fn parent_frame(&self) -> &Arc<Frame> {
        self.parent
    }

    /// Declares that the spawned task must wait for `pred` to complete.
    /// A predecessor that has already completed (or whose frame is gone)
    /// adds no edge.
    pub fn add_predecessor(&mut self, pred: &Weak<Frame>) {
        self.frame.wait_for(pred);
    }

    /// Registers a callback to run when the spawned task completes (after
    /// its body and its implicit sync — the §4.2 "task completion" moment).
    pub fn on_release(&mut self, f: impl FnOnce() + Send + 'static) {
        self.releases.push(Box::new(f));
    }

    /// A runtime handle, for dependency objects that need the blocking/help
    /// protocol at run time (hyperqueues).
    pub fn runtime(&self) -> RuntimeHandle {
        RuntimeHandle {
            inner: Arc::clone(self.rt),
        }
    }
}

/// A spawn argument with an access mode.
///
/// `acquire` is called on the spawning thread, in spawn (program) order with
/// respect to the underlying object, *before* the task can run. It returns
/// the guard moved into the task body.
pub trait DepArg {
    /// What the task body receives for this argument.
    type Guard: Send;
    /// Performs object-side bookkeeping; see trait docs.
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> Self::Guard;
}

/// A dynamic, homogeneous dependency list: every element is acquired in
/// vector (= program) order and the task body receives one guard per
/// element. This is what graph-shaped pipelines need — a fan-in or fan-out
/// stage's edge count is data, not program text, so it cannot be spelled as
/// a tuple.
///
/// ```
/// use swan::{Runtime, Versioned};
///
/// let rt = Runtime::with_workers(2);
/// let cells: Vec<Versioned<u32>> = (0..4).map(Versioned::new).collect();
/// let sum = Versioned::new(0u32);
/// rt.scope(|s| {
///     let reads: Vec<_> = cells.iter().map(|c| c.read()).collect();
///     s.spawn((reads, sum.write()), |_, (guards, mut out)| {
///         *out = guards.iter().map(|g| **g).sum();
///     });
/// });
/// assert_eq!(sum.read_latest(), 0 + 1 + 2 + 3);
/// ```
impl<D: DepArg> DepArg for Vec<D> {
    type Guard = Vec<D::Guard>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> Self::Guard {
        self.into_iter().map(|d| d.acquire(ctx)).collect()
    }
}

/// A (possibly empty) tuple of [`DepArg`]s.
pub trait DepList {
    /// Tuple of guards, one per argument.
    type Guards: Send;
    /// Acquires every argument, left to right (program order).
    fn acquire_all(self, ctx: &mut AcquireCtx<'_>) -> Self::Guards;
}

impl DepList for () {
    type Guards = ();
    fn acquire_all(self, _ctx: &mut AcquireCtx<'_>) -> Self::Guards {}
}

macro_rules! impl_deplist {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: DepArg),+> DepList for ($($name,)+) {
            type Guards = ($($name::Guard,)+);
            fn acquire_all(self, ctx: &mut AcquireCtx<'_>) -> Self::Guards {
                ($(self.$idx.acquire(ctx),)+)
            }
        }
    };
}

impl_deplist!(A: 0);
impl_deplist!(A: 0, B: 1);
impl_deplist!(A: 0, B: 1, C: 2);
impl_deplist!(A: 0, B: 1, C: 2, D: 3);
impl_deplist!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_deplist!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_deplist!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_deplist!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A trivial DepArg that records acquire order and declares no
    /// predecessors.
    struct Probe<'a>(&'a AtomicUsize, usize);

    impl DepArg for Probe<'_> {
        type Guard = usize;
        fn acquire(self, _ctx: &mut AcquireCtx<'_>) -> usize {
            let order = self.0.fetch_add(1, Ordering::SeqCst);
            assert_eq!(order, self.1, "acquire must run left to right");
            self.1
        }
    }

    #[test]
    fn tuple_acquire_is_left_to_right() {
        let rt = Runtime::with_workers(1);
        let order = AtomicUsize::new(0);
        rt.scope(|s| {
            s.spawn(
                (Probe(&order, 0), Probe(&order, 1), Probe(&order, 2)),
                |_, (a, b, c)| {
                    assert_eq!((a, b, c), (0, 1, 2));
                },
            );
        });
        assert_eq!(order.load(Ordering::SeqCst), 3);
    }
}
