//! Versioned objects: the paper's `versioned<T>` with `indep`, `outdep`
//! and `inoutdep` access modes (Figure 1, §1).
//!
//! A versioned object tracks, per *current version*: the last writer task
//! and the reader tasks spawned since. Access-mode semantics:
//!
//! * **indep** (read): depends on the last writer of the current version.
//! * **outdep** (write): *renames* — a fresh version is allocated and
//!   becomes current, so the writer needs **no** predecessors. This is the
//!   paper's "automatic memory management … to break write-after-read
//!   dependences" (§1): older readers keep their version alive via `Arc`.
//! * **inoutdep** (read-modify-write): operates in place on the current
//!   version; depends on the last writer *and* all readers spawned since.
//!
//! Safety note: guards give `&T`/`&mut T` into an `UnsafeCell` without a
//! lock. This is sound because the dependence engine schedules conflicting
//! accessors strictly after one another — precisely the guarantee the
//! paper's runtime provides — and because readers of *descendant* tasks are
//! covered transitively: a reader's children complete before the reader
//! does (implicit sync), and the reader itself is a named predecessor of
//! the next writer.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::dataflow::engine::{AcquireCtx, DepArg};
use crate::frame::Frame;

/// Global object-id allocator for dependency objects. Ids label debugging
/// output.
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh dependency-object id.
pub fn next_object_id() -> u64 {
    NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)
}

struct VersionCell<T> {
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` is serialized by the dependence engine (see
// module docs); the cell itself is shared freely.
unsafe impl<T: Send> Send for VersionCell<T> {}
unsafe impl<T: Send> Sync for VersionCell<T> {}

struct VState<T> {
    current: Arc<VersionCell<T>>,
    last_writer: Weak<Frame>,
    /// Reader tasks spawned since the last writer (direct children of
    /// privilege holders; descendants are covered transitively). Readers
    /// that have completed are dropped whenever the list would grow, so a
    /// read-mostly object keeps only about as many as are live.
    readers: Vec<Weak<Frame>>,
}

struct VersionedInner<T> {
    id: u64,
    state: Mutex<VState<T>>,
}

/// A dataflow variable: spawn arguments are created with [`Versioned::read`]
/// (`indep`), [`Versioned::write`] (`outdep`) and [`Versioned::update`]
/// (`inoutdep`).
///
/// ```
/// use swan::{Runtime, Versioned};
/// let rt = Runtime::with_workers(2);
/// let v: Versioned<u64> = Versioned::new(0);
/// rt.scope(|s| {
///     s.spawn((v.update(),), |_, (mut g,)| *g += 1);
///     s.spawn((v.update(),), |_, (mut g,)| *g *= 10);
///     s.spawn((v.read(),), |_, (g,)| assert_eq!(*g, 10));
/// });
/// assert_eq!(v.read_latest(), 10);
/// ```
pub struct Versioned<T> {
    inner: Arc<VersionedInner<T>>,
}

impl<T> Clone for Versioned<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static> Versioned<T> {
    /// Creates a versioned object holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            inner: Arc::new(VersionedInner {
                id: next_object_id(),
                state: Mutex::new(VState {
                    current: Arc::new(VersionCell {
                        data: UnsafeCell::new(value),
                    }),
                    last_writer: Weak::new(),
                    readers: Vec::new(),
                }),
            }),
        }
    }

    /// Object id (diagnostics).
    pub fn object_id(&self) -> u64 {
        self.inner.id
    }

    /// `indep` access for a spawn.
    pub fn read(&self) -> InDep<T> {
        InDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// `inoutdep` access for a spawn.
    pub fn update(&self) -> InOutDep<T> {
        InOutDep {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Reads the latest version. Intended for use *after* a `sync` (or
    /// outside any scope): racing this against in-flight writers returns
    /// whichever version is current at the instant of the call.
    pub fn read_latest(&self) -> T
    where
        T: Clone,
    {
        let state = self.inner.state.lock();
        // SAFETY: shared read of the current version; callers only use this
        // after synchronization with writers (documented contract).
        unsafe { (*state.current.data.get()).clone() }
    }
}

impl<T: Send + Default + 'static> Versioned<T> {
    /// `outdep` access for a spawn: the task receives a **fresh**
    /// `T::default()` version (renaming).
    pub fn write(&self) -> OutDep<T> {
        OutDep {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + Default + 'static> Default for Versioned<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// `indep` spawn argument. Created by [`Versioned::read`].
pub struct InDep<T> {
    inner: Arc<VersionedInner<T>>,
}

/// `outdep` spawn argument. Created by [`Versioned::write`].
pub struct OutDep<T> {
    inner: Arc<VersionedInner<T>>,
}

/// `inoutdep` spawn argument. Created by [`Versioned::update`].
pub struct InOutDep<T> {
    inner: Arc<VersionedInner<T>>,
}

/// Shared read access to one version of a [`Versioned`] object.
pub struct ReadGuard<T> {
    cell: Arc<VersionCell<T>>,
}

/// Exclusive write access to one version of a [`Versioned`] object.
pub struct WriteGuard<T> {
    cell: Arc<VersionCell<T>>,
}

// SAFETY: guards are moved into exactly one task; the dependence engine
// serializes conflicting access (module docs).
unsafe impl<T: Send> Send for ReadGuard<T> {}
unsafe impl<T: Send> Send for WriteGuard<T> {}

impl<T> Deref for ReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: scheduled strictly after the version's writer completed;
        // concurrent readers only take shared references.
        unsafe { &*self.cell.data.get() }
    }
}

impl<T> Deref for WriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: exclusive by scheduling (last_writer/readers protocol).
        unsafe { &*self.cell.data.get() }
    }
}

impl<T> DerefMut for WriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.cell.data.get() }
    }
}

impl<T: Send + 'static> DepArg for InDep<T> {
    type Guard = ReadGuard<T>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> Self::Guard {
        let mut state = self.inner.state.lock();
        ctx.add_predecessor(&state.last_writer);
        if state.readers.len() == state.readers.capacity() {
            state
                .readers
                .retain(|r| r.upgrade().is_some_and(|f| !f.is_done()));
        }
        state.readers.push(Arc::downgrade(ctx.frame()));
        ReadGuard {
            cell: Arc::clone(&state.current),
        }
    }
}

impl<T: Send + Default + 'static> DepArg for OutDep<T> {
    type Guard = WriteGuard<T>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> Self::Guard {
        let mut state = self.inner.state.lock();
        // Renaming: fresh version, no predecessors.
        let cell = Arc::new(VersionCell {
            data: UnsafeCell::new(T::default()),
        });
        state.current = Arc::clone(&cell);
        state.last_writer = Arc::downgrade(ctx.frame());
        state.readers.clear();
        WriteGuard { cell }
    }
}

impl<T: Send + 'static> DepArg for InOutDep<T> {
    type Guard = WriteGuard<T>;
    fn acquire(self, ctx: &mut AcquireCtx<'_>) -> Self::Guard {
        let mut state = self.inner.state.lock();
        ctx.add_predecessor(&state.last_writer);
        for r in state.readers.drain(..) {
            ctx.add_predecessor(&r);
        }
        state.last_writer = Arc::downgrade(ctx.frame());
        WriteGuard {
            cell: Arc::clone(&state.current),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn object_ids_are_unique() {
        let a: Versioned<u32> = Versioned::new(0);
        let b: Versioned<u32> = Versioned::new(0);
        assert_ne!(a.object_id(), b.object_id());
    }

    #[test]
    fn inout_chain_serializes() {
        // 100 increments through inoutdep must all be observed: any lost
        // update means two writers overlapped.
        let rt = Runtime::with_workers(8);
        let v: Versioned<u64> = Versioned::new(0);
        rt.scope(|s| {
            for _ in 0..100 {
                s.spawn((v.update(),), |_, (mut g,)| {
                    let cur = *g;
                    // Widen the race window.
                    std::hint::black_box(cur);
                    *g = cur + 1;
                });
            }
        });
        assert_eq!(v.read_latest(), 100);
    }

    #[test]
    fn readers_wait_for_writer() {
        let rt = Runtime::with_workers(8);
        let v: Versioned<u64> = Versioned::new(0);
        let seen = AtomicUsize::new(0);
        rt.scope(|s| {
            s.spawn((v.update(),), |_, (mut g,)| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                *g = 7;
            });
            for _ in 0..10 {
                s.spawn((v.read(),), |_, (g,)| {
                    assert_eq!(*g, 7, "reader ran before writer");
                    seen.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(seen.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn writer_after_readers_waits_for_them_inout() {
        let rt = Runtime::with_workers(8);
        let v: Versioned<Vec<u64>> = Versioned::new(vec![1, 2, 3]);
        let reads_done = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..5 {
                s.spawn((v.read(),), |_, (g,)| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    assert_eq!(g.len(), 3);
                    reads_done.fetch_add(1, Ordering::SeqCst);
                });
            }
            s.spawn((v.update(),), |_, (mut g,)| {
                // All 5 readers must have finished (inout waits for them).
                assert_eq!(reads_done.load(Ordering::SeqCst), 5);
                g.push(4);
            });
        });
        assert_eq!(v.read_latest().len(), 4);
    }

    #[test]
    fn outdep_renames_so_writer_skips_waiting() {
        // A writer with outdep must NOT wait for prior readers: renaming
        // breaks the WAR dependence. Readers spawned before the writer still
        // see the old version.
        let rt = Runtime::with_workers(4);
        let v: Versioned<u64> = Versioned::new(1);
        let old_reads = AtomicUsize::new(0);
        rt.scope(|s| {
            let gate = &*Box::leak(Box::new(std::sync::atomic::AtomicBool::new(false)));
            s.spawn((v.read(),), |_, (g,)| {
                // Block until the writer has definitely spawned and run.
                while !gate.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                assert_eq!(*g, 1, "reader must see the old version");
                old_reads.fetch_add(1, Ordering::SeqCst);
            });
            s.spawn((v.write(),), move |_, (mut g,)| {
                *g = 99; // fresh version; runs despite the blocked reader
                gate.store(true, Ordering::Release);
            });
        });
        assert_eq!(old_reads.load(Ordering::SeqCst), 1);
        assert_eq!(v.read_latest(), 99);
    }

    #[test]
    fn figure1_two_stage_pipeline_with_objects() {
        // The paper's Figure 1: produce(outdep value); consume(indep value,
        // inoutdep fd). Consumes must run in order (inout chain); produces
        // may run in parallel (renaming).
        let rt = Runtime::with_workers(8);
        let total = 50u64;
        let value: Versioned<u64> = Versioned::new(0);
        let fd: Versioned<Vec<u64>> = Versioned::new(Vec::new());
        rt.scope(|s| {
            for i in 0..total {
                s.spawn((value.write(),), move |_, (mut g,)| {
                    *g = i * i;
                });
                s.spawn((value.read(), fd.update()), move |_, (v, mut log)| {
                    log.push(*v);
                });
            }
        });
        let log = fd.read_latest();
        let expect: Vec<u64> = (0..total).map(|i| i * i).collect();
        assert_eq!(log, expect, "consume stage must observe serial order");
    }

    #[test]
    fn read_mostly_object_keeps_its_reader_list_small() {
        // 10 000 read-only tasks on one object, in rounds of 100 with a
        // sync between: at most 100 readers are ever live, so the list
        // must not keep the completed ones.
        let rt = Runtime::with_workers(2);
        let v: Versioned<u64> = Versioned::new(7);
        rt.scope(|s| {
            for _ in 0..100 {
                for _ in 0..100 {
                    s.spawn((v.read(),), |_, (g,)| assert_eq!(*g, 7));
                }
                s.sync();
            }
        });
        let readers = v.inner.state.lock().readers.len();
        assert!(readers <= 256, "{readers} readers kept for 100 live");
    }

    #[test]
    fn predecessor_completing_during_registration_hands_off_once() {
        // Each update is spawned as soon as the previous one starts, so
        // its registration (naming the previous one as predecessor) races
        // that one's completion; the chaos jitter shifts where the two
        // meet. A lost edge hangs the scope or loses an update; a double
        // hand-off runs a task twice.
        const TASKS: usize = 400;
        for seed in 0..8 {
            let config = crate::RuntimeConfig::new().workers(2).with_chaos(seed, 5);
            let rt = Runtime::new(config);
            let v: Versioned<u64> = Versioned::new(0);
            let started = AtomicUsize::new(0);
            rt.scope(|s| {
                for i in 0..TASKS {
                    while started.load(Ordering::SeqCst) < i {
                        std::hint::spin_loop();
                    }
                    s.spawn((v.update(),), |_, (mut g,)| {
                        started.fetch_add(1, Ordering::SeqCst);
                        *g += 1;
                    });
                }
            });
            assert_eq!(v.read_latest(), TASKS as u64, "seed {seed}");
            assert_eq!(started.load(Ordering::SeqCst), TASKS, "seed {seed}");
        }
    }
}
