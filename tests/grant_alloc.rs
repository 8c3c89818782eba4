//! What a hyperqueue grant costs the allocator beyond its spawn.
//!
//! A grant (`pushdep`/`popdep` as a spawn argument) takes a slot in the
//! queue's view table and names the queue and that slot as its release.
//! A task holds its first two releases inline, so beyond the spawn itself
//! a `pushdep` should allocate nothing and a `popdep` only the rule-3 edge
//! to a predecessor that is still live. This test swaps in a counting global allocator and
//! compares, per child, a spawn carrying a grant against a spawn whose
//! closure captures as many bytes as the grant's token. Kept in its own
//! test binary because a `#[global_allocator]` is process-wide; it counts
//! only in release builds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use hyperqueues::hyperqueue::{Hyperqueue, PopToken, PushToken};
use hyperqueues::swan::{Runtime, Scope};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHILDREN: u64 = 2_000;

/// Allocations per child of `CHILDREN` spawns made by `spawn`, counted on
/// a second round so the first has grown every table and queue in reach.
fn per_child(workers: usize, spawn: impl Fn(&Scope<'_>, &Hyperqueue<u64>)) -> f64 {
    let rt = Runtime::with_workers(workers);
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::new(s);
        let mut counted = 0;
        for _round in 0..2 {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            for _ in 0..CHILDREN {
                spawn(s, &q);
            }
            s.sync();
            counted = ALLOCATIONS.load(Ordering::SeqCst) - before;
        }
        counted as f64 / CHILDREN as f64
    })
}

fn plain_spawn<const BYTES: usize>(s: &Scope<'_>, _: &Hyperqueue<u64>) {
    let capture = [7u8; BYTES];
    s.spawn((), move |_, ()| {
        black_box(capture);
    });
}

#[test]
fn a_grant_allocates_at_most_its_release_list_and_rule3_edge() {
    if cfg!(debug_assertions) {
        // Debug builds check the view table's invariants after every
        // mutation, and that check allocates: count in release builds
        // (`cargo test --release --test grant_alloc`).
        return;
    }
    const PUSH: usize = std::mem::size_of::<PushToken<u64>>();
    const POP: usize = std::mem::size_of::<PopToken<u64>>();
    for workers in [1, 2] {
        let push_base = per_child(workers, plain_spawn::<PUSH>);
        let push = per_child(workers, |s, q| {
            s.spawn((q.pushdep(),), |_, (t,)| drop(black_box(t)));
        });
        let pop_base = per_child(workers, plain_spawn::<POP>);
        let pop = per_child(workers, |s, q| {
            s.spawn((q.popdep(),), |_, (t,)| drop(black_box(t)));
        });
        println!(
            "{workers} workers: spawn {push_base:.2}, +pushdep {push:.2}; \
             spawn {pop_base:.2}, +popdep {pop:.2} allocations per child"
        );
        // A few hundredths of slack for allocations no child causes (a
        // worker's parking, a queue growing past the first round's size).
        assert!(
            push - push_base <= 0.05,
            "pushdep costs {:.2} allocations beyond its spawn ({workers} workers)",
            push - push_base
        );
        assert!(
            pop - pop_base <= 1.05,
            "popdep costs {:.2} allocations beyond its spawn ({workers} workers)",
            pop - pop_base
        );
    }
}
