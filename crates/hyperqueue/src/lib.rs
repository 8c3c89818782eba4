//! # hyperqueue — deterministic scale-free pipeline parallelism
//!
//! A from-scratch Rust implementation of **hyperqueues** from the SC'13
//! paper *"Deterministic Scale-Free Pipeline Parallelism with Hyperqueues"*
//! (Vandierendonck, Chronaki, Nikolopoulos), built on the `swan`
//! task-dataflow runtime.
//!
//! A hyperqueue looks like a single-producer/single-consumer queue to the
//! program, yet *many* producer tasks may push concurrently and a consumer
//! may pop concurrently with them — while the consumer observes values in
//! exactly the order of the serial elision. Programs built on hyperqueues
//! are therefore:
//!
//! * **deterministic** — same observable queue order on 1 or 64 workers;
//! * **scale-free** — no thread counts anywhere in the program text.
//!
//! Internally a hyperqueue is a linked list of fixed-size SPSC circular
//! buffers (*segments*) plus per-task *views* merged by the Cilk++-style
//! `reduce` and the paper's novel `split` (see `view.rs` / `state.rs`).
//!
//! ## Grants and tokens
//!
//! The task that creates a [`Hyperqueue`] owns it and may push and pop.
//! It hands privileges to a child by passing a *grant* as a spawn
//! argument: [`Hyperqueue::pushdep`], [`popdep`](Hyperqueue::popdep) or
//! [`pushpopdep`](Hyperqueue::pushpopdep), each a [`Dep`]. The child's
//! body receives a [`Token`] of the same mode. There is one token type:
//! its mode parameter is [`Push`], [`Pop`] or [`PushPop`], the push
//! methods exist where the mode is [`CanPush`] and the pop methods where
//! it is [`CanPop`]. [`PushToken`], [`PopToken`] and [`PushPopToken`]
//! (and [`PushDep`], [`PopDep`], [`PushPopDep`]) name the three modes. A
//! token delegates further with the same `pushdep`/`popdep` methods, but
//! only privileges it has (§2.3), and waits for the children it granted
//! with `sync_push`/`sync_pop` (§5.5).
//!
//! ## Example: Figure 2 of the paper
//!
//! ```
//! use hyperqueue::{Hyperqueue, PushToken};
//! use swan::{Runtime, Scope};
//!
//! fn producer(s: &Scope<'_>, mut q: PushToken<u64>, start: u64, end: u64) {
//!     if end - start <= 10 {
//!         for n in start..end {
//!             q.push(n * n); // "f(n)"
//!         }
//!     } else {
//!         let mid = (start + end) / 2;
//!         s.spawn((q.pushdep(),), move |s, (q,)| producer(s, q, start, mid));
//!         s.spawn((q.pushdep(),), move |s, (q,)| producer(s, q, mid, end));
//!     }
//! }
//!
//! let rt = Runtime::with_workers(4);
//! let mut seen = Vec::new();
//! rt.scope(|s| {
//!     let queue = Hyperqueue::<u64>::new(s);
//!     s.spawn((queue.pushdep(),), |s, (q,)| producer(s, q, 0, 100));
//!     while !queue.empty() {
//!         seen.push(queue.pop());
//!     }
//! });
//! assert_eq!(seen, (0..100).map(|n| n * n).collect::<Vec<_>>());
//! ```

#![deny(missing_docs)]

mod pool;
mod queue;
mod segment;
mod slice;
mod state;
mod view;

pub use pool::{PoolStats, SegmentPool};
pub use queue::{
    Access, CanPop, CanPush, Dep, Hyperqueue, Pop, PopDep, PopToken, Push, PushDep, PushPop,
    PushPopDep, PushPopToken, PushToken, Token, DEFAULT_SEGMENT_CAPACITY,
};
pub use segment::segment_capacity_for;
pub use slice::{ReadSlice, WriteSlice};
pub use state::{Mode, QueueStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use swan::{Runtime, RuntimeConfig, Scope};

    /// Figure 2: recursive divide-and-conquer producer.
    fn producer(s: &Scope<'_>, mut q: PushToken<u64>, start: u64, end: u64) {
        if end - start <= 10 {
            for n in start..end {
                q.push(n);
            }
        } else {
            let mid = (start + end) / 2;
            s.spawn((q.pushdep(),), move |s, (q,)| producer(s, q, start, mid));
            s.spawn((q.pushdep(),), move |s, (q,)| producer(s, q, mid, end));
        }
    }

    /// Figure 3: flat loop producer (shallow spawn tree, better locality).
    fn producer_flat(s: &Scope<'_>, mut q: PushToken<u64>, start: u64, end: u64) {
        if end - start <= 10 {
            for n in start..end {
                q.push(n);
            }
        } else {
            let mut n = start;
            while n < end {
                let hi = (n + 10).min(end);
                s.spawn((q.pushdep(),), move |s, (q,)| producer_flat(s, q, n, hi));
                n = hi;
            }
        }
    }

    fn run_figure2(workers: usize, total: u64, flat: bool) -> Vec<u64> {
        let rt = Runtime::with_workers(workers);
        let mut out = Vec::new();
        let out_ref = &mut out;
        rt.scope(move |s| {
            let queue = Hyperqueue::<u64>::new(s);
            if flat {
                s.spawn((queue.pushdep(),), move |s, (q,)| {
                    producer_flat(s, q, 0, total)
                });
            } else {
                s.spawn((queue.pushdep(),), move |s, (q,)| producer(s, q, 0, total));
            }
            s.spawn((queue.popdep(),), move |_, (mut q,)| {
                while !q.empty() {
                    out_ref.push(q.pop());
                }
            });
        });
        out
    }

    #[test]
    fn figure2_pipeline_is_deterministic() {
        for workers in [1, 2, 4, 8] {
            let out = run_figure2(workers, 500, false);
            let expect: Vec<u64> = (0..500).collect();
            assert_eq!(out, expect, "order broken with {workers} workers");
        }
    }

    #[test]
    fn figure3_flat_producer_is_deterministic() {
        for workers in [1, 4, 8] {
            let out = run_figure2(workers, 300, true);
            let expect: Vec<u64> = (0..300).collect();
            assert_eq!(out, expect, "order broken with {workers} workers");
        }
    }

    #[test]
    fn determinism_under_chaos_scheduling() {
        for seed in 0..5u64 {
            let rt = Runtime::new(RuntimeConfig::new().workers(8).with_chaos(seed, 80));
            let mut out = Vec::new();
            let out_ref = &mut out;
            rt.scope(move |s| {
                let queue = Hyperqueue::<u64>::with_segment_capacity(s, 8);
                s.spawn((queue.pushdep(),), move |s, (q,)| producer(s, q, 0, 200));
                s.spawn((queue.popdep(),), move |_, (mut q,)| {
                    while !q.empty() {
                        out_ref.push(q.pop());
                    }
                });
            });
            let expect: Vec<u64> = (0..200).collect();
            assert_eq!(out, expect, "chaos seed {seed} broke determinism");
        }
    }

    #[test]
    fn pop_batch_into_edge_cases() {
        let rt = Runtime::with_workers(1);
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::with_segment_capacity(s, 4);
            q.push_iter(0..10);
            // "Take everything visible" must not overflow the target
            // arithmetic even with a non-empty destination buffer.
            let mut buf = vec![99u32];
            assert_eq!(q.pop_batch_into(usize::MAX, &mut buf), 10);
            assert_eq!(buf[0], 99, "existing contents untouched");
            assert_eq!(&buf[1..], (0..10).collect::<Vec<_>>());
            // max == 0 is a no-op, NOT a permanent-empty verdict.
            q.push(42);
            assert_eq!(q.pop_batch_into(0, &mut buf), 0);
            assert_eq!(q.pop(), 42, "value still queued after max==0 call");
        });
    }

    #[test]
    fn owner_can_push_and_pop_directly() {
        let rt = Runtime::with_workers(2);
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            q.push(1);
            q.push(2);
            assert!(!q.empty());
            assert_eq!(q.pop(), 1);
            assert_eq!(q.pop(), 2);
            assert!(q.empty());
        });
    }

    #[test]
    fn owner_pops_concurrently_with_child_producer() {
        let rt = Runtime::with_workers(4);
        let mut out = Vec::new();
        let out_ref = &mut out;
        rt.scope(move |s| {
            let q = Hyperqueue::<u64>::new(s);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                for i in 0..50 {
                    p.push(i);
                }
            });
            while !q.empty() {
                out_ref.push(q.pop());
            }
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn section_2_3_scheduling_rules() {
        // spawn A(push); B(push); C(pop); D(pushpop); E(push); F(pop).
        // Check rule 3: D does not start before C completed; F does not
        // start before D completed. Values flow in serial order.
        let rt = Runtime::with_workers(8);
        let log = parking_lot::Mutex::new(Vec::<(&str, &str)>::new());
        let push_log = |ev: &'static str, ph: &'static str| {
            log.lock().push((ev, ph));
        };
        let plog = &push_log;
        rt.scope(move |s| {
            let q = Hyperqueue::<u64>::new(s);
            s.spawn((q.pushdep(),), move |_, (mut p,)| {
                plog("A", "start");
                std::thread::sleep(std::time::Duration::from_millis(20));
                p.push(1);
                plog("A", "end");
            });
            s.spawn((q.pushdep(),), move |_, (mut p,)| {
                plog("B", "start");
                p.push(2);
                plog("B", "end");
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                plog("C", "start");
                assert!(!c.empty());
                assert_eq!(c.pop(), 1, "C must see A's value first");
                assert!(!c.empty());
                assert_eq!(c.pop(), 2);
                plog("C", "end");
            });
            s.spawn((q.pushpopdep(),), move |_, (mut d,)| {
                plog("D", "start");
                d.push(3);
                assert!(!d.empty());
                assert_eq!(d.pop(), 3, "D sees its own push (serial order)");
                plog("D", "end");
            });
            s.spawn((q.pushdep(),), move |_, (mut p,)| {
                plog("E", "start");
                p.push(4);
                plog("E", "end");
            });
            s.spawn((q.popdep(),), move |_, (mut f,)| {
                plog("F", "start");
                assert!(!f.empty());
                assert_eq!(f.pop(), 4, "F sees E's value (3 was taken by D)");
                assert!(f.empty());
                plog("F", "end");
            });
        });
        let log = log.into_inner();
        let pos = |ev: &str, ph: &str| {
            log.iter()
                .position(|&(e, p)| e == ev && p == ph)
                .unwrap_or_else(|| panic!("missing {ev}/{ph}"))
        };
        // Rule 3 serialization:
        assert!(pos("C", "end") < pos("D", "start"), "D must wait for C");
        assert!(pos("D", "end") < pos("F", "start"), "F must wait for D");
    }

    #[test]
    fn empty_blocks_until_decision_and_sees_late_values() {
        // A slow producer precedes the consumer; empty() must block (not
        // return true) until the producer either pushes or completes.
        let rt = Runtime::with_workers(4);
        let popped = AtomicUsize::new(0);
        let popped_ref = &popped;
        rt.scope(move |s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                p.push(42);
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                // At this instant the producer has almost surely not pushed
                // yet; empty() must wait for the producer, then say false.
                assert!(!c.empty(), "empty() must not jump the gun");
                assert_eq!(c.pop(), 42);
                popped_ref.fetch_add(1, Ordering::SeqCst);
                assert!(c.empty(), "producer done ⇒ permanently empty");
            });
        });
        assert_eq!(popped.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn queue_destroyed_with_values_inside() {
        // §2.1: "A hyperqueue may be destroyed with values still inside."
        let rt = Runtime::with_workers(2);
        let payload = std::sync::Arc::new(());
        let p2 = std::sync::Arc::clone(&payload);
        rt.scope(move |s| {
            let q = Hyperqueue::<std::sync::Arc<()>>::new(s);
            for _ in 0..10 {
                q.push(std::sync::Arc::clone(&p2));
            }
            let _ = q.pop(); // consume one, leave nine
        });
        assert_eq!(
            std::sync::Arc::strong_count(&payload),
            1,
            "undropped queue values leaked"
        );
    }

    #[test]
    fn consumer_not_required_to_drain() {
        // A pop task may finish with values left; a later pop task (or the
        // owner) sees the remainder in order.
        let rt = Runtime::with_workers(4);
        let mut tail = Vec::new();
        let tail_ref = &mut tail;
        rt.scope(move |s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                for i in 0..10 {
                    p.push(i);
                }
            });
            s.spawn((q.popdep(),), |_, (mut c,)| {
                // Take only three.
                for _ in 0..3 {
                    assert!(!c.empty());
                    let _ = c.pop();
                }
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                while !c.empty() {
                    tail_ref.push(c.pop());
                }
            });
        });
        assert_eq!(tail, (3..10).collect::<Vec<_>>());
    }

    #[test]
    fn values_pushed_after_pop_spawn_are_invisible_to_it() {
        // Rule 4 / Fig 4(c): a producer spawned *after* the consumer may
        // run concurrently, but its values must not be observed by that
        // consumer.
        let rt = Runtime::with_workers(8);
        for _round in 0..20 {
            let mut first = Vec::new();
            let mut second = Vec::new();
            let (f_ref, s_ref) = (&mut first, &mut second);
            rt.scope(move |s| {
                let q = Hyperqueue::<u32>::new(s);
                s.spawn((q.pushdep(),), |_, (mut p,)| {
                    p.push(1);
                    p.push(2);
                });
                s.spawn((q.popdep(),), move |_, (mut c,)| {
                    while !c.empty() {
                        f_ref.push(c.pop());
                    }
                });
                // Spawned after the consumer: invisible to it.
                s.spawn((q.pushdep(),), |_, (mut p,)| {
                    p.push(99);
                });
                s.spawn((q.popdep(),), move |_, (mut c,)| {
                    while !c.empty() {
                        s_ref.push(c.pop());
                    }
                });
            });
            assert_eq!(first, vec![1, 2], "consumer saw a younger task's push");
            assert_eq!(second, vec![99]);
        }
    }

    #[test]
    fn selective_sync_pop_waits_only_for_consumers() {
        // Fig 6 + §5.5: spawn producer, consumer, producer; sync_pop waits
        // for the consumer; the parent can then pop the second producer's
        // values.
        let rt = Runtime::with_workers(4);
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                p.push(1);
            });
            s.spawn((q.popdep(),), |_, (mut c,)| {
                assert!(!c.empty());
                assert_eq!(c.pop(), 1);
            });
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                p.push(2);
            });
            q.sync_pop(s); // suspend until the consumer is done (§5.5)
            assert!(!q.empty());
            assert_eq!(q.pop(), 2);
        });
    }

    #[test]
    fn selective_sync_push_waits_only_for_producers() {
        // The twin of the test above: sync_push waits for both producers
        // (the late one included), not for the consumer between them.
        let rt = Runtime::with_workers(4);
        let produced = AtomicUsize::new(0);
        let produced = &produced;
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), move |_, (mut p,)| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                p.push(1);
                produced.fetch_add(1, Ordering::SeqCst);
            });
            s.spawn((q.popdep(),), |_, (mut c,)| {
                assert!(!c.empty());
                assert_eq!(c.pop(), 1);
            });
            s.spawn((q.pushdep(),), move |_, (mut p,)| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                p.push(2);
                produced.fetch_add(1, Ordering::SeqCst);
            });
            q.sync_push(s);
            assert_eq!(produced.load(Ordering::SeqCst), 2);
            assert!(!q.empty());
            assert_eq!(q.pop(), 2);
            assert!(q.empty());
        });
    }

    #[test]
    fn selective_sync_waits_for_pushpop_children_both_ways() {
        let rt = Runtime::with_workers(4);
        let done = AtomicUsize::new(0);
        let done = &done;
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            let child = move |_: &Scope<'_>, (mut d,): (PushPopToken<u32>,)| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                d.push(1);
                assert_eq!(d.pop(), 1);
                done.fetch_add(1, Ordering::SeqCst);
            };
            s.spawn((q.pushpopdep(),), child);
            q.sync_push(s);
            assert_eq!(done.load(Ordering::SeqCst), 1, "sync_push waits");
            s.spawn((q.pushpopdep(),), child);
            q.sync_pop(s);
            assert_eq!(done.load(Ordering::SeqCst), 2, "sync_pop waits");
            assert!(q.empty());
        });
    }

    #[test]
    fn sync_push_waits_for_nested_delegations() {
        // The child re-grants push privileges to a grandchild and returns
        // at once; the owner's sync_push returns only once the
        // grandchild's values have reduced into the owner's view.
        let rt = Runtime::with_workers(4);
        let grandchild_done = AtomicUsize::new(0);
        let grandchild_done = &grandchild_done;
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(),), move |s, (mut p,)| {
                s.spawn((p.pushdep(),), move |_, (mut g,)| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    g.push_iter(1..=3);
                    grandchild_done.fetch_add(1, Ordering::SeqCst);
                });
            });
            q.sync_push(s);
            assert_eq!(grandchild_done.load(Ordering::SeqCst), 1);
            assert_eq!(q.pop_batch(8), vec![1, 2, 3]);
            assert!(q.empty());
        });
    }

    #[test]
    #[should_panic(expected = "at most one grant per hyperqueue")]
    fn two_grants_on_one_queue_in_one_spawn_panic() {
        let rt = Runtime::with_workers(2);
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            s.spawn((q.pushdep(), q.popdep()), |_, _| {});
        });
    }

    #[test]
    fn write_and_read_slices_roundtrip() {
        let rt = Runtime::with_workers(4);
        let mut out = Vec::new();
        let out_ref = &mut out;
        rt.scope(move |s| {
            let q = Hyperqueue::<u32>::with_segment_capacity(s, 64);
            s.spawn((q.pushdep(),), |_, (mut p,)| {
                let mut pushed = 0u32;
                while pushed < 100 {
                    let mut ws = p.write_slice(32);
                    let n = ws.capacity().min((100 - pushed) as usize);
                    for _ in 0..n {
                        ws.push(pushed);
                        pushed += 1;
                    }
                }
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                while let Some(rs) = c.read_slice(16) {
                    out_ref.extend_from_slice(rs.as_slice());
                }
            });
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn segment_recycling_reaches_steady_state() {
        // A balanced producer/consumer pair over a small segment should
        // recycle instead of allocating (paper §3.2 "zero allocation cost
        // in steady state"). Push never blocks, so nothing in the queue
        // keeps a producer from running arbitrarily far ahead (in a
        // release build it finishes before the consumer's first pop and
        // legitimately allocates every segment); the pair is kept
        // balanced here by a hand-rolled credit: at most `LEAD` values in
        // flight.
        const TOTAL: u64 = 10_000;
        const LEAD: u64 = 256;
        let rt = Runtime::with_workers(2);
        let consumed = AtomicU64::new(0);
        let consumed = &consumed;
        let mut stats = None;
        let stats_ref = &mut stats;
        rt.scope(move |s| {
            let q = Hyperqueue::<u64>::with_segment_capacity(s, 16);
            s.spawn((q.pushdep(),), move |_, (mut p,)| {
                for i in 0..TOTAL {
                    while i >= consumed.load(Ordering::Acquire) + LEAD {
                        std::thread::yield_now();
                    }
                    p.push(i);
                }
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                while !c.empty() {
                    let _ = c.pop();
                    consumed.fetch_add(1, Ordering::Release);
                }
            });
            s.sync();
            *stats_ref = Some(q.stats());
        });
        let stats = stats.unwrap();
        // 10k values over 16-slot segments take 625 segments without
        // recycling. With it, what is ever allocated is bounded by the
        // values in flight (`LEAD` / 16 segments) plus the drained
        // segments the lock-free chain advance has not handed back yet
        // (32, DESIGN.md §2.1) — far below 625 on any schedule. The exact
        // zero-allocation steady state is asserted deterministically in
        // `state::tests::drained_segments_are_recycled`.
        assert!(
            stats.segments_allocated < 100,
            "recycling should beat the no-reuse bound of 625: {stats:?}"
        );
        assert!(
            stats.segments_recycled > 100,
            "recycling inactive: {stats:?}"
        );
    }

    #[test]
    fn two_queues_are_independent() {
        let rt = Runtime::with_workers(4);
        let mut a_out = Vec::new();
        let mut b_out = Vec::new();
        let (a_ref, b_ref) = (&mut a_out, &mut b_out);
        rt.scope(move |s| {
            let qa = Hyperqueue::<u32>::new(s);
            let qb = Hyperqueue::<u32>::new(s);
            s.spawn((qa.pushdep(), qb.pushdep()), |_, (mut pa, mut pb)| {
                for i in 0..20 {
                    pa.push(i);
                    pb.push(100 + i);
                }
            });
            s.spawn((qa.popdep(),), move |_, (mut c,)| {
                while !c.empty() {
                    a_ref.push(c.pop());
                }
            });
            s.spawn((qb.popdep(),), move |_, (mut c,)| {
                while !c.empty() {
                    b_ref.push(c.pop());
                }
            });
        });
        assert_eq!(a_out, (0..20).collect::<Vec<_>>());
        assert_eq!(b_out, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_through_intermediate_stage() {
        // Three stages over two queues: gen -> double -> collect.
        let rt = Runtime::with_workers(4);
        let mut out = Vec::new();
        let out_ref = &mut out;
        rt.scope(move |s| {
            let q1 = Hyperqueue::<u64>::new(s);
            let q2 = Hyperqueue::<u64>::new(s);
            s.spawn((q1.pushdep(),), |_, (mut p,)| {
                for i in 0..200 {
                    p.push(i);
                }
            });
            s.spawn((q1.popdep(), q2.pushdep()), |_, (mut c, mut p)| {
                while !c.empty() {
                    p.push(c.pop() * 2);
                }
            });
            s.spawn((q2.popdep(),), move |_, (mut c,)| {
                while !c.empty() {
                    out_ref.push(c.pop());
                }
            });
        });
        assert_eq!(out, (0..200).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "permanently empty")]
    fn pop_on_empty_queue_panics() {
        let rt = Runtime::with_workers(1);
        rt.scope(|s| {
            let q = Hyperqueue::<u32>::new(s);
            let _ = q.pop();
        });
    }
}
