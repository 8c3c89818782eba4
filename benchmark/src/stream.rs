//! `stream_finegrain`: a 3-stage chain (produce → transform → checksum)
//! of `u64` items with trivial per-item work over two hyperqueues, so the
//! queues do nearly all the work. Rounds cycle `B P R S`:
//!
//! * B — 8 M items through the batched API (subject);
//! * P — 1 M items through scalar `push`/`pop` (the other way to use the
//!   same queue; read against R);
//! * R — the P round over two threads and a `pipelines::spsc` ring
//!   (hand-built reference);
//! * S — the serial elision of the B round, which also yields the
//!   expected checksums every other round is verified against.

use std::sync::Arc;

use hyperqueue::{Hyperqueue, SegmentPool, DEFAULT_SEGMENT_CAPACITY};
use swan::Runtime;

use crate::layers::WindowCounters;
use crate::measure::{
    median, median_per_op, metric, peak_rss_mb, run_rounds, time, EndToEnd, Kind, Step,
};
use crate::trace::SpanLog;
use crate::{Ctx, Report};

const BATCHED_ITEMS: u64 = 8_000_000;
const SCALAR_ITEMS: u64 = 1_000_000;
const BATCH: usize = 256;
const SPSC_CAPACITY: usize = 1024;
const SETUP_CYCLES: usize = 100;

#[inline]
fn item(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[inline]
fn transform(x: u64) -> u64 {
    x ^ (x >> 29)
}

/// Order-sensitive fold, so a reordered or dropped item changes the sum.
#[inline]
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Serial elision over `BATCHED_ITEMS`; also returns the running checksum
/// after the first `SCALAR_ITEMS` (the P/R rounds use that prefix).
fn serial_round(seed: u64) -> (u64, u64) {
    let mut h = 0u64;
    let mut prefix = 0u64;
    for i in 0..BATCHED_ITEMS {
        if i == SCALAR_ITEMS {
            prefix = h;
        }
        h = fold(h, transform(item(seed, i)));
    }
    (prefix, h)
}

/// Segment storage of the chain's two queues, kept across rounds the way
/// a persistent pipeline keeps it (`Hyperqueue::with_pool`): after the
/// warm-up cycle a round allocates nothing, so the rounds time queue
/// operations, not the allocator and the kernel's page-fault path.
struct Pools([Arc<SegmentPool<u64>>; 2]);

impl Pools {
    fn new() -> Self {
        Pools([(); 2].map(|()| Arc::new(SegmentPool::new(DEFAULT_SEGMENT_CAPACITY))))
    }
}

/// Grows both pools to a round's worst case — a stage's whole input
/// buffered before it takes one item — which is where the pools of a
/// long-running pipeline end up. After it no round allocates or faults a
/// page in, and peak RSS no longer depends on which round happened to
/// build the longest backlog.
fn fill_pools(rt: &Runtime, pools: &Pools, n: u64) {
    rt.scope(|s| {
        for pool in &pools.0 {
            let q = Hyperqueue::with_pool(s, pool);
            for i in 0..n {
                q.push(i);
            }
            for _ in 0..n {
                std::hint::black_box(q.pop());
            }
        }
    });
}

fn batched_round(rt: &Runtime, pools: &Pools, seed: u64, n: u64) -> u64 {
    let mut sum = 0u64;
    let sum_ref = &mut sum;
    rt.scope(move |s| {
        let q1 = Hyperqueue::with_pool(s, &pools.0[0]);
        let q2 = Hyperqueue::with_pool(s, &pools.0[1]);
        s.spawn((q1.pushdep(),), move |_, (mut push,)| {
            let mut buf = [0u64; BATCH];
            let mut i = 0u64;
            while i < n {
                let k = (n - i).min(BATCH as u64) as usize;
                for (j, slot) in buf[..k].iter_mut().enumerate() {
                    *slot = item(seed, i + j as u64);
                }
                push.push_slice(&buf[..k]);
                i += k as u64;
            }
        });
        s.spawn((q1.popdep(), q2.pushdep()), |_, (mut pop, mut push)| {
            let mut buf = [0u64; BATCH];
            while let Some(slice) = pop.read_slice(BATCH) {
                let vals = slice.as_slice();
                for (slot, &v) in buf.iter_mut().zip(vals) {
                    *slot = transform(v);
                }
                push.push_slice(&buf[..vals.len()]);
            }
        });
        s.spawn((q2.popdep(),), move |_, (mut pop,)| {
            let mut h = 0u64;
            pop.for_each_batch(BATCH, |vals| {
                for &v in vals {
                    h = fold(h, v);
                }
            });
            *sum_ref = h;
        });
    });
    sum
}

fn scalar_round(rt: &Runtime, pools: &Pools, seed: u64, n: u64) -> u64 {
    let mut sum = 0u64;
    let sum_ref = &mut sum;
    rt.scope(move |s| {
        let q1 = Hyperqueue::with_pool(s, &pools.0[0]);
        let q2 = Hyperqueue::with_pool(s, &pools.0[1]);
        s.spawn((q1.pushdep(),), move |_, (mut push,)| {
            for i in 0..n {
                push.push(item(seed, i));
            }
        });
        s.spawn((q1.popdep(), q2.pushdep()), |_, (mut pop, mut push)| {
            while !pop.empty() {
                push.push(transform(pop.pop()));
            }
        });
        s.spawn((q2.popdep(),), move |_, (mut pop,)| {
            let mut h = 0u64;
            while !pop.empty() {
                h = fold(h, pop.pop());
            }
            *sum_ref = h;
        });
    });
    sum
}

/// The scalar round hand-built from threads and one SPSC ring: a
/// producer thread and a consumer thread that transforms and folds. This
/// is the shape a hand-tuned pipeline takes on two cores — the same shape
/// on every machine, so the ratio against it compares across machines.
/// (A thread per stage would spin three threads on this box's two cores
/// and time the OS scheduler, not the ring.)
fn spsc_round(seed: u64, n: u64) -> u64 {
    let (tx, rx) = pipelines::spsc::<u64>(SPSC_CAPACITY);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..n {
                tx.send(item(seed, i));
            }
        });
        let mut h = 0u64;
        while let Some(v) = rx.recv() {
            h = fold(h, transform(v));
        }
        h
    })
}

/// One round of the cycle, with the checksum it produced and the one
/// the serial elision says it must produce.
fn run_round(rt: &Runtime, pools: &Pools, seed: u64, round: u64, want: (u64, u64)) -> Step {
    let (want_prefix, want_full) = want;
    let (kind, ops, span, got, want) = match round % 4 {
        0 => (
            Kind::Subject,
            BATCHED_ITEMS,
            "hyperqueue.round",
            batched_round(rt, pools, seed, BATCHED_ITEMS),
            want_full,
        ),
        1 => (
            Kind::Alternate,
            SCALAR_ITEMS,
            "hyperqueue.round",
            scalar_round(rt, pools, seed, SCALAR_ITEMS),
            want_prefix,
        ),
        2 => (
            Kind::Reference,
            SCALAR_ITEMS,
            "reference.round",
            spsc_round(seed, SCALAR_ITEMS),
            want_prefix,
        ),
        _ => {
            let (prefix, full) = serial_round(std::hint::black_box(seed));
            let both = |p: u64, f: u64| p ^ f.rotate_left(1);
            (
                Kind::Serial,
                BATCHED_ITEMS,
                "reference.round",
                both(prefix, full),
                both(want_prefix, want_full),
            )
        }
    };
    Step {
        kind,
        ops,
        span,
        got,
        want,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let seed = ctx.seed;
    let want = serial_round(seed);

    // Set-up a user waits for: runtime start → first round done, on cold
    // pools, so it pays for every segment the steady state then reuses.
    // Teardown happens between cycles but is not timed. Half the cycles
    // run before the window and half after it, so one slow minute of the
    // host cannot own the median.
    let setup_cycles = || -> Vec<f64> {
        (0..SETUP_CYCLES / 2)
            .map(|_| {
                let (secs, rt) = time(|| {
                    let rt = Runtime::with_workers(ctx.workers);
                    std::hint::black_box(batched_round(&rt, &Pools::new(), seed, SCALAR_ITEMS));
                    rt
                });
                drop(rt);
                secs
            })
            .collect()
    };
    let mut setup = setup_cycles();

    let rt = Runtime::with_workers(ctx.workers);
    let pools = Pools::new();
    fill_pools(&rt, &pools, BATCHED_ITEMS);
    let mut log = SpanLog::new(ctx.epoch, 4096);
    let sched0 = rt.metrics();
    // Warm-up: the pools at full size, then one cycle.
    let rounds = run_rounds(
        ctx.seconds,
        &[0, 1, 2, 3],
        ctx.trace.then_some(&mut log),
        |round| run_round(&rt, &pools, seed, round, want),
    );
    let sched1 = rt.metrics();
    let peak_rss_mb = peak_rss_mb();
    drop((rt, pools));
    setup.extend(setup_cycles());
    let blocks = &rounds.blocks;

    let mut report = Report::new(rounds.attempted, rounds.failed);
    report.notes.push(format!(
        "rounds {} (B {} items, P/R {} items, S serial elision)",
        blocks.len(),
        BATCHED_ITEMS,
        SCALAR_ITEMS
    ));
    let e2e = EndToEnd::of_blocks(blocks, median(&setup), peak_rss_mb);
    report.informational = e2e.raw();
    // The scalar path, printed beside the batched one: a gain for one
    // that costs the other shows as two numbers moving apart.
    if let Some(scalar) = median_per_op(blocks, Kind::Alternate) {
        report
            .informational
            .push(metric("throughput_peritem_ops_s", 1.0 / scalar, "1/s"));
        if let Some(spsc) = median_per_op(blocks, Kind::Reference) {
            report
                .informational
                .push(metric("vs_handbuilt_ratio", scalar / spsc, "ratio"));
        }
    }
    report.end_to_end = e2e.metrics();
    if ctx.trace {
        let serial_ns_per_item = median(
            &blocks
                .iter()
                .filter(|b| b.kind == Kind::Serial)
                .map(|b| b.secs * 1e9 / b.ops as f64)
                .collect::<Vec<_>>(),
        );
        let queue_items = blocks
            .iter()
            .filter(|b| matches!(b.kind, Kind::Subject | Kind::Alternate))
            .map(|b| b.ops)
            .sum();
        report.window = WindowCounters {
            // The generator's input-side work is the serial elision that
            // yields the expected checksums; its check is one compare.
            encode_us: serial_ns_per_item * 1e-3,
            verify_us: rounds.verify_secs * 1e6 / blocks.len() as f64,
            busy_share: rounds.verify_secs / rounds.window_secs,
            overhead_pct: log.recording_secs / rounds.window_secs * 100.0,
            ..WindowCounters::of_runtime(queue_items, &sched0, &sched1)
        };
        report.counters_start = crate::layers::sched_counters(&sched0);
        report.counters_end = crate::layers::sched_counters(&sched1);
        report.logs.push(log);
    }
    report
}
