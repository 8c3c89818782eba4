//! Microbenchmarks of the hyperqueue data path: push/pop throughput of a
//! concurrent producer/consumer pair, compared against this repo's plain
//! Lamport SPSC ring and std's bounded mpsc channel (the "how much does
//! determinism cost per element?" question), plus the batched slice API
//! against per-item calls.
//!
//! Besides the criterion table, this harness writes `BENCH_queue_ops.json`
//! (median ns/op for per-item vs batched and steady-state vs cross-segment
//! traffic) so CI can archive a machine-readable perf trajectory.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use hyperqueue::{Hyperqueue, DEFAULT_SEGMENT_CAPACITY};
use swan::Runtime;

const ITEMS: u64 = 1_000_000;

fn hyperqueue_pair(rt: &Runtime, seg_cap: usize) {
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::with_segment_capacity(s, seg_cap);
        s.spawn((q.pushdep(),), |_, (mut p,)| {
            for i in 0..ITEMS {
                p.push(i);
            }
        });
        s.spawn((q.popdep(),), |_, (mut c,)| {
            let mut sum = 0u64;
            while !c.empty() {
                sum = sum.wrapping_add(c.pop());
            }
            assert_eq!(sum, ITEMS * (ITEMS - 1) / 2);
        });
    });
}

fn hyperqueue_pair_batched(rt: &Runtime, seg_cap: usize) {
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::with_segment_capacity(s, seg_cap);
        s.spawn((q.pushdep(),), |_, (mut p,)| {
            p.push_iter(0..ITEMS);
        });
        s.spawn((q.popdep(),), move |_, (mut c,)| {
            let mut sum = 0u64;
            c.for_each_batch(seg_cap, |vals| {
                for &v in vals {
                    sum = sum.wrapping_add(v);
                }
            });
            assert_eq!(sum, ITEMS * (ITEMS - 1) / 2);
        });
    });
}

fn spsc_pair(cap: usize) {
    let (tx, rx) = pipelines::spsc::<u64>(cap);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..ITEMS {
                tx.send(i);
            }
        });
        scope.spawn(move || {
            let mut sum = 0u64;
            while let Some(v) = rx.recv() {
                sum = sum.wrapping_add(v);
            }
            assert_eq!(sum, ITEMS * (ITEMS - 1) / 2);
        });
    });
}

fn mpsc_pair(cap: usize) {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(cap);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..ITEMS {
                tx.send(i).unwrap();
            }
        });
        scope.spawn(move || {
            let mut sum = 0u64;
            while let Ok(v) = rx.recv() {
                sum = sum.wrapping_add(v);
            }
            assert_eq!(sum, ITEMS * (ITEMS - 1) / 2);
        });
    });
}

/// Owner-only traffic confined to one segment (no boundary is ever
/// crossed): the pure lock-free fast path.
fn owner_steady_state(rt: &Runtime, seg_cap: usize, items: u64) {
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::with_segment_capacity(s, seg_cap);
        let burst = (seg_cap / 2) as u64;
        let mut sum = 0u64;
        let mut i = 0u64;
        while i < items {
            let n = burst.min(items - i);
            for v in i..i + n {
                q.push(v);
            }
            for _ in 0..n {
                sum = sum.wrapping_add(q.pop());
            }
            i += n;
        }
        std::hint::black_box(sum);
    });
}

/// The same single-segment ping-pong through the batched slice API
/// (`push_slice` staging from a local buffer, `read_slice` draining).
fn owner_steady_state_batched(rt: &Runtime, seg_cap: usize, items: u64) {
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::with_segment_capacity(s, seg_cap);
        let burst = (seg_cap / 2) as u64;
        let mut buf = vec![0u64; burst as usize];
        let mut sum = 0u64;
        let mut i = 0u64;
        while i < items {
            let n = burst.min(items - i);
            for (k, slot) in buf[..n as usize].iter_mut().enumerate() {
                *slot = i + k as u64;
            }
            q.push_slice(&buf[..n as usize]);
            let mut got = 0u64;
            while got < n {
                let rs = q.read_slice((n - got) as usize).expect("pushed above");
                got += rs.len() as u64;
                sum = sum.wrapping_add(rs.as_slice().iter().sum::<u64>());
            }
            i += n;
        }
        std::hint::black_box(sum);
    });
}

/// Owner-only traffic that builds a long segment chain first and then
/// drains it: every `seg_cap` pops is a segment transition (lock-free
/// chain advance plus the periodic recycling probe).
fn owner_cross_segment(rt: &Runtime, seg_cap: usize, items: u64) {
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::with_segment_capacity(s, seg_cap);
        for v in 0..items {
            q.push(v);
        }
        let mut sum = 0u64;
        for _ in 0..items {
            sum = sum.wrapping_add(q.pop());
        }
        std::hint::black_box(sum);
    });
}

/// The same cross-segment traffic through the batched API: this is the
/// per-op cost comparison free of producer/consumer scheduling noise.
fn owner_cross_segment_batched(rt: &Runtime, seg_cap: usize, items: u64) {
    rt.scope(|s| {
        let q = Hyperqueue::<u64>::with_segment_capacity(s, seg_cap);
        q.push_iter(0..items);
        let mut sum = 0u64;
        q.for_each_batch(seg_cap, |vals| {
            for &v in vals {
                sum = sum.wrapping_add(v);
            }
        });
        assert_eq!(sum, items * (items - 1) / 2);
    });
}

fn bench_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("spsc_throughput");
    g.throughput(Throughput::Elements(ITEMS));
    g.sample_size(10);
    let rt = Runtime::with_workers(2);
    g.bench_function(BenchmarkId::new("hyperqueue", 1024), |b| {
        b.iter(|| hyperqueue_pair(&rt, 1024))
    });
    g.bench_function(BenchmarkId::new("hyperqueue_batched", 1024), |b| {
        b.iter(|| hyperqueue_pair_batched(&rt, 1024))
    });
    g.bench_function(BenchmarkId::new("lamport_spsc", 1024), |b| {
        b.iter(|| spsc_pair(1024))
    });
    g.bench_function(BenchmarkId::new("mpsc_bounded", 1024), |b| {
        b.iter(|| mpsc_pair(1024))
    });
    g.finish();
}

fn bench_owner_ops(c: &mut Criterion) {
    // Owner-only push+pop (no concurrency): the raw segment fast path.
    let mut g = c.benchmark_group("owner_ops");
    g.throughput(Throughput::Elements(100_000));
    g.sample_size(20);
    let rt = Runtime::with_workers(1);
    g.bench_function("steady_state_100k", |b| {
        b.iter(|| owner_steady_state(&rt, 4096, 100_000))
    });
    g.bench_function("steady_state_batched_100k", |b| {
        b.iter(|| owner_steady_state_batched(&rt, 4096, 100_000))
    });
    g.bench_function("cross_segment_100k", |b| {
        b.iter(|| owner_cross_segment(&rt, 256, 100_000))
    });
    g.bench_function("cross_segment_batched_100k", |b| {
        b.iter(|| owner_cross_segment_batched(&rt, 256, 100_000))
    });
    g.finish();
}

criterion_group!(benches, bench_queues, bench_owner_ops);

// ---------------------------------------------------------------------------
// BENCH_queue_ops.json: the machine-readable perf record CI archives.
// ---------------------------------------------------------------------------

/// Median ns per transported element over `reps` runs of `f`, where each
/// run moves `ops` values through the queue (one "op" = one value pushed
/// and popped — the same accounting for every row of the JSON).
fn median_ns_per_op(reps: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (d, ()) = bench::time(&mut f);
            d.as_nanos() as f64 / ops as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn emit_json() {
    const SEG_CAP: usize = DEFAULT_SEGMENT_CAPACITY;
    let smoke = std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let reps = if smoke { 1 } else { 5 };
    let rt = Runtime::with_workers(2);
    let rt1 = Runtime::with_workers(1);

    // The 2×2 matrix: {per-item, batched} × {steady-state, cross-segment},
    // all uncontended (owner-only) so the per-op cost is what's measured,
    // not producer/consumer rendezvous noise. Steady state = ring wraps in
    // place (the paper's zero-allocation regime); cross-segment = a long
    // published chain is built and then drained (segment transitions,
    // chain advances, recycling).
    let steady_item = median_ns_per_op(reps, ITEMS, || owner_steady_state(&rt1, SEG_CAP, ITEMS));
    let steady_batch = median_ns_per_op(reps, ITEMS, || {
        owner_steady_state_batched(&rt1, SEG_CAP, ITEMS)
    });
    let cross_item = median_ns_per_op(reps, 100_000, || {
        owner_cross_segment(&rt1, SEG_CAP, 100_000)
    });
    let cross_batch = median_ns_per_op(reps, 100_000, || {
        owner_cross_segment_batched(&rt1, SEG_CAP, 100_000)
    });
    // Concurrent pair, for context (dominated by producer/consumer
    // rendezvous, so noisier run to run).
    let spsc_item = median_ns_per_op(reps, ITEMS, || hyperqueue_pair(&rt, SEG_CAP));
    let spsc_batch = median_ns_per_op(reps, ITEMS, || hyperqueue_pair_batched(&rt, SEG_CAP));

    // machine_cores names the runner class the record was taken on.
    let json = format!(
        "{{\n  \"bench\": \"queue_ops\",\n  \"segment_capacity\": {SEG_CAP},\n  \
         \"items\": {ITEMS},\n  \"reps\": {reps},\n  \
         \"machine_cores\": {},\n  \"median_ns_per_op\": {{\n    \
         \"steady_state_per_item\": {steady_item:.2},\n    \
         \"steady_state_batched\": {steady_batch:.2},\n    \
         \"cross_segment_per_item\": {cross_item:.2},\n    \
         \"cross_segment_batched\": {cross_batch:.2},\n    \
         \"spsc_per_item\": {spsc_item:.2},\n    \"spsc_batched\": {spsc_batch:.2}\n  }},\n  \
         \"batched_speedup_vs_per_item\": {:.2},\n  \
         \"batched_cross_segment_speedup\": {:.2},\n  \
         \"batched_spsc_speedup\": {:.2}\n}}\n",
        bench::machine_cores(),
        steady_item / steady_batch,
        cross_item / cross_batch,
        spsc_item / spsc_batch
    );
    std::fs::write("BENCH_queue_ops.json", &json).expect("write BENCH_queue_ops.json");
    println!("\nBENCH_queue_ops.json:\n{json}");
}

fn main() {
    benches();
    emit_json();
}
