//! A small fixed pipeline run across all four programming models — the
//! per-model overhead comparison at a size where criterion can iterate —
//! plus a three-stage hyperqueue micro pipeline in per-item and batched
//! form (how much of the per-token cost does slice I/O recover?).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hyperqueue::Hyperqueue;
use swan::Runtime;
use workloads::ferret::{
    run_hyperqueue, run_objects, run_pthread, run_tbb, FerretConfig, PthreadTuning,
};

fn bench_models(c: &mut Criterion) {
    let cfg = FerretConfig {
        total_images: 96,
        ..FerretConfig::small()
    };
    let workers = 4usize;
    let rt = Runtime::with_workers(workers);
    let mut g = c.benchmark_group("ferret_96_images_4workers");
    g.sample_size(10);
    g.bench_function("pthreads", |b| {
        b.iter(|| run_pthread(&cfg, &PthreadTuning::oversubscribed(workers)))
    });
    g.bench_function("tbb", |b| b.iter(|| run_tbb(&cfg, workers, 4 * workers)));
    g.bench_function("objects", |b| b.iter(|| run_objects(&cfg, &rt)));
    g.bench_function("hyperqueue", |b| b.iter(|| run_hyperqueue(&cfg, &rt)));
    g.finish();
}

/// gen → double → sum over two hyperqueues; the token cost of a
/// pass-through stage is what separates per-item from batched here.
fn micro_3stage(rt: &Runtime, items: u64, batched: bool) {
    rt.scope(|s| {
        let q1 = Hyperqueue::<u64>::new(s);
        let q2 = Hyperqueue::<u64>::new(s);
        if batched {
            s.spawn((q1.pushdep(),), move |_, (mut p,)| {
                p.push_iter(0..items);
            });
            s.spawn((q1.popdep(), q2.pushdep()), |_, (mut c, mut p)| loop {
                let batch = c.pop_batch(256);
                if batch.is_empty() {
                    break;
                }
                p.push_iter(batch.into_iter().map(|v| v * 2));
            });
            s.spawn((q2.popdep(),), move |_, (mut c,)| {
                let mut sum = 0u64;
                c.for_each_batch(256, |vals| {
                    for &v in vals {
                        sum = sum.wrapping_add(v);
                    }
                });
                assert_eq!(sum, items * (items - 1));
            });
        } else {
            s.spawn((q1.pushdep(),), move |_, (mut p,)| {
                for i in 0..items {
                    p.push(i);
                }
            });
            s.spawn((q1.popdep(), q2.pushdep()), |_, (mut c, mut p)| {
                while !c.empty() {
                    p.push(c.pop() * 2);
                }
            });
            s.spawn((q2.popdep(),), move |_, (mut c,)| {
                let mut sum = 0u64;
                while !c.empty() {
                    sum = sum.wrapping_add(c.pop());
                }
                assert_eq!(sum, items * (items - 1));
            });
        }
    });
}

fn bench_micro_batching(c: &mut Criterion) {
    const ITEMS: u64 = 500_000;
    let rt = Runtime::with_workers(3);
    let mut g = c.benchmark_group("micro_3stage_500k");
    g.throughput(Throughput::Elements(ITEMS));
    g.sample_size(10);
    g.bench_function("per_item", |b| b.iter(|| micro_3stage(&rt, ITEMS, false)));
    g.bench_function("batched", |b| b.iter(|| micro_3stage(&rt, ITEMS, true)));
    g.finish();
}

criterion_group!(benches, bench_models, bench_micro_batching);
criterion_main!(benches);
