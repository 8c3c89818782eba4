//! Pipeline-shape semantics, from the paper's chains to arbitrary DAGs.
//!
//! Part 1 — cross-model agreement for the three evaluation workloads
//! (Figures 7 and 9 describe the shapes; the tests pin the *semantics*):
//! every programming model must produce byte-identical output, and that
//! output must verify (dedup archives and bzip2 streams decode back to
//! the original input).
//!
//! Part 2 — the DAG determinism sweep: randomly generated graph shapes
//! (fan-out degree 1–4, merge windows 1–64, segment capacities 2–8,
//! round-robin and keyed routing, optional tee) built on
//! `pipelines::graph` must produce byte-identical output on 1/2/8
//! workers, equal to the serial elision computed by plain iterator code.
//!
//! Part 3 — the graph-shaped logstream workload agrees across serial,
//! linear-chain and fan-out drivers at every worker count.

use hyperqueues::pipelines::graph::{GraphBuilder, Partition};
use hyperqueues::swan::Runtime;
use hyperqueues::workloads::{bzip2, dedup, ferret, logstream};
use proptest::prelude::*;

#[test]
fn ferret_all_models_agree() {
    let cfg = ferret::FerretConfig::small();
    let (serial, _) = ferret::run_serial(&cfg);
    let rt = Runtime::with_workers(6);
    assert_eq!(
        ferret::run_pthread(&cfg, &ferret::PthreadTuning::oversubscribed(6)).checksum(),
        serial.checksum()
    );
    assert_eq!(ferret::run_tbb(&cfg, 6, 24).checksum(), serial.checksum());
    assert_eq!(ferret::run_objects(&cfg, &rt).checksum(), serial.checksum());
    assert_eq!(
        ferret::run_hyperqueue(&cfg, &rt).checksum(),
        serial.checksum()
    );
}

#[test]
fn dedup_all_models_agree_and_roundtrip() {
    let cfg = dedup::DedupConfig::small();
    let data = dedup::corpus(&cfg);
    let (serial, _) = dedup::run_serial(&cfg, &data);
    let rt = Runtime::with_workers(6);

    let archives = [
        dedup::run_pthread(&cfg, &data, &dedup::DedupTuning::oversubscribed(6)),
        dedup::run_tbb(&cfg, &data, 6, 12),
        dedup::run_objects(&cfg, &data, &rt),
        dedup::run_hyperqueue(&cfg, &data, &rt),
    ];
    for (i, a) in archives.iter().enumerate() {
        assert_eq!(a.checksum(), serial.checksum(), "model {i} diverged");
    }
    let restored = dedup::unarchive(&serial.bytes).expect("decodes");
    assert_eq!(&restored[..], &data[..]);
}

#[test]
fn bzip2_all_models_agree_and_roundtrip() {
    let cfg = bzip2::Bzip2Config::small();
    let data = bzip2::corpus(&cfg);
    let (serial, _) = bzip2::run_serial(&cfg, &data);
    let rt = Runtime::with_workers(6);
    let reference = hyperqueues::workloads::util::fnv1a(&serial);

    for (name, stream) in [
        ("objects", bzip2::run_objects(&cfg, &data, &rt)),
        ("hyperqueue", bzip2::run_hyperqueue(&cfg, &data, &rt)),
        (
            "loop-split",
            bzip2::run_hyperqueue_split(&cfg, &data, &rt, 4),
        ),
    ] {
        assert_eq!(
            hyperqueues::workloads::util::fnv1a(&stream),
            reference,
            "{name} diverged"
        );
    }
    let restored = bzip2::decompress_stream(&serial).expect("decodes");
    assert_eq!(&restored[..], &data[..]);
}

// ---------------------------------------------------------------------------
// Part 2: the DAG determinism sweep (pipelines::graph).
// ---------------------------------------------------------------------------

/// One randomly drawn layer of a DAG shape.
#[derive(Clone, Debug)]
enum ShapeOp {
    /// A linear map stage.
    Map { mul: u64, add: u64 },
    /// `split(degree) → replica map → merge(window)`, round-robin or keyed.
    FanOut {
        degree: usize,
        window: usize,
        keyed: bool,
        mul: u64,
    },
    /// Multicast: the side branch folds an order-sensitive checksum.
    Tee,
}

fn mix(x: u64, mul: u64, add: u64) -> u64 {
    x.wrapping_mul(mul | 1).wrapping_add(add)
}

fn fold_step(acc: u64, v: u64) -> u64 {
    acc.rotate_left(7) ^ v
}

/// The serial elision of a shape: plain iterator code — no tasks, no
/// queues. This is the oracle every parallel run must reproduce exactly.
fn serial_elision(total: u64, ops: &[ShapeOp]) -> (Vec<u64>, Vec<u64>) {
    let mut vals: Vec<u64> = (0..total).collect();
    let mut tees = Vec::new();
    for op in ops {
        match op {
            ShapeOp::Map { mul, add } => {
                vals.iter_mut().for_each(|v| *v = mix(*v, *mul, *add));
            }
            // A fan-out/merge pair is observationally a map.
            ShapeOp::FanOut { mul, .. } => {
                vals.iter_mut().for_each(|v| *v = mix(*v, *mul, 1));
            }
            ShapeOp::Tee => tees.push(vals.iter().copied().fold(0, fold_step)),
        }
    }
    (vals, tees)
}

/// Builds and runs the same shape on the graph layer.
fn graph_run(total: u64, ops: &[ShapeOp], seg_cap: usize, workers: usize) -> (Vec<u64>, Vec<u64>) {
    let rt = Runtime::with_workers(workers);
    let mut out = Vec::new();
    let tee_count = ops.iter().filter(|o| matches!(o, ShapeOp::Tee)).count();
    let mut tee_sums = vec![0u64; tee_count];
    {
        let out_ref = &mut out;
        let ops = ops.to_vec();
        let mut tee_slots: std::collections::VecDeque<&mut u64> = tee_sums.iter_mut().collect();
        rt.scope(move |s| {
            let gb = GraphBuilder::on(s)
                .segment_capacity(seg_cap)
                .io_batch(seg_cap);
            let mut node = gb.source_iter(0..total);
            for op in ops {
                node = match op {
                    ShapeOp::Map { mul, add } => node.map(move |x| mix(x, mul, add)),
                    ShapeOp::FanOut {
                        degree,
                        window,
                        keyed,
                        mul,
                    } => {
                        let part = if keyed {
                            Partition::keyed(|v: &u64| v % 7)
                        } else {
                            Partition::RoundRobin
                        };
                        node.split(degree, part)
                            .map(move |x| mix(x, mul, 1))
                            .merge(window)
                    }
                    ShapeOp::Tee => {
                        let (a, b) = node.tee();
                        let slot = tee_slots.pop_front().expect("one slot per tee");
                        b.for_each(move |v| *slot = fold_step(*slot, v));
                        a
                    }
                };
            }
            node.collect_into(out_ref);
        });
    }
    (out, tee_sums)
}

fn op_strategy() -> impl Strategy<Value = ShapeOp> {
    prop_oneof![
        (1u64..1000, 0u64..1000).prop_map(|(mul, add)| ShapeOp::Map { mul, add }),
        (1usize..=4, 1usize..=64, any::<bool>(), 1u64..1000).prop_map(
            |(degree, window, keyed, mul)| ShapeOp::FanOut {
                degree,
                window,
                keyed,
                mul,
            }
        ),
        Just(ShapeOp::Tee),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// ≥ 20 random DAG shapes (fan-out degree 1–4, merge windows 1–64,
    /// segment capacities 2–8, RR/keyed routing, tees), each run on 1, 2
    /// and 8 workers: the merged output and every tee-branch fold must be
    /// byte-identical to the serial elision.
    #[test]
    fn random_dag_shapes_match_serial_elision_at_all_worker_counts(
        total in 1u64..400,
        seg_cap in 2usize..=8,
        ops in prop::collection::vec(op_strategy(), 1..5),
    ) {
        let (expect, expect_tees) = serial_elision(total, &ops);
        for workers in [1usize, 2, 8] {
            let (got, tees) = graph_run(total, &ops, seg_cap, workers);
            prop_assert_eq!(
                &got, &expect,
                "main output diverged: {workers} workers, cap {seg_cap}, ops {ops:?}"
            );
            prop_assert_eq!(
                &tees, &expect_tees,
                "tee branch diverged: {workers} workers, cap {seg_cap}, ops {ops:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Part 3: the graph-shaped logstream workload.
// ---------------------------------------------------------------------------

#[test]
fn logstream_all_drivers_agree_across_worker_counts() {
    let cfg = logstream::LogConfig::small();
    let lines = logstream::corpus(&cfg);
    let (serial, _) = logstream::run_serial(&cfg, &lines);
    for workers in [1, 2, 8] {
        let rt = Runtime::with_workers(workers);
        assert_eq!(
            logstream::run_linear(&cfg, &lines, &rt),
            serial,
            "linear at {workers} workers"
        );
        for degree in [1, 3, cfg.shards] {
            assert_eq!(
                logstream::run_graph(&cfg, &lines, &rt, degree),
                serial,
                "graph degree {degree} at {workers} workers"
            );
        }
    }
}

#[test]
fn workloads_scale_free_same_binary_many_core_counts() {
    // The scale-free property: identical outputs from the identical
    // program text across core counts, for all three workloads at once.
    let fcfg = ferret::FerretConfig::small();
    let dcfg = dedup::DedupConfig::small();
    let bcfg = bzip2::Bzip2Config::small();
    let ddata = dedup::corpus(&dcfg);
    let bdata = bzip2::corpus(&bcfg);
    let (fs, _) = ferret::run_serial(&fcfg);
    let (ds, _) = dedup::run_serial(&dcfg, &ddata);
    let (bs, _) = bzip2::run_serial(&bcfg, &bdata);
    for workers in [1, 3, 8, 16] {
        let rt = Runtime::with_workers(workers);
        assert_eq!(
            ferret::run_hyperqueue(&fcfg, &rt).checksum(),
            fs.checksum(),
            "ferret at {workers}"
        );
        assert_eq!(
            dedup::run_hyperqueue(&dcfg, &ddata, &rt).checksum(),
            ds.checksum(),
            "dedup at {workers}"
        );
        assert_eq!(
            hyperqueues::workloads::util::fnv1a(&bzip2::run_hyperqueue(&bcfg, &bdata, &rt)),
            hyperqueues::workloads::util::fnv1a(&bs),
            "bzip2 at {workers}"
        );
    }
}
