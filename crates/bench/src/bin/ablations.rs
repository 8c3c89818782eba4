//! Ablation studies for the design choices DESIGN.md calls out (beyond the
//! paper's own figures):
//!
//! 1. queue segment capacity sweep, per item and in 256-value slices
//!    (§5.1 says programmers should tune it; DESIGN.md §2.1 quotes this
//!    table);
//! 2. drained-segment recycling on/off (§3.2's zero-allocation claim);
//! 3. slice API vs per-element push/pop (§5.2);
//! 4. pthreads thread-count tuning sensitivity (the scale-free argument:
//!    mis-tuned pthreads loses performance, hyperqueues have no knob);
//! 5. graph fan-out degree sweep on the logstream DAG workload (how much
//!    the `pipelines::graph` split/merge machinery buys over the linear
//!    chain, and where the distributor/merge overhead bites).
//!
//! ```text
//! cargo run --release -p bench --bin ablations [--scale small]
//! ```

use hyperqueue::{Hyperqueue, QueueStats, DEFAULT_SEGMENT_CAPACITY};
use swan::Runtime;
use workloads::ferret::{run_hyperqueue, run_pthread, run_serial, FerretConfig, PthreadTuning};
use workloads::logstream;

#[derive(Clone, Copy, PartialEq)]
enum Io {
    /// One `push`/`pop` call per element.
    PerItem,
    /// Explicit write/read slices (§5.2).
    Slices,
    /// The batched convenience API (`push_iter`/`for_each_batch`).
    Batched,
}

fn pipe_elems(
    rt: &Runtime,
    cap: usize,
    recycle: bool,
    items: u64,
    io: Io,
) -> (std::time::Duration, QueueStats) {
    let mut stats = QueueStats::default();
    let stats_ref = &mut stats;
    let (d, _) = bench::time(|| {
        rt.scope(move |s| {
            let q = Hyperqueue::<u64>::with_config(s, cap, recycle);
            s.spawn((q.pushdep(),), move |_, (mut p,)| match io {
                Io::PerItem => {
                    for i in 0..items {
                        p.push(i);
                    }
                }
                Io::Slices => {
                    let mut i = 0u64;
                    while i < items {
                        let mut ws = p.write_slice(256);
                        let n = ws.capacity().min((items - i) as usize);
                        for _ in 0..n {
                            ws.push(i);
                            i += 1;
                        }
                    }
                }
                Io::Batched => {
                    p.push_iter(0..items);
                }
            });
            s.spawn((q.popdep(),), move |_, (mut c,)| {
                let mut sum = 0u64;
                match io {
                    Io::PerItem => {
                        while !c.empty() {
                            sum += c.pop();
                        }
                    }
                    Io::Slices => {
                        while let Some(rs) = c.read_slice(256) {
                            sum += rs.as_slice().iter().sum::<u64>();
                        }
                    }
                    Io::Batched => {
                        c.for_each_batch(256, |vals| sum += vals.iter().sum::<u64>());
                    }
                }
                assert_eq!(sum, items * (items - 1) / 2);
            });
            s.sync();
            *stats_ref = q.stats();
        });
    });
    (d, stats)
}

fn main() {
    let args = bench::Args::parse();
    let items: u64 = if args.is_small() {
        2_000_000
    } else {
        20_000_000
    };
    let rt = Runtime::with_workers(2);

    println!("Ablation 1: segment capacity sweep ({items} u64 items, 1 producer + 1 consumer)");
    println!(
        "{:<10} {:>14} {:>16} {:>18} {:>12}",
        "capacity", "bytes/segment", "push/pop (ms)", "256-slices (ms)", "locks/kitem"
    );
    // Whether the consumer catches up with the producer (and blocks) or
    // trails it differs from run to run; each cell is the median of five.
    let median_of_5 = |cap: usize, io: Io| {
        let mut runs: Vec<_> = (0..5)
            .map(|_| pipe_elems(&rt, cap, true, items, io))
            .collect();
        runs.sort_by_key(|(d, _)| *d);
        runs.swap_remove(2)
    };
    for cap in [16usize, 64, 256, 1024, 4096, 16384] {
        let (per_item, _) = median_of_5(cap, Io::PerItem);
        let (slices, st) = median_of_5(cap, Io::Slices);
        println!(
            "{:<10} {:>14} {:>16.1} {:>18.1} {:>12.2}",
            cap,
            cap * std::mem::size_of::<u64>(),
            per_item.as_secs_f64() * 1e3,
            slices.as_secs_f64() * 1e3,
            st.lock_acquisitions as f64 / (items as f64 / 1e3)
        );
    }

    println!("\nAblation 2: drained-segment recycling (capacity {DEFAULT_SEGMENT_CAPACITY})");
    for (label, recycle) in [("recycle on", true), ("recycle off", false)] {
        let (d, _) = pipe_elems(&rt, DEFAULT_SEGMENT_CAPACITY, recycle, items, Io::PerItem);
        println!(
            "{:<12} {:>10.1} ms {:>10.1} Melems/s",
            label,
            d.as_secs_f64() * 1e3,
            items as f64 / d.as_secs_f64() / 1e6
        );
    }

    println!("\nAblation 3: per-element ops vs slices vs batched (§5.2, capacity 1024)");
    println!(
        "{:<12} {:>10} {:>12}   {:>6} {:>8} {:>10}",
        "mode", "time(ms)", "Melems/s", "locks", "advances", "suppressed"
    );
    for (label, io) in [
        ("push/pop", Io::PerItem),
        ("slices", Io::Slices),
        ("batched", Io::Batched),
    ] {
        let (d, st) = pipe_elems(&rt, 1024, true, items, io);
        println!(
            "{:<12} {:>10.1} {:>12.1}   {:>6} {:>8} {:>10}",
            label,
            d.as_secs_f64() * 1e3,
            items as f64 / d.as_secs_f64() / 1e6,
            st.lock_acquisitions,
            st.chain_advances,
            st.notifies_suppressed
        );
    }

    println!("\nAblation 4: pthreads tuning sensitivity vs scale-free hyperqueue (ferret)");
    let cores = bench::machine_cores().min(8);
    let cfg = FerretConfig::bench(if args.is_small() { 150 } else { 600 });
    let (serial_time, _) = bench::time(|| run_serial(&cfg));
    let tunings: Vec<(String, PthreadTuning)> = vec![
        (
            "1 thread/stage".into(),
            PthreadTuning::one_thread_per_stage(),
        ),
        (
            format!("tuned for {} cores", cores / 2),
            PthreadTuning::oversubscribed(cores / 2),
        ),
        (
            format!("tuned for {cores} cores"),
            PthreadTuning::oversubscribed(cores),
        ),
        (
            format!("tuned for {} cores", 4 * cores),
            PthreadTuning::oversubscribed(4 * cores),
        ),
    ];
    println!("machine restricted to {cores} cores for this ablation");
    for (label, tuning) in &tunings {
        let (d, _) = bench::time(|| run_pthread(&cfg, tuning));
        println!(
            "  pthreads {:<22} speedup {:>5.2}",
            label,
            serial_time.as_secs_f64() / d.as_secs_f64()
        );
    }
    let rt = Runtime::with_workers(cores);
    let (d, _) = bench::time(|| run_hyperqueue(&cfg, &rt));
    println!(
        "  hyperqueue (no knob)          speedup {:>5.2}",
        serial_time.as_secs_f64() / d.as_secs_f64()
    );

    println!("\nAblation 5: graph fan-out degree (logstream DAG workload, {cores} workers)");
    let lcfg = logstream::LogConfig::bench(if args.is_small() { 30_000 } else { 150_000 });
    let lines = logstream::corpus(&lcfg);
    let (lserial, _) = bench::time(|| logstream::run_serial(&lcfg, &lines));
    let (dlin, linear_out) = bench::time(|| logstream::run_linear(&lcfg, &lines, &rt));
    println!(
        "  {:<18} {:>9.1} ms  speedup vs serial {:>5.2}",
        "linear chain",
        dlin.as_secs_f64() * 1e3,
        lserial.as_secs_f64() / dlin.as_secs_f64()
    );
    for degree in [1usize, 2, 4, 8] {
        let (d, out) = bench::time(|| logstream::run_graph(&lcfg, &lines, &rt, degree));
        assert_eq!(
            out.checksum(),
            linear_out.checksum(),
            "fan-out degree {degree} diverged"
        );
        println!(
            "  {:<18} {:>9.1} ms  speedup vs serial {:>5.2}   vs linear {:>5.2}",
            format!("fan-out degree {degree}"),
            d.as_secs_f64() * 1e3,
            lserial.as_secs_f64() / d.as_secs_f64(),
            dlin.as_secs_f64() / d.as_secs_f64()
        );
    }
}
