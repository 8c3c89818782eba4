//! Streaming log analytics on a graph-shaped pipeline — the
//! `pipelines::graph` tour.
//!
//! ```text
//! cargo run --release --example logstream [records] [degree]
//! ```
//!
//! Builds the DAG (tee → keyed fan-out over aggregation shards →
//! ordered key-merge, plus a digest farmed out one child per batch),
//! runs it at several worker counts, and shows the output is
//! byte-identical every time — then prints a hand-built mini-DAG so the
//! builder API is visible end to end.

use hyperqueues::pipelines::graph::GraphBuilder;
use hyperqueues::swan::Runtime;
use hyperqueues::workloads::logstream::{corpus, run_graph, run_serial, LogConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let records: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(40_000);
    let degree: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let mut cfg = LogConfig::bench(records);
    cfg.parse_work = 40; // keep the demo snappy
    let lines = corpus(&cfg);
    println!(
        "logstream: {} records, {} services, shard degree {degree}",
        cfg.records, cfg.services
    );

    let (serial, clock) = run_serial(&cfg, &lines);
    println!("\n{}", clock.render("serial stage profile"));

    for workers in [1, 2, 4, 8] {
        let rt = Runtime::with_workers(workers);
        let (d, out) = {
            let t0 = std::time::Instant::now();
            let out = run_graph(&cfg, &lines, &rt, degree);
            (t0.elapsed(), out)
        };
        assert_eq!(out, serial, "graph output diverged at {workers} workers");
        println!(
            "graph x{degree} on {workers} workers: {:>7.1} ms  checksum {:#018x}  (identical)",
            d.as_secs_f64() * 1e3,
            out.checksum()
        );
    }
    println!("\nfirst summaries:");
    for line in serial.summaries.iter().take(3) {
        println!("  {line}");
    }

    // The builder API in miniature: farm a squaring stage out one child
    // per 4-value segment (in serial order, from the views), tee a
    // checksum branch.
    let rt = Runtime::with_workers(4);
    let mut squares = Vec::new();
    let mut checksum = 0u64;
    let (sq_ref, ck_ref) = (&mut squares, &mut checksum);
    rt.scope(move |s| {
        let (main, side) = GraphBuilder::on(s)
            .segment_capacity(4)
            .io_batch(4)
            .source_iter(1u64..=10)
            .tee();
        main.farm_map(|x| x * x).collect_into(sq_ref);
        side.for_each(move |x| *ck_ref += x);
    });
    println!(
        "\nmini-DAG: squares of 1..=10 via a farm of 4-value children = {squares:?} \
         (sum of inputs: {checksum})"
    );
}
