//! # hyperqueues — deterministic scale-free pipeline parallelism
//!
//! Umbrella crate for the Rust reproduction of *"Deterministic Scale-Free
//! Pipeline Parallelism with Hyperqueues"* (Vandierendonck, Chronaki,
//! Nikolopoulos — SC 2013). It re-exports the workspace crates:
//!
//! * [`swan`] — the task-dataflow work-stealing runtime (spawn/sync,
//!   versioned objects with `indep`/`outdep`/`inoutdep`);
//! * [`hyperqueue`] — the paper's contribution: deterministic queues with
//!   `pushdep`/`popdep`/`pushpopdep` access modes;
//! * [`pipelines`] — the pthreads-style and TBB-style comparison baselines,
//!   plus `pipelines::graph`, the deterministic DAG composition layer
//!   (farms, keyed shards and tees over hyperqueue edges);
//! * [`workloads`] — ferret, dedup and bzip2, each with drivers for every
//!   programming model of the paper's evaluation, plus the graph-shaped
//!   logstream workload.
//!
//! See `examples/quickstart.rs` for a two-minute tour, and the `bench`
//! crate's binaries (`table1`, `table2`, `fig8`, `fig11`, `bzip2_results`,
//! `ablations`) for the evaluation harness.
//!
//! ```
//! use hyperqueues::hyperqueue::Hyperqueue;
//! use hyperqueues::swan::Runtime;
//!
//! let rt = Runtime::with_workers(4);
//! let mut out = Vec::new();
//! rt.scope(|s| {
//!     let q = Hyperqueue::<u32>::new(s);
//!     s.spawn((q.pushdep(),), |_, (mut p,)| {
//!         for i in 0..10 {
//!             p.push(i * i);
//!         }
//!     });
//!     while !q.empty() {
//!         out.push(q.pop());
//!     }
//! });
//! assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
//! ```

pub use hyperqueue;
pub use pipelines;
pub use swan;
pub use workloads;
