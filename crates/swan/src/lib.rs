//! # swan — a deterministic task-dataflow runtime
//!
//! A from-scratch Rust reimplementation of the substrate underneath the
//! SC'13 paper *"Deterministic Scale-Free Pipeline Parallelism with
//! Hyperqueues"* (Vandierendonck, Chronaki, Nikolopoulos): a Cilk-style
//! spawn/sync runtime with task-dataflow dependences over *versioned
//! objects* (`indep`/`outdep`/`inoutdep`), executed by a work-stealing
//! worker pool.
//!
//! The hyperqueue itself lives in the `hyperqueue` crate and plugs into
//! this runtime through the [`DepArg`] trait — the same extension point the
//! versioned objects use.
//!
//! ## Quick start
//!
//! ```
//! use swan::{Runtime, Versioned};
//!
//! let rt = Runtime::with_workers(4);
//! let acc: Versioned<Vec<u32>> = Versioned::new(Vec::new());
//! rt.scope(|s| {
//!     for i in 0..4 {
//!         // `update` = inoutdep: tasks are serialized in program order.
//!         s.spawn((acc.update(),), move |_, (mut v,)| v.push(i));
//!     }
//! });
//! assert_eq!(acc.read_latest(), vec![0, 1, 2, 3]);
//! ```
//!
//! ## Determinism model
//!
//! Programs whose tasks communicate only through dependency objects
//! (versioned objects, hyperqueues) are *serializable*: the observable
//! effects equal those of the serial elision (run every `spawn` as a plain
//! call). The scheduler may interleave independent tasks arbitrarily, but
//! dependence edges are derived from spawn order, which is fixed by the
//! program text.

#![deny(missing_docs)]

mod config;
pub mod dataflow;
pub mod frame;
pub mod jobs;
mod metrics;
mod runtime;
mod sched;
mod scope;
pub mod util;

pub use config::{ChaosConfig, RuntimeConfig};
pub use dataflow::{
    next_object_id, AcquireCtx, DepArg, DepList, InDep, InOutDep, OutDep, ReadGuard, Release,
    Versioned, WriteGuard,
};
pub use frame::{Frame, FrameId, HelpMode};
pub use jobs::{Entered, JobTable, JobTableStats, Refused, RetryDecision, RetryPolicy};
pub use metrics::{Metrics, MetricsSnapshot};
pub use runtime::{Runtime, RuntimeHandle};
pub use scope::Scope;
