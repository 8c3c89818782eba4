//! # pipelines — pipeline programming models, from baselines to DAGs
//!
//! Two halves live here:
//!
//! **The paper's comparison baselines** (§6), rebuilt in Rust so every
//! programming model runs the same workload kernels on the same allocator:
//!
//! * **pthreads-style** building blocks: blocking bounded MPMC channels
//!   ([`bounded`]), a Lamport SPSC ring ([`spsc::SpscRing`]), and reorder buffers
//!   ([`reorder`]). The workload drivers hand-roll thread-per-stage
//!   pipelines from these, exactly like PARSEC's pthreads codes — including
//!   the per-machine thread-count tuning the paper criticizes.
//! * **TBB-style** [`tbb::TbbPipeline`]: a clone of Intel TBB's
//!   `parallel_pipeline` with serial-in-order and parallel filters and
//!   token-based throttling. Neither baseline is deterministic or
//!   scale-free; that contrast with the `hyperqueue` crate is the point of
//!   the evaluation.
//!
//! **The DAG composition layer** ([`graph`]): a typed builder that goes
//! *beyond* the paper's linear chains — deterministic fan-out
//! ([`graph::Node::split`]), sequence-tagged fan-in ([`graph::Fanout::merge`],
//! reusing the [`reorder`] machinery), sharded stateful stages with ordered
//! k-way merges, and multicast ([`graph::Node::tee`]) — all running on the
//! `swan` runtime over hyperqueue edges with batched slice I/O, and all
//! preserving the serial-elision determinism guarantee. See the [`graph`]
//! module docs for the contract and a worked example. On top of it sit
//! the **service layer** ([`service`]: persistent [`CompiledGraph`]s
//! serving many independent jobs) and the **network ingress**
//! ([`ingress`]: the `hqd` daemon's framed TCP protocol, with admission
//! backpressure surfaced to clients as explicit retry frames).

#![warn(missing_docs)]

pub mod bounded;
pub mod graph;
pub mod ingress;
pub mod journal;
pub mod partition;
pub mod reorder;
pub mod service;
pub mod spsc;
pub mod tbb;
pub mod telemetry;

pub use bounded::{channel, Receiver, Sender};
pub use graph::{Fanout, GraphBuilder, Node, Partition, Shards};
pub use ingress::{
    IngressClient, IngressConfig, IngressServer, IngressStats, JobCodec, QueryStatus,
    RecoveryReport, Router, RouterConfig, RouterStats,
};
pub use journal::{
    JobReplayStatus, Journal, JournalConfig, JournalStats, RecordKind, Replay, ReplayedJob,
};
pub use partition::{
    partition, rendezvous_route, Hyperedge, Hypergraph, PartitionConfig, PartitionResult,
};
pub use reorder::{ReorderBuffer, ReorderQueue};
pub use service::{
    Admission, CompiledGraph, GraphSpec, JobError, JobHandle, ServiceConfig, ServiceStorageStats,
    Submission,
};
pub use spsc::{spsc, SpscReceiver, SpscRing, SpscSender};
pub use tbb::{Item, TbbPipeline};
pub use telemetry::{
    ClassLatency, EdgeTelemetry, HistogramSnapshot, JournalTelemetry, LatencyHistogram,
    TelemetrySnapshot, TelemetrySource, TELEMETRY_VERSION,
};
