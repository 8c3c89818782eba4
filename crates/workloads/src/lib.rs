//! # workloads — the paper's evaluation benchmarks, end to end
//!
//! PARSEC-like pipeline workloads with drivers for every programming model
//! the paper compares (§6): serial, pthreads-style, TBB-style, Swan
//! versioned-object dataflow, and hyperqueues.
//!
//! * [`ferret`] — 6-stage image-similarity search (Table 1, Figure 8)
//! * [`dedup`] — 5-stage deduplicating compressor (Table 2, Figure 11)
//! * [`bzip2`] — 3-stage block compressor (§6.3)
//! * [`logstream`] — streaming log analytics over a **graph-shaped**
//!   pipeline (tee + keyed shards with an ordered fan-in + a farm), the
//!   workload that exercises `pipelines::graph` beyond the paper's
//!   straight chains
//! * [`service`] — small wordcount/logstream jobs served by a
//!   **persistent** compiled graph: the service-runtime workload (serial
//!   elisions, a seeded per-job corpus, zero-allocation steady state)
//! * [`wire`] — the job codecs that put the service workloads on the
//!   `hqd` network-ingress protocol (see `pipelines::ingress`)
//!
//! Every workload is *algorithmically real* (the dedup output really
//! round-trips; bzip2 really compresses via BWT+MTF+Huffman) but runs on
//! deterministic synthetic inputs; see DESIGN.md for the substitutions.

#![warn(missing_docs)]

pub mod bzip2;
pub mod dedup;
pub mod entropy;
pub mod ferret;
pub mod logstream;
pub mod service;
pub mod timing;
pub mod util;
pub mod wire;

pub use timing::{StageClock, StageEntry};
