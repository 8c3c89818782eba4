//! Dataflow dependence machinery: the generic engine plus versioned
//! objects.

pub mod engine;
pub mod versioned;

pub use engine::{AcquireCtx, DepArg, DepList, Release};
pub use versioned::{next_object_id, InDep, InOutDep, OutDep, ReadGuard, Versioned, WriteGuard};
