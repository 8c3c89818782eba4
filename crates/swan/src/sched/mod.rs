//! Scheduler internals: the task queue every worker and the injector use,
//! idle parking for workers, and the latch for threads that only wait.

mod queue;
mod sleeper;

pub use queue::TaskQueue;
pub use sleeper::{Latch, Sleeper};
