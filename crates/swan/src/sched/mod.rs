//! Scheduler internals: per-worker Chase-Lev deques, the global
//! injector, the task registry (the single arbiter of task state), and
//! idle parking.

mod deque;
mod injector;
mod registry;
mod sleeper;

pub use deque::Deque;
pub use injector::Injector;
pub use registry::{Registry, ReleaseFn, RunnableTask, TaskBody};
pub use sleeper::Sleeper;
