//! Job admission for persistent runtimes: a bounded, FIFO-fair job table.
//!
//! A persistent runtime (see [`crate::Runtime::persistent`]) keeps its
//! worker pool hot and lets clients push many independent *jobs* through
//! it. Unbounded concurrent admission would let a burst of jobs thrash the
//! scheduler (and the memory of every pipeline instantiated per job), so
//! services gate job entry through a [`JobTable`]:
//!
//! * **bounded in-flight**: at most `max_in_flight` jobs execute at once;
//! * **FIFO fairness**: jobs start strictly in the order they entered —
//!   no job can overtake an earlier one at the gate, so tail latency
//!   degrades gracefully under load instead of starving the unlucky;
//! * **requests queue, threads don't**: the gate never blocks. A job that
//!   finds every slot taken leaves its *request* (whatever the service
//!   needs to start it later) in the table, and the job that next
//!   [`leave`](JobTable::leave)s is handed that request to start.
//!
//! The table is deliberately runtime-agnostic: it orders *admissions*,
//! not tasks. `pipelines::graph::CompiledGraph` drives one per compiled
//! graph, starting each admitted request as a detached root
//! ([`crate::Runtime::spawn_root`]) whose completion hook calls `leave`.
//!
//! ```
//! use swan::JobTable;
//!
//! let table = JobTable::new(1);
//! let first = table.enter("a", usize::MAX).unwrap();
//! assert_eq!((first.seq, first.start), (0, Some("a"))); // free slot: start now
//! let second = table.enter("b", usize::MAX).unwrap();
//! assert_eq!((second.seq, second.start), (1, None)); // parked behind "a"
//! assert_eq!(table.leave(), Some("b")); // "a" is done: its slot goes to "b"
//! assert_eq!(table.leave(), None);
//! assert_eq!(table.stats().completed, 2);
//! ```

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::Mutex;

/// Counters reported by [`JobTable::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTableStats {
    /// Jobs entered so far (retry re-admissions enter again).
    pub submitted: u64,
    /// Executions that have left the table.
    pub completed: u64,
    /// Jobs currently holding a slot (executing).
    pub in_flight: usize,
    /// Requests parked behind the gate.
    pub queued: usize,
    /// Highest concurrent `in_flight` ever observed — always
    /// `<= max_in_flight`, which is the admission-control invariant the
    /// service tests assert.
    pub high_water_in_flight: usize,
    /// The configured bound.
    pub max_in_flight: usize,
    /// Failed executions that were re-admitted per [`RetryPolicy`].
    pub retries: u64,
    /// Jobs that exhausted their retry budget and failed terminally.
    pub failed: u64,
}

/// What [`RetryPolicy::on_failure`] decided about a failed execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Re-admit the job after waiting `backoff`.
    Retry {
        /// How long to wait before the re-attempt.
        backoff: Duration,
    },
    /// The retry budget is exhausted: fail the job terminally.
    GiveUp {
        /// Total execution attempts consumed (initial run + retries).
        attempts: u32,
    },
}

/// Bounded-exponential-backoff retry policy for failed jobs.
///
/// A job's first execution is attempt 0. After a failure on attempt `a`,
/// [`RetryPolicy::on_failure`] allows a re-admission while `a <
/// max_retries`, with a backoff of `base_backoff * 2^a` capped at
/// `max_backoff` — so a job is executed at most `max_retries + 1` times.
/// [`RetryPolicy::none`] (also [`Default`]) disables retries, which keeps
/// the fail-fast behaviour existing services were built on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-admissions allowed after the initial attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: a failed job fails terminally at once.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Up to `max_retries` re-admissions with a 1 ms base backoff capped
    /// at 100 ms — the shape services and tests want by default.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
        }
    }

    /// The backoff before re-admitting a job that failed on `attempt`
    /// (0-based): `base_backoff * 2^attempt`, saturating at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(31)).unwrap_or(u32::MAX);
        self.base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff)
    }

    /// Decides what happens after a failure on `attempt` (0-based).
    pub fn on_failure(&self, attempt: u32) -> RetryDecision {
        if attempt < self.max_retries {
            RetryDecision::Retry {
                backoff: self.backoff(attempt),
            }
        } else {
            RetryDecision::GiveUp {
                attempts: attempt + 1,
            }
        }
    }
}

struct TableState<R> {
    entered: u64,
    in_flight: usize,
    completed: u64,
    high_water: usize,
    retries: u64,
    failed: u64,
    /// Requests waiting for a slot, oldest first. Non-empty only while
    /// every slot is taken: `leave` hands a freed slot straight on.
    waiting: VecDeque<R>,
}

/// Bounded FIFO admission gate for jobs on a persistent runtime (see
/// module docs). `R` is the parked request: whatever the service needs to
/// start the job once a slot frees.
pub struct JobTable<R> {
    max_in_flight: usize,
    state: Mutex<TableState<R>>,
}

/// A request the table accepted (see [`JobTable::enter`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Entered<R> {
    /// Position of this job in the global admission order (0-based).
    pub seq: u64,
    /// `Some`: a slot was free and is now this job's — start it. `None`:
    /// the request is parked; a later [`JobTable::leave`] returns it.
    pub start: Option<R>,
}

/// A request the table refused: the waiting line was at its bound.
#[derive(Debug, PartialEq, Eq)]
pub struct Refused<R> {
    /// Waiting-line depth observed under the lock at refusal.
    pub depth: usize,
    /// The refused request, handed back.
    pub request: R,
}

impl<R> JobTable<R> {
    /// Creates a table admitting at most `max_in_flight` concurrent jobs
    /// (clamped to at least 1).
    pub fn new(max_in_flight: usize) -> Self {
        JobTable {
            max_in_flight: max_in_flight.max(1),
            state: Mutex::new(TableState {
                entered: 0,
                in_flight: 0,
                completed: 0,
                high_water: 0,
                retries: 0,
                failed: 0,
                waiting: VecDeque::new(),
            }),
        }
    }

    /// The configured in-flight bound.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Enters a job, fixing its position in the admission order, unless
    /// `max_queued` requests are already waiting for a slot (executing
    /// jobs do not count). Never blocks: the job either takes a free slot
    /// — its request comes straight back in [`Entered::start`] — or its
    /// request is parked until a [`leave`](JobTable::leave) hands it a
    /// slot. A refusal returns the request with the waiting-line depth —
    /// the backpressure signal a service front-end turns into an explicit
    /// retry instead of buffering without bound. Check and entry are one
    /// atomic step, so concurrent callers cannot overshoot the bound.
    ///
    /// `max_queued == usize::MAX` never refuses; `0` always does.
    pub fn enter(&self, request: R, max_queued: usize) -> Result<Entered<R>, Refused<R>> {
        let mut st = self.state.lock();
        let depth = st.waiting.len();
        if depth >= max_queued {
            return Err(Refused { depth, request });
        }
        let seq = st.entered;
        st.entered += 1;
        let start = if st.in_flight < self.max_in_flight {
            st.in_flight += 1;
            st.high_water = st.high_water.max(st.in_flight);
            Some(request)
        } else {
            st.waiting.push_back(request);
            None
        };
        Ok(Entered { seq, start })
    }

    /// Completes one executing job. Its slot goes to the oldest waiting
    /// request, which is returned for the caller to start; with nobody
    /// waiting the slot is freed.
    pub fn leave(&self) -> Option<R> {
        let mut st = self.state.lock();
        st.completed += 1;
        let next = st.waiting.pop_front();
        if next.is_none() {
            st.in_flight -= 1;
        }
        next
    }

    /// Records that a failed execution was re-admitted per the service's
    /// [`RetryPolicy`] (surfaced as [`JobTableStats::retries`]).
    pub fn note_retry(&self) {
        self.state.lock().retries += 1;
    }

    /// Records a terminal job failure — the retry budget (if any) is
    /// exhausted (surfaced as [`JobTableStats::failed`]).
    pub fn note_failed(&self) {
        self.state.lock().failed += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JobTableStats {
        let st = self.state.lock();
        JobTableStats {
            submitted: st.entered,
            completed: st.completed,
            in_flight: st.in_flight,
            queued: st.waiting.len(),
            high_water_in_flight: st.high_water,
            max_in_flight: self.max_in_flight,
            retries: st.retries,
            failed: st.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slots_pass_on_in_fifo_order_within_the_bound() {
        let table = JobTable::new(2);
        let mut started = Vec::new();
        for job in 0..16u64 {
            let e = table.enter(job, usize::MAX).unwrap();
            assert_eq!(e.seq, job);
            started.extend(e.start);
        }
        assert_eq!(started, vec![0, 1], "two slots, fourteen parked");
        let s = table.stats();
        assert_eq!((s.in_flight, s.queued), (2, 14));
        // Every leave hands its slot to the oldest parked request.
        for _ in 0..16 {
            started.extend(table.leave());
        }
        assert_eq!(started, (0..16).collect::<Vec<u64>>());
        let s = table.stats();
        assert_eq!((s.submitted, s.completed), (16, 16));
        assert_eq!((s.in_flight, s.queued, s.high_water_in_flight), (0, 0, 2));
    }

    #[test]
    fn racing_entries_never_exceed_the_bound_or_lose_a_request() {
        let table = Arc::new(JobTable::new(3));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let mut ran = Vec::new();
                    for i in 0..200 {
                        let mut next = table.enter(t * 1000 + i, usize::MAX).unwrap().start;
                        // Run whatever we are handed until a leave frees
                        // the slot instead of passing it on.
                        while let Some(job) = next {
                            ran.push(job);
                            next = table.leave();
                        }
                    }
                    ran
                })
            })
            .collect();
        let mut ran: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ran.sort_unstable();
        let mut expect: Vec<u64> = (0..8)
            .flat_map(|t| (0..200).map(move |i| t * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(ran, expect, "every entered request ran exactly once");
        let s = table.stats();
        assert_eq!((s.submitted, s.completed), (1600, 1600));
        assert_eq!((s.in_flight, s.queued), (0, 0));
        assert!(s.high_water_in_flight <= 3, "in-flight bound violated");
    }

    #[test]
    fn bound_is_clamped_to_one() {
        assert_eq!(JobTable::<()>::new(0).max_in_flight(), 1);
    }

    #[test]
    fn retry_policy_backs_off_exponentially_and_gives_up() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(
            p.on_failure(0),
            RetryDecision::Retry {
                backoff: Duration::from_millis(2)
            }
        );
        assert_eq!(
            p.on_failure(1),
            RetryDecision::Retry {
                backoff: Duration::from_millis(4)
            }
        );
        // 2 ms * 2^2 = 8 ms, then the cap bites.
        assert_eq!(
            p.on_failure(2),
            RetryDecision::Retry {
                backoff: Duration::from_millis(8)
            }
        );
        assert_eq!(p.on_failure(3), RetryDecision::GiveUp { attempts: 4 });
        assert_eq!(p.backoff(40), Duration::from_millis(10), "cap saturates");
        assert_eq!(
            RetryPolicy::none().on_failure(0),
            RetryDecision::GiveUp { attempts: 1 }
        );
    }

    #[test]
    fn retry_counters_surface_in_stats() {
        let table = JobTable::<()>::new(1);
        table.note_retry();
        table.note_retry();
        table.note_failed();
        let s = table.stats();
        assert_eq!((s.retries, s.failed), (2, 1));
    }

    #[test]
    fn enter_bounds_the_waiting_line() {
        let table = JobTable::new(1);
        // "a" takes the slot; executing jobs do not count as waiting.
        assert_eq!(table.enter("a", 2).unwrap().start, Some("a"));
        assert_eq!(table.enter("b", 2).unwrap().start, None);
        assert_eq!(table.enter("c", 2).unwrap().start, None);
        assert_eq!(
            table.enter("d", 2),
            Err(Refused {
                depth: 2,
                request: "d"
            }),
            "waiting line over bound: the request comes back"
        );
        assert_eq!(table.enter("e", 0).unwrap_err().depth, 2, "0 refuses");
        // A leave moves "b" out of the waiting line: room for one more.
        assert_eq!(table.leave(), Some("b"));
        let f = table.enter("f", 2).unwrap();
        assert_eq!((f.seq, f.start), (3, None), "refusals take no seq");
        let s = table.stats();
        assert_eq!((s.submitted, s.in_flight, s.queued), (4, 1, 2));
    }
}
