//! Network ingress for the service layer: the `hqd` daemon's engine.
//!
//! [`crate::service`] made pipeline graphs persistent, but jobs could only
//! be submitted in-process. This module puts a TCP front door on a
//! [`CompiledGraph`] (std::net plus the vendored `epoll` syscall shim —
//! no dependencies): a length-prefixed framed protocol, an event-driven
//! readiness-loop server, and — crucially — **backpressure that reaches
//! the client**. A submit is accepted only through the graph's bounded
//! admission queue; past the bound the client gets an explicit
//! [`FrameKind::Retry`] frame instead of the server buffering without
//! limit. See DESIGN.md §6.3 for the architecture discussion.
//!
//! # Server architecture
//!
//! The server is **event-driven**: a nonblocking acceptor deals
//! connections round-robin to [`IngressConfig::event_loops`] loop
//! threads, each multiplexing its share of connections as nonblocking
//! state machines — parse with [`FrameDecoder`], reserve a reply slot per
//! request, write through a bounded per-connection buffer with
//! partial-write resumption. Nothing joins a job: a submit carries a
//! completion callback ([`CompiledGraph::submit_with`]), the runtime
//! worker that finishes the job encodes the reply and posts it to the
//! owning loop's inbox and wakes it, and a durable job's journal tail
//! continues from the group-commit flusher ([`Journal::append_then`]).
//! So an *idle* connection costs zero wakeups, and the server's thread
//! count is the acceptor plus the loops — independent of connections and
//! of jobs in flight (C10K and beyond). The loops block in the vendored
//! `epoll` shim: epoll on Linux, `poll(2)` on other unix platforms, and
//! [`IngressServer::bind`] fails with `ErrorKind::Unsupported` anywhere
//! else. Module layout: `wire` (frames/codec), `conn` (per-connection
//! state machine), `loop` (event loops, acceptor).
//!
//! # Wire format
//!
//! Every frame is:
//!
//! ```text
//! offset  size     field
//! 0       4        len: u32 LE — byte length of everything after this field
//! 4       1        kind (see FrameKind)
//! 5       8        req_id: u64 LE — client-chosen correlation id
//! 13      len - 9  body (kind-specific)
//! ```
//!
//! | kind | name          | direction | body                                  |
//! |------|---------------|-----------|---------------------------------------|
//! | 1    | Submit        | c → s     | job payload ([`JobCodec::decode_job`])|
//! | 2    | Result        | s → c     | job output ([`JobCodec::encode_result`]) |
//! | 3    | Retry         | s → c     | u32 LE: waiting-line depth at refusal |
//! | 4    | Error         | s → c     | UTF-8 message (`req_id` 0 = connection-level) |
//! | 5, 6 | *(reserved)*  |           | rejected as unknown kinds             |
//! | 7    | SubmitDurable | c → s     | job payload; `req_id` = durable job id |
//! | 8    | Ack           | c → s     | empty — confirm receipt of `req_id`'s result |
//! | 9    | Query         | c → s     | empty — ask `req_id`'s durable status |
//! | 10   | QueryOk       | s → c     | status byte (see [`QueryStatus`]) · payload |
//! | 11   | Subscribe     | c → s     | u32 LE: stats interval ms (0 = one-shot) |
//! | 12   | StatsEvent    | s → c     | telemetry text encoding ([`crate::telemetry`]) |
//!
//! # Telemetry subscriptions
//!
//! A `Subscribe` frame with a non-zero interval asks the server to push a
//! [`FrameKind::StatsEvent`] frame — the
//! [`crate::telemetry::TelemetrySnapshot`] text encoding, `req_id`
//! echoing the Subscribe's — every `interval_ms` on that connection. The
//! ticks are **out of band**: they do not occupy a reply slot, so they
//! interleave with the FIFO reply stream at frame granularity without
//! perturbing it (filter out StatsEvent frames and the remaining reply
//! substream is byte-identical to an unsubscribed connection's). A tick
//! that would overflow the connection's bounded write buffer is dropped,
//! not queued — a slow consumer loses stats ticks, never correctness
//! (`stats_dropped` counts the drops). A new Subscribe replaces the
//! previous subscription; interval 0 cancels it and sends exactly one
//! StatsEvent through the ordered reply path (the one-shot the typed
//! [`IngressClient::stats`] uses).
//!
//! # Durable jobs
//!
//! A server bound with [`IngressServer::bind_durable`] additionally
//! accepts `SubmitDurable` frames, whose `req_id` is a **client-assigned
//! durable job id** (non-zero, unique per journal): the job is journaled
//! to a [`crate::journal::Journal`] before execution, its result is
//! journaled *before* the Result frame is written, and the whole thing
//! survives a daemon crash — on restart, [`IngressServer::bind_durable`]
//! replays the journal, restores completed results, and re-runs
//! still-pending jobs through the graph (determinism makes the re-run
//! byte-identical). A duplicate `SubmitDurable` of an in-flight or
//! completed id never re-runs the job: it waits for / returns the
//! journaled result. `Ack` retires an id (fire-and-forget; its segments
//! become compactable), and `Query` reports an id's status without
//! side effects. See DESIGN.md §6.4 for the durability design.
//!
//! # Ordering and determinism
//!
//! Every reply — Result, Retry, Error, QueryOk — flows through
//! one per-connection FIFO: a slot is reserved the moment its request is
//! parsed, and only a contiguous run of completed slots at the front may
//! reach the socket. So **responses arrive in exactly the order the
//! requests were sent**, and each job's result bytes are the encoding of
//! its deterministic serial-elision output: the whole response stream of
//! a connection is byte-identical at any worker count and any loop
//! count.
//!
//! # Failure containment
//!
//! * A malformed or oversized *frame* is a protocol error: the server
//!   sends `Error` (req_id 0) and stops reading from that connection,
//!   after draining replies already in flight.
//! * An undecodable *job payload* is an application error: `Error` with
//!   the submit's req_id, connection stays open. Likewise a job whose
//!   *result* would exceed `max_frame_len`: the server never emits a
//!   frame its own limit calls oversized — the job ran, but the client
//!   gets an `Error` instead of the result.
//! * A client that disconnects mid-job never leaks work: every accepted
//!   job's completion is accounted whether or not the socket can still
//!   be written, so the job drains through the graph normally
//!   (undelivered results count as `results_dropped`).
//! * `accept()` errors are classified: resource exhaustion (EMFILE/
//!   ENFILE/ENOMEM) backs off exponentially instead of spinning, and
//!   every failure counts toward `accept_errors`.
//! * [`IngressServer::shutdown`] stops the acceptor, lets every
//!   connection stop at the next frame boundary, drains all accepted
//!   jobs, and joins every thread — the graceful path.

mod conn;
#[path = "loop.rs"]
mod evloop;
pub mod router;
mod wire;

pub use router::{Router, RouterConfig, RouterStats};

pub use wire::{
    encode_frame, retry_delay, Frame, FrameDecoder, FrameError, FrameKind, JobCodec, QueryStatus,
    DEFAULT_MAX_FRAME_LEN,
};

pub(crate) use wire::FRAME_FIXED_LEN;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use swan::Refused;

use crate::journal::{encode_failed_body, JobReplayStatus, Journal, RecordKind, Replay};
use crate::service::{Admission, CompiledGraph, JobError};
use crate::telemetry::JournalTelemetry;

// ---------------------------------------------------------------------------
// Server configuration and counters.
// ---------------------------------------------------------------------------

/// The default [`IngressConfig::event_loops`]: `min(4, cores)`.
pub fn default_event_loops() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Knobs of an [`IngressServer`].
#[derive(Clone, Debug)]
pub struct IngressConfig {
    /// Upper bound on a frame's `len` field; larger frames are protocol
    /// errors. Default [`DEFAULT_MAX_FRAME_LEN`].
    pub max_frame_len: u32,
    /// Admission-queue bound per graph (jobs accepted but not yet
    /// admitted); beyond it submits get [`FrameKind::Retry`]. Clamped to
    /// at least 1. Default 64.
    pub max_queued: usize,
    /// How many acknowledged durable ids the table remembers (for
    /// idempotent re-acks and `Acked` query answers) before evicting the
    /// oldest. Eviction is what bounds a long-running daemon's durable
    /// table: an evicted id queries as `Unknown` again and a resubmit of
    /// it re-runs the job — sound, because the client only acks after
    /// consuming the result, and a re-run is byte-identical anyway.
    /// Clamped to at least 1. Default 4096.
    pub max_retired_ids: usize,
    /// Event-loop threads multiplexing all connections. Clamped to at
    /// least 1. Default [`default_event_loops`].
    pub event_loops: usize,
    /// Per-connection cap on reply bytes buffered for a slow reader.
    /// Past it the loop stops reading from that connection
    /// until the buffer drains — flow control per connection, not per
    /// server. A single reply larger than the cap still goes out (the
    /// true bound is `write_buf_limit` + one frame). Default 256 KiB,
    /// clamped to at least 4 KiB.
    pub write_buf_limit: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_queued: 64,
            max_retired_ids: 4096,
            event_loops: default_event_loops(),
            write_buf_limit: 256 * 1024,
        }
    }
}

#[derive(Default)]
pub(crate) struct Counters {
    pub connections: AtomicU64,
    pub frames_in: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub jobs_accepted: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub retries_sent: AtomicU64,
    pub errors_sent: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub results_dropped: AtomicU64,
    pub durable_jobs: AtomicU64,
    pub durable_dupes: AtomicU64,
    pub acks: AtomicU64,
    pub queries: AtomicU64,
    pub accept_errors: AtomicU64,
    pub loop_wakeups: AtomicU64,
    pub stats_events: AtomicU64,
    pub stats_dropped: AtomicU64,
}

/// Counter snapshot of an [`IngressServer`] (monotonic unless noted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames successfully parsed off client connections.
    pub frames_in: u64,
    /// Raw bytes read from clients.
    pub bytes_in: u64,
    /// Raw bytes written to clients.
    pub bytes_out: u64,
    /// Submits accepted into the graph's admission queue.
    pub jobs_accepted: u64,
    /// Accepted jobs that have completed (drained) — equals
    /// `jobs_accepted` once traffic stops, even for dead clients.
    pub jobs_completed: u64,
    /// Submits refused with a Retry frame (admission queue full).
    pub retries_sent: u64,
    /// Error frames sent (bad payloads, failed jobs, protocol errors).
    pub errors_sent: u64,
    /// Connections dropped for malformed/oversized frames.
    pub protocol_errors: u64,
    /// Job results that could not be delivered because the client's
    /// socket was already dead when the reply got to them. The job still
    /// completed (and, for durable jobs, its result is journaled); this
    /// counter is what makes the drop visible instead of silent.
    pub results_dropped: u64,
    /// Durable submissions accepted (fresh ids journaled and run).
    pub durable_jobs: u64,
    /// Duplicate durable submissions answered from the journal/table
    /// instead of re-running (the at-least-once dedupe hits).
    pub durable_dupes: u64,
    /// Durable jobs acknowledged by clients.
    pub acks: u64,
    /// Query frames answered.
    pub queries: u64,
    /// `accept()` calls that failed (excluding the nonblocking
    /// would-block poll). Resource exhaustion — EMFILE/ENFILE — lands
    /// here while the acceptor backs off exponentially.
    pub accept_errors: u64,
    /// Times an event loop woke from its readiness wait.
    /// The scale-free claim in numbers: idle connections do not advance
    /// this, no matter how many are connected.
    pub loop_wakeups: u64,
    /// StatsEvent frames pushed to subscribed connections (ticks and
    /// one-shots).
    pub stats_events: u64,
    /// Subscription ticks dropped because the connection's write buffer
    /// was already at its limit — the slow-consumer rule: a subscriber
    /// that can't keep up loses ticks, never reply bytes.
    pub stats_dropped: u64,
}

impl Counters {
    fn snapshot(&self) -> IngressStats {
        use crate::telemetry::read_counter;
        IngressStats {
            connections: read_counter(&self.connections),
            frames_in: read_counter(&self.frames_in),
            bytes_in: read_counter(&self.bytes_in),
            bytes_out: read_counter(&self.bytes_out),
            jobs_accepted: read_counter(&self.jobs_accepted),
            jobs_completed: read_counter(&self.jobs_completed),
            retries_sent: read_counter(&self.retries_sent),
            errors_sent: read_counter(&self.errors_sent),
            protocol_errors: read_counter(&self.protocol_errors),
            results_dropped: read_counter(&self.results_dropped),
            durable_jobs: read_counter(&self.durable_jobs),
            durable_dupes: read_counter(&self.durable_dupes),
            acks: read_counter(&self.acks),
            queries: read_counter(&self.queries),
            accept_errors: read_counter(&self.accept_errors),
            loop_wakeups: read_counter(&self.loop_wakeups),
            stats_events: read_counter(&self.stats_events),
            stats_dropped: read_counter(&self.stats_dropped),
        }
    }
}

// ---------------------------------------------------------------------------
// Durable job table.
// ---------------------------------------------------------------------------

/// What a waiter on a duplicate in-flight durable submit receives once
/// the job resolves: the journaled result bytes or the failure message.
pub(crate) type DurableOutcome = Result<Arc<Vec<u8>>, String>;

/// One durable job id's server-side state.
enum DurableEntry {
    /// Accepted and executing; the waiters are the reply slots of
    /// duplicate submitters, which the original's completion posts the
    /// encoded frame to directly (an event loop must never block).
    InFlight(Vec<conn::ReplyAddr>),
    /// Completed; result bytes are journaled and retained until ack.
    Done(Arc<Vec<u8>>),
    /// Failed terminally (retry budget exhausted); message retained.
    Failed(String),
    /// Acknowledged: retired, result bytes released, compactable.
    Acked,
}

/// The in-memory durable job table: entries by id, plus the retirement
/// queue that bounds how many [`DurableEntry::Acked`] tombstones are
/// kept. Without the bound every id ever acked would live in the map
/// forever — the on-disk journal compacts, but the table would not.
#[derive(Default)]
struct DurableTable {
    entries: HashMap<u64, DurableEntry>,
    /// Acked ids, oldest first; beyond
    /// [`IngressConfig::max_retired_ids`] the oldest are evicted from
    /// `entries`.
    retired: VecDeque<u64>,
    /// Jobs re-run from the replay whose terminal record is not yet
    /// durable and published; [`IngressServer::shutdown`] waits for 0.
    recovering: usize,
}

impl DurableTable {
    /// Marks `job_id`'s entry (already set to [`DurableEntry::Acked`] by
    /// the caller) retired, evicting the oldest retired ids beyond
    /// `max_retired_ids`. Acked is terminal, so eviction can never
    /// discard a state some other path still mutates.
    fn retire(&mut self, job_id: u64, max_retired_ids: usize) {
        self.retired.push_back(job_id);
        while self.retired.len() > max_retired_ids.max(1) {
            if let Some(old) = self.retired.pop_front() {
                if matches!(self.entries.get(&old), Some(DurableEntry::Acked)) {
                    self.entries.remove(&old);
                }
            }
        }
    }
}

/// The durable half of a server bound with
/// [`IngressServer::bind_durable`]: the journal plus the in-memory job
/// table the journal is the write-ahead log *of*.
pub(crate) struct DurableState {
    journal: Arc<Journal>,
    table: Mutex<DurableTable>,
    /// Signalled when `table.recovering` reaches 0.
    recovered: Condvar,
}

/// What [`IngressServer::bind_durable`] found in the journal and did
/// about it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Durable jobs reconstructed from the journal.
    pub journaled_jobs: u64,
    /// Jobs found pending (submitted, never completed) and re-run.
    pub resubmitted: u64,
    /// Completed-but-unacked results restored into the table.
    pub restored_results: u64,
    /// Terminal failures restored into the table.
    pub restored_failures: u64,
    /// Acknowledged ids restored (retired, awaiting compaction).
    pub restored_acked: u64,
    /// Journal records rejected on replay (CRC mismatch / torn tail).
    pub corrupt_records: u64,
}

pub(crate) struct Shared<C: JobCodec> {
    pub graph: Arc<CompiledGraph<C::In, C::Out>>,
    pub codec: Arc<C>,
    pub cfg: IngressConfig,
    pub counters: Arc<Counters>,
    pub shutdown: Arc<AtomicBool>,
    /// `Some` only on servers bound with [`IngressServer::bind_durable`];
    /// plain `bind` servers reject durable frames with an Error.
    pub durable: Option<Arc<DurableState>>,
}

/// Encodes a durable job's terminal journal record — Result or Failed —
/// and the outcome that record makes replayable.
fn terminal_record<C: JobCodec>(
    codec: &C,
    result: Result<Vec<C::Out>, JobError>,
) -> (RecordKind, Arc<Vec<u8>>, DurableOutcome) {
    match result {
        Ok(vals) => {
            let mut body = Vec::new();
            codec.encode_result(&vals, &mut body);
            let body = Arc::new(body);
            (RecordKind::Result, Arc::clone(&body), Ok(body))
        }
        Err(e) => {
            let message = e.to_string();
            let body = encode_failed_body(e.attempts(), &message);
            (RecordKind::Failed, Arc::new(body), Err(message))
        }
    }
}

/// Publishes a journaled outcome in the table and answers every duplicate
/// submitter waiting on the id: the fully encoded frame is posted straight
/// to its reply slot.
fn publish_durable<C: JobCodec>(
    shared: &Shared<C>,
    durable: &DurableState,
    job_id: u64,
    outcome: &DurableOutcome,
) {
    let waiters = {
        let mut table = durable.table.lock();
        let entry = table
            .entries
            .entry(job_id)
            .or_insert(DurableEntry::InFlight(Vec::new()));
        match entry {
            DurableEntry::InFlight(waiters) => {
                let waiters = std::mem::take(waiters);
                *entry = match outcome {
                    Ok(bytes) => DurableEntry::Done(Arc::clone(bytes)),
                    Err(msg) => DurableEntry::Failed(msg.clone()),
                };
                waiters
            }
            // Already resolved (e.g. replay restored it, or the client
            // acked a restored result while a re-run was in flight); keep
            // the first journaled outcome authoritative — in particular
            // never regress an Acked entry back to Done.
            _ => Vec::new(),
        }
    };
    for addr in waiters {
        let mut frame = Vec::new();
        conn::encode_outcome(shared, job_id, outcome, &mut frame);
        addr.post(frame, true);
    }
}

/// Journals a durable job's terminal state (Result/Failed record) and,
/// once the record is durable, publishes it ([`publish_durable`]) and
/// hands the outcome to `then`, which encodes and posts the submitter's
/// own reply — the Result frame therefore never precedes the record that
/// makes it replayable. Nothing waits: the worker that finished the job
/// stages the record and returns, and the tail runs on the journal's
/// flusher.
pub(crate) fn complete_durable_then<C: JobCodec>(
    shared: Arc<Shared<C>>,
    job_id: u64,
    result: Result<Vec<C::Out>, JobError>,
    then: impl FnOnce(&Shared<C>, DurableOutcome) + Send + 'static,
) {
    let durable = Arc::clone(
        shared
            .durable
            .as_ref()
            .expect("durable jobs only exist on durable servers"),
    );
    let (kind, body, outcome) = terminal_record(&*shared.codec, result);
    // `admit_durable` journals the Submit record while it still holds the
    // table lock it accepted the job under; passing through that lock
    // keeps this record behind it in the log.
    drop(durable.table.lock());
    let journal = Arc::clone(&durable.journal);
    journal.append_then(
        kind,
        job_id,
        &body,
        Box::new(move || {
            publish_durable(&shared, &durable, job_id, &outcome);
            then(&shared, outcome);
        }),
    );
}

// ---------------------------------------------------------------------------
// Frame decisions.
// ---------------------------------------------------------------------------

/// Outcome of one Submit frame's admission decision.
pub(crate) enum SubmitAction {
    Accepted,
    Rejected { queued: u32 },
    Bad(String),
}

/// Decodes and admits one Submit body (counters included); `on_done` is
/// the accepted job's completion callback
/// ([`CompiledGraph::submit_with`]).
pub(crate) fn admit_submit<C: JobCodec>(
    shared: &Shared<C>,
    body: &[u8],
    on_done: impl FnOnce(Result<Vec<C::Out>, JobError>) + Send + 'static,
) -> SubmitAction {
    match shared.codec.decode_job(body) {
        Ok(input) => {
            let admission = Admission::Bounded {
                max_queued: shared.cfg.max_queued.max(1),
            };
            match shared.graph.submit_with(input, admission, on_done) {
                Ok(_) => {
                    shared
                        .counters
                        .jobs_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    SubmitAction::Accepted
                }
                Err(Refused { depth, .. }) => {
                    shared.counters.retries_sent.fetch_add(1, Ordering::Relaxed);
                    SubmitAction::Rejected {
                        queued: depth.min(u32::MAX as usize) as u32,
                    }
                }
            }
        }
        Err(msg) => SubmitAction::Bad(format!("bad job payload: {msg}")),
    }
}

/// Outcome of one SubmitDurable frame's decision.
pub(crate) enum DurableAction {
    /// Fresh id: journaled and admitted; its completion goes through
    /// [`complete_durable_then`], then the reply.
    Fresh,
    /// Duplicate of an in-flight id: the passed-in reply slot was
    /// registered and will be answered by the original's completion.
    Wait,
    /// Duplicate of a resolved id: reply straight from the table.
    Done(DurableOutcome),
    /// Admission queue full.
    Rejected { queued: u32 },
    /// Error reply (durability disabled, zero id, acked id, bad
    /// payload); the connection stays open.
    Refuse { req_id: u64, message: String },
}

/// One SubmitDurable frame. The whole decision — duplicate detection,
/// admission, journaling, table insertion — happens under the table lock,
/// so two connections racing the same id cannot both run the job.
pub(crate) fn admit_durable<C: JobCodec>(
    shared: &Shared<C>,
    frame: &Frame,
    waiter: conn::ReplyAddr,
    on_done: impl FnOnce(Result<Vec<C::Out>, JobError>) + Send + 'static,
) -> DurableAction {
    let Some(durable) = &shared.durable else {
        return DurableAction::Refuse {
            req_id: frame.req_id,
            message: "durable submissions disabled (start the server with a journal)".to_string(),
        };
    };
    if frame.req_id == 0 {
        return DurableAction::Refuse {
            req_id: 0,
            message: "durable job id must be non-zero (0 is the connection-level id)".to_string(),
        };
    }
    let mut table = durable.table.lock();
    match table.entries.entry(frame.req_id) {
        Entry::Occupied(mut entry) => {
            // At-least-once dedupe: never re-run a known id.
            shared
                .counters
                .durable_dupes
                .fetch_add(1, Ordering::Relaxed);
            match entry.get_mut() {
                DurableEntry::InFlight(waiters) => {
                    waiters.push(waiter);
                    DurableAction::Wait
                }
                DurableEntry::Done(bytes) => DurableAction::Done(Ok(Arc::clone(bytes))),
                DurableEntry::Failed(message) => DurableAction::Done(Err(message.clone())),
                DurableEntry::Acked => DurableAction::Refuse {
                    req_id: frame.req_id,
                    message: format!(
                        "durable job {} already acknowledged; its result was released",
                        frame.req_id
                    ),
                },
            }
        }
        Entry::Vacant(slot) => match shared.codec.decode_job(&frame.body) {
            Ok(input) => {
                let admission = Admission::Bounded {
                    max_queued: shared.cfg.max_queued.max(1),
                };
                match shared.graph.submit_with(input, admission, on_done) {
                    Ok(_) => {
                        // Journal before the client can observe the
                        // acceptance. No explicit sync here: the WAL is
                        // sequential, so the Result record's sync (which
                        // gates the Result frame) covers this record too.
                        durable
                            .journal
                            .append(RecordKind::Submit, frame.req_id, &frame.body);
                        slot.insert(DurableEntry::InFlight(Vec::new()));
                        shared.counters.durable_jobs.fetch_add(1, Ordering::Relaxed);
                        shared
                            .counters
                            .jobs_accepted
                            .fetch_add(1, Ordering::Relaxed);
                        DurableAction::Fresh
                    }
                    Err(Refused { depth, .. }) => {
                        shared.counters.retries_sent.fetch_add(1, Ordering::Relaxed);
                        DurableAction::Rejected {
                            queued: depth.min(u32::MAX as usize) as u32,
                        }
                    }
                }
            }
            Err(msg) => DurableAction::Refuse {
                req_id: frame.req_id,
                message: format!("bad job payload: {msg}"),
            },
        },
    }
}

/// One Ack frame. `None` = success (fire-and-forget, no reply); `Some` =
/// the error message to send back.
pub(crate) fn handle_ack<C: JobCodec>(
    shared: &Shared<C>,
    job_id: u64,
    body: &[u8],
) -> Option<String> {
    let Some(durable) = &shared.durable else {
        return Some("durable acks disabled (start the server with a journal)".to_string());
    };
    if !body.is_empty() {
        return Some(format!("Ack body must be empty, got {} bytes", body.len()));
    }
    let mut table = durable.table.lock();
    match table.entries.get_mut(&job_id) {
        Some(entry @ (DurableEntry::Done(_) | DurableEntry::Failed(_))) => {
            *entry = DurableEntry::Acked;
            table.retire(job_id, shared.cfg.max_retired_ids);
            durable.journal.append(RecordKind::Ack, job_id, &[]);
            durable.journal.note_acked(job_id);
            shared.counters.acks.fetch_add(1, Ordering::Relaxed);
            None
        }
        // Re-acking is idempotent — at-least-once clients resend acks.
        Some(DurableEntry::Acked) => None,
        Some(DurableEntry::InFlight(_)) => Some(format!(
            "durable job {job_id} is still in flight; await its result before acking"
        )),
        None => Some(format!("unknown durable job {job_id}")),
    }
}

/// One Query frame: status byte plus status-specific bytes, or an error
/// message.
pub(crate) fn handle_query<C: JobCodec>(
    shared: &Shared<C>,
    job_id: u64,
    body: &[u8],
) -> Result<Vec<u8>, String> {
    let Some(durable) = &shared.durable else {
        return Err("durable queries disabled (start the server with a journal)".to_string());
    };
    if !body.is_empty() {
        return Err(format!(
            "Query body must be empty, got {} bytes",
            body.len()
        ));
    }
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    let table = durable.table.lock();
    let mut out = Vec::new();
    match table.entries.get(&job_id) {
        None => out.push(QueryStatus::Unknown as u8),
        Some(DurableEntry::InFlight(_)) => out.push(QueryStatus::InFlight as u8),
        Some(DurableEntry::Done(bytes)) => {
            out.push(QueryStatus::Done as u8);
            out.extend_from_slice(bytes);
        }
        Some(DurableEntry::Failed(message)) => {
            out.push(QueryStatus::Failed as u8);
            out.extend_from_slice(message.as_bytes());
        }
        Some(DurableEntry::Acked) => out.push(QueryStatus::Acked as u8),
    }
    // Same degrade as encode_result_frame: the server must never emit a
    // frame its own protocol limit calls oversized — a Done entry can
    // hold result bytes that never fit a QueryOk frame.
    if FRAME_FIXED_LEN + out.len() > shared.cfg.max_frame_len as usize {
        return Err(format!(
            "result too large for the {}-byte frame limit ({} bytes)",
            shared.cfg.max_frame_len,
            out.len() - 1
        ));
    }
    Ok(out)
}

/// Builds the full [`TelemetrySnapshot`] for this server — the graph's
/// snapshot plus the ingress and journal sections only the daemon can
/// see — and returns its text encoding: the StatsEvent body.
pub(crate) fn stats_text<C: JobCodec>(shared: &Shared<C>) -> String {
    let mut t = shared.graph.telemetry();
    t.ingress = Some(shared.counters.snapshot());
    t.journal = shared.durable.as_ref().map(|d| JournalTelemetry {
        stats: d.journal.stats(),
        lag: d.journal.lag(),
    });
    t.encode_text()
}

/// Encodes a finished non-durable job as the response frame for
/// `req_id`.
pub(crate) fn encode_job_result<C: JobCodec>(
    shared: &Shared<C>,
    req_id: u64,
    result: Result<Vec<C::Out>, JobError>,
    out: &mut Vec<u8>,
) {
    let (counters, max_frame_len) = (&shared.counters, shared.cfg.max_frame_len);
    match result {
        Ok(vals) => {
            let mut body = Vec::new();
            shared.codec.encode_result(&vals, &mut body);
            encode_result_frame(counters, max_frame_len, req_id, Ok(&body), out);
        }
        Err(e) => encode_result_frame(counters, max_frame_len, req_id, Err(&e.to_string()), out),
    }
}

/// Encodes a job result (or failure) as the response frame for `req_id`,
/// degrading an oversized result to a job error: the server must never
/// emit a frame its own protocol limit calls oversized (a conforming peer
/// would have to drop the connection).
pub(crate) fn encode_result_frame(
    counters: &Counters,
    max_frame_len: u32,
    req_id: u64,
    body: Result<&[u8], &str>,
    out: &mut Vec<u8>,
) {
    match body {
        Ok(body) => {
            if FRAME_FIXED_LEN + body.len() > max_frame_len as usize {
                counters.errors_sent.fetch_add(1, Ordering::Relaxed);
                encode_frame(
                    FrameKind::Error,
                    req_id,
                    format!(
                        "result too large for the {}-byte frame limit ({} bytes)",
                        max_frame_len,
                        body.len()
                    )
                    .as_bytes(),
                    out,
                );
            } else {
                encode_frame(FrameKind::Result, req_id, body, out);
            }
        }
        Err(message) => {
            counters.errors_sent.fetch_add(1, Ordering::Relaxed);
            encode_frame(
                FrameKind::Error,
                req_id,
                format!("job failed: {message}").as_bytes(),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Accept-error classification.
// ---------------------------------------------------------------------------

/// Longest delay between accept retries under persistent errors.
const MAX_ACCEPT_BACKOFF: Duration = Duration::from_secs(1);

/// First delay of the server acceptor's error backoff.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(25);

/// True for errors that mean the *process* is out of a resource —
/// EMFILE, ENFILE, ENOMEM — rather than one doomed connection
/// (ECONNABORTED and friends). A resource error will hit every
/// subsequent accept too, so retrying at full speed just spins; a
/// transient error clears with the connection that caused it.
fn is_resource_error(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(12 | 23 | 24)) // ENOMEM, ENFILE, EMFILE
}

/// Accept-error state machine shared by the server's and the router's
/// acceptors: classifies each failure, doubles the retry delay up to
/// [`MAX_ACCEPT_BACKOFF`] while the same class persists, and logs once
/// per state change (enter / class change / recover). Callers count the
/// failure in their own `accept_errors`.
pub(crate) struct AcceptBackoff {
    base: Duration,
    /// `(is_resource_class, current_delay)` while failing, `None` while
    /// healthy.
    state: Option<(bool, Duration)>,
}

impl AcceptBackoff {
    pub fn new(base: Duration) -> AcceptBackoff {
        AcceptBackoff {
            base: base.max(Duration::from_millis(1)),
            state: None,
        }
    }

    /// Records a failed accept; returns how long to back off.
    pub fn on_error(&mut self, e: &std::io::Error) -> Duration {
        let resource = is_resource_error(e);
        match &mut self.state {
            Some((class, delay)) if *class == resource => {
                *delay = delay.saturating_mul(2).min(MAX_ACCEPT_BACKOFF);
                *delay
            }
            _ => {
                eprintln!(
                    "hqd: accept() failing ({e}){}",
                    if resource {
                        " — fd/resource exhaustion, backing off exponentially"
                    } else {
                        ""
                    }
                );
                self.state = Some((resource, self.base));
                self.base
            }
        }
    }

    /// Records a successful accept (logs recovery if we were failing).
    pub fn on_success(&mut self) {
        if self.state.take().is_some() {
            eprintln!("hqd: accept() recovered");
        }
    }
}

/// Sleeps up to `total`, waking early if the shutdown flag flips — a
/// long accept backoff must never delay a graceful shutdown.
pub(crate) fn sleep_with_shutdown(total: Duration, shutdown: &AtomicBool) {
    let mut remaining = total;
    while remaining > Duration::ZERO && !shutdown.load(Ordering::Acquire) {
        let step = remaining.min(Duration::from_millis(25));
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// A TCP ingress daemon fronting one [`CompiledGraph`] (see module docs).
/// Bind with [`IngressServer::bind`]; stop with
/// [`IngressServer::shutdown`] (graceful: drains all accepted jobs) or by
/// dropping (same path).
pub struct IngressServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    engine: evloop::Engine,
    /// The durable half of a [`bind_durable`](IngressServer::bind_durable)
    /// server: its journal's flusher runs the durable jobs' reply
    /// continuations, its table counts the recovered jobs still running.
    durable: Option<Arc<DurableState>>,
}

impl IngressServer {
    /// Binds `addr` and starts serving `graph` through `codec`. Pass port
    /// 0 to let the OS choose (see [`IngressServer::local_addr`]).
    pub fn bind<C: JobCodec>(
        addr: impl ToSocketAddrs,
        graph: Arc<CompiledGraph<C::In, C::Out>>,
        codec: Arc<C>,
        cfg: IngressConfig,
    ) -> std::io::Result<Self> {
        Self::bind_inner(addr, graph, codec, cfg, None).map(|(server, _)| server)
    }

    /// [`bind`](IngressServer::bind) plus durability: accepts
    /// `SubmitDurable`/`Ack`/`Query` frames backed by `journal`, and
    /// **recovers** whatever `replay` (the [`crate::journal::Journal::open`]
    /// scan of that journal) found from a previous daemon life —
    /// completed results are restored for re-delivery, and jobs that were
    /// submitted but never completed are re-run through the graph (their
    /// deterministic output is byte-identical to the run the crash ate).
    /// The returned [`RecoveryReport`] says what was restored; recovered
    /// jobs complete in the background like any other durable job, and
    /// [`shutdown`](IngressServer::shutdown) waits for them.
    pub fn bind_durable<C: JobCodec>(
        addr: impl ToSocketAddrs,
        graph: Arc<CompiledGraph<C::In, C::Out>>,
        codec: Arc<C>,
        cfg: IngressConfig,
        journal: Arc<Journal>,
        replay: &Replay,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        Self::bind_inner(addr, graph, codec, cfg, Some((journal, replay)))
    }

    fn bind_inner<C: JobCodec>(
        addr: impl ToSocketAddrs,
        graph: Arc<CompiledGraph<C::In, C::Out>>,
        codec: Arc<C>,
        cfg: IngressConfig,
        durable: Option<(Arc<Journal>, &Replay)>,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let durable_state = durable.as_ref().map(|(journal, _)| {
            Arc::new(DurableState {
                journal: Arc::clone(journal),
                table: Mutex::new(DurableTable::default()),
                recovered: Condvar::new(),
            })
        });
        let shared = Arc::new(Shared {
            graph,
            codec,
            cfg,
            counters: Arc::clone(&counters),
            shutdown: Arc::clone(&shutdown),
            durable: durable_state.clone(),
        });
        let mut report = RecoveryReport::default();
        if let Some((_, replay)) = durable {
            recover_from_replay(&shared, replay, &mut report);
        }
        let (loops, run) = (shared.cfg.event_loops, evloop::event_loop);
        let engine =
            evloop::Engine::spawn("hqd", listener, loops, ACCEPT_BACKOFF_BASE, &shared, run)?;
        Ok((
            IngressServer {
                addr,
                shutdown,
                counters,
                engine,
                durable: durable_state,
            },
            report,
        ))
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IngressStats {
        self.counters.snapshot()
    }

    /// Graceful shutdown: stops accepting, lets every connection finish
    /// the frames it already read, drains every accepted job — each is
    /// answered before this returns — waits until every job recovered
    /// from the journal has its terminal record durable and published,
    /// and joins all threads. Jobs the graph admitted are never
    /// abandoned. A job's completion callback may still be returning on
    /// its worker afterwards: [`swan::Runtime::quiesce`] waits that out.
    pub fn shutdown(mut self) -> IngressStats {
        self.stop_and_join();
        self.counters.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.engine.stop_and_join();
        if let Some(durable) = &self.durable {
            let mut table = durable.table.lock();
            while table.recovering > 0 {
                durable.recovered.wait(&mut table);
            }
            drop(table);
            // Every reply has been posted by now, but a durable job's
            // continuation may still be unwinding on the flusher: a flush
            // returns only after the continuations before it have
            // finished.
            durable.journal.flush();
        }
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Rebuilds the durable table from a journal replay. Terminal states are
/// restored verbatim; pending jobs are resubmitted (Unbounded — they
/// already passed admission in their previous life) and complete like any
/// other durable job, counted in `recovering` until their terminal record
/// is published. Called before the acceptor starts, so no client can race
/// the rebuild.
fn recover_from_replay<C: JobCodec>(
    shared: &Arc<Shared<C>>,
    replay: &Replay,
    report: &mut RecoveryReport,
) {
    let state = shared
        .durable
        .as_ref()
        .expect("a replay is only recovered on a durable server");
    let mut table = state.table.lock();
    for (&id, job) in &replay.jobs {
        report.journaled_jobs += 1;
        match &job.status {
            JobReplayStatus::Acked => {
                report.restored_acked += 1;
                table.entries.insert(id, DurableEntry::Acked);
                table.retire(id, shared.cfg.max_retired_ids);
            }
            JobReplayStatus::Done(bytes) => {
                report.restored_results += 1;
                table
                    .entries
                    .insert(id, DurableEntry::Done(Arc::new(bytes.clone())));
            }
            JobReplayStatus::Failed { message, .. } => {
                report.restored_failures += 1;
                table
                    .entries
                    .insert(id, DurableEntry::Failed(message.clone()));
            }
            JobReplayStatus::Pending => match shared.codec.decode_job(&job.payload) {
                Ok(input) => {
                    let sh = Arc::clone(shared);
                    // The callback cannot get past `complete_durable_then`'s
                    // pass through the table lock before this loop is done.
                    let accepted =
                        shared
                            .graph
                            .submit_with(input, Admission::Unbounded, move |result| {
                                sh.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
                                complete_durable_then(sh, id, result, |sh, _outcome| {
                                    let state = sh.durable.as_ref().expect("checked at recovery");
                                    let mut table = state.table.lock();
                                    table.recovering -= 1;
                                    if table.recovering == 0 {
                                        state.recovered.notify_all();
                                    }
                                });
                            });
                    assert!(accepted.is_ok(), "unbounded admission never refuses");
                    table.entries.insert(id, DurableEntry::InFlight(Vec::new()));
                    table.recovering += 1;
                    report.resubmitted += 1;
                }
                Err(msg) => {
                    report.restored_failures += 1;
                    table.entries.insert(
                        id,
                        DurableEntry::Failed(format!(
                            "journaled payload undecodable on replay: {msg}"
                        )),
                    );
                }
            },
        }
    }
    report.corrupt_records = replay.corrupt_records;
}

// ---------------------------------------------------------------------------
// Blocking client.
// ---------------------------------------------------------------------------

/// What [`IngressClient::submit_and_wait`] resolved to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job's result bytes.
    Result(Vec<u8>),
    /// The server reported a failure for this job.
    Failed(String),
}

/// A blocking client for the ingress protocol (std::net). One client =
/// one connection; submissions and responses interleave freely, but
/// responses always arrive in submission order.
pub struct IngressClient {
    stream: TcpStream,
    dec: FrameDecoder,
    chunk: Vec<u8>,
    /// The connected peer, remembered so the durable path can reconnect
    /// after a daemon crash and resume via Query (see
    /// [`IngressClient::submit_durable_and_wait`]).
    peer: SocketAddr,
    max_frame_len: u32,
}

/// Reconnect attempts [`IngressClient::submit_durable_and_wait`] makes
/// per disconnect before giving up and surfacing the error.
const DURABLE_RECONNECT_ATTEMPTS: u32 = 10;

/// True for the error class that means "the connection died", as opposed
/// to a protocol or application error: the class the durable resume path
/// recovers from. ECONNRESET is what a SIGKILLed daemon's kernel sends;
/// UnexpectedEof is the orderly-FIN flavor of the same event.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected
    )
}

impl IngressClient {
    /// Connects to an [`IngressServer`], accepting response frames up to
    /// [`DEFAULT_MAX_FRAME_LEN`]. A server configured with a larger
    /// `max_frame_len` may legally emit larger Result frames — talk to it
    /// with [`IngressClient::connect_with_limit`] instead.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with_limit(addr, DEFAULT_MAX_FRAME_LEN)
    }

    /// [`IngressClient::connect`] with an explicit inbound frame-length
    /// cap; match it to the server's [`IngressConfig::max_frame_len`].
    pub fn connect_with_limit(
        addr: impl ToSocketAddrs,
        max_frame_len: u32,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let peer = stream.peer_addr()?;
        Ok(IngressClient {
            stream,
            dec: FrameDecoder::new(max_frame_len),
            chunk: vec![0u8; 16 * 1024],
            peer,
            max_frame_len,
        })
    }

    /// Replaces a dead connection with a fresh one to the same peer,
    /// discarding any half-parsed inbound bytes (they belong to the dead
    /// connection's reply stream and can never complete).
    fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        stream.set_nodelay(true).ok();
        self.stream = stream;
        self.dec = FrameDecoder::new(self.max_frame_len);
        Ok(())
    }

    /// Reconnects with the jittered [`retry_delay`] schedule, up to
    /// [`DURABLE_RECONNECT_ATTEMPTS`] tries; surfaces `cause` if the
    /// daemon never comes back.
    fn reconnect_with_backoff(
        &mut self,
        seed: u64,
        backoff: Duration,
        cause: std::io::Error,
    ) -> std::io::Result<()> {
        for attempt in 0..DURABLE_RECONNECT_ATTEMPTS {
            std::thread::sleep(retry_delay(backoff, seed, attempt));
            if self.reconnect().is_ok() {
                return Ok(());
            }
        }
        Err(cause)
    }

    /// Sends one frame. Exposed raw (any kind, any body) so tests can
    /// speak the protocol incorrectly on purpose.
    pub fn send(&mut self, kind: FrameKind, req_id: u64, body: &[u8]) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(4 + FRAME_FIXED_LEN + body.len());
        encode_frame(kind, req_id, body, &mut out);
        self.stream.write_all(&out)
    }

    /// Sends raw pre-encoded bytes (for malformed-frame tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Submits a job payload under `req_id` without waiting.
    pub fn submit(&mut self, req_id: u64, payload: &[u8]) -> std::io::Result<()> {
        self.send(FrameKind::Submit, req_id, payload)
    }

    /// Blocks until the server's next frame arrives.
    pub fn recv(&mut self) -> std::io::Result<Frame> {
        loop {
            if let Some(frame) = self
                .dec
                .next_frame()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            {
                return Ok(frame);
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.dec.extend(&self.chunk[..n]);
        }
    }

    /// The closed-loop convenience: submits `payload`, transparently
    /// resubmitting on [`FrameKind::Retry`], until the job resolves to a
    /// result or an error. Between attempts it sleeps
    /// [`retry_delay`]`(retry_backoff, req_id, attempt)` — capped
    /// exponential backoff with deterministic per-request jitter, so a
    /// herd of refused clients spreads out instead of resubmitting in
    /// lockstep forever.
    ///
    /// A dropped connection is **fatal** here, deliberately: a
    /// non-durable job has no server-side identity to resume, so blindly
    /// resubmitting could run it twice. Use
    /// [`IngressClient::submit_durable_and_wait`] for crash-safe
    /// submission — its id is journaled, so it reconnects and resumes.
    pub fn submit_and_wait(
        &mut self,
        req_id: u64,
        payload: &[u8],
        retry_backoff: Duration,
    ) -> std::io::Result<JobOutcome> {
        let mut attempt = 0u32;
        loop {
            self.submit(req_id, payload)?;
            let frame = self.recv()?;
            if frame.req_id != req_id {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response for {} while awaiting {req_id}", frame.req_id),
                ));
            }
            match frame.kind {
                FrameKind::Result => return Ok(JobOutcome::Result(frame.body)),
                FrameKind::Error => {
                    return Ok(JobOutcome::Failed(
                        String::from_utf8_lossy(&frame.body).into_owned(),
                    ))
                }
                FrameKind::Retry => {
                    std::thread::sleep(retry_delay(retry_backoff, req_id, attempt));
                    attempt = attempt.saturating_add(1);
                }
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected {other:?} frame for submit {req_id}"),
                    ))
                }
            }
        }
    }

    /// Submits a durable job under client-assigned id `job_id` (non-zero)
    /// without waiting. Requires a server bound with
    /// [`IngressServer::bind_durable`].
    pub fn submit_durable(&mut self, job_id: u64, payload: &[u8]) -> std::io::Result<()> {
        self.send(FrameKind::SubmitDurable, job_id, payload)
    }

    /// Acknowledges receipt of durable job `job_id`'s result, releasing
    /// it for journal compaction. Fire-and-forget: the server replies
    /// only on error.
    pub fn ack(&mut self, job_id: u64) -> std::io::Result<()> {
        self.send(FrameKind::Ack, job_id, &[])
    }

    /// Asks the durable status of `job_id`. Returns the status plus its
    /// payload (result bytes for [`QueryStatus::Done`], failure message
    /// bytes for [`QueryStatus::Failed`], empty otherwise).
    pub fn query(&mut self, job_id: u64) -> std::io::Result<(QueryStatus, Vec<u8>)> {
        self.send(FrameKind::Query, job_id, &[])?;
        let mut frame = self.recv()?;
        match frame.kind {
            FrameKind::QueryOk => {
                if frame.body.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "empty QueryOk body",
                    ));
                }
                let status = QueryStatus::from_byte(frame.body[0]).ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unknown query status byte {:#04x}", frame.body[0]),
                    )
                })?;
                frame.body.remove(0);
                Ok((status, frame.body))
            }
            FrameKind::Error => Err(std::io::Error::other(
                String::from_utf8_lossy(&frame.body).into_owned(),
            )),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected {other:?} reply to a query"),
            )),
        }
    }

    /// The durable closed loop: submits `payload` under `job_id`,
    /// transparently resubmitting on [`FrameKind::Retry`] (with the same
    /// jittered [`retry_delay`] schedule as
    /// [`IngressClient::submit_and_wait`], seeded by `job_id`) until the
    /// job resolves. Safe to call again on a fresh connection after a
    /// crash — a duplicate id returns the journaled result instead of
    /// re-running.
    ///
    /// Unlike the non-durable loop, a **dropped connection is not
    /// fatal**: the job id is journaled server-side, so the client
    /// reconnects (up to `DURABLE_RECONNECT_ATTEMPTS` tries on the
    /// same backoff schedule) and resumes via [`IngressClient::query`] —
    /// a `Done` id yields its journaled bytes without re-running, an
    /// `InFlight` id is awaited, and an `Unknown` id (the crash ate the
    /// submit) is resubmitted. This is the documented crash-resume
    /// protocol (DESIGN.md §6.4) performed automatically; only a daemon
    /// that never comes back surfaces the I/O error.
    pub fn submit_durable_and_wait(
        &mut self,
        job_id: u64,
        payload: &[u8],
        retry_backoff: Duration,
    ) -> std::io::Result<JobOutcome> {
        let mut attempt = 0u32;
        loop {
            let reply = self
                .submit_durable(job_id, payload)
                .and_then(|()| self.recv());
            let frame = match reply {
                Ok(frame) => frame,
                Err(e) if is_disconnect(&e) => {
                    self.reconnect_with_backoff(job_id, retry_backoff, e)?;
                    match self.resume_durable(job_id, retry_backoff)? {
                        Some(outcome) => return Ok(outcome),
                        // Unknown id: the crash ate the submit; resend it.
                        None => continue,
                    }
                }
                Err(e) => return Err(e),
            };
            if frame.req_id != job_id {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("response for {} while awaiting {job_id}", frame.req_id),
                ));
            }
            match frame.kind {
                FrameKind::Result => return Ok(JobOutcome::Result(frame.body)),
                FrameKind::Error => {
                    return Ok(JobOutcome::Failed(
                        String::from_utf8_lossy(&frame.body).into_owned(),
                    ))
                }
                FrameKind::Retry => {
                    std::thread::sleep(retry_delay(retry_backoff, job_id, attempt));
                    attempt = attempt.saturating_add(1);
                }
                other => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected {other:?} frame for durable submit {job_id}"),
                    ))
                }
            }
        }
    }

    /// The post-reconnect resume loop: polls `job_id`'s durable status
    /// until it is terminal. `Ok(None)` means the id is unknown to the
    /// journal — the caller must resubmit. Disconnects during the poll
    /// re-enter the same bounded reconnect schedule.
    fn resume_durable(
        &mut self,
        job_id: u64,
        retry_backoff: Duration,
    ) -> std::io::Result<Option<JobOutcome>> {
        let mut attempt = 0u32;
        loop {
            match self.query(job_id) {
                Ok((QueryStatus::Done, bytes)) => return Ok(Some(JobOutcome::Result(bytes))),
                Ok((QueryStatus::Failed, msg)) => {
                    return Ok(Some(JobOutcome::Failed(
                        String::from_utf8_lossy(&msg).into_owned(),
                    )))
                }
                Ok((QueryStatus::Unknown, _)) => return Ok(None),
                Ok((QueryStatus::Acked, _)) => {
                    return Ok(Some(JobOutcome::Failed(format!(
                        "durable job {job_id} already acknowledged; its result was released"
                    ))))
                }
                Ok((QueryStatus::InFlight, _)) => {
                    std::thread::sleep(retry_delay(retry_backoff, job_id, attempt));
                    attempt = attempt.saturating_add(1);
                }
                Err(e) if is_disconnect(&e) => {
                    self.reconnect_with_backoff(job_id, retry_backoff, e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Requests one telemetry snapshot and parses it. On the wire this is
    /// `Subscribe(0)` — the one-shot, which also cancels any active
    /// subscription on this connection — so the reply flows through the
    /// ordered reply path like any other request/response pair.
    pub fn stats(&mut self, req_id: u64) -> std::io::Result<crate::telemetry::TelemetrySnapshot> {
        self.subscribe(req_id, 0)?;
        let frame = self.recv()?;
        match frame.kind {
            FrameKind::StatsEvent => {
                let text = String::from_utf8_lossy(&frame.body);
                crate::telemetry::TelemetrySnapshot::parse_text(&text)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            }
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unexpected {other:?} reply to a stats request"),
            )),
        }
    }

    /// Sends a `Subscribe` frame: `interval_ms > 0` asks the server to
    /// push a [`FrameKind::StatsEvent`] every `interval_ms` on this
    /// connection (out of band — see the module docs for how ticks
    /// interleave with replies); 0 cancels the subscription and requests
    /// exactly one StatsEvent through the ordered reply path.
    pub fn subscribe(&mut self, req_id: u64, interval_ms: u32) -> std::io::Result<()> {
        self.send(FrameKind::Subscribe, req_id, &interval_ms.to_le_bytes())
    }
}
