//! Per-connection machinery shared by the two server modes.
//!
//! * The **event-loop mode** types: [`LoopCore`] (one per loop thread —
//!   epoll instance, eventfd wakeup, and the completion/new-connection
//!   inbox other threads post into) and [`Conn`] (one per connection —
//!   the decode → pending-reply-FIFO → bounded-write-buffer state machine
//!   that replaces the fallback's two dedicated threads).
//! * The **thread-pair fallback**: `connection_loop` and its
//!   reader/writer halves, byte-for-byte the pre-epoll behavior, used on
//!   non-Linux builds and when [`super::IngressConfig::event_loops`] is 0.
//!
//! Both modes speak through the same decision helpers in `super`
//! (`admit_submit`, `admit_durable`, `handle_ack`, `handle_query`), so
//! admission, dedupe, and journaling behave identically; only the thread
//! structure differs.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use epoll::{Epoll, EventFd};
use parking_lot::Mutex;
use swan::Refused;

use super::wire::{encode_frame, Frame, FrameDecoder, FrameKind, JobCodec};
use super::{
    admit_durable, admit_submit, complete_durable, encode_job_result, encode_result_frame,
    Counters, DurableAction, DurableOutcome, Shared, SubmitAction, Waiter,
};
use crate::service::{Admission, JobHandle, Submission};

/// Replies a connection may queue ahead of reading more requests. Past
/// this the loop drops read interest on the socket: a client that
/// pipelines thousands of submits without consuming responses stalls
/// itself, not the server.
pub(crate) const PENDING_CAP: usize = 1024;

// ---------------------------------------------------------------------------
// Event-loop plumbing (cross-thread handles).
// ---------------------------------------------------------------------------

/// A finished reply on its way back to the loop that owns the
/// connection: the fully encoded frame plus the (connection, generation,
/// slot) address that pins it to one reserved position in that
/// connection's reply FIFO.
pub(crate) struct Completion {
    pub conn: u32,
    pub gen: u32,
    pub slot: u64,
    pub frame: Vec<u8>,
    /// True when the frame carries a job's outcome: its loss on a dead
    /// socket counts as `results_dropped`, not just a hiccup.
    pub is_job_result: bool,
}

/// What other threads hand a loop: connections from the acceptor,
/// completions from the workers that finished jobs and from the journal
/// flusher (the durable path).
#[derive(Default)]
pub(crate) struct Inbox {
    pub conns: Vec<TcpStream>,
    pub completions: Vec<Completion>,
}

/// One event loop's shared face: the epoll instance it blocks on, the
/// eventfd other threads ring, and the inbox they fill first. Posting is
/// push-then-notify; the loop drains the eventfd *before* taking the
/// inbox, so a post can never be missed (it either lands in the taken
/// batch or re-rings for the next wait).
pub(crate) struct LoopCore {
    pub epoll: Epoll,
    pub wake: EventFd,
    pub inbox: Mutex<Inbox>,
    /// Times this loop's `epoll_wait` returned — the idle-cost metric:
    /// connected-but-silent clients must not advance it.
    pub wakeups: AtomicU64,
}

impl LoopCore {
    pub fn new() -> std::io::Result<Arc<LoopCore>> {
        let epoll = Epoll::new()?;
        let wake = EventFd::new()?;
        Ok(Arc::new(LoopCore {
            epoll,
            wake,
            inbox: Mutex::new(Inbox::default()),
            wakeups: AtomicU64::new(0),
        }))
    }

    /// Posts a completion and rings the loop.
    pub fn post(&self, completion: Completion) {
        self.inbox.lock().completions.push(completion);
        self.wake.notify();
    }

    /// Hands the loop a freshly accepted connection.
    pub fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().conns.push(stream);
        self.wake.notify();
    }

    /// Swaps the inbox out (called by the owning loop after draining the
    /// eventfd).
    pub fn take_inbox(&self) -> Inbox {
        std::mem::take(&mut *self.inbox.lock())
    }
}

/// The address a job completion is delivered to: which loop, which
/// connection (plus its slab generation, guarding against slot reuse),
/// which reserved reply slot.
#[derive(Clone)]
pub(crate) struct ReplyAddr {
    pub core: Arc<LoopCore>,
    pub conn: u32,
    pub gen: u32,
    pub slot: u64,
}

impl ReplyAddr {
    pub fn post(&self, frame: Vec<u8>, is_job_result: bool) {
        self.core.post(Completion {
            conn: self.conn,
            gen: self.gen,
            slot: self.slot,
            frame,
            is_job_result,
        });
    }
}

// ---------------------------------------------------------------------------
// The per-connection state machine (event-loop mode).
// ---------------------------------------------------------------------------

/// One reserved position in a connection's reply FIFO.
pub(crate) enum PendingSlot {
    /// Reply bytes ready to promote into the write buffer.
    Ready { frame: Vec<u8>, is_job_result: bool },
    /// Reserved for an in-flight job; filled by a [`Completion`].
    Waiting,
}

/// One connection owned by an event loop. The FIFO invariant of the
/// protocol — responses leave in exactly request order, byte-identical at
/// any worker count — is carried by `pending`: every request reserves the
/// next slot when it is *parsed*, immediate replies fill theirs on the
/// spot, job replies fill theirs whenever the job finishes, and only a
/// contiguous run of filled slots at the front may move to the socket.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub gen: u32,
    pub dec: FrameDecoder,
    /// Reply FIFO; front is slot id `head_slot`.
    pub pending: VecDeque<PendingSlot>,
    pub head_slot: u64,
    pub next_slot: u64,
    /// Unfilled (Waiting) slots, i.e. jobs still in flight.
    pub outstanding: usize,
    /// Bytes promoted but not yet accepted by the kernel; `wpos` is the
    /// partial-write resume offset.
    pub wbuf: Vec<u8>,
    pub wpos: usize,
    /// Stop reading; flush what is pending, then close (protocol error
    /// or graceful shutdown).
    pub closing: bool,
    /// Socket unusable (EOF, reset, write failure). The entry stays in
    /// the slab only to account completions still in flight.
    pub dead: bool,
    /// Interest bits currently registered with epoll.
    pub interest: u32,
    /// Whether the fd is currently in the epoll set. Dropped to false
    /// when the desired interest is empty: a level-triggered epoll would
    /// otherwise storm EPOLLHUP for a closed-but-unread peer.
    pub registered: bool,
    /// Active telemetry subscription: (req_id, interval, next tick due).
    /// Ticks bypass the reply FIFO (see [`Conn::push_tick`]).
    pub sub: Option<(u64, std::time::Duration, std::time::Instant)>,
}

impl Conn {
    pub fn new(stream: TcpStream, gen: u32, max_frame_len: u32) -> Conn {
        Conn {
            stream,
            gen,
            dec: FrameDecoder::new(max_frame_len),
            pending: VecDeque::new(),
            head_slot: 0,
            next_slot: 0,
            outstanding: 0,
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            dead: false,
            interest: 0,
            registered: false,
            sub: None,
        }
    }

    /// Bytes promoted into the write buffer but not yet written.
    pub fn unflushed(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Queues an immediately-available reply in its FIFO position.
    pub fn push_ready(&mut self, frame: Vec<u8>, is_job_result: bool) {
        self.pending.push_back(PendingSlot::Ready {
            frame,
            is_job_result,
        });
        self.next_slot += 1;
    }

    /// Appends an out-of-band frame (a subscription tick) whole to the
    /// write buffer, bypassing the reply FIFO: the buffer only ever
    /// grows by whole frames, so a tick lands *between* replies, never
    /// inside one — the reply substream stays byte-identical. Returns
    /// false (caller drops the tick) when the buffer is already at its
    /// limit: the slow-consumer rule is drop, don't queue.
    pub fn push_tick(&mut self, frame: &[u8], write_buf_limit: usize) -> bool {
        if self.dead || self.closing || self.unflushed() >= write_buf_limit {
            return false;
        }
        self.wbuf.extend_from_slice(frame);
        true
    }

    /// Reserves the next FIFO position for an in-flight job and returns
    /// its slot id (the completion's delivery address).
    pub fn alloc_waiting_slot(&mut self) -> u64 {
        let slot = self.next_slot;
        self.pending.push_back(PendingSlot::Waiting);
        self.next_slot += 1;
        self.outstanding += 1;
        slot
    }

    /// Fills a reserved slot with its completed reply.
    pub fn apply_completion(&mut self, completion: Completion) {
        debug_assert!(completion.slot >= self.head_slot);
        let idx = (completion.slot - self.head_slot) as usize;
        if let Some(slot @ PendingSlot::Waiting) = self.pending.get_mut(idx) {
            *slot = PendingSlot::Ready {
                frame: completion.frame,
                is_job_result: completion.is_job_result,
            };
            self.outstanding -= 1;
        }
    }

    /// Moves the contiguous Ready run at the FIFO front into the write
    /// buffer (bounded by `write_buf_limit`) and writes as much as the
    /// socket accepts. On a dead socket, Ready replies are drained
    /// unwritten instead, counting each lost job result.
    pub fn pump_out(&mut self, counters: &Counters, write_buf_limit: usize) {
        if self.dead {
            while let Some(PendingSlot::Ready { is_job_result, .. }) = self.pending.front() {
                if *is_job_result {
                    counters.results_dropped.fetch_add(1, Ordering::Relaxed);
                }
                self.pending.pop_front();
                self.head_slot += 1;
            }
            self.wbuf.clear();
            self.wpos = 0;
            return;
        }
        // Promote. A single frame larger than the limit still promotes
        // when the buffer is empty (it could never go out otherwise), so
        // the true bound is limit + one frame.
        while self.unflushed() < write_buf_limit {
            match self.pending.front() {
                Some(PendingSlot::Ready { .. }) => {
                    let Some(PendingSlot::Ready { frame, .. }) = self.pending.pop_front() else {
                        unreachable!()
                    };
                    self.head_slot += 1;
                    self.wbuf.extend_from_slice(&frame);
                }
                _ => break,
            }
        }
        // Flush with partial-write resumption.
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    self.wpos += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.dead {
            // Whatever was still queued can no longer be delivered.
            self.pump_out(counters, write_buf_limit);
            return;
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            // Drop the flushed prefix so a slow reader cannot pin it.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// True when nothing remains to deliver or account.
    pub fn drained(&self) -> bool {
        self.outstanding == 0 && self.pending.is_empty() && (self.dead || self.unflushed() == 0)
    }

    /// The epoll interest this connection's state calls for: read while
    /// accepting requests and under the backpressure bounds, write while
    /// bytes wait in the buffer.
    pub fn desired_interest(&self, write_buf_limit: usize) -> u32 {
        if self.dead {
            return 0;
        }
        let mut want = 0;
        if !self.closing && self.pending.len() < PENDING_CAP && self.unflushed() < write_buf_limit {
            want |= epoll::interest::READ;
        }
        if self.unflushed() > 0 {
            want |= epoll::interest::WRITE;
        }
        want
    }
}

// ---------------------------------------------------------------------------
// Thread-pair fallback (portable; also selected by `event_loops: 0`).
// ---------------------------------------------------------------------------

/// What the fallback reader hands its writer. One FIFO channel per
/// connection: whatever order requests arrived in is the order replies
/// go out.
enum Reply<O> {
    Job {
        req_id: u64,
        handle: JobHandle<O>,
    },
    Retry {
        req_id: u64,
        queued: u32,
    },
    Error {
        req_id: u64,
        message: String,
    },
    /// A freshly accepted durable job: the writer joins the handle, makes
    /// the outcome journal-durable via `complete_durable`, *then* writes
    /// the Result/Error frame.
    DurableJob {
        req_id: u64,
        handle: JobHandle<O>,
    },
    /// A duplicate submit of an in-flight id: the writer blocks on the
    /// channel until the original submission resolves the job.
    DurableWait {
        req_id: u64,
        rx: mpsc::Receiver<DurableOutcome>,
    },
    /// A duplicate submit answered instantly from the table (the result
    /// is already journal-durable).
    DurableDone {
        req_id: u64,
        outcome: DurableOutcome,
    },
    /// A Query answer: one QueryStatus byte plus status-specific bytes.
    Query {
        req_id: u64,
        body: Vec<u8>,
    },
    /// A Subscribe frame: the writer owns the tick clock (it is the only
    /// thread allowed to touch the socket), so the reader forwards the
    /// parsed interval through the ordered channel.
    Subscribe {
        req_id: u64,
        interval_ms: u32,
    },
}

pub(crate) fn connection_loop<C: JobCodec>(shared: Arc<Shared<C>>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // The reader is the side that *observes* a vanished client (EOF or a
    // hard read error); the first write after a FIN still succeeds into
    // the send buffer, so the writer cannot detect it alone. This flag is
    // how undeliverable results get counted instead of silently buffered.
    let peer_gone = Arc::new(AtomicBool::new(false));
    let (reply_tx, reply_rx) = mpsc::channel::<Reply<C::Out>>();
    let writer_shared = Arc::clone(&shared);
    let writer_peer_gone = Arc::clone(&peer_gone);
    let writer = std::thread::Builder::new()
        .name("hqd-write".to_string())
        .spawn(move || writer_loop(writer_shared, write_half, reply_rx, writer_peer_gone))
        .expect("failed to spawn connection writer thread");
    reader_loop(&shared, stream, &reply_tx, &peer_gone);
    drop(reply_tx); // closes the channel: writer drains and exits
    let _ = writer.join();
}

fn reader_loop<C: JobCodec>(
    shared: &Shared<C>,
    mut stream: TcpStream,
    reply_tx: &mpsc::Sender<Reply<C::Out>>,
    peer_gone: &AtomicBool,
) {
    // A finite read timeout turns blocked reads into shutdown-flag polls.
    let _ = stream.set_read_timeout(Some(shared.cfg.poll_interval));
    let mut dec = FrameDecoder::new(shared.cfg.max_frame_len);
    let mut chunk = vec![0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return; // graceful: stop at a frame boundary, writer drains
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // Client closed: pending results are undeliverable. Not
                // set on the graceful-shutdown path above, where the
                // client is still reading its drained responses.
                peer_gone.store(true, Ordering::Release);
                return;
            }
            Ok(n) => {
                shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                dec.extend(&chunk[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            shared.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                            if !handle_frame(shared, frame, reply_tx) {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            shared
                                .counters
                                .protocol_errors
                                .fetch_add(1, Ordering::Relaxed);
                            let _ = reply_tx.send(Reply::Error {
                                req_id: 0,
                                message: format!("protocol error: {e}"),
                            });
                            return; // stream offset untrustworthy: close
                        }
                    }
                }
            }
            // Timeouts are the shutdown-poll mechanism; EINTR loses no
            // bytes and leaves the stream offset intact — retry both.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => {
                // Hard read error (reset, aborted): same as a close.
                peer_gone.store(true, Ordering::Release);
                return;
            }
        }
    }
}

/// The fallback's way into the graph: the blocking [`JobHandle`] its
/// writer thread will wait on.
fn submit_handle<C: JobCodec>(
    shared: &Shared<C>,
) -> impl FnOnce(Vec<C::In>, Admission) -> Result<JobHandle<C::Out>, Refused<Vec<C::In>>> + '_ {
    |input, admission| match shared.graph.submit(input, admission) {
        Submission::Accepted(handle) => Ok(handle),
        Submission::Rejected { depth, input } => Err(Refused {
            depth,
            request: input,
        }),
    }
}

/// Dispatches one parsed frame; `false` closes the connection.
fn handle_frame<C: JobCodec>(
    shared: &Shared<C>,
    frame: Frame,
    reply_tx: &mpsc::Sender<Reply<C::Out>>,
) -> bool {
    let reply = match frame.kind {
        FrameKind::Submit => match admit_submit(shared, &frame.body, submit_handle(shared)) {
            SubmitAction::Accepted(handle) => Reply::Job {
                req_id: frame.req_id,
                handle,
            },
            SubmitAction::Rejected { queued } => Reply::Retry {
                req_id: frame.req_id,
                queued,
            },
            SubmitAction::Bad(message) => Reply::Error {
                req_id: frame.req_id,
                message,
            },
        },
        FrameKind::SubmitDurable => {
            let (tx, rx) = mpsc::channel();
            match admit_durable(shared, &frame, Waiter::Channel(tx), submit_handle(shared)) {
                DurableAction::Fresh(handle) => Reply::DurableJob {
                    req_id: frame.req_id,
                    handle,
                },
                DurableAction::Wait => Reply::DurableWait {
                    req_id: frame.req_id,
                    rx,
                },
                DurableAction::Done(outcome) => Reply::DurableDone {
                    req_id: frame.req_id,
                    outcome,
                },
                DurableAction::Rejected { queued } => Reply::Retry {
                    req_id: frame.req_id,
                    queued,
                },
                DurableAction::Refuse { req_id, message } => Reply::Error { req_id, message },
            }
        }
        FrameKind::Ack => {
            match super::handle_ack(shared, frame.req_id, &frame.body) {
                // Ack is fire-and-forget: success sends nothing.
                None => return true,
                Some(message) => Reply::Error {
                    req_id: frame.req_id,
                    message,
                },
            }
        }
        FrameKind::Subscribe => match parse_subscribe_body(&frame.body) {
            Ok(interval_ms) => Reply::Subscribe {
                req_id: frame.req_id,
                interval_ms,
            },
            Err(message) => Reply::Error {
                req_id: frame.req_id,
                message,
            },
        },
        FrameKind::Query => match super::handle_query(shared, frame.req_id, &frame.body) {
            Ok(body) => Reply::Query {
                req_id: frame.req_id,
                body,
            },
            Err(message) => Reply::Error {
                req_id: frame.req_id,
                message,
            },
        },
        // Server-to-client kinds arriving at the server are protocol
        // errors: close after reporting. Connection-fatal errors use
        // req_id 0 (the documented connection-level id) so clients never
        // mistake them for a per-request failure.
        FrameKind::Result
        | FrameKind::Retry
        | FrameKind::Error
        | FrameKind::QueryOk
        | FrameKind::StatsEvent => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let _ = reply_tx.send(Reply::Error {
                req_id: 0,
                message: format!("protocol error: client sent a {:?} frame", frame.kind),
            });
            return false;
        }
    };
    // Send failure means the writer died (socket gone); stop reading.
    reply_tx.send(reply).is_ok()
}

/// Validates a Subscribe frame body: exactly 4 bytes, u32 LE interval.
pub(crate) fn parse_subscribe_body(body: &[u8]) -> Result<u32, String> {
    match <[u8; 4]>::try_from(body) {
        Ok(bytes) => Ok(u32::from_le_bytes(bytes)),
        Err(_) => Err(format!(
            "Subscribe body must be 4 bytes (u32 LE interval_ms), got {}",
            body.len()
        )),
    }
}

fn writer_loop<C: JobCodec>(
    shared: Arc<Shared<C>>,
    mut stream: TcpStream,
    replies: mpsc::Receiver<Reply<C::Out>>,
    peer_gone: Arc<AtomicBool>,
) {
    let mut out = Vec::new();
    // Once the socket dies we keep draining replies — accepted jobs must
    // still be joined so they complete through the graph (and durable
    // ones must still be journaled) — but stop encoding/writing. Every
    // job result that can't reach the client counts as dropped.
    let mut socket_alive = true;
    // Re-checked after every blocking join: the client can vanish while
    // the writer waits on a job, and that moment is exactly when an
    // undeliverable result must be counted rather than buffered at a
    // socket the kernel will happily accept one last write into.
    let sock_ok = |alive: &mut bool| {
        if *alive && peer_gone.load(Ordering::Acquire) {
            *alive = false;
        }
        *alive
    };
    // Active telemetry subscription: (req_id, interval, next tick due).
    // Ticks interleave with replies at frame granularity only — a tick
    // is written whole between two channel replies, never inside one —
    // so the reply substream stays byte-identical. Blocking writes are
    // this mode's backpressure: a slow consumer delays ticks instead of
    // accumulating them (at most one fires per wakeup, and the next is
    // scheduled from *now*, not from the missed deadline).
    let mut sub: Option<(u64, Duration, Instant)> = None;
    loop {
        let reply = if let Some((sub_req_id, interval, next_due)) = sub {
            let now = Instant::now();
            if now >= next_due {
                if sock_ok(&mut socket_alive) {
                    out.clear();
                    encode_frame(
                        FrameKind::StatsEvent,
                        sub_req_id,
                        super::stats_text(&shared).as_bytes(),
                        &mut out,
                    );
                    if stream.write_all(&out).is_err() {
                        socket_alive = false;
                    } else {
                        shared
                            .counters
                            .bytes_out
                            .fetch_add(out.len() as u64, Ordering::Relaxed);
                        shared.counters.stats_events.fetch_add(1, Ordering::Relaxed);
                    }
                }
                sub = Some((sub_req_id, interval, Instant::now() + interval));
                continue;
            }
            match replies.recv_timeout(next_due - now) {
                Ok(reply) => reply,
                Err(mpsc::RecvTimeoutError::Timeout) => continue, // tick on re-entry
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match replies.recv() {
                Ok(reply) => reply,
                Err(_) => break,
            }
        };
        out.clear();
        // True for replies carrying a job's outcome: their loss is a
        // result drop, not just a connection hiccup.
        let mut is_job_result = false;
        match reply {
            Reply::Job { req_id, handle } => {
                is_job_result = true;
                let result = handle.wait();
                shared
                    .counters
                    .jobs_completed
                    .fetch_add(1, Ordering::Relaxed);
                if !sock_ok(&mut socket_alive) {
                    shared
                        .counters
                        .results_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                encode_job_result(&shared, req_id, result, &mut out);
            }
            Reply::DurableJob { req_id, handle } => {
                is_job_result = true;
                let result = handle.wait();
                shared
                    .counters
                    .jobs_completed
                    .fetch_add(1, Ordering::Relaxed);
                // Journal + publish even for a dead socket: the client
                // will reconnect and resume exactly because this ran.
                let durable = shared
                    .durable
                    .as_ref()
                    .expect("DurableJob replies only exist on durable servers");
                let outcome = complete_durable(&shared, durable, req_id, result);
                if !sock_ok(&mut socket_alive) {
                    shared
                        .counters
                        .results_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                encode_outcome(&shared, req_id, &outcome, &mut out);
            }
            Reply::DurableWait { req_id, rx } => {
                is_job_result = true;
                let outcome = rx.recv().unwrap_or_else(|_| {
                    Err("service shut down before the job completed".to_string())
                });
                if !sock_ok(&mut socket_alive) {
                    shared
                        .counters
                        .results_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                encode_outcome(&shared, req_id, &outcome, &mut out);
            }
            Reply::DurableDone { req_id, outcome } => {
                is_job_result = true;
                if !sock_ok(&mut socket_alive) {
                    shared
                        .counters
                        .results_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                encode_outcome(&shared, req_id, &outcome, &mut out);
            }
            Reply::Retry { req_id, queued } => {
                if !sock_ok(&mut socket_alive) {
                    continue;
                }
                encode_frame(FrameKind::Retry, req_id, &queued.to_le_bytes(), &mut out);
            }
            Reply::Error { req_id, message } => {
                shared.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
                if !sock_ok(&mut socket_alive) {
                    continue;
                }
                encode_frame(FrameKind::Error, req_id, message.as_bytes(), &mut out);
            }
            Reply::Query { req_id, body } => {
                if !sock_ok(&mut socket_alive) {
                    continue;
                }
                encode_frame(FrameKind::QueryOk, req_id, &body, &mut out);
            }
            Reply::Subscribe {
                req_id,
                interval_ms,
            } => {
                if interval_ms == 0 {
                    // One-shot: cancel any subscription and answer in
                    // FIFO position like any other reply.
                    sub = None;
                    if !sock_ok(&mut socket_alive) {
                        continue;
                    }
                    encode_frame(
                        FrameKind::StatsEvent,
                        req_id,
                        super::stats_text(&shared).as_bytes(),
                        &mut out,
                    );
                    shared.counters.stats_events.fetch_add(1, Ordering::Relaxed);
                } else {
                    // First tick due immediately; emitted at the loop head.
                    sub = Some((
                        req_id,
                        Duration::from_millis(interval_ms as u64),
                        Instant::now(),
                    ));
                    continue;
                }
            }
        }
        if sock_ok(&mut socket_alive) {
            if stream.write_all(&out).is_err() {
                socket_alive = false;
                if is_job_result {
                    shared
                        .counters
                        .results_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
            } else {
                shared
                    .counters
                    .bytes_out
                    .fetch_add(out.len() as u64, Ordering::Relaxed);
            }
        }
    }
}

pub(crate) fn encode_outcome<C: JobCodec>(
    shared: &Shared<C>,
    req_id: u64,
    outcome: &DurableOutcome,
    out: &mut Vec<u8>,
) {
    match outcome {
        Ok(bytes) => encode_result_frame(
            &shared.counters,
            shared.cfg.max_frame_len,
            req_id,
            Ok(bytes),
            out,
        ),
        Err(msg) => encode_result_frame(
            &shared.counters,
            shared.cfg.max_frame_len,
            req_id,
            Err(msg),
            out,
        ),
    }
}
