//! Per-connection machinery of the event loops.
//!
//! * [`LoopCore`], one per loop thread: the readiness set it blocks on,
//!   its wakeup handle, and the completion/new-connection inbox other
//!   threads post into.
//! * [`Conn`], one per connection: the decode → pending-reply-FIFO →
//!   bounded-write-buffer state machine.
//!
//! Frame decisions live in `super` (`admit_submit`, `admit_durable`,
//! `handle_ack`, `handle_query`); `loop.rs` drives both.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use epoll::{Epoll, EventFd};
use parking_lot::Mutex;

use super::wire::{FrameDecoder, JobCodec};
use super::{encode_result_frame, Counters, DurableOutcome, Shared};

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
// The per-connection state machine.
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
