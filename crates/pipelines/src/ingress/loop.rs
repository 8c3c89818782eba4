//! The event-driven server: N loop threads multiplex every connection
//! over a readiness set (the vendored `epoll` shim: epoll on Linux,
//! `poll(2)` on other unix), and nothing else — no thread ever waits on a
//! job or on an fsync on a job's behalf.
//!
//! Thread anatomy, the same for `hqd` and for the router
//! ([`super::router`]), whose loops run their own body over the same
//! [`Engine`], [`LoopCore`] and [`Slab`]:
//!
//! * `hqd-accept` (`hqrouter-accept`) blocks on a readiness set over the
//!   listener plus a shutdown wakeup handle, accepting until `WouldBlock`
//!   and dealing connections to loops round-robin.
//! * `hqd-loop-N` (`hqrouter-loop-N`) owns a slab of [`Conn`] state
//!   machines. Each wait returns readable sockets (parse frames,
//!   dispatch), writable sockets (resume partial writes), or the loop's
//!   own wakeup handle (drain the inbox: new connections from the
//!   acceptor, completions from wherever jobs finished). A router loop
//!   also waits on its upstream connections, one per backend, whose
//!   replies fill its clients' slots.
//!
//! A submit hands the graph a completion callback
//! ([`crate::service::CompiledGraph::submit_with`]). The runtime worker
//! that finishes the job runs it: encode the Result/Error frame, post it
//! to the owning loop's inbox, wake the loop. Per job that is two
//! hand-offs — loop → worker through the injector, worker → loop through
//! the wakeup handle. A durable job's callback stages the terminal record
//! instead ([`super::complete_durable_then`]), and the encode-and-post
//! tail continues from the journal's group-commit flusher once the record
//! is on disk.
//!
//! Connection slots carry a generation counter; completions are
//! addressed by `(conn, gen, slot)` so a slot reused after a disconnect
//! can never receive a predecessor's reply. A connection that dies with
//! jobs in flight keeps its slab entry (deregistered from the readiness
//! set) until every completion has been accounted as `results_dropped`.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Epoll, EventFd};

use super::conn::{encode_outcome, parse_subscribe_body, Conn, LoopCore, ReplyAddr, Slab};
use super::wire::{encode_frame, Frame, FrameKind, JobCodec};
use super::{
    admit_durable, admit_submit, complete_durable_then, encode_job_result, sleep_with_shutdown,
    stats_text, AcceptBackoff, DurableAction, Shared, SubmitAction,
};

/// Token of each loop's own wakeup handle (connection tokens are slab
/// indices, which can never reach this).
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// What the acceptor needs from the server it accepts for (`hqd`'s
/// [`Shared`] or the router's state): the shutdown flag and the
/// `connections` and `accept_errors` counters.
pub(crate) trait Front: Send + Sync + 'static {
    fn accept_state(&self) -> (&AtomicBool, &AtomicU64, &AtomicU64);
}

impl<C: JobCodec> Front for Shared<C> {
    fn accept_state(&self) -> (&AtomicBool, &AtomicU64, &AtomicU64) {
        let c = &self.counters;
        (&self.shutdown, &c.connections, &c.accept_errors)
    }
}

/// A server's threads, joined at shutdown in dependency order:
/// acceptor first (no new connections), then loops (each exits once
/// every pending reply of its connections has been posted back and
/// flushed).
pub(crate) struct Engine {
    cores: Vec<Arc<LoopCore>>,
    accept_wake: Arc<EventFd>,
    acceptor: Option<JoinHandle<()>>,
    loops: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Spawns `n_loops` (at least 1) threads named `{name}-loop-N`, each
    /// running `run(front, core)` over its own [`LoopCore`] (wakeup
    /// handle registered under [`WAKE_TOKEN`]), and the acceptor
    /// `{name}-accept` that deals `listener`'s connections to them
    /// round-robin, backing off from accept errors starting at
    /// `backoff_base`.
    pub fn spawn<F: Front>(
        name: &str,
        listener: TcpListener,
        n_loops: usize,
        backoff_base: Duration,
        front: &Arc<F>,
        run: fn(Arc<F>, Arc<LoopCore>),
    ) -> std::io::Result<Engine> {
        let n_loops = n_loops.max(1);
        let mut cores = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            let core = LoopCore::new()?;
            core.epoll
                .add(core.wake.raw_fd(), WAKE_TOKEN, epoll::interest::READ)?;
            cores.push(core);
        }
        let accept_wake = Arc::new(EventFd::new()?);
        let accept_epoll = Epoll::new()?;
        accept_epoll.add(epoll::raw_fd(&listener), 0, epoll::interest::READ)?;
        accept_epoll.add(accept_wake.raw_fd(), 1, epoll::interest::READ)?;

        let mut loops = Vec::with_capacity(n_loops);
        for (i, core) in cores.iter().enumerate() {
            let (front, core) = (Arc::clone(front), Arc::clone(core));
            loops.push(
                std::thread::Builder::new()
                    .name(format!("{name}-loop-{i}"))
                    .spawn(move || run(front, core))
                    .expect("failed to spawn event-loop thread"),
            );
        }
        let acceptor = {
            let front = Arc::clone(front);
            let cores = cores.clone();
            let wake = Arc::clone(&accept_wake);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || {
                    accept_loop(listener, &*front, backoff_base, cores, accept_epoll, wake)
                })
                .expect("failed to spawn acceptor thread")
        };
        Ok(Engine {
            cores,
            accept_wake,
            acceptor: Some(acceptor),
            loops,
        })
    }

    /// Wakes and joins every thread (the caller has set the shutdown
    /// flag). They block in the kernel, not on a poll interval: ring
    /// every wakeup handle so the flag is observed immediately.
    pub fn stop_and_join(&mut self) {
        self.accept_wake.notify();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for core in &self.cores {
            core.wake.notify();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

/// The acceptor: accepts until `WouldBlock`, then sleeps in the kernel
/// until the listener or the shutdown wakeup fires — no polling. Accept
/// errors go through the [`AcceptBackoff`] classifier; a resource error
/// (EMFILE/ENFILE) backs off exponentially instead of spinning on the
/// forever-readable listener.
fn accept_loop(
    listener: TcpListener,
    front: &dyn Front,
    backoff_base: Duration,
    cores: Vec<Arc<LoopCore>>,
    ep: Epoll,
    wake: Arc<EventFd>,
) {
    let (shutdown, connections, accept_errors) = front.accept_state();
    let mut rr = 0usize;
    let mut backoff = AcceptBackoff::new(backoff_base);
    let mut events = Vec::new();
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.on_success();
                connections.fetch_add(1, Ordering::Relaxed);
                cores[rr % cores.len()].push_conn(stream);
                rr += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                events.clear();
                let _ = ep.wait(&mut events, -1);
                wake.drain();
            }
            Err(e) => {
                accept_errors.fetch_add(1, Ordering::Relaxed);
                sleep_with_shutdown(backoff.on_error(&e), shutdown);
            }
        }
    }
}

/// One `hqd` event loop: a readiness wait over its slab of connections
/// plus its wakeup handle.
pub(crate) fn event_loop<C: JobCodec>(shared: Arc<Shared<C>>, core: Arc<LoopCore>) {
    let mut slab = Slab::default();
    let mut events: Vec<epoll::Event> = Vec::with_capacity(256);
    let mut chunk = vec![0u8; 16 * 1024];
    let mut touched: Vec<usize> = Vec::new();
    let mut draining = false;
    loop {
        events.clear();
        // Block forever unless a telemetry subscription needs a tick: the
        // idle-costs-nothing property (no wakeups without work) is only
        // traded away on connections that asked for a periodic stream.
        let timeout_ms = subscription_timeout(&mut slab);
        if core.epoll.wait(&mut events, timeout_ms).is_err() {
            return; // unrecoverable (the readiness set itself is broken)
        }
        core.wakeups.fetch_add(1, Ordering::Relaxed);
        shared.counters.loop_wakeups.fetch_add(1, Ordering::Relaxed);
        touched.clear();
        let mut woken = false;
        for ev in events.iter().copied() {
            if ev.token == WAKE_TOKEN {
                woken = true;
                continue;
            }
            let idx = ev.token as usize;
            let Some(conn) = slab.get_mut(idx) else {
                continue;
            };
            if ev.readable() {
                on_readable(&shared, &core, conn, idx, &mut chunk);
            }
            touched.push(idx);
        }
        if woken {
            // Drain the wakeup *before* taking the inbox: a post that
            // races in after the take re-rings and is seen next wait.
            core.wake.drain();
            let inbox = core.take_inbox();
            for stream in inbox.conns {
                if draining {
                    continue; // acceptor raced shutdown; drop the socket
                }
                touched.extend(slab.insert(stream, shared.cfg.max_frame_len));
            }
            for completion in inbox.completions {
                let idx = completion.conn;
                if let Some(conn) = slab.live(idx, completion.gen) {
                    conn.apply_completion(completion);
                    touched.push(idx as usize);
                }
            }
        }
        if !draining && shared.shutdown.load(Ordering::Acquire) {
            draining = true;
            for (idx, conn) in slab.iter_mut() {
                conn.closing = true;
                touched.push(idx);
            }
        }
        emit_due_ticks(&shared, &mut slab, &mut touched);
        touched.sort_unstable();
        touched.dedup();
        let (mut written, mut dropped) = (0, 0);
        for &idx in &touched {
            let (w, d) = slab.settle(&core, idx, shared.cfg.write_buf_limit);
            written += w;
            dropped += d;
        }
        let counters = &shared.counters;
        counters.bytes_out.fetch_add(written, Ordering::Relaxed);
        counters
            .results_dropped
            .fetch_add(dropped, Ordering::Relaxed);
        if draining && slab.is_empty() {
            return;
        }
    }
}

/// The wait timeout this loop's subscriptions call for: -1
/// (block forever) when no live connection is subscribed, otherwise the
/// milliseconds until the earliest due tick (0 if overdue — an immediate
/// pass). Rounds *up* so a tick is never scheduled a fraction of a
/// millisecond early and re-spun at timeout 0.
fn subscription_timeout(slab: &mut Slab) -> i32 {
    let mut timeout: Option<u128> = None;
    let now = Instant::now();
    for (_, conn) in slab.iter_mut() {
        if conn.dead || conn.closing {
            continue;
        }
        if let Some((_, _, next_due)) = conn.sub {
            let wait = next_due.saturating_duration_since(now);
            let ms = wait.as_millis() + u128::from(wait.subsec_nanos() % 1_000_000 != 0);
            timeout = Some(timeout.map_or(ms, |t| t.min(ms)));
        }
    }
    match timeout {
        Some(ms) => ms.min(i32::MAX as u128) as i32,
        None => -1,
    }
}

/// Pushes a StatsEvent tick on every subscribed connection whose
/// interval has elapsed. At most one tick fires per pass, and the next
/// is scheduled from *now* — a stalled loop catches up with one tick,
/// not a burst. A tick that doesn't fit the connection's write-buffer
/// budget is dropped (`stats_dropped`), never queued: slow consumers
/// lose ticks, not reply bytes.
fn emit_due_ticks<C: JobCodec>(shared: &Arc<Shared<C>>, slab: &mut Slab, touched: &mut Vec<usize>) {
    let now = Instant::now();
    for (idx, conn) in slab.iter_mut() {
        let Some((req_id, interval, next_due)) = conn.sub else {
            continue;
        };
        if conn.dead || conn.closing {
            conn.sub = None;
            continue;
        }
        if now < next_due {
            continue;
        }
        let mut frame = Vec::new();
        encode_frame(
            FrameKind::StatsEvent,
            req_id,
            stats_text(shared).as_bytes(),
            &mut frame,
        );
        if conn.push_tick(&frame, shared.cfg.write_buf_limit) {
            shared.counters.stats_events.fetch_add(1, Ordering::Relaxed);
        } else {
            shared
                .counters
                .stats_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
        conn.sub = Some((req_id, interval, now + interval));
        touched.push(idx);
    }
}

/// Reads and dispatches every frame the socket has ready.
fn on_readable<C: JobCodec>(
    shared: &Arc<Shared<C>>,
    core: &Arc<LoopCore>,
    conn: &mut Conn,
    idx: usize,
    chunk: &mut [u8],
) {
    let counters = &shared.counters;
    let (read, malformed) = conn.read_frames(chunk, shared.cfg.write_buf_limit, |conn, frame| {
        counters.frames_in.fetch_add(1, Ordering::Relaxed);
        dispatch_frame(shared, core, conn, idx, frame);
    });
    counters.bytes_in.fetch_add(read, Ordering::Relaxed);
    if let Some(e) = malformed {
        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        push_error(shared, conn, 0, format!("protocol error: {e}"));
    }
}

/// Queues an Error reply in FIFO position.
fn push_error<C: JobCodec>(shared: &Shared<C>, conn: &mut Conn, req_id: u64, message: String) {
    shared.counters.errors_sent.fetch_add(1, Ordering::Relaxed);
    let mut out = Vec::new();
    encode_frame(FrameKind::Error, req_id, message.as_bytes(), &mut out);
    conn.push_ready(out, false);
}

/// Dispatches one parsed frame: immediate replies land in the
/// connection's slot FIFO, a job's reply is posted to its reserved slot
/// by the job's completion callback.
fn dispatch_frame<C: JobCodec>(
    shared: &Arc<Shared<C>>,
    core: &Arc<LoopCore>,
    conn: &mut Conn,
    idx: usize,
    frame: Frame,
) {
    // The address of the slot a job frame reserves once it is accepted.
    // A completion cannot arrive before the slot exists: only this
    // thread applies its own inbox.
    let next_slot = |conn: &Conn| ReplyAddr {
        core: Arc::clone(core),
        conn: idx as u32,
        gen: conn.gen,
        slot: conn.next_slot,
    };
    match frame.kind {
        FrameKind::Submit => {
            let (sh, req_id, addr) = (Arc::clone(shared), frame.req_id, next_slot(conn));
            let on_done = move |result| {
                sh.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
                let mut out = Vec::new();
                encode_job_result(&sh, req_id, result, &mut out);
                addr.post(out, true);
            };
            match admit_submit(shared, &frame.body, on_done) {
                SubmitAction::Accepted => {
                    conn.alloc_waiting_slot();
                }
                SubmitAction::Rejected { queued } => push_retry(conn, frame.req_id, queued),
                SubmitAction::Bad(message) => push_error(shared, conn, frame.req_id, message),
            }
        }
        FrameKind::SubmitDurable => {
            let (sh, job_id, addr) = (Arc::clone(shared), frame.req_id, next_slot(conn));
            let reply = addr.clone();
            let on_done = move |result| {
                sh.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
                // Journal + publish even for a dead socket: the client
                // will reconnect and resume exactly because this ran.
                complete_durable_then(sh, job_id, result, move |sh, outcome| {
                    let mut out = Vec::new();
                    encode_outcome(sh, job_id, &outcome, &mut out);
                    reply.post(out, true);
                });
            };
            match admit_durable(shared, &frame, addr, on_done) {
                // Fresh: the callback above answers. Wait: registered as
                // a table waiter; the original's completion posts
                // straight to this slot.
                DurableAction::Fresh | DurableAction::Wait => {
                    conn.alloc_waiting_slot();
                }
                DurableAction::Done(outcome) => {
                    let mut out = Vec::new();
                    encode_outcome(shared, frame.req_id, &outcome, &mut out);
                    conn.push_ready(out, true);
                }
                DurableAction::Rejected { queued } => push_retry(conn, frame.req_id, queued),
                DurableAction::Refuse { req_id, message } => {
                    push_error(shared, conn, req_id, message)
                }
            }
        }
        FrameKind::Ack => {
            if let Some(message) = super::handle_ack(shared, frame.req_id, &frame.body) {
                push_error(shared, conn, frame.req_id, message);
            }
        }
        FrameKind::Query => match super::handle_query(shared, frame.req_id, &frame.body) {
            Ok(body) => {
                let mut out = Vec::new();
                encode_frame(FrameKind::QueryOk, frame.req_id, &body, &mut out);
                conn.push_ready(out, false);
            }
            Err(message) => push_error(shared, conn, frame.req_id, message),
        },
        FrameKind::Subscribe => match parse_subscribe_body(&frame.body) {
            Ok(0) => {
                // One-shot: cancel any subscription and answer through
                // the ordered reply path like any other request.
                conn.sub = None;
                let mut out = Vec::new();
                encode_frame(
                    FrameKind::StatsEvent,
                    frame.req_id,
                    stats_text(shared).as_bytes(),
                    &mut out,
                );
                shared.counters.stats_events.fetch_add(1, Ordering::Relaxed);
                conn.push_ready(out, false);
            }
            Ok(interval_ms) => {
                // First tick due immediately (emitted by this wakeup's
                // tick pass); a new Subscribe replaces the old clock.
                conn.sub = Some((
                    frame.req_id,
                    Duration::from_millis(u64::from(interval_ms)),
                    Instant::now(),
                ));
            }
            Err(message) => push_error(shared, conn, frame.req_id, message),
        },
        FrameKind::Result
        | FrameKind::Retry
        | FrameKind::Error
        | FrameKind::QueryOk
        | FrameKind::StatsEvent => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            push_error(
                shared,
                conn,
                0,
                format!("protocol error: client sent a {:?} frame", frame.kind),
            );
            conn.closing = true;
        }
    }
}

fn push_retry(conn: &mut Conn, req_id: u64, queued: u32) {
    let mut out = Vec::new();
    encode_frame(FrameKind::Retry, req_id, &queued.to_le_bytes(), &mut out);
    conn.push_ready(out, false);
}
