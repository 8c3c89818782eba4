//! The event-driven server: N loop threads multiplex every connection
//! over a readiness set (the vendored `epoll` shim: epoll on Linux,
//! `poll(2)` on other unix), and nothing else — no thread ever waits on a
//! job or on an fsync on a job's behalf.
//!
//! Thread anatomy:
//!
//! * `hqd-accept` blocks on a readiness set over the listener plus a
//!   shutdown wakeup handle, accepting until `WouldBlock` and dealing
//!   connections to loops round-robin.
//! * `hqd-loop-N` owns a slab of [`Conn`] state machines. Each wait
//!   returns readable sockets (parse frames, dispatch), writable sockets
//!   (resume partial writes), or the loop's own wakeup handle (drain the
//!   inbox: new connections from the acceptor, completions from wherever
//!   jobs finished).
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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Epoll, EventFd};

use super::conn::{encode_outcome, parse_subscribe_body, Conn, LoopCore, ReplyAddr, PENDING_CAP};
use super::wire::{encode_frame, Frame, FrameKind, JobCodec};
use super::{
    admit_durable, admit_submit, complete_durable_then, encode_job_result, sleep_with_shutdown,
    stats_text, AcceptBackoff, DurableAction, Shared, SubmitAction, ACCEPT_BACKOFF_BASE,
};

/// Token of each loop's own wakeup handle (connection tokens are slab
/// indices, which can never reach this).
const WAKE_TOKEN: u64 = u64::MAX;

/// The server's threads, joined at shutdown in dependency order:
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
    /// Spawns [`super::IngressConfig::event_loops`] loop threads and the
    /// acceptor.
    pub fn spawn<C: JobCodec>(
        listener: TcpListener,
        shared: &Arc<Shared<C>>,
    ) -> std::io::Result<Engine> {
        let n_loops = shared.cfg.event_loops.max(1);
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
            let shared = Arc::clone(shared);
            let core = Arc::clone(core);
            loops.push(
                std::thread::Builder::new()
                    .name(format!("hqd-loop-{i}"))
                    .spawn(move || event_loop(shared, core))
                    .expect("failed to spawn event-loop thread"),
            );
        }
        let acceptor = {
            let shared = Arc::clone(shared);
            let cores = cores.clone();
            let wake = Arc::clone(&accept_wake);
            std::thread::Builder::new()
                .name("hqd-accept".to_string())
                .spawn(move || accept_loop(listener, shared, cores, accept_epoll, wake))
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
fn accept_loop<C: JobCodec>(
    listener: TcpListener,
    shared: Arc<Shared<C>>,
    cores: Vec<Arc<LoopCore>>,
    ep: Epoll,
    wake: Arc<EventFd>,
) {
    let mut rr = 0usize;
    let mut backoff = AcceptBackoff::new(ACCEPT_BACKOFF_BASE);
    let mut events = Vec::new();
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.on_success();
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                cores[rr % cores.len()].push_conn(stream);
                rr += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                events.clear();
                let _ = ep.wait(&mut events, -1);
                wake.drain();
            }
            Err(e) => {
                shared
                    .counters
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                sleep_with_shutdown(backoff.on_error(&e), &shared.shutdown);
            }
        }
    }
}

/// One event loop: a readiness wait over its slab of connections plus its
/// wakeup handle.
fn event_loop<C: JobCodec>(shared: Arc<Shared<C>>, core: Arc<LoopCore>) {
    let mut slab: Vec<(u32, Option<Conn>)> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<epoll::Event> = Vec::with_capacity(256);
    let mut chunk = vec![0u8; 16 * 1024];
    let mut touched: Vec<usize> = Vec::new();
    let mut draining = false;
    loop {
        events.clear();
        // Block forever unless a telemetry subscription needs a tick: the
        // idle-costs-nothing property (no wakeups without work) is only
        // traded away on connections that asked for a periodic stream.
        let timeout_ms = subscription_timeout(&slab);
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
            let Some((_, Some(conn))) = slab.get_mut(idx) else {
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
                let idx = free.pop().unwrap_or_else(|| {
                    slab.push((0, None));
                    slab.len() - 1
                });
                if stream.set_nonblocking(true).is_err() {
                    free.push(idx);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let gen = slab[idx].0;
                let mut conn = Conn::new(stream, gen, shared.cfg.max_frame_len);
                conn.interest = epoll::interest::READ;
                if core
                    .epoll
                    .add(epoll::raw_fd(&conn.stream), idx as u64, conn.interest)
                    .is_err()
                {
                    free.push(idx);
                    continue;
                }
                conn.registered = true;
                slab[idx].1 = Some(conn);
                touched.push(idx);
            }
            for completion in inbox.completions {
                let idx = completion.conn as usize;
                if let Some((gen, Some(conn))) = slab.get_mut(idx) {
                    if *gen == completion.gen {
                        conn.apply_completion(completion);
                        touched.push(idx);
                    }
                }
            }
        }
        if !draining && shared.shutdown.load(Ordering::Acquire) {
            draining = true;
            for (idx, (_, slot)) in slab.iter_mut().enumerate() {
                if let Some(conn) = slot {
                    conn.closing = true;
                    touched.push(idx);
                }
            }
        }
        emit_due_ticks(&shared, &mut slab, &mut touched);
        touched.sort_unstable();
        touched.dedup();
        for &idx in &touched {
            let (gen, slot) = &mut slab[idx];
            let Some(conn) = slot else { continue };
            conn.pump_out(&shared.counters, shared.cfg.write_buf_limit);
            if (conn.dead || conn.closing) && conn.drained() {
                // Deregister before the drop closes the fd: only epoll
                // forgets a closed fd by itself.
                if conn.registered {
                    let _ = core.epoll.delete(epoll::raw_fd(&conn.stream));
                }
                *slot = None;
                *gen = gen.wrapping_add(1);
                free.push(idx);
                continue;
            }
            let want = conn.desired_interest(shared.cfg.write_buf_limit);
            if want == 0 {
                // Deregister entirely: with zero interest a closed peer
                // would still storm hangups at a level-triggered wait.
                if conn.registered {
                    let _ = core.epoll.delete(epoll::raw_fd(&conn.stream));
                    conn.registered = false;
                }
            } else if !conn.registered {
                if core
                    .epoll
                    .add(epoll::raw_fd(&conn.stream), idx as u64, want)
                    .is_ok()
                {
                    conn.registered = true;
                    conn.interest = want;
                }
            } else if want != conn.interest {
                let _ = core
                    .epoll
                    .modify(epoll::raw_fd(&conn.stream), idx as u64, want);
                conn.interest = want;
            }
        }
        if draining && slab.iter().all(|(_, s)| s.is_none()) {
            return;
        }
    }
}

/// The wait timeout this loop's subscriptions call for: -1
/// (block forever) when no live connection is subscribed, otherwise the
/// milliseconds until the earliest due tick (0 if overdue — an immediate
/// pass). Rounds *up* so a tick is never scheduled a fraction of a
/// millisecond early and re-spun at timeout 0.
fn subscription_timeout(slab: &[(u32, Option<Conn>)]) -> i32 {
    let mut timeout: Option<u128> = None;
    let now = Instant::now();
    for (_, slot) in slab {
        let Some(conn) = slot else { continue };
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
fn emit_due_ticks<C: JobCodec>(
    shared: &Arc<Shared<C>>,
    slab: &mut [(u32, Option<Conn>)],
    touched: &mut Vec<usize>,
) {
    let now = Instant::now();
    for (idx, (_, slot)) in slab.iter_mut().enumerate() {
        let Some(conn) = slot else { continue };
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

/// Reads until `WouldBlock` (or a fairness cap — a level-triggered wait
/// re-reports leftovers), parsing and dispatching every completed frame.
fn on_readable<C: JobCodec>(
    shared: &Arc<Shared<C>>,
    core: &Arc<LoopCore>,
    conn: &mut Conn,
    idx: usize,
    chunk: &mut [u8],
) {
    use std::io::Read;
    for _ in 0..16 {
        if conn.closing || conn.dead {
            return;
        }
        if conn.pending.len() >= PENDING_CAP || conn.unflushed() >= shared.cfg.write_buf_limit {
            return; // backpressure: the interest update drops READ
        }
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                conn.dec.extend(&chunk[..n]);
                loop {
                    match conn.dec.next_frame() {
                        Ok(Some(frame)) => {
                            shared.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                            dispatch_frame(shared, core, conn, idx, frame);
                            if conn.closing {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            shared
                                .counters
                                .protocol_errors
                                .fetch_add(1, Ordering::Relaxed);
                            push_error(shared, conn, 0, format!("protocol error: {e}"));
                            conn.closing = true; // flush replies, then close
                            return;
                        }
                    }
                }
                if n < chunk.len() {
                    return; // short read: socket almost certainly drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
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
