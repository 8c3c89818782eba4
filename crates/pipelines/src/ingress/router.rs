//! `hqrouter`'s engine: one ingress endpoint sharded over N `hqd` backends.
//!
//! A [`Router`] listens like an [`super::IngressServer`] and speaks the
//! exact same framed protocol, but owns no graph: every request frame is
//! forwarded **verbatim** to one of N backend daemons chosen by
//! rendezvous hashing over the frame's `req_id`
//! ([`crate::partition::rendezvous_route`]), and the backends' reply
//! streams are merged back into the client connection **in request
//! order**. Because each backend's own reply stream is a FIFO (the
//! single-daemon ordering invariant) and the merger forwards exactly one
//! reply per request, in submission order, the per-connection response
//! stream through the router is byte-identical to the stream a single
//! daemon running every job would have produced — sharding is invisible
//! at the byte level. See DESIGN.md §7.2 for the full argument.
//!
//! # Routing
//!
//! | frame              | destination                                     |
//! |--------------------|-------------------------------------------------|
//! | Submit             | `rendezvous_route(req_id, N)`                   |
//! | SubmitDurable      | `rendezvous_route(req_id, N)` — stable across restarts, minimal remap when N changes |
//! | Query, Ack         | same hash — lands on the shard that owns the id |
//! | Subscribe(0)       | backend 0 (a representative snapshot)           |
//! | Subscribe(>0)      | refused with an Error frame: periodic ticks are
//! |                    | out-of-band and cannot be merged deterministically |
//!
//! Durable job ids hash to the same shard on every connection and every
//! router restart, so a resubmitted id always reaches the journal that
//! already owns it — the at-least-once dedupe keeps working through the
//! router.
//!
//! # Failure containment
//!
//! A dead backend fails *its shard's* requests, nobody else's: the
//! merger detects the broken stream, and every request already routed to
//! that shard is answered with a synthesized [`FrameKind::Retry`]
//! (submits) or [`FrameKind::Error`] (queries/stats) instead of stalling
//! the connection. The next request routed to the shard makes the
//! forwarder attempt one reconnect; once the backend is back (e.g.
//! restarted on its journal), its replies — replayed byte-identically
//! from the journal for durable ids — flow again. Requests routed to
//! other shards are never delayed or perturbed.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use super::{
    encode_frame, sleep_with_shutdown, AcceptBackoff, Frame, FrameDecoder, FrameKind,
    DEFAULT_MAX_FRAME_LEN,
};
use crate::partition::rendezvous_route;
use crate::telemetry::read_counter;

/// How many forwarded-but-unanswered Ack ids the merger remembers per
/// shard. Acks are fire-and-forget (a backend replies only on error), so
/// the set cannot be retired by replies; the cap bounds it instead. An
/// evicted id's rare error reply would desynchronize the merge, so the
/// cap is generous relative to any plausible in-flight ack window.
const MAX_TRACKED_ACKS: usize = 1024;

// ---------------------------------------------------------------------------
// Configuration and counters.
// ---------------------------------------------------------------------------

/// Knobs of a [`Router`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend daemon addresses (`host:port`), one per shard. Shard
    /// index = position in this list; keep the order stable across
    /// router restarts or durable ids will re-route.
    pub backends: Vec<String>,
    /// Upper bound on a frame's `len` field, both directions. Match the
    /// backends' [`super::IngressConfig::max_frame_len`]. Default
    /// [`DEFAULT_MAX_FRAME_LEN`].
    pub max_frame_len: u32,
    /// Read-timeout granularity at which blocked reads re-check the
    /// shutdown flag, and the acceptor's poll/backoff base. Default 25 ms.
    pub poll_interval: Duration,
}

impl RouterConfig {
    /// A config routing to `backends` with default limits.
    pub fn to<I, S>(backends: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        RouterConfig {
            backends: backends.into_iter().map(Into::into).collect(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(25),
        }
    }
}

#[derive(Default)]
struct RouterCounters {
    connections: AtomicU64,
    frames_in: AtomicU64,
    replies_out: AtomicU64,
    retries_synthesized: AtomicU64,
    errors_synthesized: AtomicU64,
    reconnects: AtomicU64,
    shard_failures: AtomicU64,
    protocol_errors: AtomicU64,
    accept_errors: AtomicU64,
}

/// Counter snapshot of a [`Router`] (monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Client connections accepted.
    pub connections: u64,
    /// Request frames parsed off client connections.
    pub frames_in: u64,
    /// Reply frames written to clients (forwarded and synthesized).
    pub replies_out: u64,
    /// Retry frames synthesized for requests whose shard was down.
    pub retries_synthesized: u64,
    /// Error frames synthesized by the router itself (dead-shard
    /// queries, refused subscriptions, unexpected client frames).
    pub errors_synthesized: u64,
    /// Successful backend reconnects.
    pub reconnects: u64,
    /// Times a backend connection was found dead (failed connect, write,
    /// or read).
    pub shard_failures: u64,
    /// Client connections dropped for malformed/oversized frames.
    pub protocol_errors: u64,
    /// Failed `accept()` calls.
    pub accept_errors: u64,
}

struct RouterShared {
    cfg: RouterConfig,
    counters: RouterCounters,
    shutdown: AtomicBool,
}

impl RouterShared {
    fn snapshot(&self) -> RouterStats {
        let c = &self.counters;
        RouterStats {
            connections: read_counter(&c.connections),
            frames_in: read_counter(&c.frames_in),
            replies_out: read_counter(&c.replies_out),
            retries_synthesized: read_counter(&c.retries_synthesized),
            errors_synthesized: read_counter(&c.errors_synthesized),
            reconnects: read_counter(&c.reconnects),
            shard_failures: read_counter(&c.shard_failures),
            protocol_errors: read_counter(&c.protocol_errors),
            accept_errors: read_counter(&c.accept_errors),
        }
    }
}

// ---------------------------------------------------------------------------
// The reply-merge queue.
// ---------------------------------------------------------------------------

/// One unit of reply-stream work, enqueued by the forwarder in request
/// order and drained FIFO by the merger — the queue *is* the ordering
/// invariant: replies reach the client exactly in the order their
/// requests arrived, wherever they were served.
enum Pending {
    /// Read exactly one reply frame from `shard` and forward it
    /// verbatim; on a dead stream synthesize the `kind`-appropriate
    /// refusal instead.
    Remote {
        shard: usize,
        req_id: u64,
        kind: FrameKind,
    },
    /// Pre-encoded router-synthesized reply bytes.
    Local(Vec<u8>),
    /// `shard` reconnected; subsequent `Remote` entries read from this
    /// stream (enqueued *before* them, so old entries still drain — as
    /// failures — from the old stream).
    NewStream { shard: usize, stream: TcpStream },
    /// An Ack was forwarded to `shard`. Acks get no reply on success,
    /// so no `Remote` entry — but a backend replies to a *bad* ack with
    /// an Error frame, which the merger must recognize as out-of-band
    /// rather than misattribute to the next `Remote` entry's slot.
    AckSent { shard: usize, req_id: u64 },
}

/// Synthesized refusal for a request whose shard is unreachable: Retry
/// for submits (the client's closed loop resubmits with backoff, and the
/// resubmit triggers a reconnect attempt), Error for request kinds whose
/// clients don't retry.
fn synth_reply(shared: &RouterShared, shard: usize, req_id: u64, kind: FrameKind) -> Vec<u8> {
    let mut out = Vec::new();
    match kind {
        FrameKind::Submit | FrameKind::SubmitDurable => {
            shared
                .counters
                .retries_synthesized
                .fetch_add(1, Ordering::Relaxed);
            out.reserve(4 + super::FRAME_FIXED_LEN + 4);
            encode_frame(FrameKind::Retry, req_id, &0u32.to_le_bytes(), &mut out);
        }
        _ => {
            shared
                .counters
                .errors_synthesized
                .fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "shard {shard} ({}) unavailable; retry later",
                shared.cfg.backends[shard]
            );
            encode_frame(FrameKind::Error, req_id, msg.as_bytes(), &mut out);
        }
    }
    out
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Connects one backend, returning the forwarder's write half and the
/// merger's read half (a dup of the same socket, read-timeout armed so
/// the merger can observe shutdown while blocked).
fn connect_backend(addr: &str, poll: Duration) -> std::io::Result<(TcpStream, TcpStream)> {
    let write = TcpStream::connect(addr)?;
    write.set_nodelay(true).ok();
    let read = write.try_clone()?;
    read.set_read_timeout(Some(poll))?;
    Ok((write, read))
}

// ---------------------------------------------------------------------------
// The merger: the reply half of one client connection.
// ---------------------------------------------------------------------------

struct Merger {
    shared: Arc<RouterShared>,
    client: TcpStream,
    reads: Vec<Option<TcpStream>>,
    decs: Vec<FrameDecoder>,
    /// Per shard: forwarded ack ids awaiting a (rare, error-only) reply.
    acked: Vec<VecDeque<u64>>,
    chunk: Vec<u8>,
}

impl Merger {
    fn run(mut self, rx: mpsc::Receiver<Pending>) {
        while let Ok(entry) = rx.recv() {
            let ok = match entry {
                Pending::Local(bytes) => self.send_client(&bytes),
                Pending::NewStream { shard, stream } => {
                    self.reads[shard] = Some(stream);
                    self.decs[shard] = FrameDecoder::new(self.shared.cfg.max_frame_len);
                    self.acked[shard].clear();
                    true
                }
                Pending::AckSent { shard, req_id } => {
                    let q = &mut self.acked[shard];
                    q.push_back(req_id);
                    while q.len() > MAX_TRACKED_ACKS {
                        q.pop_front();
                    }
                    true
                }
                Pending::Remote {
                    shard,
                    req_id,
                    kind,
                } => self.deliver(shard, req_id, kind),
            };
            if !ok {
                // Client unwritable: stop merging. The forwarder's next
                // send into the dropped channel tells it to stop too.
                break;
            }
        }
    }

    /// Forwards one reply for `req_id` from `shard` — the heart of the
    /// byte-identity claim: the backend's reply bytes pass through
    /// unmodified, in queue order.
    fn deliver(&mut self, shard: usize, req_id: u64, kind: FrameKind) -> bool {
        loop {
            match self.read_frame(shard) {
                Ok(frame) => {
                    if frame.req_id != req_id && self.acked[shard].contains(&frame.req_id) {
                        // The error-only reply to a fire-and-forget Ack:
                        // out of band, not this entry's slot.
                        self.acked[shard].retain(|&id| id != frame.req_id);
                        if !self.forward(&frame) {
                            return false;
                        }
                        continue;
                    }
                    return self.forward(&frame);
                }
                Err(_) => {
                    self.reads[shard] = None;
                    self.shared
                        .counters
                        .shard_failures
                        .fetch_add(1, Ordering::Relaxed);
                    let bytes = synth_reply(&self.shared, shard, req_id, kind);
                    return self.send_client(&bytes);
                }
            }
        }
    }

    /// Re-encodes `frame` and writes it to the client. The encoding is
    /// canonical (`len · kind · req_id · body`), so the emitted bytes are
    /// identical to the bytes the backend sent.
    fn forward(&mut self, frame: &Frame) -> bool {
        let mut out = Vec::with_capacity(4 + super::FRAME_FIXED_LEN + frame.body.len());
        encode_frame(frame.kind, frame.req_id, &frame.body, &mut out);
        self.send_client(&out)
    }

    /// Blocks until `shard`'s next frame (re-checking shutdown at the
    /// read-timeout granularity). Any read failure means the shard is
    /// dead to this connection.
    fn read_frame(&mut self, shard: usize) -> std::io::Result<Frame> {
        loop {
            if let Some(frame) = self.decs[shard]
                .next_frame()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            {
                return Ok(frame);
            }
            let Some(stream) = self.reads[shard].as_mut() else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "shard connection is down",
                ));
            };
            match stream.read(&mut self.chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "backend closed the connection",
                    ))
                }
                Ok(n) => {
                    let bytes = self.chunk[..n].to_vec();
                    self.decs[shard].extend(&bytes);
                }
                Err(e) if is_timeout(&e) => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn send_client(&mut self, bytes: &[u8]) -> bool {
        if self.client.write_all(bytes).is_ok() {
            self.shared
                .counters
                .replies_out
                .fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// The forwarder: the request half of one client connection.
// ---------------------------------------------------------------------------

/// Serves one client connection: this thread reads and routes request
/// frames; a paired merger thread assembles the reply stream.
fn route_connection(shared: Arc<RouterShared>, mut client: TcpStream) {
    let n = shared.cfg.backends.len();
    client.set_nodelay(true).ok();
    client.set_read_timeout(Some(shared.cfg.poll_interval)).ok();
    let Ok(client_out) = client.try_clone() else {
        return;
    };

    // Fresh backend connections per client connection: each backend sees
    // this client as one ordinary ingress connection, so the backend's
    // own per-connection FIFO is exactly the per-(client, shard) order
    // the merger relies on.
    let mut writes: Vec<Option<TcpStream>> = Vec::with_capacity(n);
    let mut reads: Vec<Option<TcpStream>> = Vec::with_capacity(n);
    for addr in &shared.cfg.backends {
        match connect_backend(addr, shared.cfg.poll_interval) {
            Ok((w, r)) => {
                writes.push(Some(w));
                reads.push(Some(r));
            }
            Err(_) => {
                // Not fatal: the shard synthesizes refusals until a
                // later frame's reconnect attempt succeeds.
                shared
                    .counters
                    .shard_failures
                    .fetch_add(1, Ordering::Relaxed);
                writes.push(None);
                reads.push(None);
            }
        }
    }

    let (tx, rx) = mpsc::channel::<Pending>();
    let merger = {
        let merger = Merger {
            shared: Arc::clone(&shared),
            client: client_out,
            decs: (0..n)
                .map(|_| FrameDecoder::new(shared.cfg.max_frame_len))
                .collect(),
            reads,
            acked: vec![VecDeque::new(); n],
            chunk: vec![0u8; 16 * 1024],
        };
        std::thread::Builder::new()
            .name("hqrouter-merge".to_string())
            .spawn(move || merger.run(rx))
            .expect("failed to spawn merger thread")
    };

    let mut dec = FrameDecoder::new(shared.cfg.max_frame_len);
    let mut chunk = vec![0u8; 16 * 1024];
    'serve: loop {
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    shared.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                    if !route_frame(&shared, &mut writes, &tx, frame) {
                        break 'serve;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Same policy as the daemon: a malformed frame is a
                    // connection-level error; stop reading, let queued
                    // replies drain.
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .counters
                        .errors_synthesized
                        .fetch_add(1, Ordering::Relaxed);
                    let mut out = Vec::new();
                    encode_frame(
                        FrameKind::Error,
                        0,
                        format!("protocol error: {e}").as_bytes(),
                        &mut out,
                    );
                    let _ = tx.send(Pending::Local(out));
                    break 'serve;
                }
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        match client.read(&mut chunk) {
            Ok(0) => break,
            Ok(got) => dec.extend(&chunk[..got]),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        }
    }
    // Closing the queue is what lets the merger finish: it drains every
    // already-enqueued reply, then exits.
    drop(tx);
    let _ = merger.join();
}

/// Routes one client frame. Returns `false` when the connection should
/// stop reading (merger gone).
fn route_frame(
    shared: &Arc<RouterShared>,
    writes: &mut [Option<TcpStream>],
    tx: &mpsc::Sender<Pending>,
    frame: Frame,
) -> bool {
    let n = writes.len();
    match frame.kind {
        FrameKind::Submit | FrameKind::SubmitDurable | FrameKind::Query | FrameKind::Ack => {
            let shard = rendezvous_route(frame.req_id, n);
            forward_to(shared, writes, tx, shard, &frame)
        }
        FrameKind::Subscribe => {
            let interval = frame
                .body
                .get(..4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .unwrap_or(0);
            if interval == 0 {
                forward_to(shared, writes, tx, 0, &frame)
            } else {
                // Periodic ticks are out-of-band frames; merging N
                // backends' independent tick streams deterministically
                // is impossible, so the router refuses rather than
                // silently perturbing the reply stream.
                shared
                    .counters
                    .errors_synthesized
                    .fetch_add(1, Ordering::Relaxed);
                let mut out = Vec::new();
                encode_frame(
                    FrameKind::Error,
                    frame.req_id,
                    b"periodic telemetry subscriptions are not routable; \
                      subscribe to a backend directly",
                    &mut out,
                );
                tx.send(Pending::Local(out)).is_ok()
            }
        }
        other => {
            shared
                .counters
                .errors_synthesized
                .fetch_add(1, Ordering::Relaxed);
            let mut out = Vec::new();
            encode_frame(
                FrameKind::Error,
                frame.req_id,
                format!("unexpected {other:?} frame from a client").as_bytes(),
                &mut out,
            );
            tx.send(Pending::Local(out)).is_ok()
        }
    }
}

/// Writes `frame` to `shard` (reconnecting a dead shard first) and
/// enqueues the matching reply-slot entry. A shard that stays dead gets
/// a synthesized refusal enqueued instead — the connection never stalls
/// on one dead backend.
fn forward_to(
    shared: &Arc<RouterShared>,
    writes: &mut [Option<TcpStream>],
    tx: &mpsc::Sender<Pending>,
    shard: usize,
    frame: &Frame,
) -> bool {
    if writes[shard].is_none() {
        match connect_backend(&shared.cfg.backends[shard], shared.cfg.poll_interval) {
            Ok((w, r)) => {
                shared.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                writes[shard] = Some(w);
                // Enqueued before this frame's entry, so the merger
                // switches streams exactly at the reconnect boundary.
                if tx.send(Pending::NewStream { shard, stream: r }).is_err() {
                    return false;
                }
            }
            Err(_) => {
                shared
                    .counters
                    .shard_failures
                    .fetch_add(1, Ordering::Relaxed);
                if frame.kind == FrameKind::Ack {
                    // Fire-and-forget: nothing to synthesize. The client
                    // re-acks after its resubmit round-trips anyway.
                    return true;
                }
                let bytes = synth_reply(shared, shard, frame.req_id, frame.kind);
                return tx.send(Pending::Local(bytes)).is_ok();
            }
        }
    }
    let mut out = Vec::with_capacity(4 + super::FRAME_FIXED_LEN + frame.body.len());
    encode_frame(frame.kind, frame.req_id, &frame.body, &mut out);
    let write_ok = writes[shard]
        .as_mut()
        .map(|w| w.write_all(&out).is_ok())
        .unwrap_or(false);
    if !write_ok {
        writes[shard] = None;
        shared
            .counters
            .shard_failures
            .fetch_add(1, Ordering::Relaxed);
        if frame.kind == FrameKind::Ack {
            return true;
        }
        let bytes = synth_reply(shared, shard, frame.req_id, frame.kind);
        return tx.send(Pending::Local(bytes)).is_ok();
    }
    match frame.kind {
        FrameKind::Ack => tx
            .send(Pending::AckSent {
                shard,
                req_id: frame.req_id,
            })
            .is_ok(),
        kind => tx
            .send(Pending::Remote {
                shard,
                req_id: frame.req_id,
                kind,
            })
            .is_ok(),
    }
}

// ---------------------------------------------------------------------------
// The router.
// ---------------------------------------------------------------------------

/// A sharding TCP proxy for the ingress protocol (see module docs).
/// Bind with [`Router::bind`]; stop with [`Router::shutdown`] or by
/// dropping.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Router {
    /// Binds `addr` and starts routing to `cfg.backends`. Backends need
    /// not be up yet: a connection to a down shard is retried when a
    /// frame routes there. Pass port 0 to let the OS choose (see
    /// [`Router::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, cfg: RouterConfig) -> std::io::Result<Self> {
        if cfg.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(RouterShared {
            cfg,
            counters: RouterCounters::default(),
            shutdown: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("hqrouter-accept".to_string())
                .spawn(move || accept_loop(listener, shared, conns))
                .expect("failed to spawn acceptor thread")
        };
        Ok(Router {
            addr,
            shared,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RouterStats {
        self.shared.snapshot()
    }

    /// Graceful shutdown: stops accepting, lets every connection drain
    /// the replies already owed, and joins all threads.
    pub fn shutdown(mut self) -> RouterStats {
        self.stop_and_join();
        self.shared.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for c in self.conns.lock().drain(..) {
            let _ = c.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Joins the connection threads that have already finished, keeping the
/// live ones registered. A long-lived router churns through many
/// short-lived connections; without this the handle list (and each dead
/// thread's retained exit state) would grow without bound.
fn reap_finished(conns: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> = {
        let mut live = conns.lock();
        let mut done = Vec::new();
        let mut keep = Vec::with_capacity(live.len());
        for h in live.drain(..) {
            if h.is_finished() {
                done.push(h);
            } else {
                keep.push(h);
            }
        }
        *live = keep;
        done
    };
    for h in finished {
        let _ = h.join(); // immediate: the thread already exited
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<RouterShared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn = 0u64;
    let mut backoff = AcceptBackoff::new(shared.cfg.poll_interval);
    while !shared.shutdown.load(Ordering::Acquire) {
        reap_finished(&conns);
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.on_success();
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared2 = Arc::clone(&shared);
                let id = next_conn;
                next_conn += 1;
                let handle = std::thread::Builder::new()
                    .name(format!("hqrouter-conn-{id}"))
                    .spawn(move || route_connection(shared2, stream))
                    .expect("failed to spawn connection thread");
                conns.lock().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_refuses_zero_backends() {
        match Router::bind("127.0.0.1:0", RouterConfig::to(Vec::<String>::new())) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput),
            Ok(_) => panic!("no backends must be rejected"),
        }
    }

    #[test]
    fn dead_shard_synthesizes_retry_for_submits_and_error_for_queries() {
        // One backend address nobody listens on: every routed frame gets
        // a synthesized refusal, and the connection keeps working.
        let cfg = RouterConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(5),
        };
        let router = Router::bind("127.0.0.1:0", cfg).expect("bind");
        let mut client =
            super::super::IngressClient::connect(router.local_addr()).expect("connect");
        client.submit(7, b"payload").expect("send");
        let frame = client.recv().expect("reply");
        assert_eq!(frame.kind, FrameKind::Retry);
        assert_eq!(frame.req_id, 7);
        let err = client.query(9).expect_err("query on a dead shard errors");
        assert!(err.to_string().contains("unavailable"), "{err}");
        let stats = router.shutdown();
        assert_eq!(stats.retries_synthesized, 1);
        assert_eq!(stats.errors_synthesized, 1);
        assert_eq!(stats.frames_in, 2);
    }

    #[test]
    fn subscriptions_with_an_interval_are_refused() {
        let cfg = RouterConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(5),
        };
        let router = Router::bind("127.0.0.1:0", cfg).expect("bind");
        let mut client =
            super::super::IngressClient::connect(router.local_addr()).expect("connect");
        client.subscribe(3, 50).expect("send");
        let frame = client.recv().expect("reply");
        assert_eq!(frame.kind, FrameKind::Error);
        assert_eq!(frame.req_id, 3);
        drop(router);
    }
}
