//! `hqrouter`'s engine: one ingress endpoint sharded over N `hqd` backends.
//!
//! A [`Router`] listens like an [`super::IngressServer`] and speaks the
//! exact same framed protocol, but owns no graph: every request frame is
//! forwarded **verbatim** to one of N backend daemons chosen by
//! rendezvous hashing over the frame's `req_id`
//! ([`crate::partition::rendezvous_route`]), and the replies go back to
//! the client **in request order**. It runs on the daemon's event-loop
//! parts — [`super::default_event_loops`] loops and one acceptor, however
//! many clients connect — and each loop keeps one upstream connection per
//! backend for all its clients. A parsed request reserves the next slot
//! of its client's reply FIFO and joins its shard's upstream with that
//! slot's address; a backend answers a connection in request order, so
//! its replies fill the upstream's owed slots front to back, and the
//! client's stream is byte-identical to the one a single daemon would
//! have produced (DESIGN.md §7.2).
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
//! A dead backend fails *its shard's* requests, nobody else's. A broken
//! upstream (connect refused, write or read failure, EOF) answers every
//! slot it owed at once with a synthesized [`FrameKind::Retry`]
//! (submits) or [`FrameKind::Error`] (queries/stats). The next request
//! routed to the shard re-dials it with a nonblocking connect, but no
//! sooner than a backoff that starts at [`RouterConfig::poll_interval`],
//! doubles with every failure up to 1 s and resets on a successful
//! connect; requests routed there meanwhile are refused on the spot. A
//! backend restarted on its journal serves durable ids byte-identically
//! from replay.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll::interest::{READ, WRITE};

use super::conn::{Completion, Conn, LoopCore, Slab};
use super::evloop::{Engine, Front, WAKE_TOKEN};
use super::{default_event_loops, encode_frame, Frame, FrameKind, DEFAULT_MAX_FRAME_LEN};
use crate::partition::rendezvous_route;
use crate::telemetry::read_counter;

/// How many forwarded Ack ids an upstream remembers. A backend answers an
/// Ack only on error, so the list is bounded by eviction, not replies.
const MAX_TRACKED_ACKS: usize = 1024;

/// Longest wait between re-dials of a dead shard.
const MAX_REDIAL_BACKOFF: Duration = Duration::from_secs(1);

/// Per-client cap on buffered reply bytes (the daemon's default).
const WRITE_BUF_LIMIT: usize = 256 * 1024;

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
    /// First delay of a dead shard's re-dial backoff (doubling up to 1 s)
    /// and of the acceptor's accept-error backoff. Default 25 ms.
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

impl Front for RouterShared {
    fn accept_state(&self) -> (&AtomicBool, &AtomicU64, &AtomicU64) {
        let c = &self.counters;
        (&self.shutdown, &c.connections, &c.accept_errors)
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Replies.
// ---------------------------------------------------------------------------

/// An Error frame the router answers with itself.
fn local_error(shared: &RouterShared, req_id: u64, msg: &str) -> Vec<u8> {
    bump(&shared.counters.errors_synthesized);
    let mut out = Vec::new();
    encode_frame(FrameKind::Error, req_id, msg.as_bytes(), &mut out);
    out
}

/// Synthesized refusal for a request whose shard is unreachable: Retry
/// for submits (the client's closed loop resubmits with backoff), Error
/// for request kinds whose clients don't retry.
fn refusal(shared: &RouterShared, shard: usize, req_id: u64, kind: FrameKind) -> Vec<u8> {
    if !matches!(kind, FrameKind::Submit | FrameKind::SubmitDurable) {
        let backend = &shared.cfg.backends[shard];
        let msg = format!("shard {shard} ({backend}) unavailable; retry later");
        return local_error(shared, req_id, &msg);
    }
    bump(&shared.counters.retries_synthesized);
    let mut out = Vec::new();
    encode_frame(FrameKind::Retry, req_id, &0u32.to_le_bytes(), &mut out);
    out
}

/// Queues a reply the router has in hand in the client's next slot.
fn reply_now(shared: &RouterShared, conn: &mut Conn, frame: Vec<u8>) {
    bump(&shared.counters.replies_out);
    conn.push_ready(frame, false);
}

/// A loop's clients, plus the ones this pass touched.
#[derive(Default)]
struct Clients {
    slab: Slab,
    touched: Vec<usize>,
}

impl Clients {
    /// Fills a reserved slot, if its client is still connected.
    fn fill(&mut self, shared: &RouterShared, o: &Owed, frame: Vec<u8>) {
        if let Some(conn) = self.slab.live(o.conn, o.gen) {
            bump(&shared.counters.replies_out);
            conn.apply_completion(Completion {
                conn: o.conn,
                gen: o.gen,
                slot: o.slot,
                frame,
                is_job_result: false,
            });
            self.touched.push(o.conn as usize);
        }
    }
}

// ---------------------------------------------------------------------------
// Upstreams: one loop's connection to one backend.
// ---------------------------------------------------------------------------

/// A forwarded request's claim on its backend's reply stream.
struct Owed {
    conn: u32,
    gen: u32,
    slot: u64,
    req_id: u64,
    kind: FrameKind,
}

/// One loop's connection to one backend, shared by the loop's clients.
/// The backend answers it in request order, so `owed` (oldest first)
/// says which client slot each reply fills.
#[derive(Default)]
struct Upstream {
    /// The connection, a [`Conn`] for its decoder and write buffer, or
    /// `None` while the shard is down.
    link: Option<Conn>,
    /// False until the nonblocking connect completes.
    connected: bool,
    owed: VecDeque<Owed>,
    /// Forwarded Acks as `(req_id, conn, gen)`: the error a bad Ack draws
    /// goes to its client out of band, not into a later request's slot.
    acked: VecDeque<(u64, u32, u32)>,
    /// No re-dial before `retry_at`. `backoff` doubles with each failure
    /// from [`RouterConfig::poll_interval`] and is zero after a connect.
    retry_at: Option<Instant>,
    backoff: Duration,
    /// Failed since its last connect: the next connect is a reconnect.
    failed: bool,
}

/// Shard `k`'s upstream token: counted down from just below
/// [`WAKE_TOKEN`], where client slab indices never reach.
fn upstream_token(shard: usize) -> u64 {
    WAKE_TOKEN - 1 - shard as u64
}

impl Upstream {
    /// The link, after starting a nonblocking connect if the shard is
    /// down and not backing off. `None` means the shard is down.
    fn link(&mut self, shared: &RouterShared, core: &LoopCore, shard: usize) -> Option<&mut Conn> {
        if self.link.is_none() && self.retry_at.is_none_or(|t| Instant::now() >= t) {
            // A host name resolves here, blocking this loop for the lookup.
            let dialed = shared.cfg.backends[shard]
                .to_socket_addrs()
                .and_then(|mut addrs| addrs.next().ok_or(std::io::ErrorKind::NotFound.into()))
                .and_then(|addr| epoll::connect(&addr))
                .and_then(|stream| {
                    let fd = epoll::raw_fd(&stream);
                    core.epoll.add(fd, upstream_token(shard), READ | WRITE)?;
                    Ok(stream)
                });
            match dialed {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let mut link = Conn::new(stream, 0, shared.cfg.max_frame_len);
                    link.interest = READ | WRITE;
                    (self.link, self.connected) = (Some(link), false);
                }
                Err(_) => self.back_off(shared),
            }
        }
        self.link.as_mut()
    }

    /// Counts a failure and schedules the next re-dial.
    fn back_off(&mut self, shared: &RouterShared) {
        bump(&shared.counters.shard_failures);
        self.failed = true;
        let wait = self.backoff.max(shared.cfg.poll_interval);
        self.retry_at = Some(Instant::now() + wait);
        self.backoff = (wait * 2).min(MAX_REDIAL_BACKOFF);
    }

    /// The link broke: closes it, backs off, and answers every slot it
    /// owed with a refusal.
    fn fail(
        &mut self,
        shared: &RouterShared,
        core: &LoopCore,
        shard: usize,
        clients: &mut Clients,
    ) {
        if let Some(link) = self.link.take() {
            let _ = core.epoll.delete(epoll::raw_fd(&link.stream));
        }
        self.back_off(shared);
        self.acked.clear();
        for o in std::mem::take(&mut self.owed) {
            clients.fill(shared, &o, refusal(shared, shard, o.req_id, o.kind));
        }
    }

    /// Completes a pending connect, then reads every reply that arrived.
    /// False means the link broke.
    fn on_ready(
        &mut self,
        shared: &RouterShared,
        ev: epoll::Event,
        clients: &mut Clients,
        chunk: &mut [u8],
    ) -> bool {
        let Some(link) = self.link.as_mut() else {
            return true; // failed earlier in this pass
        };
        if !self.connected && ev.writable() {
            if !matches!(link.stream.take_error(), Ok(None)) || link.stream.peer_addr().is_err() {
                return false;
            }
            self.connected = true;
            self.backoff = Duration::ZERO;
            if std::mem::take(&mut self.failed) {
                bump(&shared.counters.reconnects);
            }
        }
        if !self.connected || !ev.readable() {
            return true;
        }
        let (owed, acked) = (&mut self.owed, &mut self.acked);
        let (_, malformed) = link.read_frames(chunk, usize::MAX, |_, frame| {
            deliver(shared, owed, acked, clients, frame)
        });
        malformed.is_none() && !link.dead
    }

    /// Writes what the socket takes and updates the readiness interest.
    /// False means the link broke.
    fn flush(&mut self, core: &LoopCore, shard: usize) -> bool {
        let Some(link) = self.link.as_mut() else {
            return true;
        };
        let want = if self.connected {
            link.pump_out(usize::MAX);
            link.desired_interest(usize::MAX)
        } else {
            READ | WRITE
        };
        if !link.dead && want != link.interest {
            let fd = epoll::raw_fd(&link.stream);
            if core.epoll.modify(fd, upstream_token(shard), want).is_ok() {
                link.interest = want;
            }
        }
        !link.dead
    }
}

/// Puts one reply where it belongs — the heart of the byte-identity
/// claim: the backend's bytes pass through unmodified (the encoding is
/// canonical) into the slot of the request they answer, or, for an Ack's
/// error, to the acking client out of band, appended whole between its
/// replies.
fn deliver(
    shared: &RouterShared,
    owed: &mut VecDeque<Owed>,
    acked: &mut VecDeque<(u64, u32, u32)>,
    clients: &mut Clients,
    frame: Frame,
) {
    let mut bytes = Vec::with_capacity(4 + super::FRAME_FIXED_LEN + frame.body.len());
    encode_frame(frame.kind, frame.req_id, &frame.body, &mut bytes);
    if owed.front().map(|o| o.req_id) != Some(frame.req_id) {
        if let Some(at) = acked.iter().position(|a| a.0 == frame.req_id) {
            let (_, conn, gen) = acked.remove(at).expect("position is in range");
            if let Some(client) = clients.slab.live(conn, gen) {
                bump(&shared.counters.replies_out);
                client.wbuf.extend_from_slice(&bytes);
                clients.touched.push(conn as usize);
            }
            return;
        }
    }
    if let Some(o) = owed.pop_front() {
        clients.fill(shared, &o, bytes);
    }
}

// ---------------------------------------------------------------------------
// The event loop and the router.
// ---------------------------------------------------------------------------

/// Routes one client request: appends it to its shard's upstream with
/// the client's next slot reserved for the reply, or answers it on the
/// spot (refused subscriptions, unexpected kinds, a down shard).
fn route(
    shared: &RouterShared,
    core: &LoopCore,
    ups: &mut [Upstream],
    conn: &mut Conn,
    idx: usize,
    frame: Frame,
) {
    bump(&shared.counters.frames_in);
    let shard = match frame.kind {
        FrameKind::Submit | FrameKind::SubmitDurable | FrameKind::Query | FrameKind::Ack => {
            rendezvous_route(frame.req_id, ups.len())
        }
        FrameKind::Subscribe if frame.body.get(..4).is_none_or(|b| b == [0; 4]) => 0,
        FrameKind::Subscribe => {
            // Merging N backends' independent tick streams
            // deterministically is impossible; refuse rather than perturb
            // the reply stream.
            let msg = "periodic telemetry subscriptions are not routable; \
                       subscribe to a backend directly";
            return reply_now(shared, conn, local_error(shared, frame.req_id, msg));
        }
        other => {
            let msg = format!("unexpected {other:?} frame from a client");
            return reply_now(shared, conn, local_error(shared, frame.req_id, &msg));
        }
    };
    let up = &mut ups[shard];
    let Some(link) = up.link(shared, core, shard) else {
        // An Ack is fire-and-forget: nothing to refuse. The client
        // re-acks after its resubmit round-trips anyway.
        if frame.kind != FrameKind::Ack {
            let refused = refusal(shared, shard, frame.req_id, frame.kind);
            reply_now(shared, conn, refused);
        }
        return;
    };
    encode_frame(frame.kind, frame.req_id, &frame.body, &mut link.wbuf);
    if frame.kind == FrameKind::Ack {
        up.acked.push_back((frame.req_id, idx as u32, conn.gen));
        if up.acked.len() > MAX_TRACKED_ACKS {
            up.acked.pop_front();
        }
    } else {
        up.owed.push_back(Owed {
            conn: idx as u32,
            gen: conn.gen,
            slot: conn.alloc_waiting_slot(),
            req_id: frame.req_id,
            kind: frame.kind,
        });
    }
}

/// One router loop: a readiness wait over its clients, its upstreams and
/// its wakeup handle. On shutdown it stops reading clients and returns
/// once every reply they are owed has been written.
fn event_loop(shared: Arc<RouterShared>, core: Arc<LoopCore>) {
    let mut clients = Clients::default();
    let mut ups = Vec::new();
    ups.resize_with(shared.cfg.backends.len(), Upstream::default);
    let mut events: Vec<epoll::Event> = Vec::with_capacity(256);
    let mut chunk = vec![0u8; 16 * 1024];
    let mut draining = false;
    while !(draining && clients.slab.is_empty()) {
        events.clear();
        if core.epoll.wait(&mut events, -1).is_err() {
            return; // unrecoverable (the readiness set itself is broken)
        }
        clients.touched.clear();
        for ev in events.iter().copied() {
            let idx = ev.token as usize;
            if ev.token == WAKE_TOKEN {
                // Drain the wakeup *before* taking the inbox: a post that
                // races in after the take re-rings and is seen next wait.
                core.wake.drain();
                for stream in core.take_inbox().conns.into_iter().filter(|_| !draining) {
                    let idx = clients.slab.insert(stream, shared.cfg.max_frame_len);
                    clients.touched.extend(idx);
                }
            } else if let Some(k) = (0..ups.len()).find(|&k| upstream_token(k) == ev.token) {
                if !ups[k].on_ready(&shared, ev, &mut clients, &mut chunk) {
                    ups[k].fail(&shared, &core, k, &mut clients);
                }
            } else if let Some(conn) = clients.slab.get_mut(idx) {
                let (_, malformed) =
                    conn.read_frames(&mut chunk, WRITE_BUF_LIMIT, |conn, frame| {
                        route(&shared, &core, &mut ups, conn, idx, frame)
                    });
                if let Some(e) = malformed {
                    bump(&shared.counters.protocol_errors);
                    let msg = format!("protocol error: {e}");
                    reply_now(&shared, conn, local_error(&shared, 0, &msg));
                }
                clients.touched.push(idx);
            }
        }
        if !draining && shared.shutdown.load(Ordering::Acquire) {
            draining = true;
            for (idx, conn) in clients.slab.iter_mut() {
                conn.closing = true;
                clients.touched.push(idx);
            }
        }
        for (k, up) in ups.iter_mut().enumerate() {
            if !up.flush(&core, k) {
                up.fail(&shared, &core, k, &mut clients);
            }
        }
        clients.touched.sort_unstable();
        clients.touched.dedup();
        for &idx in &clients.touched {
            clients.slab.settle(&core, idx, WRITE_BUF_LIMIT);
        }
    }
}

/// A sharding TCP proxy for the ingress protocol (see module docs).
/// Bind with [`Router::bind`]; stop with [`Router::shutdown`] or by
/// dropping.
pub struct Router {
    addr: SocketAddr,
    shared: Arc<RouterShared>,
    engine: Engine,
}

impl Router {
    /// Binds `addr` and starts routing to `cfg.backends`. Backends need
    /// not be up yet: a down shard is dialed when a frame routes there.
    /// Pass port 0 to let the OS choose (see [`Router::local_addr`]).
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
        let (loops, backoff_base) = (default_event_loops(), shared.cfg.poll_interval);
        let engine = Engine::spawn(
            "hqrouter",
            listener,
            loops,
            backoff_base,
            &shared,
            event_loop,
        )?;
        Ok(Router {
            addr,
            shared,
            engine,
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
        self.engine.stop_and_join();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_and_join();
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
