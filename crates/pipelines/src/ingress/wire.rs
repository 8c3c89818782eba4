//! Wire layer of the ingress protocol: frame types, the incremental
//! [`FrameDecoder`], the [`JobCodec`] trait, and the client's
//! deterministic retry-jitter schedule. Everything here is pure
//! byte-shuffling — no sockets, no threads — which is what lets the
//! event-loop server, the router and the blocking client share it
//! unchanged.

use std::time::Duration;

/// Default cap on a single frame's `len` field (8 MiB).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Bytes of the fixed (kind + req_id) part counted by `len`.
pub(crate) const FRAME_FIXED_LEN: usize = 9;

/// Frame type tag (byte 4 of the wire format; see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: run one job; body is the codec's job payload.
    Submit = 1,
    /// Server → client: a job's output, in submission order.
    Result = 2,
    /// Server → client: admission queue full — resubmit later.
    Retry = 3,
    /// Server → client: job or protocol failure (UTF-8 message body).
    Error = 4,
    // 5 and 6 are reserved: old clients may still send them, so they
    // must keep decoding as unknown kinds rather than be reassigned.
    /// Client → server: run one *durable* job; `req_id` is the
    /// client-assigned durable job id (non-zero). Requires a server bound
    /// with [`super::IngressServer::bind_durable`].
    SubmitDurable = 7,
    /// Client → server: acknowledge receipt of `req_id`'s result, making
    /// its journal records compactable. Fire-and-forget (no reply).
    Ack = 8,
    /// Client → server: ask the durable status of `req_id` (empty body).
    Query = 9,
    /// Server → client: reply to Query — one [`QueryStatus`] byte, then
    /// the result bytes (Done) or failure message (Failed).
    QueryOk = 10,
    /// Client → server: body is exactly 4 bytes, u32 LE `interval_ms`.
    /// Non-zero: push a [`FrameKind::StatsEvent`] every `interval_ms` on
    /// this connection (replacing any previous subscription). Zero:
    /// cancel the subscription and send one StatsEvent through the
    /// ordered reply path.
    Subscribe = 11,
    /// Server → client: a telemetry snapshot in the
    /// [`crate::telemetry::TelemetrySnapshot`] text encoding; `req_id`
    /// echoes the Subscribe frame's. Periodic ticks are out of band
    /// (they skip the reply FIFO and are dropped, not queued, when the
    /// connection's write buffer is full).
    StatsEvent = 12,
}

impl FrameKind {
    pub(crate) fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameKind::Submit,
            2 => FrameKind::Result,
            3 => FrameKind::Retry,
            4 => FrameKind::Error,
            7 => FrameKind::SubmitDurable,
            8 => FrameKind::Ack,
            9 => FrameKind::Query,
            10 => FrameKind::QueryOk,
            11 => FrameKind::Subscribe,
            12 => FrameKind::StatsEvent,
            _ => return None,
        })
    }
}

/// Status byte of a [`FrameKind::QueryOk`] body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum QueryStatus {
    /// The id has never been submitted (or was compacted after ack on a
    /// previous journal generation).
    Unknown = 0,
    /// Submitted and still executing.
    InFlight = 1,
    /// Completed; the rest of the QueryOk body is the result bytes.
    Done = 2,
    /// Failed terminally; the rest of the body is the failure message.
    Failed = 3,
    /// Completed and acknowledged (result bytes no longer retained).
    Acked = 4,
}

impl QueryStatus {
    /// Parses a QueryOk status byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => QueryStatus::Unknown,
            1 => QueryStatus::InFlight,
            2 => QueryStatus::Done,
            3 => QueryStatus::Failed,
            4 => QueryStatus::Acked,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// Client-chosen correlation id (0 = connection-level).
    pub req_id: u64,
    /// Kind-specific body bytes.
    pub body: Vec<u8>,
}

/// Why a byte stream failed to parse as a frame. Any of these is fatal
/// for the connection (the stream offset can no longer be trusted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The `len` field exceeds the configured maximum.
    Oversized {
        /// The offending frame's declared length.
        len: u32,
        /// The configured cap it exceeded.
        max: u32,
    },
    /// The `len` field is smaller than the fixed kind + req_id part.
    Truncated {
        /// The offending frame's declared length.
        len: u32,
    },
    /// Unassigned frame-kind byte.
    UnknownKind(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            FrameError::Truncated { len } => {
                write!(
                    f,
                    "frame length {len} is shorter than the 9-byte fixed part"
                )
            }
            FrameError::UnknownKind(b) => write!(f, "unknown frame kind {b:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one encoded frame to `out`.
pub fn encode_frame(kind: FrameKind, req_id: u64, body: &[u8], out: &mut Vec<u8>) {
    let len = (FRAME_FIXED_LEN + body.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(body);
}

/// Incremental frame parser over an arbitrarily-chunked byte stream.
///
/// ```
/// use pipelines::ingress::{encode_frame, FrameDecoder, FrameKind};
///
/// let mut wire = Vec::new();
/// encode_frame(FrameKind::Submit, 7, b"alpha bravo", &mut wire);
/// let mut dec = FrameDecoder::new(1024);
/// dec.extend(&wire[..5]); // partial delivery
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.extend(&wire[5..]);
/// let frame = dec.next_frame().unwrap().unwrap();
/// assert_eq!((frame.kind, frame.req_id), (FrameKind::Submit, 7));
/// assert_eq!(frame.body, b"alpha bravo");
/// ```
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_frame_len: u32,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame_len` on the `len` field.
    pub fn new(max_frame_len: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_frame_len,
        }
    }

    /// Appends raw received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: the parsed prefix is dead weight.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed as frames. A
    /// well-behaved decoder holds O(one frame): slowloris peers trickling
    /// a frame byte-by-byte cannot make this exceed the frame's own size.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Parses the next complete frame, `Ok(None)` if more bytes are
    /// needed. Errors are fatal: the decoder's offset is no longer
    /// meaningful and the connection should close.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > self.max_frame_len {
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame_len,
            });
        }
        if (len as usize) < FRAME_FIXED_LEN {
            return Err(FrameError::Truncated { len });
        }
        if avail.len() < 4 + len as usize {
            return Ok(None);
        }
        let kind = FrameKind::from_byte(avail[4]).ok_or(FrameError::UnknownKind(avail[4]))?;
        let req_id = u64::from_le_bytes(avail[5..13].try_into().expect("8 bytes"));
        let body = avail[13..4 + len as usize].to_vec();
        self.pos += 4 + len as usize;
        Ok(Some(Frame { kind, req_id, body }))
    }
}

/// Translates between wire payloads and a
/// [`crate::service::CompiledGraph`]'s typed job inputs/outputs.
/// Implementations must be deterministic: equal outputs must encode to
/// equal bytes, or the protocol's byte-identical response guarantee
/// breaks at the edge.
pub trait JobCodec: Send + Sync + 'static {
    /// The graph's input value type. `Clone` is what lets the service
    /// retry a failed job and the durable path re-run a journaled one.
    type In: Clone + Send + 'static;
    /// The graph's output value type.
    type Out: Send + 'static;

    /// Decodes a submit body into one job's input stream. `Err` becomes
    /// an [`FrameKind::Error`] frame for that req_id (connection stays
    /// open).
    fn decode_job(&self, payload: &[u8]) -> Result<Vec<Self::In>, String>;

    /// Appends the encoding of a completed job's output to `buf`.
    fn encode_result(&self, out: &[Self::Out], buf: &mut Vec<u8>);
}

// ---------------------------------------------------------------------------
// Retry jitter.
// ---------------------------------------------------------------------------

/// splitmix64 — a tiny, well-distributed 64-bit mixer. Deterministic by
/// construction: the retry schedule must not depend on a random source
/// (there is no `rand` dependency, and reproducible schedules make the
/// decorrelation property testable).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The delay before retry number `attempt` (0-based) of request `seed`:
/// capped exponential backoff with deterministic per-request jitter.
///
/// The nominal delay doubles each attempt from `base` up to `64 × base`,
/// then a jitter factor in `[0.5, 1.5)` — derived by hashing
/// `(seed, attempt)`, no global randomness — spreads concurrent clients
/// apart. A herd of clients refused together would otherwise resubmit in
/// lockstep forever, re-colliding on the same admission queue at every
/// interval; distinct seeds (req_ids) decorrelate their schedules while
/// keeping every schedule individually reproducible.
pub fn retry_delay(base: Duration, seed: u64, attempt: u32) -> Duration {
    let base = base.max(Duration::from_micros(1));
    let nominal = base.saturating_mul(1u32 << attempt.min(6));
    let h = splitmix64(seed ^ ((attempt as u64) << 48 | 0x5EED));
    // 53 high bits → an exact f64 fraction in [0, 1).
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    nominal.mul_f64(0.5 + frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_chunked_delivery() {
        let mut wire = Vec::new();
        encode_frame(FrameKind::Submit, 1, b"one", &mut wire);
        encode_frame(FrameKind::Result, 2, b"", &mut wire);
        encode_frame(FrameKind::Error, u64::MAX, "boom".as_bytes(), &mut wire);
        // Deliver in 1-byte chunks: the decoder must reassemble exactly.
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut frames = Vec::new();
        for b in &wire {
            dec.extend(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(
            (frames[0].kind, frames[0].req_id, frames[0].body.as_slice()),
            (FrameKind::Submit, 1, b"one".as_slice())
        );
        assert_eq!(
            (frames[1].kind, frames[1].body.len()),
            (FrameKind::Result, 0)
        );
        assert_eq!(
            (frames[2].kind, frames[2].req_id),
            (FrameKind::Error, u64::MAX)
        );
    }

    #[test]
    fn decoder_rejects_oversized_truncated_and_unknown() {
        let mut dec = FrameDecoder::new(64);
        dec.extend(&1000u32.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized { len: 1000, max: 64 })
        );

        let mut dec = FrameDecoder::new(64);
        dec.extend(&3u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::Truncated { len: 3 }));

        for kind in [5u8, 6, 0xEE] {
            let mut dec = FrameDecoder::new(64);
            let mut wire = Vec::new();
            encode_frame(FrameKind::Submit, 9, b"x", &mut wire);
            wire[4] = kind; // stomp the kind byte
            dec.extend(&wire);
            assert_eq!(dec.next_frame(), Err(FrameError::UnknownKind(kind)));
        }
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut wire = Vec::new();
        encode_frame(FrameKind::Query, 5, &[], &mut wire);
        for round in 0..10_000u64 {
            dec.extend(&wire);
            let f = dec.next_frame().unwrap().unwrap();
            assert_eq!((f.kind, f.req_id), (FrameKind::Query, 5), "round {round}");
        }
        // The whole point of compaction: memory stays bounded.
        assert!(dec.buf.capacity() < 1024 * 1024);
    }

    #[test]
    fn slowloris_trickle_holds_only_one_frame_of_memory() {
        // A peer drips a 64 KiB frame one byte at a time. The decoder may
        // buffer the incomplete frame — it has to — but never more than
        // the frame itself (plus its 4-byte length prefix): a slowloris
        // client costs O(frame), not O(time connected).
        let mut wire = Vec::new();
        let body = vec![0xAB; 64 * 1024];
        encode_frame(FrameKind::Submit, 42, &body, &mut wire);
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
        let mut got = None;
        for b in &wire {
            dec.extend(std::slice::from_ref(b));
            assert!(dec.buffered() <= wire.len());
            if let Some(f) = dec.next_frame().unwrap() {
                got = Some(f);
            }
        }
        let f = got.expect("frame completes on the final byte");
        assert_eq!(
            (f.kind, f.req_id, f.body.len()),
            (FrameKind::Submit, 42, body.len())
        );
        assert_eq!(dec.buffered(), 0);
        // And across many trickled frames the capacity stays bounded
        // (compaction) — no per-connection growth over time.
        assert!(dec.buf.capacity() < 2 * wire.len() + 4096);
    }

    #[test]
    fn retry_schedules_decorrelate_and_stay_deterministic() {
        let base = Duration::from_micros(200);
        // Deterministic: the same (seed, attempt) always maps to the same
        // delay — a client's schedule is reproducible.
        for a in 0..10 {
            assert_eq!(retry_delay(base, 7, a), retry_delay(base, 7, a));
        }
        // Decorrelated: two clients with different req_ids must not share
        // a schedule (the herd bug was every refused client sleeping the
        // identical fixed backoff and re-colliding forever).
        let differs = (0..10)
            .filter(|&a| retry_delay(base, 7, a) != retry_delay(base, 8, a))
            .count();
        assert!(differs >= 8, "only {differs}/10 attempts decorrelated");
        // Exponential and capped: monotone nominal growth up to 64×base,
        // jitter bounded by [0.5, 1.5).
        for a in 0..32 {
            let d = retry_delay(base, 99, a);
            let nominal = base * (1 << a.min(6));
            assert!(d >= nominal / 2, "attempt {a}: {d:?} < half nominal");
            assert!(
                d < nominal * 3 / 2 + Duration::from_nanos(1),
                "attempt {a}: {d:?} over cap"
            );
        }
        assert!(retry_delay(base, 1, 60) <= base * 96, "cap breached");
    }
}
