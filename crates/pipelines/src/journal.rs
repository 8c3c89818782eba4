//! Write-ahead job journal: the durability layer under the `hqd` ingress.
//!
//! The ingress protocol ([`crate::ingress`]) answers jobs or — before this
//! module existed — silently forgot them when a daemon died. The journal
//! makes accepted durable jobs survive a crash: every state transition of
//! a durable job (submitted, completed, acknowledged, terminally failed)
//! is appended to an append-only segment file *before* the client can
//! observe it, so a restarted daemon can rebuild the job table and re-run
//! whatever was still in flight. Determinism turns that replay into an
//! exactly-testable operation: a re-run job produces **byte-identical**
//! results, so crash recovery is asserted with `assert_eq!`, not with
//! "close enough". See DESIGN.md §6.4 for the design discussion.
//!
//! # Record format
//!
//! Records reuse the ingress frame discipline (length-prefixed, fixed
//! header, bounded) and add a CRC so torn or bit-rotted tails are
//! detected on replay:
//!
//! ```text
//! offset  size     field
//! 0       4        len: u32 LE — byte length of everything after this field
//! 4       1        kind (see RecordKind)
//! 5       8        job_id: u64 LE — the client-assigned durable job id
//! 13      4        crc: u32 LE — CRC-32 (IEEE) over kind, job_id and body
//! 17      len - 13 body (kind-specific)
//! ```
//!
//! | kind | name    | body                                        |
//! |------|---------|---------------------------------------------|
//! | 1    | Submit  | job payload bytes (codec submit body)       |
//! | 2    | Result  | result bytes (codec result body)            |
//! | 3    | Ack     | empty — client confirmed receipt            |
//! | 4    | Failed  | u32 LE attempts · UTF-8 failure message     |
//!
//! # Group commit
//!
//! [`Journal::append`] only stages bytes under a mutex and wakes the
//! flusher thread; the `write` + `fsync` happen off the caller's path.
//! [`Journal::sync`] blocks until the fsync covering a record's sequence
//! number has completed; [`Journal::append_then`] instead leaves a
//! continuation for the flusher to run once that fsync is done, so no
//! thread waits on the disk at all. While one fsync is in flight, every append that
//! arrives behind it lands in the next batch, so N concurrent appenders
//! amortize to far fewer than N fsyncs (the `journal_load` bench asserts
//! < 1 fsync per job at depth ≥ 32). [`JournalConfig::fsync_batch`] caps
//! how many records one fsync may cover, bounding worst-case commit
//! latency under sustained load.
//!
//! # Segments, rotation, compaction
//!
//! The journal is a directory of `journal-NNNNNNNN.log` files. The
//! flusher seals the active segment once it exceeds
//! [`JournalConfig::rotate_bytes`] and opens the next. Acknowledged jobs
//! ([`Journal::note_acked`]) make sealed segments garbage:
//! [`Journal::compact`] deletes the longest *prefix* of sealed segments
//! in which every mentioned job id is acknowledged. Prefix-only deletion
//! keeps replay sound: a job's `Submit` record is always in an older (or
//! the same) segment than its `Ack`, so the `Submit` is deleted first and
//! an orphaned `Ack` merely references an unknown id, which replay
//! ignores — a deleted segment can never resurrect work.
//!
//! # Replay
//!
//! [`Journal::open`] scans every existing segment in order and folds the
//! records into a per-job [`JobReplayStatus`]. A record whose CRC or
//! framing does not check out ends the scan of *that segment* (the bytes
//! past a torn write are unparseable noise) and is counted in
//! [`Replay::corrupt_records`]; later segments still replay. Jobs left
//! [`JobReplayStatus::Pending`] are what the daemon must re-run.

use std::collections::{BTreeMap, HashSet};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Bytes of the fixed (kind + job_id + crc) part counted by `len`.
const RECORD_FIXED_LEN: usize = 13;

/// Upper bound on a single record's `len` field (64 MiB) — a corrupted
/// length field must not provoke a giant allocation on replay.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven, std-only.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC-32 (IEEE) state; feed slices with
/// [`update`](Crc32::update), read the checksum with
/// [`finish`](Crc32::finish).
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The finished checksum.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// Record type tag (byte 4 of the on-disk format; see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// A durable job was accepted; body is its submit payload.
    Submit = 1,
    /// The job completed; body is its encoded result bytes.
    Result = 2,
    /// The client acknowledged the result; the job is compactable.
    Ack = 3,
    /// The job failed terminally; body is `u32 attempts · message`.
    Failed = 4,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => RecordKind::Submit,
            2 => RecordKind::Result,
            3 => RecordKind::Ack,
            4 => RecordKind::Failed,
            _ => return None,
        })
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The record type.
    pub kind: RecordKind,
    /// The durable job id the record belongs to.
    pub job_id: u64,
    /// Kind-specific body bytes.
    pub body: Vec<u8>,
}

/// Appends one encoded record (header, CRC, body) to `out`.
pub fn encode_record(kind: RecordKind, job_id: u64, body: &[u8], out: &mut Vec<u8>) {
    let len = (RECORD_FIXED_LEN + body.len()) as u32;
    let mut crc = Crc32::new();
    crc.update(&[kind as u8]);
    crc.update(&job_id.to_le_bytes());
    crc.update(body);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&job_id.to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(body);
}

/// Decodes the record at `buf[pos..]`. `Ok(Some((record, next_pos)))` on
/// success, `Ok(None)` when the buffer ends cleanly at `pos`, `Err(())`
/// on a torn tail, bad CRC, unknown kind or unbelievable length — any of
/// which means the bytes from `pos` on cannot be trusted.
#[allow(clippy::result_unit_err)]
pub fn decode_record(buf: &[u8], pos: usize) -> Result<Option<(Record, usize)>, ()> {
    let avail = &buf[pos..];
    if avail.is_empty() {
        return Ok(None);
    }
    if avail.len() < 4 {
        return Err(()); // torn length prefix
    }
    let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN || (len as usize) < RECORD_FIXED_LEN {
        return Err(());
    }
    if avail.len() < 4 + len as usize {
        return Err(()); // torn record body
    }
    let kind = RecordKind::from_byte(avail[4]).ok_or(())?;
    let job_id = u64::from_le_bytes(avail[5..13].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(avail[13..17].try_into().expect("4 bytes"));
    let body = &avail[17..4 + len as usize];
    let mut crc = Crc32::new();
    crc.update(&avail[4..13]); // kind + job_id, exactly as written
    crc.update(body);
    if crc.finish() != stored_crc {
        return Err(());
    }
    Ok(Some((
        Record {
            kind,
            job_id,
            body: body.to_vec(),
        },
        pos + 4 + len as usize,
    )))
}

// ---------------------------------------------------------------------------
// Configuration, stats, replay state.
// ---------------------------------------------------------------------------

/// Knobs of a [`Journal`].
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Seal the active segment once it exceeds this many bytes and open
    /// the next (also the compaction trigger). Default 4 MiB.
    pub rotate_bytes: u64,
    /// Maximum records one fsync group may cover — the group-commit
    /// batching bound. Clamped to at least 1. Default 64.
    pub fsync_batch: usize,
}

impl JournalConfig {
    /// A config rooted at `dir` with default rotation and batching.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            rotate_bytes: 4 * 1024 * 1024,
            fsync_batch: 64,
        }
    }
}

/// Counter snapshot of a [`Journal`] (monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended.
    pub appends: u64,
    /// fsync calls issued by the flusher. Under concurrent appenders this
    /// grows much slower than `appends` — that ratio is the group-commit
    /// win.
    pub fsyncs: u64,
    /// Bytes written to segment files.
    pub bytes_written: u64,
    /// Segment files created (including the one `open` starts).
    pub segments_created: u64,
    /// Sealed segments deleted by compaction.
    pub segments_deleted: u64,
    /// fsyncs of the journal *directory* itself — one per segment
    /// create/delete. Without these a power cut can forget the directory
    /// entry of a fully-fsynced segment file (the classic WAL hole):
    /// `sync_data` on the file makes its *contents* durable, but the
    /// name→inode link lives in the directory, which is its own file.
    pub dir_syncs: u64,
}

/// What replay learned about one durable job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobReplayStatus {
    /// Submitted but never completed: the daemon must re-run it.
    Pending,
    /// Completed with these result bytes; the client has not acked.
    Done(Vec<u8>),
    /// Terminally failed after `attempts` attempts.
    Failed {
        /// Execution attempts consumed before giving up.
        attempts: u32,
        /// The failure message journaled with the terminal state.
        message: String,
    },
    /// Completed and acknowledged — nothing left to do.
    Acked,
}

/// One replayed durable job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayedJob {
    /// The journaled submit payload (empty if the `Submit` record was
    /// compacted away — only possible for acked jobs).
    pub payload: Vec<u8>,
    /// Where the job got to before the crash.
    pub status: JobReplayStatus,
}

/// The folded outcome of scanning every segment on [`Journal::open`].
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Per-job state, keyed by durable job id.
    pub jobs: BTreeMap<u64, ReplayedJob>,
    /// Records successfully decoded.
    pub records: u64,
    /// Segment scans cut short by a torn tail or CRC mismatch.
    pub corrupt_records: u64,
    /// Segment files scanned.
    pub segments: usize,
}

impl Replay {
    /// Ids of jobs that must be re-run (status [`JobReplayStatus::Pending`]).
    pub fn pending_ids(&self) -> Vec<u64> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.status == JobReplayStatus::Pending)
            .map(|(id, _)| *id)
            .collect()
    }
}

fn fold_record(replay: &mut Replay, rec: Record) {
    replay.records += 1;
    match rec.kind {
        RecordKind::Submit => {
            // First write wins: a duplicate Submit (crash between append
            // and reply, client resubmitted) must not regress the status.
            replay.jobs.entry(rec.job_id).or_insert(ReplayedJob {
                payload: rec.body,
                status: JobReplayStatus::Pending,
            });
        }
        RecordKind::Result => {
            let entry = replay.jobs.entry(rec.job_id).or_insert(ReplayedJob {
                payload: Vec::new(),
                status: JobReplayStatus::Pending,
            });
            if !matches!(entry.status, JobReplayStatus::Acked) {
                entry.status = JobReplayStatus::Done(rec.body);
            }
        }
        RecordKind::Ack => {
            let entry = replay.jobs.entry(rec.job_id).or_insert(ReplayedJob {
                payload: Vec::new(),
                status: JobReplayStatus::Acked,
            });
            entry.status = JobReplayStatus::Acked;
        }
        RecordKind::Failed => {
            let (attempts, message) = if rec.body.len() >= 4 {
                (
                    u32::from_le_bytes(rec.body[..4].try_into().expect("4 bytes")),
                    String::from_utf8_lossy(&rec.body[4..]).into_owned(),
                )
            } else {
                (0, String::new())
            };
            let entry = replay.jobs.entry(rec.job_id).or_insert(ReplayedJob {
                payload: Vec::new(),
                status: JobReplayStatus::Pending,
            });
            if !matches!(entry.status, JobReplayStatus::Acked) {
                entry.status = JobReplayStatus::Failed { attempts, message };
            }
        }
    }
}

/// Encodes a [`RecordKind::Failed`] body (`u32 attempts · message`).
pub fn encode_failed_body(attempts: u32, message: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(4 + message.len());
    body.extend_from_slice(&attempts.to_le_bytes());
    body.extend_from_slice(message.as_bytes());
    body
}

// ---------------------------------------------------------------------------
// Segment file naming.
// ---------------------------------------------------------------------------

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:08}.log"))
}

/// Fsyncs the journal directory itself, making segment creations and
/// deletions durable. `sync_data` on a segment file covers its
/// *contents*; the name→inode link is an entry in the directory file,
/// and only an fsync of the directory makes that durable. Skipping it is
/// the classic WAL hole: after a power cut, a fully-synced segment
/// simply isn't there (and a compacted one is back).
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("journal-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(idx) = segment_index(&path) {
            segs.push((idx, path));
        }
    }
    segs.sort_by_key(|(idx, _)| *idx);
    Ok(segs)
}

/// Scans the records of one segment file, folding them into `replay`.
/// Stops at the first undecodable record (torn tail / corruption).
fn scan_segment(path: &Path, replay: &mut Replay) -> std::io::Result<()> {
    let bytes = std::fs::read(path)?;
    let mut pos = 0;
    loop {
        match decode_record(&bytes, pos) {
            Ok(Some((rec, next))) => {
                fold_record(replay, rec);
                pos = next;
            }
            Ok(None) => return Ok(()),
            Err(()) => {
                replay.corrupt_records += 1;
                return Ok(());
            }
        }
    }
}

/// Replays every segment under `dir` without opening a journal — the
/// read-only half of [`Journal::open`], usable for inspection and tests.
pub fn replay_dir(dir: &Path) -> std::io::Result<Replay> {
    let mut replay = Replay::default();
    if !dir.exists() {
        return Ok(replay);
    }
    for (_, path) in list_segments(dir)? {
        replay.segments += 1;
        scan_segment(&path, &mut replay)?;
    }
    Ok(replay)
}

// ---------------------------------------------------------------------------
// The journal.
// ---------------------------------------------------------------------------

/// Runs on the flusher thread once its record is durable (see
/// [`Journal::append_then`]).
pub type Continuation = Box<dyn FnOnce() + Send>;

/// Bytes staged by appenders, drained by the flusher. `entries` records
/// each staged record's end offset in `buf` plus its sequence number, so
/// the flusher can cut a batch at a record boundary; `then` holds the
/// continuations of [`Journal::append_then`] records, in sequence order.
#[derive(Default)]
struct Staged {
    buf: Vec<u8>,
    entries: Vec<(u64, usize)>,
    then: Vec<(u64, Continuation)>,
}

struct Counters {
    appends: AtomicU64,
    fsyncs: AtomicU64,
    bytes_written: AtomicU64,
    segments_created: AtomicU64,
    segments_deleted: AtomicU64,
    dir_syncs: AtomicU64,
}

/// The write-ahead job journal (see module docs). Open with
/// [`Journal::open`]; append with [`Journal::append`] /
/// [`Journal::append_sync`]; dropping flushes and joins the flusher.
pub struct Journal {
    shared: Arc<Shared>,
    flusher: Option<JoinHandle<()>>,
}

/// What the flusher thread shares with the [`Journal`] handle. The
/// flusher holds this, never the handle: the handle's `Drop` is what
/// stops it.
struct Shared {
    cfg: JournalConfig,
    staged: Mutex<Staged>,
    staged_cv: Condvar,
    next_seq: AtomicU64,
    durable: Mutex<u64>,
    durable_cv: Condvar,
    acked: Mutex<HashSet<u64>>,
    /// Index of the segment the flusher is currently writing; everything
    /// below is sealed and eligible for compaction.
    active_index: AtomicU64,
    stop: AtomicBool,
    compact_lock: Mutex<()>,
    counters: Counters,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.shared.cfg.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Journal {
    /// Opens (or creates) the journal at `cfg.dir`: replays every
    /// existing segment, seeds the acked set from the replay, starts a
    /// fresh active segment (never appending after a possibly-torn tail)
    /// and spawns the flusher. Returns the journal and what it replayed.
    pub fn open(cfg: JournalConfig) -> std::io::Result<(Arc<Journal>, Replay)> {
        std::fs::create_dir_all(&cfg.dir)?;
        let replay = replay_dir(&cfg.dir)?;
        let next_index = list_segments(&cfg.dir)?
            .last()
            .map_or(0, |(idx, _)| idx + 1);
        let file = File::create(segment_path(&cfg.dir, next_index))?;
        sync_dir(&cfg.dir)?;
        let acked: HashSet<u64> = replay
            .jobs
            .iter()
            .filter(|(_, j)| j.status == JobReplayStatus::Acked)
            .map(|(id, _)| *id)
            .collect();
        let shared = Arc::new(Shared {
            cfg,
            staged: Mutex::new(Staged::default()),
            staged_cv: Condvar::new(),
            next_seq: AtomicU64::new(1),
            durable: Mutex::new(0),
            durable_cv: Condvar::new(),
            acked: Mutex::new(acked),
            active_index: AtomicU64::new(next_index),
            stop: AtomicBool::new(false),
            compact_lock: Mutex::new(()),
            counters: Counters {
                appends: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                segments_created: AtomicU64::new(1),
                segments_deleted: AtomicU64::new(0),
                dir_syncs: AtomicU64::new(1),
            },
        });
        let for_flusher = Arc::clone(&shared);
        let flusher = std::thread::Builder::new()
            .name("hq-journal".to_string())
            .spawn(move || flusher_loop(for_flusher, file, next_index))
            .expect("failed to spawn journal flusher thread");
        let journal = Arc::new(Journal {
            shared,
            flusher: Some(flusher),
        });
        Ok((journal, replay))
    }

    /// Stages one record for the flusher and returns its sequence number
    /// (pass to [`Journal::sync`] to wait for durability). Cheap: one
    /// mutexed buffer append, no I/O.
    pub fn append(&self, kind: RecordKind, job_id: u64, body: &[u8]) -> u64 {
        self.stage(kind, job_id, body, None)
    }

    /// [`append`](Journal::append) plus a continuation: `then` runs on
    /// the flusher thread once the fsync covering the record has
    /// completed — the non-blocking counterpart of
    /// [`append_sync`](Journal::append_sync), for callers that must not
    /// wait (a runtime worker finishing a job). Continuations run in
    /// record order, outside every journal lock, and before the sync
    /// watermark moves past their record — so once
    /// [`flush`](Journal::flush) returns, every earlier continuation has
    /// run and been dropped. They hold up the group commit behind them:
    /// keep them short, and never block on the journal from one.
    pub fn append_then(
        &self,
        kind: RecordKind,
        job_id: u64,
        body: &[u8],
        then: Continuation,
    ) -> u64 {
        self.stage(kind, job_id, body, Some(then))
    }

    fn stage(&self, kind: RecordKind, job_id: u64, body: &[u8], then: Option<Continuation>) -> u64 {
        let mut staged = self.shared.staged.lock();
        // Seq assignment happens under the staged lock so staging order
        // equals seq order: take_batch publishes the *last* staged
        // entry's seq as the durable watermark, which only covers every
        // flushed record if the entries are seq-sorted. Assigning seq
        // before taking the lock would let a concurrent appender stage a
        // higher seq first, and a sync() on it could then wait past the
        // fsync that actually made it durable.
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        encode_record(kind, job_id, body, &mut staged.buf);
        let end = staged.buf.len();
        staged.entries.push((seq, end));
        staged.then.extend(then.map(|f| (seq, f)));
        drop(staged);
        self.shared.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.shared.staged_cv.notify_one();
        seq
    }

    /// Blocks until the fsync covering sequence number `seq` completed.
    pub fn sync(&self, seq: u64) {
        let mut durable = self.shared.durable.lock();
        while *durable < seq && !self.shared.stop.load(Ordering::Acquire) {
            self.shared.durable_cv.wait(&mut durable);
        }
    }

    /// [`append`](Journal::append) + [`sync`](Journal::sync): returns
    /// once the record is on stable storage.
    pub fn append_sync(&self, kind: RecordKind, job_id: u64, body: &[u8]) {
        let seq = self.append(kind, job_id, body);
        self.sync(seq);
    }

    /// Marks `job_id` acknowledged for compaction purposes (callers also
    /// append the [`RecordKind::Ack`] record so replay agrees).
    pub fn note_acked(&self, job_id: u64) {
        self.shared.acked.lock().insert(job_id);
    }

    /// Deletes the longest prefix of *sealed* segments in which every
    /// mentioned job id is acknowledged (see module docs for why only a
    /// prefix is sound). Returns how many segments were deleted. The
    /// flusher does this after each rotation; tests and operators may
    /// call it directly.
    pub fn compact(&self) -> std::io::Result<usize> {
        self.shared.compact()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JournalStats {
        use crate::telemetry::read_counter;
        JournalStats {
            appends: read_counter(&self.shared.counters.appends),
            fsyncs: read_counter(&self.shared.counters.fsyncs),
            bytes_written: read_counter(&self.shared.counters.bytes_written),
            segments_created: read_counter(&self.shared.counters.segments_created),
            segments_deleted: read_counter(&self.shared.counters.segments_deleted),
            dir_syncs: read_counter(&self.shared.counters.dir_syncs),
        }
    }

    /// Records staged but not yet fsync-durable — the write-ahead lag a
    /// crash right now would lose (and replay would re-run). 0 whenever
    /// the flusher has caught up. Approximate under concurrency: the two
    /// watermarks are read without a common lock.
    pub fn lag(&self) -> u64 {
        let durable = *self.shared.durable.lock();
        self.last_staged().saturating_sub(durable)
    }

    /// Sequence number of the newest staged record (0 before the first).
    fn last_staged(&self) -> u64 {
        let next = self.shared.next_seq.load(Ordering::Relaxed);
        next.saturating_sub(1)
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.shared.cfg.dir
    }

    /// Blocks until everything staged so far is durable.
    pub fn flush(&self) {
        self.sync(self.last_staged());
    }
}

impl Shared {
    fn compact(&self) -> std::io::Result<usize> {
        let _guard = self.compact_lock.lock();
        let active = self.active_index.load(Ordering::Acquire);
        let mut deleted = 0;
        for (idx, path) in list_segments(&self.cfg.dir)? {
            if idx >= active {
                break;
            }
            let mut replay = Replay::default();
            scan_segment(&path, &mut replay)?;
            let all_acked = {
                let acked = self.acked.lock();
                replay.jobs.keys().all(|id| acked.contains(id))
            };
            // A corrupt sealed segment is kept: its unreadable suffix
            // could mention jobs we know nothing about.
            if replay.corrupt_records > 0 || !all_acked {
                break;
            }
            std::fs::remove_file(&path)?;
            self.counters
                .segments_deleted
                .fetch_add(1, Ordering::Relaxed);
            deleted += 1;
        }
        if deleted > 0 {
            // Make the unlinks durable, or a power cut resurrects the
            // compacted segments and replay re-reads retired jobs.
            sync_dir(&self.cfg.dir)?;
            self.counters.dir_syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(deleted)
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.staged_cv.notify_all();
        if let Some(h) = self.flusher.take() {
            // The last handle can die inside a continuation, i.e. on the
            // flusher itself: it then drains what is staged and exits on
            // its own, and joining it here would never return.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        // Unblock any sync() stragglers (stop flag makes them return).
        self.shared.durable_cv.notify_all();
    }
}

/// Takes up to `fsync_batch` staged records (cut at a record boundary).
/// Returns the batch bytes, the last covered sequence number and the
/// continuations of the covered records.
fn take_batch(
    staged: &mut Staged,
    fsync_batch: usize,
) -> Option<(Vec<u8>, u64, Vec<(u64, Continuation)>)> {
    if staged.entries.is_empty() {
        return None;
    }
    let take = staged.entries.len().min(fsync_batch.max(1));
    let (last_seq, cut) = staged.entries[take - 1];
    let batch: Vec<u8> = staged.buf.drain(..cut).collect();
    staged.entries.drain(..take);
    // Offsets in the remaining entries shift down by the drained prefix.
    for (_, end) in staged.entries.iter_mut() {
        *end -= cut;
    }
    let covered = staged.then.partition_point(|(seq, _)| *seq <= last_seq);
    let then = staged.then.drain(..covered).collect();
    Some((batch, last_seq, then))
}

fn flusher_loop(journal: Arc<Shared>, mut file: File, mut index: u64) {
    let mut active_len = 0u64;
    loop {
        let batch = {
            let mut staged = journal.staged.lock();
            loop {
                if let Some(batch) = take_batch(&mut staged, journal.cfg.fsync_batch) {
                    break Some(batch);
                }
                if journal.stop.load(Ordering::Acquire) {
                    break None;
                }
                journal
                    .staged_cv
                    .wait_for(&mut staged, Duration::from_millis(50));
            }
        };
        let Some((bytes, last_seq, then)) = batch else {
            let _ = file.sync_data();
            return;
        };
        // Rotate before writing so a record never spans segments.
        if active_len > journal.cfg.rotate_bytes {
            let _ = file.sync_data();
            index += 1;
            match File::create(segment_path(&journal.cfg.dir, index)) {
                Ok(next) => {
                    file = next;
                    active_len = 0;
                    // The new segment's directory entry must be durable
                    // before records land in it: replay trusts the
                    // directory listing to find every segment.
                    if sync_dir(&journal.cfg.dir).is_ok() {
                        journal.counters.dir_syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    journal.active_index.store(index, Ordering::Release);
                    journal
                        .counters
                        .segments_created
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = journal.compact();
                }
                Err(_) => index -= 1, // keep writing the old segment
            }
        }
        // Write + fsync outside every lock: this is the group-commit
        // window in which the next batch accumulates.
        let write_ok = file.write_all(&bytes).and_then(|()| file.sync_data());
        journal.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        if write_ok.is_ok() {
            active_len += bytes.len() as u64;
            journal
                .counters
                .bytes_written
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        // Publish durability even on a write error: callers blocked in
        // sync() must not hang because the disk died. (A production
        // system would surface the error; here the stats make it
        // visible: bytes_written stops advancing.) Continuations first,
        // so a sync() or flush() past them means they are finished.
        for (_, f) in then {
            f();
        }
        let mut durable = journal.durable.lock();
        *durable = last_seq;
        drop(durable);
        journal.durable_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hq-journal-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_roundtrip_and_crc_rejects_flips() {
        let mut wire = Vec::new();
        encode_record(RecordKind::Submit, 7, b"payload", &mut wire);
        encode_record(RecordKind::Result, 7, b"result", &mut wire);
        let (r0, next) = decode_record(&wire, 0).unwrap().unwrap();
        assert_eq!(
            (r0.kind, r0.job_id, r0.body.as_slice()),
            (RecordKind::Submit, 7, b"payload".as_slice())
        );
        let (r1, end) = decode_record(&wire, next).unwrap().unwrap();
        assert_eq!(r1.kind, RecordKind::Result);
        assert_eq!(decode_record(&wire, end).unwrap(), None);
        // Any single-byte flip in the first record must be rejected.
        for off in 0..next {
            let mut bad = wire.clone();
            bad[off] ^= 0x5A;
            assert!(
                decode_record(&bad, 0).is_err(),
                "flip at {off} went undetected"
            );
        }
    }

    #[test]
    fn append_sync_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let (journal, replay) = Journal::open(JournalConfig::at(&dir)).unwrap();
            assert_eq!(replay.jobs.len(), 0);
            journal.append_sync(RecordKind::Submit, 1, b"alpha");
            journal.append_sync(RecordKind::Submit, 2, b"bravo");
            journal.append_sync(RecordKind::Result, 1, b"ALPHA");
        }
        let (journal, replay) = Journal::open(JournalConfig::at(&dir)).unwrap();
        assert_eq!(replay.records, 3);
        assert_eq!(
            replay.jobs[&1].status,
            JobReplayStatus::Done(b"ALPHA".to_vec())
        );
        assert_eq!(replay.jobs[&1].payload, b"alpha");
        assert_eq!(replay.jobs[&2].status, JobReplayStatus::Pending);
        assert_eq!(replay.pending_ids(), vec![2]);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let dir = temp_dir("group");
        let (journal, _) = Journal::open(JournalConfig::at(&dir)).unwrap();
        let threads = 8;
        let per_thread = 40;
        std::thread::scope(|s| {
            for t in 0..threads {
                let journal = &journal;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = (t * per_thread + i) as u64;
                        journal.append_sync(RecordKind::Submit, id, b"xxxxxxxxxxxxxxxx");
                    }
                });
            }
        });
        let stats = journal.stats();
        assert_eq!(stats.appends, (threads * per_thread) as u64);
        assert!(
            stats.fsyncs < stats.appends,
            "no group commit happened: {stats:?}"
        );
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: seq numbers must be assigned under the staged lock.
    /// When they were assigned before it, concurrent appenders could
    /// stage out of seq order, the flusher's watermark (the *last*
    /// staged entry's seq) could land below an already-flushed record,
    /// and that record's sync() waiter hung forever once traffic
    /// stopped. Tiny batches maximize watermark publishes to make any
    /// such gap fatal here rather than latent.
    #[test]
    fn concurrent_append_sync_never_strands_a_waiter() {
        let dir = temp_dir("order");
        let mut cfg = JournalConfig::at(&dir);
        cfg.fsync_batch = 2;
        let (journal, _) = Journal::open(cfg).unwrap();
        let threads = 16;
        let per_thread = 50;
        std::thread::scope(|s| {
            for t in 0..threads {
                let journal = &journal;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = (t * per_thread + i) as u64;
                        journal.append_sync(RecordKind::Submit, id, b"ordered");
                    }
                });
            }
        });
        let total = (threads * per_thread) as u64;
        assert_eq!(journal.stats().appends, total);
        // Every waiter returned, and the published watermark covers the
        // highest assigned seq — no stranded durability.
        assert_eq!(*journal.shared.durable.lock(), total);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_then_continues_in_record_order_once_durable() {
        let dir = temp_dir("then");
        let mut cfg = JournalConfig::at(&dir);
        cfg.fsync_batch = 2; // several groups, continuations split across them
        let (journal, _) = Journal::open(cfg).unwrap();
        let ran = Arc::new(Mutex::new(Vec::new()));
        for id in 0..9u64 {
            let (ran, dir) = (Arc::clone(&ran), dir.clone());
            journal.append_then(
                RecordKind::Submit,
                id,
                b"then",
                Box::new(move || {
                    // Durable means a fresh scan of the files sees it.
                    let on_disk = replay_dir(&dir).unwrap().jobs.contains_key(&id);
                    ran.lock().push((id, on_disk));
                }),
            );
        }
        // flush() past a record implies its continuation has finished.
        journal.flush();
        let expect: Vec<(u64, bool)> = (0..9).map(|id| (id, true)).collect();
        assert_eq!(*ran.lock(), expect);
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_rejected_but_prefix_replays() {
        let dir = temp_dir("torn");
        {
            let (journal, _) = Journal::open(JournalConfig::at(&dir)).unwrap();
            journal.append_sync(RecordKind::Submit, 1, b"first");
            journal.append_sync(RecordKind::Submit, 2, b"second");
        }
        // Tear the tail: chop the last 3 bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.records, 1, "only the intact prefix replays");
        assert_eq!(replay.corrupt_records, 1);
        assert!(replay.jobs.contains_key(&1));
        assert!(!replay.jobs.contains_key(&2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_prefix_compaction_drop_acked_segments() {
        let dir = temp_dir("compact");
        let mut cfg = JournalConfig::at(&dir);
        cfg.rotate_bytes = 256; // tiny segments
        let (journal, _) = Journal::open(cfg).unwrap();
        for id in 0..20u64 {
            journal.append_sync(RecordKind::Submit, id, &[0x41; 64]);
            journal.append_sync(RecordKind::Result, id, &[0x42; 16]);
        }
        assert!(
            journal.stats().segments_created > 1,
            "rotation never happened"
        );
        // Nothing acked: compaction must delete nothing.
        assert_eq!(journal.compact().unwrap(), 0);
        // Ack everything; now every sealed segment is garbage.
        for id in 0..20u64 {
            journal.append_sync(RecordKind::Ack, id, &[]);
            journal.note_acked(id);
        }
        let deleted = journal.compact().unwrap();
        assert!(deleted > 0, "fully-acked sealed segments must be deleted");
        // Replay of what's left must show every job acked, none pending.
        drop(journal);
        let replay = replay_dir(&dir).unwrap();
        assert!(replay.pending_ids().is_empty());
        assert!(replay
            .jobs
            .values()
            .all(|j| j.status == JobReplayStatus::Acked));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_syncs_cover_create_rotate_and_compact() {
        let dir = temp_dir("dirsync");
        let mut cfg = JournalConfig::at(&dir);
        cfg.rotate_bytes = 256; // tiny segments
        let (journal, _) = Journal::open(cfg).unwrap();
        // Opening created the first segment: its directory entry must
        // already be durable before any record lands in it.
        assert_eq!(journal.stats().dir_syncs, 1);
        for id in 0..20u64 {
            journal.append_sync(RecordKind::Submit, id, &[0x41; 64]);
            journal.append_sync(RecordKind::Result, id, &[0x42; 16]);
        }
        let after_rotate = journal.stats();
        assert!(after_rotate.segments_created > 1, "rotation never happened");
        // Every rotation-created segment got its own directory sync.
        assert!(
            after_rotate.dir_syncs >= after_rotate.segments_created,
            "rotation created segments without syncing the directory \
             (created {}, dir_syncs {})",
            after_rotate.segments_created,
            after_rotate.dir_syncs,
        );
        for id in 0..20u64 {
            journal.append_sync(RecordKind::Ack, id, &[]);
            journal.note_acked(id);
        }
        let before = journal.stats().dir_syncs;
        assert!(journal.compact().unwrap() > 0);
        assert!(
            journal.stats().dir_syncs > before,
            "compaction unlinked segments without syncing the directory"
        );
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_records_carry_attempts_and_message() {
        let dir = temp_dir("failed");
        {
            let (journal, _) = Journal::open(JournalConfig::at(&dir)).unwrap();
            journal.append_sync(RecordKind::Submit, 9, b"doomed");
            journal.append_sync(
                RecordKind::Failed,
                9,
                &encode_failed_body(3, "stage panicked"),
            );
        }
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(
            replay.jobs[&9].status,
            JobReplayStatus::Failed {
                attempts: 3,
                message: "stage panicked".to_string()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_batch_caps_one_groups_size() {
        let dir = temp_dir("batch");
        let mut cfg = JournalConfig::at(&dir);
        cfg.fsync_batch = 4;
        let (journal, _) = Journal::open(cfg).unwrap();
        // Stage 10 records while the flusher is (likely) busy; whatever
        // the interleaving, durability must eventually cover all of them
        // and the batching cap must not lose or reorder records.
        let mut last = 0;
        for id in 0..10u64 {
            last = journal.append(RecordKind::Submit, id, b"capped");
        }
        journal.sync(last);
        drop(journal);
        let replay = replay_dir(&dir).unwrap();
        assert_eq!(replay.records, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The flusher used to hold an `Arc<Journal>`, so no journal was ever
    /// dropped and every `open` leaked its thread and segment file. Here
    /// the last handle dies inside a continuation — on the flusher
    /// itself, as a durable job's reply continuation can make happen.
    #[test]
    #[cfg(target_os = "linux")]
    fn flusher_exits_when_a_continuation_drops_the_last_handle() {
        use std::sync::mpsc;
        let dir = temp_dir("lastdrop");
        let (journal, _) = Journal::open(JournalConfig::at(&dir)).unwrap();
        let last = Arc::clone(&journal);
        let (task_tx, task_rx) = mpsc::channel();
        let (dropped_tx, dropped_rx) = mpsc::channel::<()>();
        journal.append_then(
            RecordKind::Submit,
            1,
            b"alpha",
            Box::new(move || {
                // "<pid>/task/<tid>" of the thread running this.
                let task = std::fs::read_link("/proc/thread-self").unwrap();
                task_tx.send(task).unwrap();
                dropped_rx.recv().unwrap();
                drop(last); // Journal::drop runs here
            }),
        );
        let flusher_task = Path::new("/proc").join(task_rx.recv().unwrap());
        assert!(flusher_task.exists());
        drop(journal);
        dropped_tx.send(()).unwrap();
        let t0 = std::time::Instant::now();
        while flusher_task.exists() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "the flusher outlived its journal"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let (_journal, replay) = Journal::open(JournalConfig::at(&dir)).unwrap();
        assert_eq!(replay.jobs[&1].payload, b"alpha");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
