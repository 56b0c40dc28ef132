//! The durable write-ahead log: one checksummed record stream per shard.
//!
//! Runs are fully determined by their event sequences (Section 2), so the
//! streams of a [`ShardPlane`](crate::shard::ShardPlane) *are* its durable
//! state: recovery rebuilds the run by replaying them, re-validating every
//! transition via [`Run::push`](crate::run::Run::push), which makes stored
//! streams tamper-evident (cf. the provenance view of traces as the
//! durable artifact). A shards=1 plane, the single-node deployment, writes
//! exactly one stream. Periodic plane **snapshots** let recovery replay
//! only the tail.
//!
//! Format (v2, line-oriented): a header line, then one record per line,
//! each with a dense sequence number and a CRC32:
//!
//! ```text
//! # cwf wal v2
//! e 1 543b2cf2 t1.1.0 draft f:0
//! e 2 613c7097 t3.1.0 draft f:1
//! s 3 33ca046d g2 t3.1.0 w2 3 2 f:0 s:"draft" f:1 s:"draft" 0 0
//! ```
//!
//! Record kinds: `e` (a key-local event), `s` (a plane snapshot), `p`/`c`/`a`
//! (cross-shard prepare, commit, abort) and `m`/`f`/`x` (resharding plan,
//! fenced cutover, migration abort, on the router stream). Every record,
//! snapshots included, takes the next sequence number. This module owns the
//! framing: [`Wal::create`] writes the header, `Wal::append_raw` appends a
//! record, `Wal::scan_stream` finds the longest valid prefix and
//! `Wal::resume` reopens it for appends. The plane owns the payloads and
//! resolves the streams into one run
//! ([`ShardPlane::recover`](crate::shard::ShardPlane::recover),
//! [`ShardPlane::replay_wals`](crate::shard::ShardPlane::replay_wals)).
//!
//! The CRC is computed over `"<kind> <seq> <payload>"`. Recovery scans the
//! longest valid prefix: a torn or corrupted record (incomplete line, bad
//! UTF-8, unparsable fields, CRC mismatch) ends the scan and the suffix is
//! truncated — the crash-recovery contract. A record that *passes* its CRC
//! but is semantically invalid (non-dense seq, undecodable payload, replay
//! failure) is [`WalError::Tampered`]: checksums only guard against
//! accidental corruption, so recovery refuses such streams outright.

use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use cwf_model::{Instance, Schema, Tuple};

use crate::codec::{decode_value, encode_value, tokenize};
use crate::error::WalError;
use crate::fault::FaultPlan;

/// The v2 header line (without trailing newline).
pub const WAL_HEADER: &str = "# cwf wal v2";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven; no external dependency.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// The CRC32 checksum used by WAL records.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Storage backends
// ---------------------------------------------------------------------------

/// Append-only storage under the WAL. Implementations must persist appended
/// bytes on [`WalBackend::sync`]; bytes appended since the last sync may be
/// lost (or partially written) on a crash.
pub trait WalBackend {
    /// Appends bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Makes all appended bytes durable.
    fn sync(&mut self) -> Result<(), WalError>;
    /// Reads the entire log.
    fn read_all(&mut self) -> Result<Vec<u8>, WalError>;
    /// Truncates the log to `len` bytes (drops a torn tail).
    fn truncate(&mut self, len: u64) -> Result<(), WalError>;
    /// Current length in bytes.
    fn len(&mut self) -> Result<u64, WalError>;
    /// Is the log empty?
    fn is_empty(&mut self) -> Result<bool, WalError> {
        Ok(self.len()? == 0)
    }
}

#[derive(Default)]
struct MemState {
    data: Vec<u8>,
    synced: usize,
    /// Crash on the n-th `append` from now (1 = the next one).
    crash_after_appends: Option<u64>,
    /// How many bytes of the crashing append survive (the torn prefix).
    torn_keep: usize,
    crashed: bool,
}

/// An in-memory backend with deterministic crash injection: a scheduled
/// crash makes an `append` write only a prefix of its record ("torn write")
/// and fail; every later operation fails too, as in a dead process. The
/// shared handle ([`Clone`]) lets a test read the surviving bytes afterward
/// and recover from them.
#[derive(Clone, Default)]
pub struct MemBackend {
    state: Arc<Mutex<MemState>>,
}

impl MemBackend {
    /// A fresh, empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log pre-filled with `bytes` (all considered synced).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let synced = bytes.len();
        MemBackend {
            state: Arc::new(Mutex::new(MemState {
                data: bytes,
                synced,
                ..MemState::default()
            })),
        }
    }

    /// Schedules a crash on the `after`-th append from now (1 = next),
    /// keeping only the first `torn_keep` bytes of that record.
    pub fn schedule_crash(&self, after: u64, torn_keep: usize) {
        let mut s = self.state.lock().unwrap();
        s.crash_after_appends = Some(after);
        s.torn_keep = torn_keep;
    }

    /// Has the scheduled crash fired?
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Bytes currently in the buffer (including any unsynced suffix).
    pub fn bytes(&self) -> Vec<u8> {
        self.state.lock().unwrap().data.clone()
    }

    /// Length of the synced (guaranteed-durable) prefix.
    pub fn synced_len(&self) -> usize {
        self.state.lock().unwrap().synced
    }

    /// What a restarted process would find on disk: the synced prefix plus
    /// at most `keep_unsynced` of the unsynced bytes (the OS may or may not
    /// have flushed them). Returns a fresh, healthy backend.
    pub fn survivor(&self, keep_unsynced: usize) -> MemBackend {
        let s = self.state.lock().unwrap();
        let keep = (s.synced + keep_unsynced).min(s.data.len());
        MemBackend::from_bytes(s.data[..keep].to_vec())
    }

    /// Flips the byte at `offset` with `xor` (fault injection: on-disk
    /// corruption). No-op past the end.
    pub(crate) fn corrupt_byte(&self, offset: usize, xor: u8) {
        let mut s = self.state.lock().unwrap();
        if let Some(b) = s.data.get_mut(offset) {
            *b ^= xor.max(1); // always actually change the byte
        }
    }
}

impl WalBackend for MemBackend {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return Err(WalError::Backend("simulated crash (dead process)".into()));
        }
        if let Some(n) = s.crash_after_appends.as_mut() {
            *n -= 1;
            if *n == 0 {
                let keep = s.torn_keep.min(bytes.len());
                let torn = bytes[..keep].to_vec();
                s.data.extend_from_slice(&torn);
                s.crashed = true;
                return Err(WalError::Backend("simulated crash mid-append".into()));
            }
        }
        s.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return Err(WalError::Backend("simulated crash (dead process)".into()));
        }
        s.synced = s.data.len();
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        if self.crashed() {
            return Err(WalError::Backend("simulated crash (dead process)".into()));
        }
        Ok(self.bytes())
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return Err(WalError::Backend("simulated crash (dead process)".into()));
        }
        s.data.truncate(len as usize);
        s.synced = s.synced.min(len as usize);
        Ok(())
    }

    fn len(&mut self) -> Result<u64, WalError> {
        let s = self.state.lock().unwrap();
        if s.crashed {
            return Err(WalError::Backend("simulated crash (dead process)".into()));
        }
        Ok(s.data.len() as u64)
    }
}

/// A file-backed WAL backend (`std::fs`).
pub struct FileBackend {
    path: PathBuf,
    file: std::fs::File,
}

impl FileBackend {
    /// Opens (or creates) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, WalError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| WalError::Backend(format!("open {}: {e}", path.display())))?;
        Ok(FileBackend { path, file })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn io<T>(&self, r: std::io::Result<T>) -> Result<T, WalError> {
        r.map_err(|e| WalError::Backend(format!("{}: {e}", self.path.display())))
    }
}

impl WalBackend for FileBackend {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let r = self
            .file
            .seek(SeekFrom::End(0))
            .and_then(|_| self.file.write_all(bytes));
        self.io(r)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let r = self.file.sync_all();
        self.io(r)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        let mut buf = Vec::new();
        let r = self
            .file
            .seek(SeekFrom::Start(0))
            .and_then(|_| self.file.read_to_end(&mut buf));
        self.io(r)?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        let r = self.file.set_len(len);
        self.io(r)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        let r = self.file.metadata().map(|m| m.len());
        self.io(r)
    }
}

/// Counters of storage faults an [`IoFaultBackend`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaults {
    /// Appends that landed only a torn prefix.
    pub short_writes: u64,
    /// Syncs that failed after the bytes were appended.
    pub fsync_failures: u64,
    /// Appends that failed transiently with nothing written.
    pub transients: u64,
    /// Appends rejected (fully or partially) by the capacity limit.
    pub full_rejections: u64,
}

struct IoState {
    plan: FaultPlan,
    faults: IoFaults,
}

/// A fault-injecting decorator over any [`WalBackend`], driven by the
/// storage knobs of a [`FaultPlan`]: short writes (a torn prefix lands and
/// the append fails), fsync failures, transient EINTR-style append errors
/// (nothing written, retry may succeed), and a byte-capacity limit
/// ([`WalError::StorageFull`], with the fitting prefix landing — a torn
/// record at the end of a full device). Cloning shares the plan and the
/// injected-fault counters, so a test can hand the backend to a
/// [`Wal`](crate::Wal) and still [`heal`](IoFaultBackend::heal) it or read
/// [`faults`](IoFaultBackend::faults) afterward.
#[derive(Clone)]
pub struct IoFaultBackend {
    inner: Arc<Mutex<Box<dyn WalBackend + Send>>>,
    state: Arc<Mutex<IoState>>,
}

impl IoFaultBackend {
    /// Wraps `inner`, injecting faults per `plan`'s storage knobs.
    pub fn new(inner: Box<dyn WalBackend + Send>, plan: FaultPlan) -> Self {
        IoFaultBackend {
            inner: Arc::new(Mutex::new(inner)),
            state: Arc::new(Mutex::new(IoState {
                plan,
                faults: IoFaults::default(),
            })),
        }
    }

    /// Stops all probabilistic storage faults (the device stabilizes). A
    /// capacity limit stays in force; clear it with
    /// [`configure`](IoFaultBackend::configure).
    pub fn heal(&self) {
        self.state.lock().unwrap().plan.heal();
    }

    /// Adjusts the fault plan in place (e.g. raise `disk_capacity`, or turn
    /// fault rates on only after [`Wal::create`] has written its header).
    pub fn configure(&self, f: impl FnOnce(&mut FaultPlan)) {
        f(&mut self.state.lock().unwrap().plan);
    }

    /// The faults injected so far.
    pub fn faults(&self) -> IoFaults {
        self.state.lock().unwrap().faults
    }
}

impl WalBackend for IoFaultBackend {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut inner = self.inner.lock().unwrap();
        let mut st = self.state.lock().unwrap();
        if st.plan.decide_transient() {
            st.faults.transients += 1;
            return Err(WalError::Transient("simulated interrupted append".into()));
        }
        if let Some(cap) = st.plan.disk_capacity {
            let used = inner.len()?;
            if used.saturating_add(bytes.len() as u64) > cap {
                st.faults.full_rejections += 1;
                let fit = cap.saturating_sub(used) as usize;
                if fit > 0 {
                    inner.append(&bytes[..fit])?;
                }
                return Err(WalError::StorageFull);
            }
        }
        if st.plan.decide_short_write() && !bytes.is_empty() {
            st.faults.short_writes += 1;
            let keep = st.plan.pick_storage(bytes.len());
            if keep > 0 {
                inner.append(&bytes[..keep])?;
            }
            return Err(WalError::Backend("simulated short write".into()));
        }
        inner.append(bytes)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        if st.plan.decide_fsync_fail() {
            st.faults.fsync_failures += 1;
            return Err(WalError::Backend("simulated fsync failure".into()));
        }
        drop(st);
        self.inner.lock().unwrap().sync()
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        self.inner.lock().unwrap().read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.inner.lock().unwrap().truncate(len)
    }

    fn len(&mut self) -> Result<u64, WalError> {
        self.inner.lock().unwrap().len()
    }
}

// ---------------------------------------------------------------------------
// Sync policy and options
// ---------------------------------------------------------------------------

/// When the WAL calls [`WalBackend::sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// After every record: nothing acknowledged is ever lost.
    Always,
    /// After every `n` records: bounded data loss, amortized sync cost.
    EveryN(u32),
    /// Never (rely on the OS): fastest, weakest.
    Never,
}

/// WAL configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Sync policy.
    pub sync: SyncPolicy,
    /// Write an instance snapshot every this many events (`None`: never).
    /// Recovery then replays only the tail after the last snapshot.
    pub snapshot_every: Option<u64>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::Always,
            snapshot_every: Some(256),
        }
    }
}

// ---------------------------------------------------------------------------
// Instance snapshots
// ---------------------------------------------------------------------------

/// Encodes a snapshot payload: the fresh-value watermark (`w<counter>`)
/// followed by the instance. The watermark must travel with the snapshot —
/// values drawn and later deleted are absent from the instance, so a
/// recovery seeded from the active domain alone would re-mint them and
/// violate global freshness.
pub(crate) fn encode_snapshot(schema: &Schema, inst: &Instance, watermark: u64) -> String {
    format!("w{watermark} {}", encode_instance(schema, inst))
}

/// Decodes a snapshot payload; tolerates the pre-watermark format (plain
/// instance, watermark 0) for logs written before watermarks existed.
pub(crate) fn decode_snapshot(schema: &Schema, payload: &str) -> Result<(Instance, u64), String> {
    match payload.strip_prefix('w') {
        Some(rest) => {
            let (counter, inst) = rest
                .split_once(' ')
                .ok_or_else(|| "truncated snapshot watermark".to_string())?;
            let watermark: u64 = counter
                .parse()
                .map_err(|_| "bad snapshot watermark".to_string())?;
            Ok((decode_instance(schema, inst)?, watermark))
        }
        None => Ok((decode_instance(schema, payload)?, 0)),
    }
}

/// Encodes an instance as one token stream: `<nrels> (<ntuples> <values…>)*`
/// in `RelId` order, with the codec's value encoding.
fn encode_instance(schema: &Schema, inst: &Instance) -> String {
    let mut out = schema.len().to_string();
    for r in schema.rel_ids() {
        out.push(' ');
        out.push_str(&inst.rel(r).len().to_string());
        for t in inst.rel(r).iter() {
            for v in t.values() {
                out.push(' ');
                encode_value(v, &mut out);
            }
        }
    }
    out
}

fn decode_instance(schema: &Schema, payload: &str) -> Result<Instance, String> {
    let tokens = tokenize(payload);
    let mut pos = 0usize;
    let mut next = |what: &str| -> Result<&str, String> {
        let t = tokens.get(pos).ok_or_else(|| format!("missing {what}"))?;
        pos += 1;
        Ok(t)
    };
    let nrels: usize = next("relation count")?
        .parse()
        .map_err(|_| "bad relation count".to_string())?;
    if nrels != schema.len() {
        return Err(format!(
            "snapshot has {nrels} relations, schema has {}",
            schema.len()
        ));
    }
    let mut inst = Instance::empty(schema);
    for r in schema.rel_ids() {
        let arity = schema.relation(r).arity();
        let ntuples: usize = next("tuple count")?
            .parse()
            .map_err(|_| "bad tuple count".to_string())?;
        for _ in 0..ntuples {
            let mut vals = Vec::with_capacity(arity);
            for _ in 0..arity {
                let tok = next("value")?;
                vals.push(decode_value(tok, 0).map_err(|e| e.to_string())?);
            }
            inst.rel_mut(r)
                .insert(Tuple::new(vals))
                .map_err(|e| e.to_string())?;
        }
    }
    if pos != tokens.len() {
        return Err("trailing tokens after snapshot".into());
    }
    Ok(inst)
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

pub(crate) fn record_line(kind: char, seq: u64, payload: &str) -> String {
    let body = format!("{kind} {seq} {payload}");
    format!("{kind} {seq} {:08x} {payload}\n", crc32(body.as_bytes()))
}

pub(crate) struct RawRecord {
    pub(crate) kind: char,
    pub(crate) seq: u64,
    pub(crate) payload: String,
}

/// Parses and CRC-validates one record line (without trailing newline).
/// `None` means the record is torn or accidentally corrupted.
fn parse_record(line: &str) -> Option<RawRecord> {
    let mut it = line.splitn(4, ' ');
    let kind = it.next()?;
    let seq = it.next()?;
    let crc = it.next()?;
    let payload = it.next()?;
    let kind = match kind {
        "e" => 'e',
        "s" => 's',
        "p" => 'p',
        "c" => 'c',
        "a" => 'a',
        // Resharding control records (router stream): migration plan,
        // fenced cutover, migration abort.
        "m" => 'm',
        "f" => 'f',
        "x" => 'x',
        _ => return None,
    };
    let seq: u64 = seq.parse().ok()?;
    if crc.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(crc, 16).ok()?;
    if crc32(format!("{kind} {seq} {payload}").as_bytes()) != crc {
        return None;
    }
    Some(RawRecord {
        kind,
        seq,
        payload: payload.to_string(),
    })
}

// ---------------------------------------------------------------------------
// The WAL proper
// ---------------------------------------------------------------------------

/// What a recovery of the per-shard streams found and did
/// ([`ShardPlane::recover`](crate::shard::ShardPlane::recover),
/// [`ShardPlane::replay_wals`](crate::shard::ShardPlane::replay_wals)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Durable events recovered: those the snapshot covers plus those
    /// replayed above it (0: empty streams).
    pub last_seq: u64,
    /// Events replayed (only the tail above the snapshot).
    pub events_replayed: usize,
    /// Events covered by the snapshot recovery started from, if any.
    pub snapshot_seq: Option<u64>,
    /// Torn/corrupted suffix bytes truncated, summed over the streams.
    pub truncated_bytes: usize,
}

/// The longest valid prefix of one per-shard stream, as found by
/// [`Wal::scan_stream`]: its records, the byte boundary they end at, how
/// many torn/corrupt suffix bytes were truncated, and the last (dense)
/// sequence number.
pub(crate) struct StreamScan {
    pub(crate) records: Vec<RawRecord>,
    pub(crate) valid_len: u64,
    pub(crate) truncated_bytes: usize,
    pub(crate) last_seq: u64,
}

/// The durable write-ahead log. See the module docs for the format.
///
/// A failed (non-transient) append **poisons** the log: the backend may now
/// end in a torn record, so further appends are refused until
/// [`Wal::rearm`] truncates back to the last complete record. Failed
/// appends never consume a sequence number, so a re-armed log continues
/// exactly where the last successful append left off.
pub struct Wal {
    backend: Box<dyn WalBackend>,
    opts: WalOptions,
    next_seq: u64,
    unsynced: u32,
    /// Bytes of complete records (incl. header) successfully appended: the
    /// boundary [`Wal::rearm`] truncates a torn tail back to.
    appended_len: u64,
    poisoned: bool,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Wal[next_seq {} opts {:?}{}]",
            self.next_seq,
            self.opts,
            if self.poisoned { ", POISONED" } else { "" }
        )
    }
}

impl Wal {
    /// Creates a fresh WAL on an *empty* backend, writing the v2 header.
    pub fn create(mut backend: Box<dyn WalBackend>, opts: WalOptions) -> Result<Wal, WalError> {
        if !backend.is_empty()? {
            return Err(WalError::Backend(
                "backend is not empty; use ShardPlane::recover to resume an existing stream".into(),
            ));
        }
        let header = format!("{WAL_HEADER}\n");
        backend.append(header.as_bytes())?;
        backend.sync()?;
        Ok(Wal {
            backend,
            opts,
            next_seq: 1,
            unsynced: 0,
            appended_len: header.len() as u64,
            poisoned: false,
        })
    }

    /// Restores a poisoned log: truncates any torn tail back to the last
    /// complete record and syncs. On success the log accepts appends again.
    /// Fails (and stays poisoned) while the backend itself is still faulty.
    pub fn rearm(&mut self) -> Result<(), WalError> {
        self.backend.truncate(self.appended_len)?;
        self.backend.sync()?;
        self.unsynced = 0;
        self.poisoned = false;
        Ok(())
    }

    /// The tuning this log was opened with.
    pub(crate) fn options(&self) -> &WalOptions {
        &self.opts
    }

    fn check_armed(&self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Backend(
                "wal is poisoned after a failed append; rearm first".into(),
            ));
        }
        Ok(())
    }

    /// Transient failures write nothing, so the log stays clean; any other
    /// failure may have left a torn tail and poisons the log.
    fn poison_unless_transient(&mut self, e: WalError) -> WalError {
        if !matches!(e, WalError::Transient(_)) {
            self.poisoned = true;
        }
        e
    }

    /// Appends one complete record line, honoring the sync policy, and
    /// advances the complete-record boundary only if everything succeeded.
    fn append_record(&mut self, line: &str) -> Result<(), WalError> {
        self.backend.append(line.as_bytes())?;
        self.unsynced += 1;
        match self.opts.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        self.appended_len += line.len() as u64;
        Ok(())
    }

    /// Forces a sync now.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.backend.sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Appends one record of `kind` with the next sequence number. Every
    /// record, snapshots included, takes its own seq, so stream validation
    /// is simply "each record's seq is the previous plus one". When `force_sync` the
    /// record is synced whatever the policy says (commit-point records and
    /// snapshots must be durable before the plane acknowledges).
    pub(crate) fn append_raw(
        &mut self,
        kind: char,
        payload: &str,
        force_sync: bool,
    ) -> Result<u64, WalError> {
        self.check_armed()?;
        let seq = self.next_seq;
        let line = record_line(kind, seq, payload);
        match self.append_record(&line) {
            Ok(()) => {
                // Only sync when something is actually unsynced: under
                // `SyncPolicy::Always` the record is already durable, and a
                // redundant fsync could fail and poison the stream *after*
                // its commit-point record is safely on disk.
                if force_sync && self.unsynced > 0 {
                    if let Err(e) = self.sync() {
                        return Err(self.poison_unless_transient(e));
                    }
                }
                self.next_seq += 1;
                Ok(seq)
            }
            Err(e) => Err(self.poison_unless_transient(e)),
        }
    }

    /// Reopens a scanned stream for further appends, positioned at
    /// `next_seq` / `appended_len` as reported by [`Wal::scan_stream`].
    pub(crate) fn resume(
        backend: Box<dyn WalBackend>,
        opts: WalOptions,
        next_seq: u64,
        appended_len: u64,
    ) -> Wal {
        Wal {
            backend,
            opts,
            next_seq,
            unsynced: 0,
            appended_len,
            poisoned: false,
        }
    }

    /// Scans one per-shard stream: checks the header, walks the longest
    /// valid prefix of records, truncates any torn or corrupted suffix, and
    /// validates that sequence numbers are dense (every record is the
    /// previous seq plus one — CRC-valid records violating that are
    /// tampering). An empty backend, or one holding only a torn header,
    /// restarts from scratch with a fresh header.
    pub(crate) fn scan_stream(backend: &mut dyn WalBackend) -> Result<StreamScan, WalError> {
        let bytes = backend.read_all()?;
        let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
            if !bytes.is_empty() {
                backend.truncate(0)?;
            }
            let header = format!("{WAL_HEADER}\n");
            backend.append(header.as_bytes())?;
            backend.sync()?;
            return Ok(StreamScan {
                records: Vec::new(),
                valid_len: header.len() as u64,
                truncated_bytes: bytes.len(),
                last_seq: 0,
            });
        };
        if std::str::from_utf8(&bytes[..header_end]) != Ok(WAL_HEADER) {
            return Err(WalError::BadHeader);
        }
        let mut records: Vec<RawRecord> = Vec::new();
        let mut valid_len = header_end + 1;
        let mut pos = valid_len;
        let mut last_seq = 0u64;
        while pos < bytes.len() {
            let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
                break; // torn final record: no newline
            };
            let line = &bytes[pos..pos + nl];
            let Ok(text) = std::str::from_utf8(line) else {
                break; // corrupted into invalid UTF-8
            };
            let Some(rec) = parse_record(text) else {
                break; // unparsable or CRC mismatch
            };
            if rec.seq != last_seq + 1 {
                return Err(WalError::Tampered {
                    seq: rec.seq,
                    reason: format!("stream seq jumps from {last_seq}"),
                });
            }
            last_seq = rec.seq;
            records.push(rec);
            pos += nl + 1;
            valid_len = pos;
        }
        let truncated_bytes = bytes.len() - valid_len;
        if truncated_bytes > 0 {
            backend.truncate(valid_len as u64)?;
        }
        Ok(StreamScan {
            records,
            valid_len: valid_len as u64,
            truncated_bytes,
            last_seq,
        })
    }
}

#[cfg(test)]
mod tests {
    //! Framing-level checks. Recovery itself (torn tails, corruption,
    //! tampering, foreign headers, snapshots) is tested through
    //! `ShardPlane::replay_wals` in `shard/plane.rs`, the path a restart
    //! takes.

    use super::*;

    /// Appends `count` records of arbitrary payload to `wal`.
    fn grow(wal: &mut Wal, count: usize) {
        for i in 0..count {
            wal.append_raw('e', &format!("t{i}.0.0 mk f:{i}"), false)
                .unwrap();
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_n_sync_policy_batches() {
        let backend = MemBackend::new();
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(3),
            snapshot_every: None,
        };
        let mut wal = Wal::create(Box::new(backend.clone()), opts).unwrap();
        grow(&mut wal, 2);
        // Two appends, no sync yet: synced length still just the header.
        assert_eq!(backend.synced_len(), WAL_HEADER.len() + 1);
        grow(&mut wal, 1);
        assert_eq!(backend.synced_len(), backend.bytes().len());
        // A forced record syncs whatever the policy says.
        wal.append_raw('c', "g1", true).unwrap();
        assert_eq!(backend.synced_len(), backend.bytes().len());
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("cwf-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        let written = {
            let backend = FileBackend::open(&path).unwrap();
            let mut wal = Wal::create(Box::new(backend), WalOptions::default()).unwrap();
            grow(&mut wal, 3);
            std::fs::read(&path).unwrap()
        };
        let mut backend = FileBackend::open(&path).unwrap();
        let scan = Wal::scan_stream(&mut backend).unwrap();
        assert_eq!(scan.last_seq, 3);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.valid_len, written.len() as u64);
        assert_eq!(scan.records[2].payload, "t2.0.0 mk f:2");
        // The reopened stream continues with the next dense seq.
        let mut wal = Wal::resume(Box::new(backend), WalOptions::default(), 4, scan.valid_len);
        assert_eq!(wal.append_raw('e', "t3.0.0 mk f:3", false).unwrap(), 4);
        let mut reopened = FileBackend::open(&path).unwrap();
        assert_eq!(Wal::scan_stream(&mut reopened).unwrap().last_seq, 4);
        let _ = std::fs::remove_file(&path);
    }
}
