//! Durable write-ahead log: append-only segments of length-prefixed,
//! FNV-1a-checksummed, LSN-stamped records, with a torn-tail-tolerant
//! reader and checkpoint-file bookkeeping.
//!
//! # Log structure
//!
//! A WAL directory holds two kinds of files:
//!
//! * **Segments** (`wal-<first-lsn>.seg`) — append-only runs of records.
//!   The file name carries the LSN of the first record the segment holds,
//!   so segments sort (and recover) in log order by name alone. Exactly one
//!   segment is *active* (the highest-named one); the rest are *sealed* and
//!   never written again.
//! * **Checkpoints** (`ckpt-<covered-lsn>.snap`) — full fleet snapshots
//!   published via [`crate::atomic_file::write_atomic`]. A checkpoint file
//!   named `L` captures the state after applying every record with
//!   LSN ≤ `L`; recovery restores the newest parseable checkpoint and
//!   replays only the record suffix with LSN > `L`.
//!
//! # Record format
//!
//! Each record is laid out as
//!
//! ```text
//! [len: u32 LE] [lsn: u64 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the 32-bit FNV-1a hash of the LSN bytes followed by the
//! payload. Records are encoded and decoded with the snapshot container's
//! cursors and checksum ([`crate::snapshot`]). LSNs start at 1 and increase by exactly 1 per record across
//! segment boundaries, which lets the reader reject stale or misplaced
//! bytes that happen to carry a valid checksum.
//!
//! # Torn tails
//!
//! Appends are buffered by the OS until an fsync, so a crash can leave the
//! final record half-written (or leave arbitrary garbage after the last
//! synced byte). [`Wal::open`] scans every segment in order and keeps the
//! longest valid record *prefix*: at the first length/checksum/LSN
//! violation it truncates that segment in place and deletes any later
//! segments. Recovery therefore never panics on a torn tail — it simply
//! resumes from the last intact record, which is exactly the durability
//! contract of the chosen [`FsyncPolicy`].

use crate::error::{Error, Result};
use crate::metrics::{Counter, LogHistogram, Registry};
use crate::snapshot::{fnv1a_concat, SectionReader, SectionWriter};
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Prefix of segment file names (`wal-<first-lsn>.seg`).
const SEGMENT_PREFIX: &str = "wal-";
/// Extension of segment file names.
const SEGMENT_SUFFIX: &str = ".seg";
/// Prefix of checkpoint snapshot file names (`ckpt-<covered-lsn>.snap`).
const CHECKPOINT_PREFIX: &str = "ckpt-";
/// Extension of checkpoint snapshot file names.
const CHECKPOINT_SUFFIX: &str = ".snap";
/// Fixed bytes before each record payload: len (4) + lsn (8) + crc (4).
/// Public so torn-tail tests can compute exact on-disk record sizes
/// (record bytes = `RECORD_HEADER` + encoded payload length).
pub const RECORD_HEADER: usize = 16;
/// Upper bound on a single record payload; anything larger is garbage.
const MAX_PAYLOAD: u32 = 1 << 30;

fn io_err(what: &str, path: &Path, err: std::io::Error) -> Error {
    Error::Io(format!("{what} {}: {err}", path.display()))
}

/// When appended records are pushed from the OS page cache to stable
/// storage. The policy decides which *acknowledged* writes survive a
/// machine crash; every policy survives a plain process crash, because the
/// page cache belongs to the kernel, not the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record: an acknowledged write is durable.
    Always,
    /// fsync once every `n` appended records: at most the `n - 1` newest
    /// acknowledged writes can be lost, and the survivors are always a
    /// prefix of the acknowledged sequence.
    EveryN(u64),
    /// Never fsync on the append path (the OS flushes when it pleases):
    /// fastest, survives process crashes, but a power loss may drop any
    /// suffix of acknowledged writes.
    OsBuffered,
}

/// Tunables for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// When appends are fsync'd; see [`FsyncPolicy`].
    pub policy: FsyncPolicy,
    /// Segments are rotated (sealed and a fresh one started) once the
    /// active segment reaches this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            policy: FsyncPolicy::Always,
            segment_bytes: 1 << 20,
        }
    }
}

/// A single logged operation. Insert/Remove/Compact mirror the mutation
/// API; Checkpoint and Abort are bookkeeping records produced by the
/// durability layer itself.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// One inserted vector (stored as raw `f32` bit patterns, so replay is
    /// bit-identical).
    Insert {
        /// The inserted vector's components.
        vector: Vec<f32>,
    },
    /// Removal of the vector with external id `id`.
    Remove {
        /// The external id passed to `remove`.
        id: u64,
    },
    /// A whole-fleet compaction sweep completed.
    Compact,
    /// A checkpoint snapshot covering every record with LSN ≤ `covered_lsn`
    /// was durably published.
    Checkpoint {
        /// Highest LSN captured by the snapshot.
        covered_lsn: u64,
    },
    /// Compensation: the records in `[from_lsn, until_lsn]` were logged but
    /// their publish was rolled back, so replay must skip them.
    Abort {
        /// First rolled-back LSN (inclusive).
        from_lsn: u64,
        /// Last rolled-back LSN (inclusive).
        until_lsn: u64,
    },
    /// A background rebuild (codebook refresh or shard split/merge) was
    /// durably published: a post-rebuild checkpoint covering every record
    /// with LSN ≤ `covered_lsn` is on disk. Recovery treats this as a
    /// marker — the fleet lands on the new lineage iff the checkpoint that
    /// accompanied this record survived, never on a hybrid.
    RebuildPublish {
        /// Highest LSN folded into the rebuilt fleet.
        covered_lsn: u64,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_COMPACT: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_REBUILD_PUBLISH: u8 = 6;

impl WalRecord {
    /// The payload: a tag byte, then the fields (an insert's dimension as a
    /// `u32`, then its components' bit patterns).
    fn encode_payload(&self) -> Vec<u8> {
        let mut w = SectionWriter::with_capacity(match self {
            WalRecord::Insert { vector } => 5 + 4 * vector.len(),
            _ => 17,
        });
        match self {
            WalRecord::Insert { vector } => {
                w.put_u8(TAG_INSERT);
                w.put_u32(vector.len() as u32);
                for &x in vector {
                    w.put_f32(x);
                }
            }
            WalRecord::Remove { id } => {
                w.put_u8(TAG_REMOVE);
                w.put_u64(*id);
            }
            WalRecord::Compact => w.put_u8(TAG_COMPACT),
            WalRecord::Checkpoint { covered_lsn } => {
                w.put_u8(TAG_CHECKPOINT);
                w.put_u64(*covered_lsn);
            }
            WalRecord::Abort {
                from_lsn,
                until_lsn,
            } => {
                w.put_u8(TAG_ABORT);
                w.put_u64(*from_lsn);
                w.put_u64(*until_lsn);
            }
            WalRecord::RebuildPublish { covered_lsn } => {
                w.put_u8(TAG_REBUILD_PUBLISH);
                w.put_u64(*covered_lsn);
            }
        }
        w.finish()
    }

    /// Decodes a payload that must hold exactly one record.
    fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
        let mut r = SectionReader::over(payload);
        let record = match r.get_u8()? {
            TAG_INSERT => {
                let dim = r.get_u32()? as usize;
                // Checked before allocating for a corrupt dimension.
                if r.remaining() != dim * 4 {
                    return Err(Error::corrupted("WAL insert: dimension mismatches payload"));
                }
                let mut vector = Vec::with_capacity(dim);
                for _ in 0..dim {
                    vector.push(r.get_f32()?);
                }
                WalRecord::Insert { vector }
            }
            TAG_REMOVE => WalRecord::Remove { id: r.get_u64()? },
            TAG_COMPACT => WalRecord::Compact,
            TAG_CHECKPOINT => WalRecord::Checkpoint {
                covered_lsn: r.get_u64()?,
            },
            TAG_ABORT => WalRecord::Abort {
                from_lsn: r.get_u64()?,
                until_lsn: r.get_u64()?,
            },
            TAG_REBUILD_PUBLISH => WalRecord::RebuildPublish {
                covered_lsn: r.get_u64()?,
            },
            tag => return Err(Error::corrupted(format!("unknown WAL record tag {tag}"))),
        };
        r.expect_end()?;
        Ok(record)
    }
}

fn encode_record(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let payload = record.encode_payload();
    let mut out = SectionWriter::with_capacity(RECORD_HEADER + payload.len());
    out.put_u32(payload.len() as u32);
    out.put_u64(lsn);
    out.put_u32(fnv1a_concat(&[&lsn.to_le_bytes(), &payload]));
    out.put_raw(&payload);
    out.finish()
}

/// The record `bytes` opens with: its LSN, the record and its encoded
/// length. A torn or corrupt record (short header, short payload, bad
/// checksum, bad shape) is an error.
fn decode_record(bytes: &[u8]) -> Result<(u64, WalRecord, usize)> {
    let mut r = SectionReader::over(bytes);
    let len = r.get_u32()?;
    if len > MAX_PAYLOAD {
        return Err(Error::corrupted("WAL record longer than any payload"));
    }
    let lsn = r.get_u64()?;
    let crc = r.get_u32()?;
    let payload = r.take(len as usize)?;
    if fnv1a_concat(&[&lsn.to_le_bytes(), payload]) != crc {
        return Err(Error::corrupted("WAL record checksum mismatch"));
    }
    let record = WalRecord::decode_payload(payload)?;
    Ok((lsn, record, RECORD_HEADER + payload.len()))
}

fn segment_name(first_lsn: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_lsn:020}{SEGMENT_SUFFIX}")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let middle = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if middle.is_empty() || !middle.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    middle.parse().ok()
}

/// The WAL segment files under `dir`, sorted by first LSN (log order).
/// Files that do not match the `wal-<lsn>.seg` naming scheme are ignored.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, SEGMENT_PREFIX, SEGMENT_SUFFIX)
}

/// The path of the checkpoint snapshot covering `covered_lsn` under `dir`.
pub fn checkpoint_path(dir: &Path, covered_lsn: u64) -> PathBuf {
    dir.join(format!(
        "{CHECKPOINT_PREFIX}{covered_lsn:020}{CHECKPOINT_SUFFIX}"
    ))
}

/// The checkpoint snapshot files under `dir`, sorted by covered LSN
/// ascending (newest last). Files that do not match the naming scheme are
/// ignored.
pub fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, CHECKPOINT_PREFIX, CHECKPOINT_SUFFIX)
}

fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<(u64, PathBuf)>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("read dir", dir, e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read dir entry in", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(number) = parse_numbered(name, prefix, suffix) {
            out.push((number, entry.path()));
        }
    }
    out.sort_by_key(|&(number, _)| number);
    Ok(out)
}

/// Deletes all but the newest `keep` checkpoint snapshots under `dir`
/// (their `.prev` rotations go with them). Returns how many were deleted.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<usize> {
    let checkpoints = list_checkpoints(dir)?;
    let mut deleted = 0;
    if checkpoints.len() > keep {
        for (_, path) in &checkpoints[..checkpoints.len() - keep] {
            fs::remove_file(path).map_err(|e| io_err("delete checkpoint", path, e))?;
            let prev = crate::atomic_file::prev_path(path);
            match fs::remove_file(&prev) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("delete checkpoint rotation", &prev, e)),
            }
            deleted += 1;
        }
    }
    Ok(deleted)
}

struct ActiveSegment {
    file: File,
    path: PathBuf,
    /// The LSN the segment's file name carries.
    first_lsn: u64,
    bytes: u64,
}

struct WalInner {
    active: Option<ActiveSegment>,
    /// Sealed segments in log order: `(first_lsn, path)`.
    sealed: Vec<(u64, PathBuf)>,
    next_lsn: u64,
    /// Appends since the last fsync of the active segment.
    unsynced: u64,
    /// Set when a failed append left bytes in the active segment that could
    /// not be cut off again: anything appended behind them would be lost to
    /// [`Wal::open`]'s torn-tail truncation, so every later append, sync and
    /// rotation fails until the log is reopened.
    stuck: bool,
}

struct WalMetrics {
    append_ns: Arc<LogHistogram>,
    fsync_ns: Arc<LogHistogram>,
    appended_bytes: Arc<Counter>,
    records: Arc<Counter>,
    segments_created: Arc<Counter>,
    segments_pruned: Arc<Counter>,
    torn_bytes: Arc<Counter>,
}

impl WalMetrics {
    fn new(registry: &Registry) -> Self {
        WalMetrics {
            append_ns: registry.histogram("wal.append_ns"),
            fsync_ns: registry.histogram("wal.fsync_ns"),
            appended_bytes: registry.counter("wal.appended_bytes"),
            records: registry.counter("wal.records"),
            segments_created: registry.counter("wal.segments_created"),
            segments_pruned: registry.counter("wal.segments_pruned"),
            torn_bytes: registry.counter("wal.torn_bytes"),
        }
    }
}

/// An open write-ahead log rooted at a directory. All mutating calls take
/// an internal lock; the intended usage (one logical writer, as in
/// `ShardedIndex`'s single-writer mutation path) never contends on it.
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    metrics: WalMetrics,
    inner: Mutex<WalInner>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .field("last_lsn", &self.last_lsn())
            .finish()
    }
}

impl Wal {
    /// Opens (creating if needed) the WAL under `dir`, recovering the
    /// longest valid record prefix: the first torn or corrupt byte
    /// truncates its segment in place and deletes every later segment.
    /// Appends resume after the last intact record. WAL activity is
    /// reported through `registry` (`wal.*` metrics).
    pub fn open(dir: &Path, options: WalOptions, registry: Arc<Registry>) -> Result<Wal> {
        if let FsyncPolicy::EveryN(0) = options.policy {
            return Err(Error::InvalidConfig(
                "FsyncPolicy::EveryN(0) would never sync; use OsBuffered instead".into(),
            ));
        }
        if options.segment_bytes == 0 {
            return Err(Error::InvalidConfig(
                "WalOptions::segment_bytes == 0".into(),
            ));
        }
        fs::create_dir_all(dir).map_err(|e| io_err("create WAL dir", dir, e))?;
        let metrics = WalMetrics::new(&registry);

        let segments = list_segments(dir)?;
        let mut kept: Vec<(u64, PathBuf)> = Vec::new();
        let mut next_lsn: u64 = 1;
        let mut torn_bytes: u64 = 0;
        let mut truncate_rest_from: Option<usize> = None;
        for (idx, (first_lsn, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path).map_err(|e| io_err("read segment", path, e))?;
            // A sealed segment must continue the log exactly where the
            // previous one left off; the first segment seeds the sequence.
            let expected_first = if kept.is_empty() {
                *first_lsn
            } else {
                next_lsn
            };
            let mut offset = 0usize;
            let mut expected = expected_first;
            while offset < bytes.len() {
                match decode_record(&bytes[offset..]) {
                    Ok((lsn, _, len)) if lsn == expected => {
                        offset += len;
                        expected += 1;
                    }
                    _ => break,
                }
            }
            let valid_prefix_empty = offset == 0;
            if offset < bytes.len() {
                // Torn tail: truncate in place, drop every later segment.
                torn_bytes += (bytes.len() - offset) as u64;
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("open segment for truncate", path, e))?;
                file.set_len(offset as u64)
                    .map_err(|e| io_err("truncate segment", path, e))?;
                file.sync_all()
                    .map_err(|e| io_err("fsync truncated segment", path, e))?;
            }
            if valid_prefix_empty && *first_lsn != expected_first {
                // An (at most empty after truncation) segment whose name
                // does not continue the log carries no information: drop it.
                fs::remove_file(path).map_err(|e| io_err("delete orphan segment", path, e))?;
            } else {
                kept.push((*first_lsn, path.clone()));
                next_lsn = expected;
            }
            if offset < bytes.len() {
                truncate_rest_from = Some(idx + 1);
                break;
            }
        }
        if let Some(from) = truncate_rest_from {
            for (_, path) in &segments[from..] {
                let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                torn_bytes += len;
                fs::remove_file(path).map_err(|e| io_err("delete torn segment", path, e))?;
            }
        }
        metrics.torn_bytes.add(torn_bytes);

        // Reopen the last surviving segment for appending, if any.
        let mut sealed = kept;
        let active = match sealed.pop() {
            Some((first_lsn, path)) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err("open active segment", &path, e))?;
                let bytes = file
                    .metadata()
                    .map_err(|e| io_err("stat active segment", &path, e))?
                    .len();
                Some(ActiveSegment {
                    file,
                    path,
                    first_lsn,
                    bytes,
                })
            }
            None => None,
        };

        Ok(Wal {
            dir: dir.to_path_buf(),
            options,
            metrics,
            inner: Mutex::new(WalInner {
                active,
                sealed,
                next_lsn,
                unsynced: 0,
                stuck: false,
            }),
        })
    }

    /// The LSN of the last appended (or recovered) record; 0 if empty.
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().unwrap().next_lsn - 1
    }

    fn ensure_active<'a>(
        inner: &'a mut WalInner,
        dir: &Path,
        metrics: &WalMetrics,
    ) -> Result<&'a mut ActiveSegment> {
        if inner.active.is_none() {
            let path = dir.join(segment_name(inner.next_lsn));
            let file = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err("create segment", &path, e))?;
            metrics.segments_created.inc();
            inner.active = Some(ActiveSegment {
                file,
                path,
                first_lsn: inner.next_lsn,
                bytes: 0,
            });
        }
        Ok(inner.active.as_mut().unwrap())
    }

    fn ensure_unstuck(inner: &WalInner, dir: &Path) -> Result<()> {
        if inner.stuck {
            return Err(Error::Io(format!(
                "WAL {}: a failed append left bytes that could not be cut off; \
                 reopen the log",
                dir.display()
            )));
        }
        Ok(())
    }

    fn seal_active(inner: &mut WalInner, policy: FsyncPolicy) -> Result<bool> {
        let Some(active) = inner.active.take() else {
            return Ok(false);
        };
        if active.bytes == 0 {
            // Nothing was ever written: keep it as the active segment
            // rather than sealing an empty file.
            inner.active = Some(active);
            return Ok(false);
        }
        // Bound the loss window: a sealed segment is never revisited, so
        // push it to stable storage now (unless the caller opted out of
        // durability entirely).
        if policy != FsyncPolicy::OsBuffered {
            active
                .file
                .sync_data()
                .map_err(|e| io_err("fsync sealed segment", &active.path, e))?;
        }
        inner.sealed.push((active.first_lsn, active.path));
        inner.unsynced = 0;
        Ok(true)
    }

    /// Appends `record` without fsyncing, returning its LSN. Rotates to a
    /// fresh segment first when the active one is full. Call
    /// [`Wal::maybe_sync`] (or [`Wal::sync`]) afterwards to apply the
    /// configured durability policy.
    pub fn append_unsynced(&self, record: &WalRecord) -> Result<u64> {
        let start = Instant::now();
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        Self::ensure_unstuck(inner, &self.dir)?;
        if inner
            .active
            .as_ref()
            .is_some_and(|a| a.bytes >= self.options.segment_bytes)
        {
            Self::seal_active(inner, self.options.policy)?;
        }
        let lsn = inner.next_lsn;
        let bytes = encode_record(lsn, record);
        let active = Self::ensure_active(inner, &self.dir, &self.metrics)?;
        if let Err(e) = seam::write_all(&mut active.file, &bytes) {
            // A failed write may still have put part of the record on disk.
            // Cut the segment back to its last whole record, or the next
            // record would land behind the torn bytes, where `open` drops it.
            if let Err(cut) = seam::set_len(&active.file, active.bytes) {
                let err = Error::Io(format!(
                    "append to segment {}: {e}; cutting it back failed too: {cut}",
                    active.path.display()
                ));
                inner.stuck = true;
                return Err(err);
            }
            return Err(io_err("append to segment", &active.path, e));
        }
        active.bytes += bytes.len() as u64;
        inner.next_lsn += 1;
        inner.unsynced += 1;
        self.metrics.records.inc();
        self.metrics.appended_bytes.add(bytes.len() as u64);
        self.metrics.append_ns.record_duration(start.elapsed());
        Ok(lsn)
    }

    /// fsyncs the active segment if any appends are pending.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock().unwrap();
        self.sync_locked(&mut inner)
    }

    fn sync_locked(&self, inner: &mut WalInner) -> Result<()> {
        Self::ensure_unstuck(inner, &self.dir)?;
        if inner.unsynced == 0 {
            return Ok(());
        }
        if let Some(active) = inner.active.as_ref() {
            let start = Instant::now();
            active
                .file
                .sync_data()
                .map_err(|e| io_err("fsync segment", &active.path, e))?;
            self.metrics.fsync_ns.record_duration(start.elapsed());
        }
        inner.unsynced = 0;
        Ok(())
    }

    /// Applies the configured [`FsyncPolicy`] to pending appends. Returns
    /// whether an fsync was issued.
    pub fn maybe_sync(&self) -> Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        let due = match self.options.policy {
            FsyncPolicy::Always => inner.unsynced > 0,
            FsyncPolicy::EveryN(n) => inner.unsynced >= n,
            FsyncPolicy::OsBuffered => false,
        };
        if due {
            self.sync_locked(&mut inner)?;
        }
        Ok(due)
    }

    /// Seals the active segment (fsyncing it unless the policy is
    /// [`FsyncPolicy::OsBuffered`]) so the next append starts a fresh one.
    /// A missing or empty active segment makes this a no-op. Returns
    /// whether a segment was sealed.
    pub fn rotate(&self) -> Result<bool> {
        let mut inner = self.inner.lock().unwrap();
        Self::ensure_unstuck(&inner, &self.dir)?;
        Self::seal_active(&mut inner, self.options.policy)
    }

    /// Deletes sealed segments every record of which has LSN ≤
    /// `covered_lsn` (i.e. is captured by a checkpoint). The active
    /// segment is never deleted. Returns how many segments were removed.
    pub fn prune_sealed_up_to(&self, covered_lsn: u64) -> Result<usize> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        // A sealed segment's records all have LSN < the next segment's
        // first LSN (segments are contiguous), so it is fully covered when
        // that bound is ≤ covered_lsn + 1.
        let mut pruned = 0;
        while inner.sealed.len() > pruned {
            let next_first = if inner.sealed.len() > pruned + 1 {
                inner.sealed[pruned + 1].0
            } else if let Some(active) = inner.active.as_ref() {
                active.first_lsn
            } else {
                inner.next_lsn
            };
            if next_first > covered_lsn + 1 {
                break;
            }
            let (_, path) = &inner.sealed[pruned];
            fs::remove_file(path).map_err(|e| io_err("delete sealed segment", path, e))?;
            pruned += 1;
        }
        inner.sealed.drain(..pruned);
        self.metrics.segments_pruned.add(pruned as u64);
        Ok(pruned)
    }

    /// All records with LSN > `after_lsn`, in log order. The segment files
    /// were validated by [`Wal::open`], so a decode failure here (disk
    /// mutated underneath a live WAL) is reported as [`Error::Corrupted`].
    pub fn read_records_after(&self, after_lsn: u64) -> Result<Vec<(u64, WalRecord)>> {
        let inner = self.inner.lock().unwrap();
        let mut paths: Vec<PathBuf> = inner.sealed.iter().map(|(_, p)| p.clone()).collect();
        if let Some(active) = inner.active.as_ref() {
            paths.push(active.path.clone());
        }
        drop(inner);
        let mut out = Vec::new();
        for path in paths {
            let bytes = fs::read(&path).map_err(|e| io_err("read segment", &path, e))?;
            let mut offset = 0usize;
            while offset < bytes.len() {
                let (lsn, record, len) = decode_record(&bytes[offset..]).map_err(|_| {
                    Error::corrupted(format!(
                        "segment {} mutated underneath a live WAL",
                        path.display()
                    ))
                })?;
                if lsn > after_lsn {
                    out.push((lsn, record));
                }
                offset += len;
            }
        }
        Ok(out)
    }
}

/// The two file calls of [`Wal::append_unsynced`]. A unit test can make
/// the next write on its thread stop halfway, and the cut-back after it
/// fail, as a disk that fills up or errors mid-write does.
mod seam {
    use std::fs::File;
    use std::io::Write;

    #[cfg(test)]
    thread_local! {
        /// `Some(cut_fails)`: the next write puts half its bytes down, then errors.
        pub(super) static SHORT_WRITE: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
        static CUT_FAILS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    pub(super) fn write_all(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(cut_fails) = SHORT_WRITE.take() {
            file.write_all(&bytes[..bytes.len() / 2])?;
            CUT_FAILS.set(cut_fails);
            return Err(std::io::Error::other("short write"));
        }
        file.write_all(bytes)
    }

    pub(super) fn set_len(file: &File, len: u64) -> std::io::Result<()> {
        #[cfg(test)]
        if CUT_FAILS.take() {
            return Err(std::io::Error::other("cut-back refused"));
        }
        file.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("juno_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn registry() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                vector: vec![1.0, -2.5, 3.25],
            },
            WalRecord::Remove { id: 42 },
            WalRecord::Compact,
            WalRecord::Insert {
                vector: vec![0.0; 7],
            },
            WalRecord::Checkpoint { covered_lsn: 4 },
            WalRecord::Abort {
                from_lsn: 2,
                until_lsn: 3,
            },
            WalRecord::RebuildPublish { covered_lsn: 6 },
            WalRecord::Insert { vector: vec![9.5] },
            WalRecord::Remove { id: u64::MAX },
        ]
    }

    #[test]
    fn append_reopen_round_trips_every_record_kind() {
        let dir = scratch_dir("roundtrip");
        let records = sample_records();
        {
            let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
            for (i, r) in records.iter().enumerate() {
                assert_eq!(wal.append_unsynced(r).unwrap(), i as u64 + 1);
                wal.maybe_sync().unwrap();
            }
            assert_eq!(wal.last_lsn(), records.len() as u64);
        }
        let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
        assert_eq!(wal.last_lsn(), records.len() as u64);
        let got = wal.read_records_after(0).unwrap();
        assert_eq!(got.len(), records.len());
        for (i, (lsn, record)) in got.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(record, &records[i]);
        }
        // Suffix reads skip covered records.
        let suffix = wal.read_records_after(6).unwrap();
        assert_eq!(suffix.len(), records.len() - 6);
        assert_eq!(suffix[0].0, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spans_segments_and_pruning_respects_coverage() {
        let dir = scratch_dir("rotate");
        let options = WalOptions {
            policy: FsyncPolicy::OsBuffered,
            segment_bytes: 64, // force frequent rotation
        };
        let wal = Wal::open(&dir, options, registry()).unwrap();
        for i in 0..20u64 {
            wal.append_unsynced(&WalRecord::Remove { id: i }).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 1, "expected rotation, got {segments:?}");
        let all = wal.read_records_after(0).unwrap();
        assert_eq!(all.len(), 20, "reads span segment boundaries");

        // Nothing covered: nothing pruned (the active segment never goes).
        assert_eq!(wal.prune_sealed_up_to(0).unwrap(), 0);
        // Everything covered: every sealed segment goes, active survives.
        let pruned = wal.prune_sealed_up_to(20).unwrap();
        assert_eq!(pruned, segments.len() - 1);
        let left = list_segments(&dir).unwrap();
        assert_eq!(left.len(), 1);
        // The survivors are still a valid suffix.
        let tail = wal.read_records_after(0).unwrap();
        assert!(!tail.is_empty());
        assert_eq!(tail.last().unwrap().0, 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_rotation_seals_and_continues_lsn_sequence() {
        let dir = scratch_dir("explicit_rotate");
        let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
        assert!(!wal.rotate().unwrap(), "no active segment yet");
        wal.append_unsynced(&WalRecord::Compact).unwrap();
        assert!(wal.rotate().unwrap());
        assert!(!wal.rotate().unwrap(), "empty active segment is not sealed");
        let lsn = wal.append_unsynced(&WalRecord::Compact).unwrap();
        assert_eq!(lsn, 2);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[1].0, 2, "fresh segment named after its first LSN");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_syncs_on_schedule() {
        let dir = scratch_dir("everyn");
        let options = WalOptions {
            policy: FsyncPolicy::EveryN(3),
            ..WalOptions::default()
        };
        let wal = Wal::open(&dir, options, registry()).unwrap();
        let mut synced = Vec::new();
        for i in 0..7u64 {
            wal.append_unsynced(&WalRecord::Remove { id: i }).unwrap();
            synced.push(wal.maybe_sync().unwrap());
        }
        assert_eq!(synced, [false, false, true, false, false, true, false]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_every_n_and_zero_segment_bytes_are_rejected() {
        let dir = scratch_dir("badopts");
        let bad = WalOptions {
            policy: FsyncPolicy::EveryN(0),
            ..WalOptions::default()
        };
        assert!(Wal::open(&dir, bad, registry()).is_err());
        let bad = WalOptions {
            segment_bytes: 0,
            ..WalOptions::default()
        };
        assert!(Wal::open(&dir, bad, registry()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite: truncate a multi-record, multi-segment log at *every*
    /// byte offset; recovery must never panic and must always yield an
    /// exact record prefix.
    #[test]
    fn torn_tail_at_every_byte_offset_recovers_an_exact_prefix() {
        let build_dir = scratch_dir("torn_build");
        let options = WalOptions {
            policy: FsyncPolicy::OsBuffered,
            segment_bytes: 96, // several small segments
        };
        let records = sample_records();
        {
            let wal = Wal::open(&build_dir, options, registry()).unwrap();
            for r in &records {
                wal.append_unsynced(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let segments = list_segments(&build_dir).unwrap();
        assert!(segments.len() > 1, "want a multi-segment log");
        let mut blobs = Vec::new();
        let mut total = 0u64;
        for (first, path) in &segments {
            let bytes = fs::read(path).unwrap();
            total += bytes.len() as u64;
            blobs.push((*first, path.file_name().unwrap().to_owned(), bytes));
        }

        let work_dir = scratch_dir("torn_cut");
        for cut in 0..=total {
            // Rebuild the segment files, truncated at global offset `cut`.
            let _ = fs::remove_dir_all(&work_dir);
            fs::create_dir_all(&work_dir).unwrap();
            let mut remaining = cut;
            for (_, name, bytes) in &blobs {
                let take = remaining.min(bytes.len() as u64) as usize;
                fs::write(work_dir.join(name), &bytes[..take]).unwrap();
                remaining -= take as u64;
            }
            let wal = Wal::open(&work_dir, options, registry())
                .unwrap_or_else(|e| panic!("open must not fail at cut {cut}: {e}"));
            let got = wal.read_records_after(0).unwrap();
            let n = got.len();
            assert!(
                n <= records.len(),
                "cut {cut}: recovered more records than written"
            );
            assert_eq!(
                got,
                records[..n]
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, r)| (i as u64 + 1, r))
                    .collect::<Vec<_>>(),
                "cut {cut}: recovered records must be an exact prefix"
            );
            // The recovered WAL must accept appends right after the prefix.
            assert_eq!(
                wal.append_unsynced(&WalRecord::Compact).unwrap(),
                n as u64 + 1,
                "cut {cut}: next LSN continues the prefix"
            );
        }
        let _ = fs::remove_dir_all(&build_dir);
        let _ = fs::remove_dir_all(&work_dir);
    }

    /// Flipping any single byte must still yield a (possibly shorter)
    /// clean prefix, never a panic. Checked at a stride to keep it quick.
    #[test]
    fn corrupt_bytes_truncate_to_a_valid_prefix() {
        let build_dir = scratch_dir("flip_build");
        let options = WalOptions {
            policy: FsyncPolicy::OsBuffered,
            segment_bytes: 1 << 16,
        };
        let records = sample_records();
        {
            let wal = Wal::open(&build_dir, options, registry()).unwrap();
            for r in &records {
                wal.append_unsynced(r).unwrap();
            }
            wal.sync().unwrap();
        }
        let segments = list_segments(&build_dir).unwrap();
        assert_eq!(segments.len(), 1);
        let (_, path) = &segments[0];
        let name = path.file_name().unwrap().to_owned();
        let pristine = fs::read(path).unwrap();

        let work_dir = scratch_dir("flip_cut");
        for flip in (0..pristine.len()).step_by(3) {
            let _ = fs::remove_dir_all(&work_dir);
            fs::create_dir_all(&work_dir).unwrap();
            let mut bytes = pristine.clone();
            bytes[flip] ^= 0x5A;
            fs::write(work_dir.join(&name), &bytes).unwrap();
            let wal = Wal::open(&work_dir, options, registry())
                .unwrap_or_else(|e| panic!("open must not fail at flip {flip}: {e}"));
            let got = wal.read_records_after(0).unwrap();
            let n = got.len();
            for (i, (lsn, record)) in got.iter().enumerate() {
                assert_eq!(*lsn, i as u64 + 1, "flip {flip}");
                // A flipped byte inside an f32 payload could in principle
                // collide with the checksum, but FNV over the record makes
                // that astronomically unlikely for this fixed corpus; a
                // surviving record must equal what was written.
                assert_eq!(record, &records[i], "flip {flip}");
            }
            assert!(n <= records.len());
        }
        let _ = fs::remove_dir_all(&build_dir);
        let _ = fs::remove_dir_all(&work_dir);
    }

    #[test]
    fn orphan_segment_with_gap_lsn_is_discarded() {
        let dir = scratch_dir("orphan");
        {
            let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
            wal.append_unsynced(&WalRecord::Compact).unwrap();
            wal.sync().unwrap();
        }
        // A segment claiming to start at LSN 10 cannot follow LSN 1.
        fs::write(
            dir.join(segment_name(10)),
            encode_record(10, &WalRecord::Compact),
        )
        .unwrap();
        let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
        assert_eq!(wal.last_lsn(), 1);
        assert_eq!(wal.read_records_after(0).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_listing_and_pruning_keep_the_newest() {
        let dir = scratch_dir("ckpt");
        for lsn in [3u64, 9, 27] {
            crate::atomic_file::write_atomic(&checkpoint_path(&dir, lsn), &lsn.to_le_bytes())
                .unwrap();
        }
        let listed = list_checkpoints(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![3, 9, 27]
        );
        assert_eq!(prune_checkpoints(&dir, 2).unwrap(), 1);
        let listed = list_checkpoints(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![9, 27]
        );
        assert_eq!(prune_checkpoints(&dir, 5).unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_count_appends_and_truncations() {
        let dir = scratch_dir("metrics");
        let reg = registry();
        {
            let wal = Wal::open(&dir, WalOptions::default(), Arc::clone(&reg)).unwrap();
            wal.append_unsynced(&WalRecord::Compact).unwrap();
            wal.maybe_sync().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("wal.records"), 1);
        assert!(snap.counter("wal.appended_bytes") > 0);
        assert_eq!(snap.counter("wal.segments_created"), 1);
        assert_eq!(snap.histograms["wal.fsync_ns"].count, 1);

        // Append garbage; reopening truncates and counts the torn bytes.
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);
        let reg2 = registry();
        let wal = Wal::open(&dir, WalOptions::default(), Arc::clone(&reg2)).unwrap();
        assert_eq!(wal.last_lsn(), 1);
        assert_eq!(reg2.snapshot().counter("wal.torn_bytes"), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    fn insert(x: f32) -> WalRecord {
        WalRecord::Insert {
            vector: vec![x; 16],
        }
    }

    /// A write that fails halfway must not strand the records acknowledged
    /// after it behind its torn bytes.
    #[test]
    fn a_half_written_record_is_cut_off_so_later_acknowledged_records_survive() {
        let dir = scratch_dir("short_write");
        {
            let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
            for i in 0..3 {
                wal.append_unsynced(&insert(i as f32)).unwrap();
                wal.maybe_sync().unwrap();
            }
            seam::SHORT_WRITE.set(Some(false));
            assert!(matches!(
                wal.append_unsynced(&insert(3.0)),
                Err(Error::Io(_))
            ));
            assert_eq!(wal.append_unsynced(&insert(4.0)).unwrap(), 4);
            assert!(wal.maybe_sync().unwrap(), "acknowledged lsn 4");
        }
        let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
        assert_eq!(wal.last_lsn(), 4);
        let records = wal.read_records_after(0).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3], (4, insert(4.0)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// When the torn bytes cannot be cut off either, nothing more is
    /// acknowledged until the log is reopened, which truncates them.
    #[test]
    fn a_torn_record_that_cannot_be_cut_off_refuses_every_later_append() {
        let dir = scratch_dir("stuck_write");
        {
            let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
            wal.append_unsynced(&insert(0.0)).unwrap();
            wal.maybe_sync().unwrap();
            seam::SHORT_WRITE.set(Some(true));
            assert!(matches!(
                wal.append_unsynced(&insert(1.0)),
                Err(Error::Io(_))
            ));
            assert!(matches!(
                wal.append_unsynced(&insert(2.0)),
                Err(Error::Io(_))
            ));
            assert!(matches!(wal.sync(), Err(Error::Io(_))));
            assert!(matches!(wal.rotate(), Err(Error::Io(_))));
            assert_eq!(wal.last_lsn(), 1);
        }
        let wal = Wal::open(&dir, WalOptions::default(), registry()).unwrap();
        assert_eq!(wal.last_lsn(), 1);
        assert_eq!(wal.append_unsynced(&insert(3.0)).unwrap(), 2);
        wal.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
