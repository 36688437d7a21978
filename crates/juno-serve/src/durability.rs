//! Durability-plane configuration and reports for the sharded fleet.
//!
//! The actual write-ahead logging lives in [`juno_common::wal`]; the fleet
//! wiring (log-before-publish, checkpoints, recovery) lives on
//! [`crate::ShardedIndex`]:
//!
//! * [`ShardedIndex::enable_wal`](crate::ShardedIndex::enable_wal) attaches
//!   a WAL directory and writes a baseline checkpoint, after which every
//!   acknowledged mutation is appended (and fsync'd per
//!   [`FsyncPolicy`](juno_common::wal::FsyncPolicy)) **before** its epoch
//!   publish.
//! * [`ShardedIndex::checkpoint`](crate::ShardedIndex::checkpoint) publishes
//!   a fleet snapshot via [`juno_common::atomic_file`], stamps a Checkpoint
//!   record, and prunes the sealed segments (and old checkpoint
//!   generations) behind it.
//! * [`ShardedIndex::recover_from_dir`](crate::ShardedIndex::recover_from_dir)
//!   restores the newest parseable checkpoint generation and replays the
//!   WAL suffix after its covered LSN — bit-identical (ids, distance bits,
//!   id-allocator state) to a quiescent replay of the surviving op prefix.
//!
//! This module holds the shared plumbing: the config, the per-operation
//! reports, and the internal handle the fleet stores.

use juno_common::error::Result;
use juno_common::metrics::Registry;
use juno_common::wal::{Wal, WalOptions, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning for the fleet durability plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// WAL tuning: fsync policy and segment rotation size.
    pub wal: WalOptions,
    /// Checkpoint generations kept on disk after a successful checkpoint
    /// (at least 1; the newest is the primary restore point, older ones are
    /// fallbacks against a corrupted newest generation).
    pub keep_checkpoints: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            wal: WalOptions::default(),
            keep_checkpoints: 2,
        }
    }
}

/// What a [`ShardedIndex::checkpoint`](crate::ShardedIndex::checkpoint)
/// call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Every record with LSN ≤ this is captured by the snapshot.
    pub covered_lsn: u64,
    /// Size of the published snapshot in bytes.
    pub snapshot_bytes: u64,
    /// Sealed WAL segments deleted because the snapshot covers them.
    pub pruned_segments: usize,
    /// Old checkpoint generations deleted.
    pub pruned_checkpoints: usize,
}

/// What [`ShardedIndex::recover_from_dir`](crate::ShardedIndex::recover_from_dir)
/// found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Covered LSN of the checkpoint generation that restored.
    pub checkpoint_lsn: u64,
    /// LSN of the last intact WAL record (0 when the log is empty); the
    /// recovered state is exactly the quiescent replay of records
    /// `1..=last_lsn` minus aborted ranges.
    pub last_lsn: u64,
    /// Mutation records replayed on top of the checkpoint.
    pub replayed_ops: u64,
    /// Mutation records skipped because an Abort record covered them
    /// (their publish was rolled back before the crash).
    pub skipped_aborted: u64,
    /// Checkpoint generations tried before one restored (1 = newest).
    pub checkpoints_tried: usize,
    /// Garbage bytes truncated off torn segment tails while opening.
    pub torn_bytes: u64,
}

/// The fleet's internal durability handle: the open WAL plus checkpoint
/// bookkeeping. Mutating calls happen under the fleet writer lock, so the
/// WAL's internal lock is never contended.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) wal: Wal,
    pub(crate) dir: PathBuf,
    pub(crate) keep_checkpoints: usize,
    /// The LSN range of a rolled-back write whose `Abort` the log refused.
    /// Nothing may be acknowledged behind those records until
    /// [`Durability::settle_owed_abort`] gets the `Abort` on record.
    owed_abort: Mutex<Option<(u64, u64)>>,
}

impl Durability {
    pub(crate) fn new(wal: Wal, dir: &Path, config: DurabilityConfig) -> Self {
        Durability {
            wal,
            dir: dir.to_path_buf(),
            keep_checkpoints: config.keep_checkpoints.max(1),
            owed_abort: Mutex::new(None),
        }
    }

    /// The WAL's metrics registry (`wal.*` counters and histograms).
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        self.wal.registry()
    }

    /// After a rollback, `range` holds records of a write the fleet never
    /// acknowledged: stamp an `Abort` (always fsync'd) over them so replay
    /// skips them. If the log refuses that too, the range stays owed — the
    /// caller already has the write's own error.
    pub(crate) fn owe_abort(&self, range: (u64, u64)) {
        *self.owed_abort.lock().expect("owed-abort lock poisoned") = Some(range);
        if let Err(err) = self.settle_owed_abort() {
            eprintln!(
                "juno-serve: failed to log rollback of WAL records {}..={}: {err}; \
                 writes are refused until it is logged",
                range.0, range.1
            );
        }
    }

    /// Logs the owed `Abort`, if there is one; every write and checkpoint
    /// calls this first, and fails with the WAL's error while it cannot.
    pub(crate) fn settle_owed_abort(&self) -> Result<()> {
        let mut owed = self.owed_abort.lock().expect("owed-abort lock poisoned");
        if let Some((from_lsn, until_lsn)) = *owed {
            self.wal.append_unsynced(&WalRecord::Abort {
                from_lsn,
                until_lsn,
            })?;
            self.wal.sync()?;
            *owed = None;
        }
        Ok(())
    }
}
