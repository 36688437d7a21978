//! The fleet's lifecycle: snapshot restore, the durability plane (WAL
//! attach, checkpoint, recovery), shadow rebuild and split/merge.
//!
//! None of these stages a mutation of its own. Restore and resize swap the
//! whole topology once everything fallible has run, inside [`guarded`];
//! recovery and the rebuild *replay* logged mutations through the write
//! path's interpreter and aborted-range filter, and the rebuild's swap is an
//! ordinary [`ShardedIndex::staged_publish`].

use super::write::{apply, guarded, inject, live_records, Staged};
use super::{check_shard_count, Shard, ShardState, ShardedIndex};
use crate::durability::{CheckpointReport, Durability, DurabilityConfig, RecoveryReport};
use crate::fault::FaultOp;
use crate::persist;
use crate::router::ShardRouter;
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, DriftReport};
use juno_common::wal::{self, Wal, WalRecord};
use std::sync::Arc;

/// The ids of `all_live` that `router` assigns to shard `s` of `num_shards`.
fn owned_by(all_live: &[u64], router: ShardRouter, num_shards: usize, s: usize) -> Vec<u64> {
    all_live
        .iter()
        .copied()
        .filter(|&id| router.route(id, num_shards) == s)
        .collect()
}

impl<I: AnnIndex + Clone> ShardedIndex<I> {
    /// Restores a fleet from snapshot bytes, using `prototype` as the engine
    /// to decode per-shard state into (any instance of the right engine
    /// type). Accepts both `SHRD` fleet snapshots and unsharded engine
    /// snapshots (which restore into a single-shard fleet).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed bytes; never panics.
    pub fn from_snapshot_bytes(prototype: I, bytes: &[u8]) -> Result<Self> {
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        fleet.restore_from_bytes(bytes)?;
        Ok(fleet)
    }

    /// Serialises the whole fleet into the `SHRD` snapshot container:
    /// a manifest section plus one sub-snapshot section per shard. The
    /// writer lock is held so the per-shard states are cross-consistent.
    ///
    /// # Errors
    ///
    /// Propagates engine snapshot errors ([`Error::Unsupported`] for
    /// engines without persistence).
    pub fn to_snapshot_bytes(&self) -> Result<Vec<u8>> {
        let _writer = self.lock_writer();
        persist::encode_fleet(&self.reader(), self.router)
    }

    /// Replaces this fleet with the state decoded from `bytes` — the
    /// inverse of [`ShardedIndex::to_snapshot_bytes`]. Unsharded engine
    /// snapshots are accepted and restore into a single-shard fleet (the
    /// router is kept). On any error the fleet is left untouched;
    /// epochs continue monotonically across a successful restore.
    ///
    /// A successful restore **detaches** any attached WAL: the restored
    /// state has no relationship to the log's op history, so continuing to
    /// append would make recovery replay nonsense. Re-attach with
    /// [`ShardedIndex::enable_wal`], which re-baselines via a fresh
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed bytes and propagates
    /// engine restore errors.
    pub fn restore_from_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        self.install(|prototype, epoch| persist::decode_fleet(bytes, None, prototype, epoch))
    }

    /// [`ShardedIndex::restore_from_bytes`] over an mmap'd snapshot file:
    /// shard engines restore **zero-copy** from their aligned regions of
    /// the map ([`juno_common::index::AnnIndex::restore_mapped`]), with hot
    /// sections faulted in lazily under `residency`. Unsharded engine
    /// snapshots restore into a single-shard fleet, also mapped.
    /// On any error the fleet is left untouched; a successful restore
    /// detaches any attached WAL, exactly like the byte-level restore.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] for malformed files and propagates
    /// engine restore errors.
    pub fn restore_from_mapped(
        &mut self,
        map: &Arc<juno_common::mmap::Mmap>,
        residency: &juno_common::mmap::ResidencyConfig,
    ) -> Result<()> {
        self.install(|prototype, epoch| {
            persist::decode_fleet(map.as_slice(), Some((map, residency)), prototype, epoch)
        })
    }

    /// The epoch restored shard states start from: past every live epoch,
    /// so readers never observe a restored state as stale.
    fn restore_base_epoch(&self) -> u64 {
        self.shard_epochs()
            .into_iter()
            .max()
            .unwrap_or(0)
            .saturating_add(1)
    }

    /// Decodes a fleet and, once it has fully validated, publishes it: the
    /// body of [`ShardedIndex::restore_from_bytes`] and
    /// [`ShardedIndex::restore_from_mapped`]. `decode` borrows the current
    /// shard 0 as its prototype — the decoders clone it per shard only after
    /// the container has validated, so a malformed snapshot is rejected
    /// without paying any engine clone.
    fn install(
        &mut self,
        decode: impl FnOnce(&I, u64) -> Result<persist::DecodedFleet<I>>,
    ) -> Result<()> {
        let decoded = decode(&self.load(0).index, self.restore_base_epoch())?;
        // Injection point: everything above is read-only, so a restore fault
        // (error or panic) leaves the live fleet untouched.
        let plan = self.fault_plan();
        guarded("fleet restore", || {
            (0..decoded.states.len()).try_for_each(|s| inject(&plan, s, FaultOp::Restore))
        })?;
        if let Some(router) = decoded.router {
            self.router = router;
        }
        self.set_topology(decoded.states.into_iter().map(Shard::new).collect());
        // The log no longer describes this fleet's history; see the doc
        // comment. (`recover_from_dir` re-attaches after its replay.)
        *self.durability.write().expect("durability lock poisoned") = None;
        Ok(())
    }

    /// Restores a fleet from a crash-safe snapshot *file* written by
    /// [`AnnIndex::save_to_path`] — the path-level counterpart of
    /// [`ShardedIndex::from_snapshot_bytes`], including the fallback to the
    /// rotated `.prev` generation when the newest file is torn or corrupt.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when no snapshot generation exists at `path`,
    /// and [`Error::Corrupted`] when none of the generations validates.
    pub fn from_snapshot_path(prototype: I, path: &std::path::Path) -> Result<Self> {
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        fleet.load_from_path(path)?;
        Ok(fleet)
    }

    /// [`ShardedIndex::from_snapshot_path`] serving the snapshot **out of
    /// core**: the file is mmap'd and each shard engine restores zero-copy
    /// from its aligned region, faulting hot sections in lazily under
    /// `residency` (see [`ShardedIndex::restore_from_mapped`]). Falls back
    /// to the rotated `.prev` generation when the newest file is torn.
    ///
    /// # Errors
    ///
    /// As [`juno_common::atomic_file::load_newest`]: [`Error::Io`] when no
    /// snapshot generation exists at `path` or one cannot be opened, and
    /// [`Error::Corrupted`] when none of the generations validates.
    pub fn from_snapshot_path_mapped(
        prototype: I,
        path: &std::path::Path,
        residency: &juno_common::mmap::ResidencyConfig,
    ) -> Result<Self> {
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        juno_common::atomic_file::load_newest(path, juno_common::mmap::Mmap::open, |map| {
            fleet.restore_from_mapped(&map, residency)
        })?;
        Ok(fleet)
    }

    /// Attaches a write-ahead log rooted at `dir` and writes a **baseline
    /// checkpoint** of the current fleet state, so the directory is
    /// immediately recoverable. From this call on, every acknowledged
    /// mutation appends its record(s) — fsync'd per
    /// `config.wal.policy` — *before* its epoch publish.
    ///
    /// The directory may be fresh or hold a previous incarnation's files;
    /// either way the baseline checkpoint written here is the new recovery
    /// root (surviving older records are covered by it and pruned on the
    /// next [`ShardedIndex::checkpoint`]). To *continue* a previous
    /// incarnation instead, use [`ShardedIndex::recover_from_dir`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when a WAL is already attached, the fleet
    /// is mapped (read-only), or the options are invalid; [`Error::Io`] on
    /// filesystem failure; [`Error::Unsupported`] for engines without
    /// snapshot support (checkpoints need [`AnnIndex::snapshot`]).
    pub fn enable_wal(
        &self,
        dir: &std::path::Path,
        config: DurabilityConfig,
    ) -> Result<CheckpointReport> {
        let _writer = self.lock_writer();
        self.ensure_global()?;
        if self.durability_handle().is_some() {
            return Err(Error::invalid_config(
                "a WAL is already attached to this fleet",
            ));
        }
        let wal = Wal::open(dir, config.wal, self.registry.clone())?;
        let durability = Arc::new(Durability::new(wal, dir, config, &self.registry));
        let report = self.checkpoint_locked(&durability)?;
        *self.durability.write().expect("durability lock poisoned") = Some(durability);
        Ok(report)
    }

    /// Writes a checkpoint: publishes a fleet snapshot via
    /// [`juno_common::atomic_file`], stamps a Checkpoint record into a
    /// freshly rotated segment (always fsync'd), then prunes the sealed
    /// segments and old checkpoint generations the snapshot covers.
    /// Recovery cost after this call is O(snapshot) + O(ops since).
    ///
    /// A crash at *any* point inside this protocol is recoverable: the
    /// snapshot file publishes atomically, the Checkpoint record is just a
    /// marker (replay filters by the snapshot's covered LSN, so
    /// not-yet-pruned segments are harmless), and pruning is pure garbage
    /// collection.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when no WAL is attached; otherwise
    /// propagates snapshot/filesystem errors. A failed checkpoint never
    /// corrupts the previous recovery point.
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let _writer = self.lock_writer();
        let durability = self.durability_handle().ok_or_else(|| {
            Error::invalid_config("no WAL attached; call enable_wal or recover_from_dir first")
        })?;
        self.checkpoint_locked(&durability)
    }

    /// The checkpoint protocol body; the caller holds the writer lock.
    fn checkpoint_locked(&self, d: &Durability) -> Result<CheckpointReport> {
        let plan = self.fault_plan();
        guarded("fleet checkpoint", || {
            // A rollback the log still owes an Abort for must be on record
            // before a snapshot claims to cover its LSNs.
            d.settle_owed_abort()?;
            let bytes = persist::encode_fleet(&self.reader(), self.router)?;
            let covered_lsn = d.wal.last_lsn();
            juno_common::atomic_file::write_atomic(
                &wal::checkpoint_path(&d.dir, covered_lsn),
                &bytes,
            )?;
            d.checkpoints.inc();
            d.checkpoint_bytes.add(bytes.len() as u64);
            // Mid-checkpoint kill point: the snapshot is durable but its
            // Checkpoint record is not yet logged.
            inject(&plan, 0, FaultOp::Checkpoint)?;
            d.wal.rotate()?;
            d.wal
                .append_unsynced(&WalRecord::Checkpoint { covered_lsn })?;
            d.wal.sync()?;
            // Mid-rotation kill point: the fresh segment (holding the
            // Checkpoint record) exists, the covered segments are not yet
            // pruned.
            inject(&plan, 0, FaultOp::Rotate)?;
            let pruned_segments = d.wal.prune_sealed_up_to(covered_lsn)?;
            let pruned_checkpoints = wal::prune_checkpoints(&d.dir, d.keep_checkpoints)?;
            Ok(CheckpointReport {
                covered_lsn,
                snapshot_bytes: bytes.len() as u64,
                pruned_segments,
                pruned_checkpoints,
            })
        })
    }

    /// Recovers a fleet from a durability directory: restores the **newest
    /// parseable checkpoint generation** (falling back through rotated and
    /// older generations when the newest is torn or corrupt), replays the
    /// WAL suffix after its covered LSN (skipping aborted ranges), and
    /// re-attaches the WAL so the recovered fleet keeps logging.
    ///
    /// The recovered fleet is **bit-identical** — ids, distance bits,
    /// id-allocator state — to a quiescent replay of the surviving op
    /// prefix, which under [`FsyncPolicy::Always`](juno_common::wal::FsyncPolicy)
    /// is every acknowledged mutation. Torn WAL tails are truncated, never
    /// fatal.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when `dir` holds no checkpoint at all (an empty or
    /// foreign directory is not silently treated as an empty fleet);
    /// [`Error::Corrupted`] when no checkpoint generation restores;
    /// propagates engine replay errors.
    pub fn recover_from_dir(
        prototype: I,
        dir: &std::path::Path,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        // Every checkpoint generation tried restores into this fleet, which
        // a failed restore leaves untouched; the WAL counts into its
        // registry. Opening first truncates torn tails, so replay below
        // reads only intact records.
        let mut fleet = Self::from_monolith(prototype, 1, ShardRouter::Hash { seed: 0 })?;
        let wal = Wal::open(dir, config.wal, fleet.registry.clone())?;
        let torn_bytes = fleet.registry.counter("wal.torn_bytes").get();

        let checkpoints = wal::list_checkpoints(dir)?;
        if checkpoints.is_empty() {
            return Err(Error::Io(format!(
                "no checkpoint found in {} (not a durability directory?)",
                dir.display()
            )));
        }
        let mut restored = None;
        let mut checkpoints_tried = 0;
        let mut last_err = None;
        for (covered_lsn, path) in checkpoints.iter().rev() {
            checkpoints_tried += 1;
            // Continuity check: replay is only sound when the surviving log
            // continues exactly where this checkpoint stops. A newer
            // checkpoint may already have pruned the segments between an
            // *older* generation and the present log — silently restoring
            // that older generation would skip the pruned ops, so such a
            // checkpoint is rejected rather than replayed across the gap.
            // (An empty suffix is fine: the snapshot alone is the state.)
            let suffix = wal.read_records_after(*covered_lsn)?;
            if let Some((first_lsn, _)) = suffix.first() {
                if *first_lsn != covered_lsn + 1 {
                    last_err = Some(Error::corrupted(format!(
                        "{}: WAL resumes at LSN {first_lsn}, not {} — the records \
                         between were pruned by a newer checkpoint",
                        path.display(),
                        covered_lsn + 1,
                    )));
                    continue;
                }
            }
            // The checkpoint's live file, then its rotated `.prev`.
            match juno_common::atomic_file::load_newest(
                path,
                |p| std::fs::read(p),
                |bytes| fleet.restore_from_bytes(&bytes),
            ) {
                Ok(()) => {
                    restored = Some((*covered_lsn, suffix));
                    break;
                }
                Err(err) => last_err = Some(err),
            }
        }
        let Some((checkpoint_lsn, records)) = restored else {
            return Err(last_err.unwrap_or_else(|| {
                Error::corrupted(format!(
                    "no checkpoint generation in {} restored",
                    dir.display()
                ))
            }));
        };

        // Replay the live suffix (records under an Abort were rolled back in
        // the previous incarnation: skipping them burns no id). Consecutive
        // inserts are staged as one batch — the interpreter applies them in
        // log order either way, so the result is state-identical to
        // replaying one by one, at a fraction of the clone cost.
        let mut replayed_ops = 0u64;
        let mut inserts: Vec<WalRecord> = Vec::new();
        for record in live_records(&records) {
            match record {
                WalRecord::Insert { .. } => inserts.push(record.clone()),
                WalRecord::Remove { id } => {
                    fleet.insert_records(std::mem::take(&mut inserts))?;
                    fleet.remove_shared(*id)?;
                }
                WalRecord::Compact => {
                    fleet.insert_records(std::mem::take(&mut inserts))?;
                    // Bit-invisible; replaying keeps the physical layout
                    // (and the dirty flags) close to the pre-crash fleet.
                    fleet.compact_all_shared()?;
                }
                // Markers for the pruning and rebuild-publish protocols; no
                // state to replay. A RebuildPublish whose checkpoint survived
                // is already reflected in the restored generation; one whose
                // checkpoint did not survive must be ignored so recovery
                // lands on the old lineage plus the replayed suffix.
                WalRecord::Checkpoint { .. }
                | WalRecord::Abort { .. }
                | WalRecord::RebuildPublish { .. } => continue,
            }
            replayed_ops += 1;
        }
        fleet.insert_records(inserts)?;
        // Every logged mutation was either replayed or sat under an Abort.
        let logged_ops = records.iter().filter(|(_, record)| {
            matches!(
                record,
                WalRecord::Insert { .. } | WalRecord::Remove { .. } | WalRecord::Compact
            )
        });
        let skipped_aborted = logged_ops.count() as u64 - replayed_ops;

        let last_lsn = wal.last_lsn();
        let durability = Arc::new(Durability::new(wal, dir, config, &fleet.registry));
        *fleet.durability.write().expect("durability lock poisoned") = Some(durability);
        Ok((
            fleet,
            RecoveryReport {
                checkpoint_lsn,
                last_lsn,
                replayed_ops,
                skipped_aborted,
                checkpoints_tried,
                torn_bytes,
            },
        ))
    }

    /// Drift signal for the fleet: shard 0's [`DriftReport`]. In global-id
    /// mode every replica receives every insert, so shard 0's EWMA and
    /// tail-fill statistics describe the whole fleet's distribution shift.
    /// `None` for engines without drift tracking.
    pub fn drift_report(&self) -> Option<DriftReport> {
        self.load(0).index.drift_report()
    }

    /// Retrains the fleet's learned structure (codebooks, centroids,
    /// calibration) **under live traffic** and swaps every shard to the
    /// fresh lineage atomically per shard. The protocol:
    ///
    /// 1. **Pin** (brief writer lock): pin a fleet snapshot and the WAL
    ///    position `start_lsn`.
    /// 2. **Train** (no locks): build a fresh full index over the pinned
    ///    live set via [`AnnIndex::rebuild_for_live`], then derive one
    ///    shadow replica per shard with [`AnnIndex::with_live_ids`].
    ///    Writers keep acknowledging into the old lineage the whole time;
    ///    readers are never blocked.
    /// 3. **Replay** (writer lock): apply the WAL suffix after `start_lsn`
    ///    to every shadow — the mutations that landed during training —
    ///    skipping aborted ranges, with the same id-lockstep check as the
    ///    live insert path.
    /// 4. **Swap**: publish each shard's shadow (epoch bumped). Pinned
    ///    readers keep serving the old lineage until they drop; an
    ///    in-process failure or panic mid-swap republishes every shard's
    ///    pre-swap state, so readers never observe a hybrid fleet.
    /// 5. **Persist** (WAL attached only): write a checkpoint of the new
    ///    lineage and stamp a fsync'd [`WalRecord::RebuildPublish`] marker.
    ///    A crash *before* the checkpoint's atomic publish recovers the old
    ///    lineage plus the full op suffix; a crash *after* recovers the new
    ///    lineage — both are exactly an acknowledged state, never a mix of
    ///    lineages.
    ///
    /// Without a WAL the whole protocol runs under the writer lock (there
    /// is no log to replay from, so writers pause during training; readers
    /// still never block).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for mapped fleets and engines without rebuild
    /// support; [`Error::InvalidConfig`] when the fleet is resized or its
    /// WAL detached while training ran (rerun the rebuild); otherwise
    /// propagates engine/WAL errors with the fleet rolled back to the old
    /// lineage. A post-swap checkpoint failure is surfaced as an error with
    /// the fleet already (consistently) on the new lineage.
    pub fn rebuild_shared(&self) -> Result<RebuildReport> {
        // Phase 1: pin the training snapshot and the WAL position under the
        // writer lock, so the snapshot is exactly the state at `start_lsn`.
        let mut writer_guard = Some(self.lock_writer());
        self.ensure_global()?;
        let pinned = self.reader();
        if !pinned.shard(0).index.supports_rebuild() {
            return Err(Error::unsupported(format!(
                "{} does not support lifecycle rebuilds",
                pinned.shard(0).index.name()
            )));
        }
        let durability = self.durability_handle();
        let start_lsn = durability.as_ref().map(|d| d.wal.last_lsn());
        if durability.is_some() {
            // With a log to replay from, training can run unlocked: release
            // the writer lock so live mutations keep flowing.
            writer_guard = None;
        }
        let plan = self.fault_plan();
        let drift_before = pinned.shard(0).index.drift_report();

        // Phase 2: train the fresh lineage over the pinned snapshot.
        let num_shards = pinned.num_shards();
        let router = self.router;
        let mut shadows: Vec<I> = guarded("fleet rebuild trainer", || {
            inject(&plan, 0, FaultOp::RebuildTrain)?;
            let all_live = pinned.live_ids();
            let fresh = pinned.shard(0).index.rebuild_for_live(&all_live)?;
            (0..num_shards)
                .map(|s| fresh.with_live_ids(&owned_by(&all_live, router, num_shards, s)))
                .collect()
        })?;
        let trained_points = pinned.len();

        // Phase 3: under the writer lock, replay what landed during
        // training and swap. Guard against the fleet changing shape (or
        // losing its WAL) while the lock was released.
        let _writer = writer_guard.take().unwrap_or_else(|| self.lock_writer());
        if self.num_shards() != num_shards {
            return Err(Error::invalid_config(
                "fleet was resized while the rebuild trained; rerun the rebuild",
            ));
        }
        match (&durability, &self.durability_handle()) {
            (None, None) => {}
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => {}
            _ => {
                return Err(Error::invalid_config(
                    "the fleet's WAL changed while the rebuild trained; rerun the rebuild",
                ))
            }
        }
        let touched: Vec<usize> = (0..num_shards).collect();
        let sites = (None, Some(FaultOp::RebuildSwap));
        let replayed_ops = self.staged_publish("fleet rebuild swap", &touched, sites, |next| {
            let mut replayed_ops = 0u64;
            if let (Some(d), Some(start)) = (&durability, start_lsn) {
                inject(&plan, 0, FaultOp::RebuildReplay)?;
                let records = d.wal.read_records_after(start)?;
                let mut replicas: Vec<(usize, &mut I)> = shadows.iter_mut().enumerate().collect();
                // Compaction is bit-invisible and the shadows are freshly
                // compacted; markers carry no state.
                for record in live_records(&records) {
                    if apply(&mut replicas, router, num_shards, record)?.is_some() {
                        replayed_ops += 1;
                    }
                }
            }
            // The swap logs nothing of its own: the sealing checkpoint below
            // is what makes the new lineage durable.
            *next = shadows;
            Ok((Staged::Changed(Vec::new()), replayed_ops))
        })?;

        // Phase 4: make the new lineage the recovery root. A crash anywhere
        // before the checkpoint's atomic rename lands recovery on the old
        // lineage + full suffix replay; after it, on the new lineage.
        let checkpoint = match &durability {
            Some(d) => {
                let report = self.checkpoint_locked(d)?;
                d.wal.append_unsynced(&WalRecord::RebuildPublish {
                    covered_lsn: report.covered_lsn,
                })?;
                d.wal.sync()?;
                Some(report)
            }
            None => None,
        };
        let drift_after = self.load(0).index.drift_report();
        Ok(RebuildReport {
            trained_points,
            replayed_ops,
            pinned_lsn: start_lsn,
            drift_before,
            drift_after,
            checkpoint,
        })
    }

    /// Repartitions the fleet to `new_count` shards by **snapshot surgery**
    /// under live reads: every global-id replica retains the dense per-id
    /// assignment and code rows for *all* ids ever allocated (tombstones
    /// included), so shard 0's replica alone can derive, via
    /// [`AnnIndex::with_live_ids`], a replica owning any id subset — no
    /// retraining, no vector I/O. The new shard vector is built off to the
    /// side and published in **one topology-pointer swap**: a reader
    /// pinning mid-resize sees the old or the new topology wholesale, and
    /// because every shard shares the same trained state and allocator, the
    /// resized fleet's search results stay bit-identical to the monolith's.
    ///
    /// With a WAL attached the resize is sealed with a checkpoint, making
    /// the new topology the recovery root; a crash before that checkpoint
    /// recovers the old topology with the same acknowledged data (topology
    /// is configuration — either generation replays the log correctly).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for a count of 0, above [`crate::MAX_SHARDS`], or
    /// equal to the current count; [`Error::Unsupported`] for mapped fleets
    /// and engines without rebuild support. On error before the swap the
    /// fleet is untouched; a post-swap checkpoint failure surfaces with the
    /// fleet already (consistently) on the new topology.
    pub fn resize_shards(&self, new_count: usize) -> Result<()> {
        let _writer = self.lock_writer();
        self.ensure_global()?;
        check_shard_count(new_count)?;
        let states = self.reader();
        if new_count == states.num_shards() {
            return Err(Error::invalid_config(format!(
                "fleet already has {new_count} shards"
            )));
        }
        if !states.shard(0).index.supports_rebuild() {
            return Err(Error::unsupported(format!(
                "{} does not support shard split/merge",
                states.shard(0).index.name()
            )));
        }
        let plan = self.fault_plan();
        let router = self.router;
        // All new states publish past every live epoch, like a restore.
        let base_epoch = self.restore_base_epoch();
        // Nothing is published inside the guard, so an error (or panic)
        // there leaves the live fleet untouched — no rollback needed.
        let new_shards = guarded("fleet resize", || {
            let all_live = states.live_ids();
            (0..new_count)
                .map(|s| {
                    // Counted on the NEW shard index.
                    inject(&plan, s, FaultOp::Split)?;
                    let owned = owned_by(&all_live, router, new_count, s);
                    let index = states.shard(0).index.with_live_ids(&owned)?;
                    Ok(Shard::new(ShardState {
                        index,
                        epoch: base_epoch,
                        id_map: None,
                    }))
                })
                .collect::<Result<Vec<_>>>()
        })?;
        self.set_topology(new_shards);
        if let Some(d) = self.durability_handle() {
            // Seal the new topology as the recovery root.
            self.checkpoint_locked(&d)?;
        }
        Ok(())
    }
}

/// The outcome of [`ShardedIndex::rebuild_shared`].
#[derive(Debug, Clone)]
pub struct RebuildReport {
    /// Live vectors in the pinned snapshot the fresh lineage trained on.
    pub trained_points: usize,
    /// Mutations that landed during training and were replayed into the
    /// shadows before the swap (always 0 without a WAL — writers were
    /// paused).
    pub replayed_ops: u64,
    /// The WAL position the training snapshot was pinned at (`None`
    /// without a WAL).
    pub pinned_lsn: Option<u64>,
    /// Shard 0's drift report at pin time (the signal that typically
    /// triggered this rebuild).
    pub drift_before: Option<DriftReport>,
    /// Shard 0's drift report after the swap — re-anchored to the fresh
    /// lineage's training distribution.
    pub drift_after: Option<DriftReport>,
    /// The checkpoint that sealed the new lineage (`None` without a WAL).
    pub checkpoint: Option<CheckpointReport>,
}
