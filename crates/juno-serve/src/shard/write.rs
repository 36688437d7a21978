//! The writer protocol, stated once.
//!
//! Every operation that changes what readers see — insert, remove,
//! compaction, the rebuild swap — is one [`ShardedIndex::staged_publish`]
//! under the fleet writer lock: **settle** an `Abort` an earlier rollback
//! still owes the log, **pin** the touched shards' pre-op `Arc`s, **stage**
//! their next engines off to the side, **log** the records that replay to
//! the same change, **publish** shard by shard — and on any error or panic
//! **roll back**: republish every pin (same `Arc`, same epoch) and stamp an
//! `Abort` over whatever was logged, so readers never observe a half-applied
//! operation and replay never resurrects one. Everything fallible runs
//! inside [`guarded`], the only writer-side unwind boundary.
//!
//! The engine a shard's next state is staged on is the epoch its last
//! publish retired, caught up by replaying the records that publish applied
//! — when no reader pins that epoch and it missed few enough records — and a
//! clone of the pin otherwise ([`ShardedIndex::stage_engine`]). A publish
//! whose change *is* the replay of its records retires the pins it replaced;
//! any other publish, and every rollback, leaves the touched shards with no
//! retired epoch, so the write after it clones.
//!
//! A logged mutation has one meaning, [`apply`], shared by live staging,
//! the retired epoch's catch-up, recovery replay and the rebuild's shadow
//! replay; the last two read a log suffix through [`live_records`], the one
//! aborted-range filter.
//!
//! Every failure point is an injection point of [`crate::fault::FaultPlan`];
//! their per-`(shard, op)` order is part of the protocol (seeded kill points
//! index the counters).

use super::{Retired, Shard, ShardState, ShardedIndex};
use crate::fault::{FaultOp, FaultPlan};
use crate::router::ShardRouter;
use juno_common::error::{Error, Result};
use juno_common::index::AnnIndex;
use juno_common::parallel;
use juno_common::vector::VectorSet;
use juno_common::wal::WalRecord;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Runs `f` with panics confined to it: a panic surfaces as
/// [`Error::WorkerPanicked`] carrying `label`, and whatever lock the caller
/// holds is released unpoisoned.
pub(super) fn guarded<T>(label: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(Error::worker_panicked(format!(
            "{label}: {}",
            parallel::panic_message(&*payload)
        )))
    })
}

/// Fires the `(shard, op)` injection point of `plan`, when one is attached.
pub(super) fn inject(plan: &Option<Arc<FaultPlan>>, shard: usize, op: FaultOp) -> Result<()> {
    plan.as_ref().map_or(Ok(()), |plan| plan.inject(shard, op))
}

/// A record a stage applied, with the id [`apply`] returned for it.
pub(super) type Applied = (WalRecord, Option<u64>);

/// What a stage made of the engines it was handed.
pub(super) enum Staged {
    /// The engines are the shards' next states, and these records replay to
    /// the same change (none for a change the log does not carry: a
    /// compaction sweep, the rebuild swap).
    Changed(Vec<Applied>),
    /// Nothing to change: the engines still equal the pins, and nothing is
    /// logged or published.
    Unchanged,
}

/// Catching a retired epoch up costs one engine insert per record it
/// missed, a clone one copy per point; this is the ledger's
/// `engine.insert_us` over `engine.clone_ms` per point. A shard with fewer
/// points per missed record than this is cheaper to clone — so a single
/// insert after a bulk batch never re-applies the bulk.
const CLONE_POINTS_PER_MISSED_RECORD: usize = 450;

/// The one interpreter of a logged mutation. `replicas` pairs each engine
/// with its shard index. An `Insert` goes to **every** replica — they must
/// all allocate the same id, which is checked — and is tombstoned on each
/// replica the router does not make its owner; a `Remove` goes to the owner
/// (the others already hold the id as a tombstone). `Compact` and the
/// bookkeeping records carry no replica state. Returns the id the record
/// made live or dead, `None` when it changed nothing.
pub(super) fn apply<I: AnnIndex>(
    replicas: &mut [(usize, &mut I)],
    router: ShardRouter,
    num_shards: usize,
    record: &WalRecord,
) -> Result<Option<u64>> {
    match record {
        WalRecord::Insert { vector } => {
            let mut allocated = None;
            for (s, replica) in replicas.iter_mut() {
                let id = replica.insert(vector)?;
                let first = *allocated.get_or_insert(id);
                if first != id {
                    return Err(Error::invalid_config(format!(
                        "shard {s} allocated id {id} where the first replica allocated \
                         {first}; replicas have diverged"
                    )));
                }
                if router.route(id, num_shards) != *s {
                    replica.remove(id)?;
                }
            }
            Ok(allocated)
        }
        WalRecord::Remove { id } => {
            let owner = router.route(*id, num_shards);
            for (s, replica) in replicas.iter_mut() {
                if *s == owner && replica.remove(*id)? {
                    return Ok(Some(*id));
                }
            }
            Ok(None)
        }
        WalRecord::Compact
        | WalRecord::Checkpoint { .. }
        | WalRecord::Abort { .. }
        | WalRecord::RebuildPublish { .. } => Ok(None),
    }
}

/// The records of a log suffix that replay: every record outside the LSN
/// ranges the suffix's own `Abort` records cover (ranges are collected
/// first, so an `Abort` logged after later writes still counts).
pub(super) fn live_records(records: &[(u64, WalRecord)]) -> impl Iterator<Item = &WalRecord> {
    let aborted: Vec<(u64, u64)> = records
        .iter()
        .filter_map(|(_, record)| match record {
            WalRecord::Abort {
                from_lsn,
                until_lsn,
            } => Some((*from_lsn, *until_lsn)),
            _ => None,
        })
        .collect();
    records
        .iter()
        .filter(move |(lsn, _)| {
            !aborted
                .iter()
                .any(|&(from, until)| (from..=until).contains(lsn))
        })
        .map(|(_, record)| record)
}

impl<I: AnnIndex + Clone> ShardedIndex<I> {
    /// The writer protocol (see the [module docs](self)); the caller holds
    /// the fleet writer lock. `sites` names the injection points: the op
    /// fired before each touched shard's staging engine is taken — its
    /// retired epoch caught up, or a clone of its pin — (`None`: nothing is
    /// taken, the stage supplies the engines), and the op fired before each
    /// shard's pointer swap. `stage` turns those engines into the shards'
    /// next engines, in `touched` order, and returns what it
    /// [made of them](Staged) plus the operation's value.
    ///
    /// # Errors
    ///
    /// Whatever `stage`, the WAL or an injected fault returned, or
    /// [`Error::WorkerPanicked`] — in every case with all of `touched` back
    /// on their pre-op states and holding no retired epoch.
    pub(super) fn staged_publish<T>(
        &self,
        label: &str,
        touched: &[usize],
        (stage_op, publish_op): (Option<FaultOp>, Option<FaultOp>),
        stage: impl FnOnce(&mut Vec<I>) -> Result<(Staged, T)>,
    ) -> Result<T> {
        let durability = self.durability_handle();
        if let Some(d) = &durability {
            d.settle_owed_abort()?;
        }
        let plan = self.fault_plan();
        // The writer lock excludes a resize: this one pinned vector is the
        // topology for the whole operation.
        let shards = self.topology();
        let pins: Vec<Arc<ShardState<I>>> = touched.iter().map(|&s| shards[s].load()).collect();
        // What this operation has put in the log so far — tracked per append,
        // so a rollback covers a batch that failed halfway through logging.
        let mut logged: Option<(u64, u64)> = None;
        let outcome = guarded(label, || {
            let mut next = Vec::with_capacity(touched.len());
            let mut caught_up = Vec::with_capacity(touched.len());
            if let Some(op) = stage_op {
                for (&s, pin) in touched.iter().zip(&pins) {
                    inject(&plan, s, op)?;
                    let (engine, reused) = self.stage_engine(s, &shards, pin);
                    next.push(engine);
                    caught_up.push(reused);
                }
            }
            let (staged, value) = stage(&mut next)?;
            assert_eq!(next.len(), touched.len(), "{label}: one engine per shard");
            let Staged::Changed(applied) = staged else {
                // A caught-up engine that was not changed still equals its
                // shard's pin: hand it back as the retired epoch, with
                // nothing missed. (A clone is dropped, as it always was.)
                let missed = Arc::new(Vec::new());
                let engines = touched.iter().zip(&pins).zip(next).zip(caught_up);
                for (((&s, pin), index), reused) in engines {
                    if reused {
                        let state = Arc::new(ShardState {
                            index,
                            epoch: pin.epoch,
                            id_map: None,
                        });
                        let missed = missed.clone();
                        shards[s].retire(Some(Retired { state, missed }));
                    }
                }
                return Ok(value);
            };
            if let Some(d) = durability.as_ref().filter(|_| !applied.is_empty()) {
                for (record, _) in &applied {
                    let lsn = d.wal.append_unsynced(record)?;
                    logged = Some((logged.map_or(lsn, |(first, _)| first), lsn));
                }
                // The post-append/pre-sync kill point (fleet-level: shard 0
                // counters).
                inject(&plan, 0, FaultOp::WalAppend)?;
                d.wal.maybe_sync()?;
            }
            // Only a change that is the replay of its records can be caught
            // up from them.
            let missed = (stage_op.is_some() && !applied.is_empty()).then(|| Arc::new(applied));
            for ((&s, pin), index) in touched.iter().zip(&pins).zip(next) {
                if let Some(op) = publish_op {
                    // The pre-publish kill point: the shards before `s` are
                    // already live on their new epoch when this fires.
                    inject(&plan, s, op)?;
                }
                let state = ShardState {
                    index,
                    epoch: pin.epoch + 1,
                    id_map: None,
                };
                shards[s].publish(Arc::new(state));
                // A published change may have left tails or tombstones.
                shards[s].dirty.store(true, Ordering::Relaxed);
                shards[s].retire(missed.as_ref().map(|missed| Retired {
                    state: pin.clone(),
                    missed: missed.clone(),
                }));
            }
            Ok(value)
        });
        if outcome.is_err() {
            for (&s, pin) in touched.iter().zip(pins) {
                shards[s].publish(pin);
                shards[s].retire(None);
            }
            if let (Some(d), Some(range)) = (durability, logged) {
                d.owe_abort(range);
            }
        }
        outcome
    }

    /// The engine shard `s`'s next state is staged on, and whether it is the
    /// shard's retired epoch caught up to `pin` (when that is possible and
    /// worth it) rather than a clone of `pin`. Either way the shard is left
    /// with no retired epoch.
    fn stage_engine(&self, s: usize, shards: &[Shard<I>], pin: &ShardState<I>) -> (I, bool) {
        let worth_it = |retired: &Retired<I>| {
            let missed = retired.missed.len();
            missed.saturating_mul(CLONE_POINTS_PER_MISSED_RECORD) <= pin.index.len()
        };
        let retired = shards[s].retire(None).filter(worth_it);
        match retired.and_then(|retired| self.catch_up(s, shards.len(), retired)) {
            Some(engine) => {
                self.stage_reused.fetch_add(1, Ordering::Relaxed);
                (engine, true)
            }
            None => {
                self.stage_cloned.fetch_add(1, Ordering::Relaxed);
                (pin.index.clone(), false)
            }
        }
    }

    /// Replays on a retired epoch the records it missed. `None` when
    /// something still pins the epoch, or the replay fails or allocates
    /// other ids than the publish that retired it did.
    fn catch_up(&self, s: usize, num_shards: usize, retired: Retired<I>) -> Option<I> {
        let mut engine = Arc::try_unwrap(retired.state).ok()?.index;
        let mut replica = [(s, &mut engine)];
        for (record, id) in retired.missed.iter() {
            if apply(&mut replica, self.router, num_shards, record).ok()? != *id {
                return None;
            }
        }
        Some(engine)
    }

    /// Inserts one vector, routed to its owning shard. See
    /// [`ShardedIndex::insert_batch_shared`] for the publication semantics
    /// (a single-element batch).
    ///
    /// # Errors
    ///
    /// Propagates engine insertion errors; rejects mapped fleets with
    /// [`Error::Unsupported`].
    pub fn insert_shared(&self, vector: &[f32]) -> Result<u64> {
        let record = WalRecord::Insert {
            vector: vector.to_vec(),
        };
        Ok(self.insert_records(vec![record])?[0])
    }

    /// Inserts a batch of vectors through the stage-and-publish write path.
    ///
    /// Every replica receives every insert (keeping id allocation and the
    /// engines' distribution state — e.g. JUNO's threshold density maps — in
    /// lockstep with a monolith), and each vector is tombstoned on every
    /// non-owning replica **within the same publish**, so at any published
    /// epoch a point is live in at most one shard: readers can never observe
    /// a duplicate or a vanishing id mid-operation. Each shard is staged
    /// once per batch; the whole batch either publishes on every shard or —
    /// on error — on none.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. dimension mismatch) without leaving a
    /// partial batch behind: any failure — including a failure or injected
    /// kill *between per-shard publishes* — rolls every shard back to its
    /// exact pre-op state (same epoch, same `Arc`). A panic anywhere in the
    /// staging or publish loop is caught, rolled back the same way, and
    /// surfaced as [`Error::WorkerPanicked`] (the writer lock is released
    /// unpoisoned). Rejects mapped fleets with [`Error::Unsupported`].
    ///
    /// # Durability
    ///
    /// With a WAL attached ([`ShardedIndex::enable_wal`]), one Insert
    /// record per vector is appended — and fsync'd per the configured
    /// [`FsyncPolicy`](juno_common::wal::FsyncPolicy) — **before** any
    /// shard publishes, so an acknowledged batch is always recoverable. If
    /// logging or the publish loop then fails in-process, the rollback
    /// appends an Abort record covering the LSNs the batch did append, so
    /// replay skips them; should the log refuse even that, every later
    /// write (and checkpoint) first retries the Abort and fails until it is
    /// on record.
    pub fn insert_batch_shared(&self, vectors: &VectorSet) -> Result<Vec<u64>> {
        let record = |vector: &[f32]| WalRecord::Insert {
            vector: vector.to_vec(),
        };
        self.insert_records(vectors.iter().map(record).collect())
    }

    /// Stages `records` (all `Insert`s) as one batch — the live insert path,
    /// and recovery's replay of a run of logged inserts (into a fleet that
    /// has no WAL attached yet, so nothing is logged twice).
    pub(super) fn insert_records(&self, records: Vec<WalRecord>) -> Result<Vec<u64>> {
        let _writer = self.lock_writer();
        self.ensure_global()?;
        if records.is_empty() {
            return Ok(Vec::new());
        }
        let num_shards = self.num_shards();
        let touched: Vec<usize> = (0..num_shards).collect();
        let sites = (Some(FaultOp::Insert), Some(FaultOp::Publish));
        self.staged_publish("fleet insert writer", &touched, sites, |next| {
            let mut replicas: Vec<(usize, &mut I)> = next.iter_mut().enumerate().collect();
            let mut applied = Vec::with_capacity(records.len());
            for record in records {
                let id = apply(&mut replicas, self.router, num_shards, &record)?;
                applied.push((record, id));
            }
            let ids = applied
                .iter()
                .map(|(_, id)| id.expect("an insert allocates an id"))
                .collect();
            Ok((Staged::Changed(applied), ids))
        })
    }

    /// Removes the point with the given id from its owning shard
    /// (stage-and-publish; the other shards already hold it as a tombstone).
    /// Returns `Ok(true)` when the id was live.
    ///
    /// # Errors
    ///
    /// Propagates engine removal errors; rejects mapped fleets with
    /// [`Error::Unsupported`]. With a WAL attached, a Remove record is
    /// appended (and synced per policy) before the publish; a removal of a
    /// dead id mutates nothing and logs nothing.
    pub fn remove_shared(&self, id: u64) -> Result<bool> {
        let _writer = self.lock_writer();
        self.ensure_global()?;
        let num_shards = self.num_shards();
        let owner = self.router.route(id, num_shards);
        let sites = (Some(FaultOp::Insert), Some(FaultOp::Publish));
        self.staged_publish("fleet remove writer", &[owner], sites, |next| {
            let record = WalRecord::Remove { id };
            let mut replicas = [(owner, &mut next[0])];
            match apply(&mut replicas, self.router, num_shards, &record)? {
                None => Ok((Staged::Unchanged, false)), // a dead id
                id => Ok((Staged::Changed(vec![(record, id)]), true)),
            }
        })
    }

    /// Compacts every shard that has seen a mutation since its last sweep,
    /// one stage-and-publish at a time. Clean shards (including every shard
    /// of a read-only mapped fleet) are skipped without staging, so a
    /// [`BackgroundCompactor`](super::BackgroundCompactor) on an idle fleet
    /// costs nothing and publishes no epochs. Readers keep serving the
    /// pre-compaction epochs until each shard's swap; results are unchanged
    /// (compaction is bit-invisible per the engine contract).
    ///
    /// # Errors
    ///
    /// Propagates engine compaction errors, and surfaces a compaction panic
    /// as [`Error::WorkerPanicked`]; either way the failing shard keeps its
    /// pre-sweep state, is left flagged dirty so the next sweep retries it,
    /// and the writer lock is released unpoisoned.
    ///
    /// With a WAL attached, one fleet-level Compact record is appended
    /// (and synced per policy) after a sweep that compacted at least one
    /// shard. Because compaction is bit-invisible, a crash that loses the
    /// record only costs the replayed fleet a redundant sweep — never
    /// parity.
    pub fn compact_all_shared(&self) -> Result<()> {
        let _writer = self.lock_writer();
        let mut any_compacted = false;
        for (s, shard) in self.topology().iter().enumerate() {
            if !shard.dirty.load(Ordering::Relaxed) {
                continue;
            }
            let label = format!("shard {s} compaction");
            self.staged_publish(&label, &[s], (Some(FaultOp::Compact), None), |next| {
                next[0].compact()?;
                Ok((Staged::Changed(Vec::new()), ()))
            })?;
            // The sweep's own publish is the one that leaves nothing behind.
            shard.dirty.store(false, Ordering::Relaxed);
            any_compacted = true;
        }
        if let Some(d) = self.durability_handle().filter(|_| any_compacted) {
            d.wal.append_unsynced(&WalRecord::Compact)?;
            d.wal.maybe_sync()?;
        }
        Ok(())
    }
}
