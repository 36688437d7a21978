//! The sharded, concurrently readable serving index.
//!
//! [`ShardedIndex`] wraps `S` replicas of an [`AnnIndex`] behind per-shard
//! **epoch pointers**: each shard publishes its current state as an
//! `Arc<ShardState<I>>` guarded by an `RwLock` that is only ever held for
//! the duration of a pointer clone or swap. Readers pin a whole-fleet
//! snapshot ([`FleetReader`]) in O(S) pointer clones and then search without
//! taking any lock at all; writers stage a shard's next state off to the
//! side and publish it with a pointer swap, so readers never block on
//! insert / remove / compaction, and a pinned reader keeps observing its
//! epoch bit-identically for as long as it lives.
//!
//! # What a write stages on
//!
//! A published state is never mutated. A write stages on the **retired
//! epoch** — the state the shard's previous publish replaced — whenever
//! nothing pins it any more (no [`FleetReader`], scan-worker job, rebuild
//! pin or checkpoint encoder holds the `Arc`): the records that publish
//! applied are replayed on it through the one record interpreter, which
//! brings it level with the current state, and the new operation goes on
//! top. Otherwise — a reader still holds the epoch, there is none (first
//! write, or the last publish was a compaction sweep, a rebuild swap, a
//! resize or a restore), or it missed more records than a copy is worth —
//! the write stages on a **clone** of the current state. Which of the two
//! happened is counted, not configured (`serve.stage_reused` /
//! `serve.stage_cloned` in [`ShardedIndex::metrics`]).
//!
//! So a written-to fleet holds **two epochs per shard** — what a write used
//! to hold only while it ran — until a compaction sweep or a topology change
//! returns it to one.
//!
//! # Ownership and bit-parity
//!
//! The fleet has two construction modes with different guarantees:
//!
//! * **Global-id mode** ([`ShardedIndex::from_monolith`]) — every shard is a
//!   full replica of the monolithic index in which the points *not* owned by
//!   the shard (per the [`ShardRouter`]) are tombstoned. All replicas share
//!   the monolith's trained state (coarse centroids, PQ codebooks, threshold
//!   density maps), and every insert is applied to **every** replica — then
//!   tombstoned on the non-owners within the same atomic publish — so the
//!   id allocators and the density calibration stay in lockstep with a
//!   monolith receiving the same operations. Because each live point is
//!   scored by exactly one shard with exactly the monolith's arithmetic, the
//!   deterministic tie-by-id merge
//!   ([`juno_common::topk::merge_neighbors`]) reconstructs the monolith's
//!   ids and distance **bits** — the contract `tests/shard_parity.rs` pins.
//! * **Mapped mode** ([`ShardedIndex::from_prebuilt`]) — pre-partitioned
//!   sub-indexes with a local→global id map per shard, for engines without
//!   mutation support (Flat, HNSW, IVF-Flat). Such fleets are read-only;
//!   exact engines (Flat) still merge bit-identically to the monolith when
//!   each shard's rows ascend in global id.
//!
//! Searches gather per-shard results with
//! [`juno_common::index::SearchStats::merge_scatter`] (work counters sum,
//! wall-clock stage times take the max — the shard scans ran concurrently).
//!
//! # Plan once, scan per shard
//!
//! Replicas share trained state, so a query's front half (coarse filter,
//! RT traversal, selective LUT) comes out the same on every shard. Every
//! read path plans a batch once ([`AnnIndex::plan_batch`]) and hands the
//! [`juno_common::index::BatchPlan`] to the shard workers, which only scan
//! their own lists ([`AnnIndex::search_batch_planned`]). The plan carries a
//! stamp of the state it was computed from and each shard's engine uses it
//! only when the stamp equals its own — so a shard pinned an insert ahead of
//! the planner,
//! a shard on the other side of a half-finished rebuild, or a shard of an
//! independently trained mapped fleet plans for itself, and results stay
//! bit-identical to every shard planning alone. A shard that borrowed the
//! plan reports no front-half work; the gather adds the plan's counters
//! once.
//!
//! # Failure model
//!
//! The exact paths above treat any shard error as fatal to the request. The
//! **degraded read path** ([`FleetReader::search_deadline`] /
//! [`FleetReader::search_batch_deadline`]) instead treats shards as
//! independently failable: each shard scan runs on a worker of its own from
//! the fleet's scan-worker pool (`workers`: a parked thread when one is
//! free, a new one otherwise — never queued behind another scan), transient
//! errors are retried per [`crate::health::RetryPolicy`], shards
//! whose [`crate::health::CircuitBreaker`] is open are skipped outright, and
//! whatever has not answered by the deadline is abandoned. The caller gets a
//! [`DegradedResult`]: the merged top-k over the responsive shards, a
//! [`ShardStatus`] per shard, and the covered fraction. With every shard
//! healthy the merged output is bit-identical to [`FleetReader::search`].
//!
//! Writer paths degrade differently — they roll back. Every write runs one
//! protocol (settle → pin → stage → log → publish): a failure (or worker
//! panic) anywhere in it republishes every touched shard's pre-op state and
//! stamps an Abort over whatever reached the log, so readers never observe a
//! half-applied batch and replay never resurrects one. All failure points
//! are instrumented for deterministic chaos testing via
//! [`crate::fault::FaultPlan`].
//!
//! # Where things live
//!
//! This file holds the topology ([`ShardedIndex`], its epoch pointers,
//! constructors and [`AnnIndex`] impl); `read` the [`FleetReader`] paths;
//! `workers` the threads the degraded read path scans on; `write` the
//! writer protocol behind insert / remove / compact; `lifecycle`
//! restore, the WAL plane, rebuild and split/merge; `background` the
//! compactor and rebuilder threads.
//!
//! # One registry
//!
//! The fleet owns one metrics [`Registry`], and everything that serves it
//! counts there: the [`crate::Server`]'s `serve.*`, the WAL's `wal.*`, the
//! write path's stage counts, the scan workers, the breakers and the
//! background threads' `lifecycle.*`. Each owner resolves its handles once,
//! when it is built, so no hot path takes the registry's lock;
//! [`ShardedIndex::metrics`] reads all of it in one snapshot.

mod background;
mod lifecycle;
mod read;
mod workers;
mod write;

pub use background::{BackgroundCompactor, RebuildPolicy, Rebuilder};
pub use lifecycle::RebuildReport;
pub use read::{DegradedBatch, DegradedResult, FleetReader, ShardStatus};

use crate::durability::Durability;
use crate::fault::FaultPlan;
use crate::health::{BreakerConfig, BreakerState, HealthTracker, RetryPolicy};
use crate::router::{ShardRouter, MAX_SHARDS};
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, SearchResult};
use juno_common::metrics::{Counter, Registry, RegistrySnapshot};
use juno_common::topk::ScoreOrder;
use juno_common::vector::VectorSet;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use workers::ScanWorkers;
use write::Applied;

/// One published shard state: the index, the epoch that published it, and
/// (mapped fleets only) the local→global id translation.
#[derive(Debug, Clone)]
pub struct ShardState<I> {
    index: I,
    epoch: u64,
    id_map: Option<Arc<Vec<u64>>>,
}

impl<I: AnnIndex> ShardState<I> {
    /// The shard's index at this epoch.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The epoch counter this state was published at (starts at 0, bumps on
    /// every publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The epoch a shard's last publish replaced, kept for the next write to
/// stage on (see the module docs). Invariant: `state` with `missed`
/// applied is the shard's current state.
#[derive(Debug)]
struct Retired<I> {
    state: Arc<ShardState<I>>,
    /// What the publish that retired `state` applied, in order. One
    /// allocation shared by every shard that publish touched.
    missed: Arc<Vec<Applied>>,
}

/// A shard slot: the lock is held only to clone or swap the `Arc`, never
/// across a search or a mutation.
#[derive(Debug)]
struct Shard<I> {
    slot: RwLock<Arc<ShardState<I>>>,
    /// At most one retired epoch, read and written only under the fleet
    /// writer lock (the mutex is for `&self` access, never contended).
    retired: Mutex<Option<Retired<I>>>,
    /// Set by mutations (tails / tombstones may exist), cleared by a
    /// compaction sweep: lets [`ShardedIndex::compact_all_shared`] skip the
    /// stage-and-publish of shards with nothing to compact. Atomic so
    /// writers flag it under the fleet writer lock without touching `slot`.
    dirty: AtomicBool,
}

impl<I> Shard<I> {
    /// `dirty` starts `true` for global-id shards, whose engine may hold
    /// uncompacted state (fresh replicas, restored tails and tombstones),
    /// and `false` for read-only mapped shards, which never have anything
    /// to compact.
    fn new(state: ShardState<I>) -> Self {
        Self {
            dirty: AtomicBool::new(state.id_map.is_none()),
            slot: RwLock::new(Arc::new(state)),
            retired: Mutex::new(None),
        }
    }

    fn load(&self) -> Arc<ShardState<I>> {
        self.slot.read().expect("shard slot lock poisoned").clone()
    }

    /// Swaps the epoch pointer. Taking the `Arc` lets a rollback restore the
    /// exact pre-op state (epoch included), not a bumped copy.
    fn publish(&self, state: Arc<ShardState<I>>) {
        *self.slot.write().expect("shard slot lock poisoned") = state;
    }

    /// Replaces the retired epoch, returning the one it held.
    fn retire(&self, retired: Option<Retired<I>>) -> Option<Retired<I>> {
        let mut slot = self.retired.lock().expect("retired epoch lock poisoned");
        std::mem::replace(&mut *slot, retired)
    }
}

/// A sharded ANN index with snapshot-isolated concurrent reads and
/// stage-and-publish writes. See the module docs for the concurrency
/// and parity model.
#[derive(Debug)]
pub struct ShardedIndex<I: AnnIndex> {
    /// The fleet topology, itself behind an epoch pointer: resize
    /// ([`ShardedIndex::resize_shards`]) publishes a whole new shard vector
    /// in one pointer swap, so a reader pinning mid-resize sees the old or
    /// the new topology wholesale — never a mix. The lock is held only to
    /// clone or swap the `Arc`; every topology mutation additionally holds
    /// the fleet writer lock.
    shards: RwLock<Arc<Vec<Shard<I>>>>,
    router: ShardRouter,
    /// Serialises writers (and fleet-consistent snapshots). Readers never
    /// take it.
    writer: Mutex<()>,
    /// Per-shard circuit breakers + retry policy, shared with every reader.
    /// Interior-mutable tuning lives inside the tracker
    /// ([`HealthTracker::reconfigure`]); the outer `RwLock` only exists so
    /// a shard-count change can swap in a tracker of the right shape
    /// through `&self`.
    health: RwLock<Arc<HealthTracker>>,
    /// The threads degraded reads scan on, shared with every reader; the
    /// last clone to drop closes the pool.
    workers: Arc<ScanWorkers>,
    /// Chaos-testing fault plan (`None` in production). Behind its own lock
    /// so tests can attach/detach plans without a writer handle.
    fault: RwLock<Option<Arc<FaultPlan>>>,
    /// The durability plane (`None` until [`ShardedIndex::enable_wal`] or
    /// [`ShardedIndex::recover_from_dir`] attaches one). Mutations consult
    /// it under the writer lock; the `RwLock` only exists so attachment
    /// does not need `&mut self`.
    durability: RwLock<Option<Arc<Durability>>>,
    /// The fleet's one metrics registry; see the module docs.
    registry: Arc<Registry>,
    /// Shard engines writes staged on a retired epoch, caught up from the
    /// records it missed, and on a clone of the current state. Clones are
    /// expected for the first write and after every compaction sweep,
    /// rebuild or resize; clones growing with *every* write mean something
    /// pins retired epochs — a leaked [`FleetReader`], a stalled scan.
    stage_reused: Arc<Counter>,
    stage_cloned: Arc<Counter>,
}

impl<I: AnnIndex> ShardedIndex<I> {
    /// Assembles a fleet around validated shards with default health tuning
    /// and a registry of its own.
    fn assemble(shards: Vec<Shard<I>>, router: ShardRouter) -> Self {
        let registry = Arc::new(Registry::new());
        let health = Arc::new(HealthTracker::new(
            shards.len(),
            BreakerConfig::default(),
            RetryPolicy::default(),
            registry.counter("serve.breaker_transitions"),
        ));
        Self {
            workers: Arc::new(ScanWorkers::new(shards.len(), &registry)),
            shards: RwLock::new(Arc::new(shards)),
            router,
            writer: Mutex::new(()),
            health: RwLock::new(health),
            fault: RwLock::new(None),
            durability: RwLock::new(None),
            stage_reused: registry.counter("serve.stage_reused"),
            stage_cloned: registry.counter("serve.stage_cloned"),
            registry,
        }
    }

    /// Pins the current topology (O(1) pointer clone). Stable for the whole
    /// pinned lifetime: a concurrent resize publishes a *new* vector rather
    /// than mutating this one.
    fn topology(&self) -> Arc<Vec<Shard<I>>> {
        self.shards.read().expect("topology lock poisoned").clone()
    }

    /// Publishes a new topology (resize / restore paths; caller holds the
    /// fleet writer lock or `&mut self`). A changed shard count also swaps in
    /// a fresh health tracker of that shape with the current tuning (all
    /// breakers closed): pinned readers keep their own tracker, so they
    /// never index a breaker out of range. The scan-worker pool follows the
    /// count in place.
    fn set_topology(&self, shards: Vec<Shard<I>>) {
        let mut health = self.health.write().expect("health lock poisoned");
        if health.num_shards() != shards.len() {
            *health = Arc::new(health.resized(shards.len()));
            self.workers.set_num_shards(shards.len());
        }
        *self.shards.write().expect("topology lock poisoned") = Arc::new(shards);
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.topology().len()
    }

    /// The id router partitioning ownership across shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Attaches (or with `None`, detaches) a chaos-testing fault plan. New
    /// readers pin the plan current at [`ShardedIndex::reader`] time; writer
    /// paths consult the live plan per operation.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault.write().expect("fault plan lock poisoned") = plan;
    }

    /// The currently attached fault plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault.read().expect("fault plan lock poisoned").clone()
    }

    /// Takes the fleet writer lock: every mutation and every
    /// fleet-consistent snapshot holds it for its whole protocol.
    fn lock_writer(&self) -> MutexGuard<'_, ()> {
        self.writer.lock().expect("fleet writer lock poisoned")
    }

    fn durability_handle(&self) -> Option<Arc<Durability>> {
        self.durability
            .read()
            .expect("durability lock poisoned")
            .clone()
    }

    /// Whether a write-ahead log is attached (mutations are durable).
    pub fn wal_enabled(&self) -> bool {
        self.durability_handle().is_some()
    }

    /// The fleet's registry, for the owners that count into it.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Point-in-time snapshot of every metric the fleet keeps (see the
    /// module docs): the `serve.*`, `wal.*` and `lifecycle.*`
    /// families. Sets the gauges sampled at read time, such as
    /// `serve.scan_workers_parked`, first.
    pub fn metrics(&self) -> RegistrySnapshot {
        self.workers.sample_parked();
        self.registry.snapshot()
    }

    /// The same snapshot as [`ShardedIndex::metrics`]. Kept under this name
    /// because the performance ledger reads its `wal.*` counters through
    /// it.
    pub fn wal_metrics(&self) -> RegistrySnapshot {
        self.metrics()
    }

    /// The LSN of the last appended WAL record (`None` without a WAL).
    pub fn wal_last_lsn(&self) -> Option<u64> {
        self.durability_handle().map(|d| d.wal.last_lsn())
    }

    /// The shared health tracker (per-shard breakers + retry policy).
    pub fn health(&self) -> Arc<HealthTracker> {
        self.health.read().expect("health lock poisoned").clone()
    }

    /// Snapshot of every shard's circuit-breaker state.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.health().breaker_states()
    }

    /// Replaces the health tuning **in place**: every breaker restarts
    /// fresh (all-closed) with the new config. Works through `&self` on a
    /// live shared fleet (`Arc<ShardedIndex>`); existing readers share the
    /// same tracker, so they pick the new tuning up immediately.
    pub fn configure_health(&self, breaker: BreakerConfig, retry: RetryPolicy) {
        self.health().reconfigure(breaker, retry);
    }

    fn load(&self, s: usize) -> Arc<ShardState<I>> {
        self.topology()[s].load()
    }

    /// Pins a point-in-time view of the fleet (O(S) pointer clones; never
    /// blocks behind an in-flight mutation). Per shard the view is exactly
    /// one published epoch; a writer publishing between two shard pins can
    /// skew epochs *across* shards, which is harmless because every point is
    /// live in at most one shard at every published epoch — and because a
    /// shard pinned an insert ahead of (or behind) the shard that plans a
    /// batch has a different plan stamp, refuses the shared plan and plans
    /// from its own epoch's state.
    pub fn reader(&self) -> FleetReader<I> {
        let shards = self.topology();
        FleetReader {
            states: shards.iter().map(Shard::load).collect(),
            health: self.health(),
            workers: self.workers.clone(),
            fault: self.fault_plan(),
        }
    }

    /// The current published epoch of every shard.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.reader().epochs()
    }

    /// Builds a read-only fleet from pre-partitioned sub-indexes, each with
    /// a local→global id map (`map[local_id] = global_id`). This is the mode
    /// for engines without mutation support; searches translate ids before
    /// the merge. For boundary-tie parity with a monolith, each shard's rows
    /// should ascend in global id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `parts` is empty or oversized,
    /// the shards disagree on dim/metric, a map's length does not match its
    /// index, or global ids collide across shards.
    pub fn from_prebuilt(parts: Vec<(I, Vec<u64>)>, router: ShardRouter) -> Result<Self> {
        check_shard_count(parts.len())?;
        let dim = parts[0].0.dim();
        let metric = parts[0].0.metric();
        let mut all_ids: Vec<u64> = Vec::new();
        for (s, (index, map)) in parts.iter().enumerate() {
            if index.dim() != dim || index.metric() != metric {
                return Err(Error::invalid_config(format!(
                    "shard {s} disagrees on dim/metric with shard 0"
                )));
            }
            if index.len() != map.len() {
                return Err(Error::invalid_config(format!(
                    "shard {s}: id map covers {} ids for {} indexed vectors",
                    map.len(),
                    index.len()
                )));
            }
            all_ids.extend_from_slice(map);
        }
        all_ids.sort_unstable();
        if all_ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::invalid_config(
                "global ids collide across prebuilt shards",
            ));
        }
        let shards = parts
            .into_iter()
            .map(|(index, map)| {
                Shard::new(ShardState {
                    index,
                    epoch: 0,
                    id_map: Some(Arc::new(map)),
                })
            })
            .collect();
        Ok(Self::assemble(shards, router))
    }

    /// Returns an error unless the fleet is in global-id mode (mutation is
    /// undefined for mapped, pre-partitioned fleets).
    fn ensure_global(&self) -> Result<()> {
        if self.load(0).id_map.is_some() {
            return Err(Error::unsupported(
                "mapped (pre-partitioned) sharded fleets are read-only",
            ));
        }
        Ok(())
    }
}

impl<I: AnnIndex + Clone> ShardedIndex<I> {
    /// Builds a global-id fleet by replicating a monolithic index and
    /// tombstoning, in each replica, every id the router assigns elsewhere
    /// (followed by a per-shard compaction, so each shard physically scans
    /// only its own points). All replicas share the monolith's trained
    /// state, which is what makes scatter-gather results bit-identical to
    /// the monolith.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a shard count of 0 or above
    /// [`MAX_SHARDS`], [`Error::Unsupported`] when `num_shards > 1` and the
    /// engine cannot tombstone, and propagates engine removal errors.
    pub fn from_monolith(monolith: I, num_shards: usize, router: ShardRouter) -> Result<Self> {
        check_shard_count(num_shards)?;
        if num_shards > 1 && !monolith.supports_mutation() {
            return Err(Error::unsupported(format!(
                "{} cannot tombstone, so it shards via ShardedIndex::from_prebuilt only",
                monolith.name()
            )));
        }
        let ids = monolith.ids();
        let mut shards = Vec::with_capacity(num_shards);
        let mut monolith = Some(monolith);
        for s in 0..num_shards {
            let mut replica = if s + 1 == num_shards {
                monolith.take().expect("monolith consumed once")
            } else {
                monolith.as_ref().expect("monolith live").clone()
            };
            if num_shards > 1 {
                for &id in &ids {
                    if router.route(id, num_shards) != s {
                        replica.remove(id)?;
                    }
                }
                replica.compact()?;
            }
            shards.push(Shard::new(ShardState {
                index: replica,
                epoch: 0,
                id_map: None,
            }));
        }
        Ok(Self::assemble(shards, router))
    }
}

/// A fleet has between 1 and [`MAX_SHARDS`] shards.
fn check_shard_count(num_shards: usize) -> Result<()> {
    if num_shards == 0 {
        return Err(Error::invalid_config("a fleet needs at least one shard"));
    }
    if num_shards > MAX_SHARDS {
        return Err(Error::invalid_config(format!(
            "at most {MAX_SHARDS} shards are supported"
        )));
    }
    Ok(())
}

/// Internal constructor used by the persistence decoder.
pub(crate) fn shard_state<I>(index: I, epoch: u64, id_map: Option<Arc<Vec<u64>>>) -> ShardState<I> {
    ShardState {
        index,
        epoch,
        id_map,
    }
}

/// Internal accessor used by the persistence encoder.
pub(crate) fn state_id_map<I>(state: &ShardState<I>) -> Option<&Arc<Vec<u64>>> {
    state.id_map.as_ref()
}

impl<I: AnnIndex + Clone> AnnIndex for ShardedIndex<I> {
    fn metric(&self) -> juno_common::Metric {
        self.load(0).index.metric()
    }

    fn dim(&self) -> usize {
        self.load(0).index.dim()
    }

    fn len(&self) -> usize {
        self.reader().len()
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        self.reader().search(query, k)
    }

    fn search_batch(&self, queries: &VectorSet, k: usize) -> Result<Vec<SearchResult>> {
        self.reader().search_batch(queries, k)
    }

    fn search_batch_threads(
        &self,
        queries: &VectorSet,
        k: usize,
        num_threads: usize,
    ) -> Result<Vec<SearchResult>> {
        self.reader().search_batch_threads(queries, k, num_threads)
    }

    fn supports_mutation(&self) -> bool {
        let first = self.load(0);
        first.id_map.is_none() && first.index.supports_mutation()
    }

    fn supports_snapshot(&self) -> bool {
        self.load(0).index.supports_snapshot()
    }

    fn insert(&mut self, vector: &[f32]) -> Result<u64> {
        self.insert_shared(vector)
    }

    fn remove(&mut self, id: u64) -> Result<bool> {
        self.remove_shared(id)
    }

    fn compact(&mut self) -> Result<()> {
        self.compact_all_shared()
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        self.to_snapshot_bytes()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        self.restore_from_bytes(bytes)
    }

    fn merge_order(&self) -> ScoreOrder {
        self.load(0).index.merge_order()
    }

    /// Simulates through the first shard. Shards split from one index share
    /// the trained state the front half reads, so each would trace the same
    /// rays; the candidates are the merged result's.
    fn simulate(&self, query: &[f32], result: &SearchResult) -> Result<SearchResult> {
        self.load(0).index.simulate(query, result)
    }

    fn ids(&self) -> Vec<u64> {
        self.reader().live_ids()
    }

    fn name(&self) -> String {
        format!(
            "Sharded{}x[{}]",
            self.num_shards(),
            self.load(0).index.name()
        )
    }
}
