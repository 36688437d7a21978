//! The seeded fleet oracle (`mod oracle;` in `fleet_oracle.rs` and
//! `crash_recovery.rs`).
//!
//! A fleet is correct when, whatever mix of writes, compactions,
//! checkpoints, rebuilds, resizes, restores, recoveries and injected faults
//! came first, it answers bit-identically to a [`JunoIndex`] monolith that
//! applied only the writes the fleet acknowledged. [`Sim`] drives one
//! WAL-attached fleet through [`Step`]s and, after every step, holds it to
//! that monolith: ids (fleet-wide and per shard), distance bits, the id
//! allocator (every insert must be handed the monolith's id), the bits of a
//! reader pinned earlier, and what each write staged on (the
//! `serve.stage_reused` / `serve.stage_cloned` counts [`StageModel`]
//! predicts).
//!
//! [`Sim::draw`] is the one generator. It draws the next step from the
//! sim's state, and with it at most one fault: a [`FaultRule`] firing once,
//! at a `(site, shard, counter)` an earlier step of the same kind was seen
//! to reach. Because the checks run after every step, the history of a
//! failing sim is already its shortest failing prefix; the sim prints it as
//! a literal to paste into `fleet_oracle.rs`' replay test.

#![allow(dead_code)] // each suite uses a subset

use crate::common::{assert_bit_identical, Stats};
use juno::common::error::Error;
use juno::common::rng::{Rng, StdRng};
use juno::common::topk::{merge_neighbors, ScoreOrder};
use juno::common::wal;
use juno::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::mem::{discriminant, Discriminant};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub const ROUTER: ShardRouter = ShardRouter::Hash { seed: 13 };
const WORLD_SEED: u64 = 0x57A6_ED00;
const POOL_ROWS: usize = 640;
const K: usize = 10;
/// An id no fleet of this size ever allocates.
pub const NEVER_ALLOCATED: u64 = 9_999_999;
/// Counter-table width of every plan: past the widest fleet a resize draws
/// (a resize counts `Split` on the new shard index).
const PLAN_SHARDS: usize = 6;
/// `shard/write.rs`' guard: a retired epoch that missed `m` records is
/// caught up when `m × 450 ≤` the shard's live points, cloned otherwise.
const CLONE_POINTS_PER_MISSED_RECORD: usize = 450;
/// A stall long enough for the writes of a concurrent rebuild to land
/// while it trains; every other stall is short.
const TRAINING_STALL: Duration = Duration::from_secs(1);

/// The fixed data every sim of one size starts from.
pub struct World {
    pub engine: JunoIndex,
    pub queries: VectorSet,
    pub pool: VectorSet,
    pub shards: usize,
}

impl World {
    /// `points` base vectors behind `shards` shards. Fleets need ≥ 450 live
    /// points a shard or every write clones and the reuse path never runs.
    pub fn new(points: usize, shards: usize) -> World {
        let ds = DatasetProfile::DeepLike
            .generate(points, 4, WORLD_SEED)
            .expect("dataset");
        let pool = DatasetProfile::DeepLike
            .generate(POOL_ROWS, 1, WORLD_SEED ^ 0xFFFF)
            .expect("pool")
            .points;
        let engine = JunoIndex::build(
            &ds.points,
            &JunoConfig {
                n_clusters: 8,
                nprobs: 4,
                pq_entries: 16,
                ..JunoConfig::small_test(ds.dim(), ds.metric())
            },
        )
        .expect("build");
        World {
            engine,
            queries: ds.queries,
            pool,
            shards,
        }
    }
}

/// Everything a fleet does, as the oracle drives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert pool row `i`.
    Insert(usize),
    /// Batch-insert pool rows `i..i + n`.
    Batch(usize, usize),
    /// Remove an id: live, dead, or never allocated.
    Remove(u64),
    Compact,
    Checkpoint,
    /// `rebuild_shared`; pool rows `i..i + n` are inserted while it trains,
    /// and the last of them removed again (the step's fault is then the
    /// training stall that makes room).
    Rebuild(usize, usize),
    /// `resize_shards` to this count.
    Resize(usize),
    /// Copy restore of the fleet's own snapshot, then WAL re-attach.
    Restore,
    /// Mapped restore of the fleet's own snapshot file, then WAL re-attach.
    RestoreMapped,
    /// Pin a reader and record its answers.
    Pin,
    /// Check the oldest pinned reader's answers once more, then drop it.
    Unpin,
    /// A deadline-aware search of query `i`.
    Search(usize),
    /// Recover a copy of the WAL directory and carry on with the recovered
    /// fleet; `true` rots the newest checkpoint generation first.
    Recover(bool),
}

/// What a fault does; [`FaultKind`] without its stall duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Stall,
    Transient,
    Fail,
    Panic,
    Crash,
}

/// The kinds a sim injects in-process.
pub const IN_PROCESS: [Kind; 4] = [Kind::Stall, Kind::Transient, Kind::Fail, Kind::Panic];

/// `(site, shard, counter, kind)`: a rule that fires once, when the
/// `(shard, site)` counter of the step's fresh plan reaches `counter`.
pub type Fault = (FaultOp, usize, u64, Kind);

/// One step of a history: an op and at most one fault.
#[derive(Clone, Copy, PartialEq)]
pub struct Step(pub Op, pub Option<Fault>);

/// Prints as the Rust expression that builds it, so a failing history
/// pastes back into a test.
impl fmt::Debug for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Step(Op::{:?}, ", self.0)?;
        match self.1 {
            None => write!(f, "None)"),
            Some((site, shard, counter, kind)) => write!(
                f,
                "Some((FaultOp::{site:?}, {shard}, {counter}, Kind::{kind:?})))"
            ),
        }
    }
}

/// A fault that fired and makes its op fail: `(site, shard, kind)`.
type Failed = Option<(FaultOp, usize, Kind)>;

fn site_index(site: FaultOp) -> usize {
    FaultOp::ALL
        .iter()
        .position(|&op| op == site)
        .expect("in ALL")
}

fn fired(plan: &FaultPlan, fault: Option<Fault>) -> bool {
    fault.is_some_and(|(site, shard, counter, _)| plan.op_count(shard, site) > counter)
}

/// The fault of `fault` that fired and fails its op (a stall delays; a
/// search fault degrades the search instead).
fn failed(plan: &FaultPlan, fault: Option<Fault>) -> Failed {
    fault
        .filter(|&(site, _, _, kind)| kind != Kind::Stall && site != FaultOp::Search)
        .filter(|_| fired(plan, fault))
        .map(|(site, shard, _, kind)| (site, shard, kind))
}

/// Whether the state a crash at `site` inside `op` leaves on disk is the
/// op's outcome (else: the state before it). A write is logged before it
/// publishes; a rebuild or resize is durable once its sealing checkpoint's
/// snapshot is. Every other op leaves the logical state alone.
pub fn durable_at(op: Op, site: FaultOp) -> bool {
    match op {
        Op::Insert(_) | Op::Batch(..) | Op::Remove(_) => {
            matches!(site, FaultOp::WalAppend | FaultOp::Publish)
        }
        Op::Rebuild(..) | Op::Resize(_) => matches!(site, FaultOp::Checkpoint | FaultOp::Rotate),
        _ => true,
    }
}

/// A reader pinned by [`Op::Pin`], with the answers it gave then.
struct Pinned {
    reader: FleetReader<JunoIndex>,
    answers: Vec<SearchResult>,
    epochs: Epochs,
}

/// What a reader pins: the model generation and each shard's epoch.
type Epochs = (u64, Vec<u64>);

#[derive(Debug, Clone, Copy)]
struct Retired {
    epoch: u64,
    missed: usize,
    /// Handed back unchanged by a write that found nothing to do: an `Arc`
    /// no slot ever held, so no reader can pin it.
    handed_back: bool,
}

/// What `staged_publish` stages each shard's next engine on: the epoch its
/// last publish retired, caught up, or a clone. Predicts the fleet's
/// `serve.stage_reused` / `serve.stage_cloned` counts op by op.
struct StageModel {
    /// Bumped whenever the fleet gets new shard slots (restore, resize,
    /// recovery): readers pinned before can pin none of the new epochs.
    generation: u64,
    retired: Vec<Option<Retired>>,
    dirty: Vec<bool>,
    reused: u64,
    cloned: u64,
    /// `(reused, cloned)` over the whole history, across recoveries.
    ever: (u64, u64),
    /// Mutation records logged, and those of them an `Abort` covers.
    log: Log,
}

/// What the log holds, cumulatively; each checkpoint is tagged with the
/// value at the time it was written.
#[derive(Debug, Clone, Copy, Default)]
struct Log {
    /// Bumped by every rebuild that swapped.
    lineage: u64,
    logged: u64,
    aborted: u64,
}

impl StageModel {
    fn new(shards: usize) -> Self {
        StageModel {
            generation: 0,
            retired: vec![None; shards],
            dirty: vec![true; shards],
            reused: 0,
            cloned: 0,
            ever: (0, 0),
            log: Log::default(),
        }
    }

    fn shards(&self) -> usize {
        self.retired.len()
    }

    /// New shard slots: nothing retired, every shard `dirty`.
    fn fresh(&mut self, shards: usize, dirty: bool) {
        self.generation += 1;
        self.retired = vec![None; shards];
        self.dirty = vec![dirty; shards];
    }

    /// Shard `s`, holding `live` points, takes a staging engine; returns
    /// whether it was the retired epoch.
    fn stage(&mut self, s: usize, live: usize, pins: &[Epochs]) -> bool {
        let generation = self.generation;
        let pinned = |r: &Retired| {
            !r.handed_back
                && pins
                    .iter()
                    .any(|(g, epochs)| *g == generation && epochs.get(s) == Some(&r.epoch))
        };
        let reused = self.retired[s]
            .take()
            .is_some_and(|r| r.missed * CLONE_POINTS_PER_MISSED_RECORD <= live && !pinned(&r));
        if reused {
            self.reused += 1;
            self.ever.0 += 1;
        } else {
            self.cloned += 1;
            self.ever.1 += 1;
        }
        reused
    }

    fn roll_back(&mut self, touched: &[usize]) {
        for &s in touched {
            self.retired[s] = None;
        }
    }

    /// A write staged on `touched`; `change`: the records it logged (`None`
    /// for a remove of a dead id). `lens` / `epochs`: every shard's before.
    fn write(
        &mut self,
        touched: &[usize],
        (lens, epochs): (&[usize], &[u64]),
        change: Option<usize>,
        failed: Failed,
        pins: &[Epochs],
    ) {
        let at = |site: FaultOp, s: usize| failed.is_some_and(|f| (f.0, f.1) == (site, s));
        let mut reused = Vec::new();
        for &s in touched {
            if at(FaultOp::Insert, s) {
                return self.roll_back(touched);
            }
            reused.push(self.stage(s, lens[s], pins));
        }
        let Some(missed) = change else {
            for (&s, reused) in touched.iter().zip(reused) {
                if reused {
                    self.retired[s] = Some(Retired {
                        epoch: epochs[s],
                        missed: 0,
                        handed_back: true,
                    });
                }
            }
            return;
        };
        self.log.logged += missed as u64;
        if failed.is_some_and(|f| f.0 == FaultOp::WalAppend) {
            self.log.aborted += missed as u64;
            return self.roll_back(touched);
        }
        for &s in touched {
            if at(FaultOp::Publish, s) {
                self.log.aborted += missed as u64;
                return self.roll_back(touched);
            }
            self.dirty[s] = true;
            self.retired[s] = Some(Retired {
                epoch: epochs[s],
                missed,
                handed_back: false,
            });
        }
    }

    fn compact(&mut self, lens: &[usize], failed: Failed, pins: &[Epochs]) {
        // A sweep that compacted something logs one record, at its end.
        self.log.logged += u64::from(failed.is_none() && self.dirty.contains(&true));
        for (s, &live) in lens.iter().enumerate() {
            if !self.dirty[s] {
                continue;
            }
            if failed.is_some_and(|f| (f.0, f.1) == (FaultOp::Compact, s)) {
                return self.roll_back(&[s]);
            }
            self.stage(s, live, pins);
            self.retired[s] = None;
            self.dirty[s] = false;
        }
    }

    fn rebuild(&mut self, failed: Failed) {
        let all: Vec<usize> = (0..self.shards()).collect();
        match failed.map(|f| (f.0, f.1)) {
            Some((FaultOp::RebuildTrain, _)) => {}
            Some((FaultOp::RebuildReplay, _)) => self.roll_back(&all),
            Some((FaultOp::RebuildSwap, at)) => {
                self.dirty[..at].fill(true);
                self.roll_back(&all);
            }
            // Swapped (a failed sealing checkpoint comes after the swap).
            _ => {
                self.roll_back(&all);
                self.dirty.fill(true);
            }
        }
    }
}

pub fn owned_by(ids: &[u64], shards: usize, s: usize) -> Vec<u64> {
    let owned = ids.iter().copied();
    owned.filter(|&id| ROUTER.route(id, shards) == s).collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

pub fn durability() -> DurabilityConfig {
    DurabilityConfig {
        // Small segments, so checkpoints prune and a fallback to an older
        // generation can find its suffix gone.
        wal: WalOptions {
            policy: FsyncPolicy::Always,
            segment_bytes: 2048,
        },
        keep_checkpoints: 2,
    }
}

/// Inserts `rows` (one call, or one batch) and holds the allocator and the
/// stage model to the monolith. Free of `Sim` so a concurrent rebuild can
/// borrow the fleet beside it.
#[allow(clippy::too_many_arguments)]
fn insert_rows(
    fleet: &ShardedIndex<JunoIndex>,
    mono: &mut JunoIndex,
    model: &mut StageModel,
    pins: &[Epochs],
    rows: &[Vec<f32>],
    batch: bool,
    plan: &FaultPlan,
    fault: Option<Fault>,
) {
    let (lens, epochs) = shard_view(fleet);
    let got = if batch {
        let set = VectorSet::from_rows(rows.to_vec()).expect("rows");
        fleet.insert_batch_shared(&set)
    } else {
        fleet.insert_shared(&rows[0]).map(|id| vec![id])
    };
    let failed = failed(plan, fault);
    expect_outcome(&got, failed);
    if let Ok(ids) = &got {
        for (row, &id) in rows.iter().zip(ids) {
            let want = mono.insert(row).expect("monolith insert");
            assert_eq!(id, want, "the fleet's id allocator left the monolith's");
        }
        let next: Vec<u64> = epochs.iter().map(|e| e + 1).collect();
        assert_eq!(
            shard_view(fleet).1,
            next,
            "a write publishes one epoch a shard"
        );
    }
    let touched: Vec<usize> = (0..lens.len()).collect();
    let change = Some(rows.len());
    model.write(&touched, (&lens, &epochs), change, failed, pins);
}

/// Removes `id` and holds the outcome, the epochs and the stage model to
/// the monolith. Returns whether a live id was removed.
fn remove_id(
    fleet: &ShardedIndex<JunoIndex>,
    mono: &mut JunoIndex,
    model: &mut StageModel,
    pins: &[Epochs],
    id: u64,
    plan: &FaultPlan,
    fault: Option<Fault>,
) -> bool {
    let (lens, epochs) = shard_view(fleet);
    let live = mono.ids().contains(&id);
    let got = fleet.remove_shared(id);
    let failed = failed(plan, fault);
    expect_outcome(&got, failed);
    let owner = ROUTER.route(id, lens.len());
    if let Ok(removed) = got {
        assert_eq!(removed, live, "remove {id}: was it live");
        assert_eq!(mono.remove(id).expect("monolith remove"), live);
        let mut next = epochs.clone();
        next[owner] += u64::from(live);
        assert_eq!(shard_view(fleet).1, next, "remove {id}: epochs");
    }
    let change = live.then_some(1);
    model.write(&[owner], (&lens, &epochs), change, failed, pins);
    got.is_ok() && live
}

/// Each shard's live points and epoch.
fn shard_view(fleet: &ShardedIndex<JunoIndex>) -> (Vec<usize>, Vec<u64>) {
    let reader = fleet.reader();
    let lens = (0..reader.num_shards()).map(|s| reader.shard(s).index().len());
    (lens.collect(), reader.epochs())
}

/// An op succeeds unless a fault that fails it fired; then it fails with
/// that fault's error.
fn expect_outcome<T: fmt::Debug>(got: &Result<T, Error>, failed: Failed) {
    match (got, failed) {
        (Ok(_), None) => {}
        (Err(Error::WorkerPanicked(_)), Some((_, _, Kind::Panic))) => {}
        (Err(Error::Unavailable(_)), Some((_, _, Kind::Transient | Kind::Fail))) => {}
        (got, failed) => panic!("outcome {got:?}, but the fault that fired was {failed:?}"),
    }
}

/// One fleet, its monolith and everything the oracle knows about both.
pub struct Sim<'w> {
    world: &'w World,
    label: String,
    fleet: ShardedIndex<JunoIndex>,
    mono: JunoIndex,
    /// Everything the sim writes lives under here.
    root: PathBuf,
    /// The live WAL directory.
    dir: PathBuf,
    files: usize,
    pins: Vec<Pinned>,
    model: StageModel,
    next_row: usize,
    removed: Vec<u64>,
    /// Each checkpoint generation (by covered LSN), tagged with what the
    /// log held when it was written.
    checkpoints: BTreeMap<u64, Log>,
    /// Per op kind, the `(site, shard, count)` triples its steps reached.
    sites: HashMap<Discriminant<Op>, BTreeSet<(usize, usize, u64)>>,
    /// `(site, kind)` pairs that fired.
    pub fired: BTreeSet<(usize, Kind)>,
    pub history: Vec<Step>,
    /// Recoveries past a rotted checkpoint: `(refused, fell back)`.
    pub rotted: (usize, usize),
    /// Draw faults, concurrent rebuilds and recoveries (a crash child's
    /// history has none of them).
    faults: bool,
    checks: bool,
}

impl<'w> Sim<'w> {
    /// A fleet of `world` with its WAL at `root/wal`. `faults`: see
    /// [`Sim::draw`]; `checks`: hold the fleet to the monolith after every
    /// step.
    pub fn new(world: &'w World, label: &str, root: PathBuf, faults: bool, checks: bool) -> Self {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("sim root");
        let dir = root.join("wal");
        let fleet =
            ShardedIndex::from_monolith(world.engine.clone(), world.shards, ROUTER).expect("fleet");
        fleet.enable_wal(&dir, durability()).expect("enable_wal");
        let mut sim = Sim {
            world,
            label: label.to_string(),
            fleet,
            mono: world.engine.clone(),
            root,
            dir,
            files: 0,
            pins: Vec::new(),
            model: StageModel::new(world.shards),
            next_row: 0,
            removed: Vec::new(),
            checkpoints: BTreeMap::new(),
            sites: HashMap::new(),
            fired: BTreeSet::new(),
            history: Vec::new(),
            rotted: (0, 0),
            faults,
            checks,
        };
        sim.tag_checkpoints();
        sim
    }

    /// The monolith: what the fleet acknowledged so far.
    pub fn mono(&self) -> &JunoIndex {
        &self.mono
    }

    pub fn num_shards(&self) -> usize {
        self.fleet.num_shards()
    }

    /// The stagings the model predicted over the whole history:
    /// `(reused, cloned)`.
    pub fn stages(&self) -> (u64, u64) {
        self.model.ever
    }

    fn pinned(&self) -> Vec<Epochs> {
        self.pins.iter().map(|pin| pin.epochs.clone()).collect()
    }

    /// The next step, drawn from the sim's state with `rng`.
    pub fn draw(&self, rng: &mut StdRng) -> Step {
        let row = self.next_row;
        let shards = self.model.shards();
        let op = match rng.gen_range(0..100u32) {
            0..=21 => Op::Insert(row),
            22..=28 => Op::Batch(row, rng.gen_range(2..=3usize)),
            29..=38 => {
                let ids = self.mono.ids();
                Op::Remove(ids[rng.gen_range(0..ids.len())])
            }
            39..=41 if !self.removed.is_empty() => {
                Op::Remove(self.removed[rng.gen_range(0..self.removed.len())])
            }
            42 => Op::Remove(NEVER_ALLOCATED),
            43..=48 => Op::Compact,
            49..=53 => Op::Checkpoint,
            54..=62 => {
                let concurrent = self.faults && rng.gen_range(0..3u32) == 0;
                Op::Rebuild(row, if concurrent { 2 } else { 0 })
            }
            63..=66 => {
                let counts: Vec<usize> = (2..=5).filter(|&n| n != shards).collect();
                Op::Resize(counts[rng.gen_range(0..counts.len())])
            }
            67..=69 => Op::Restore,
            70..=71 => Op::RestoreMapped,
            72..=76 if self.pins.len() < 2 => Op::Pin,
            77..=80 if !self.pins.is_empty() => Op::Unpin,
            81..=87 => Op::Search(rng.gen_range(0..self.world.queries.len())),
            88..=92 if self.faults => Op::Recover(self.can_rot() && rng.gen_range(0..2u32) == 0),
            _ => Op::Insert(row),
        };
        let fault = match op {
            Op::Rebuild(_, during) if during > 0 => {
                Some((FaultOp::RebuildTrain, 0, 0, Kind::Stall))
            }
            _ if self.faults => self.draw_fault(rng, op),
            _ => None,
        };
        Step(op, fault)
    }

    /// A fault at a site an earlier step of `op`'s kind reached, preferring
    /// `(site, kind)` pairs that have not fired yet.
    fn draw_fault(&self, rng: &mut StdRng, op: Op) -> Option<Fault> {
        let seen = self.sites.get(&discriminant(&op))?;
        let sites: BTreeSet<usize> = seen.iter().map(|hit| hit.0).collect();
        let pairs: Vec<(usize, Kind)> = (sites.iter())
            .flat_map(|&site| IN_PROCESS.map(|kind| (site, kind)))
            .collect();
        let fresh: Vec<(usize, Kind)> = (pairs.iter().copied())
            .filter(|pair| !self.fired.contains(pair))
            .collect();
        // Three steps in four fault while some pair this kind of op reaches
        // has not fired yet, one in four after.
        let from = match (fresh.is_empty(), rng.gen_range(0..4u32)) {
            (false, 0..=2) => &fresh,
            (true, 0) => &pairs,
            _ => return None,
        };
        if from.is_empty() {
            return None;
        }
        let (site, kind) = from[rng.gen_range(0..from.len())];
        let at: Vec<(usize, u64)> = (seen.iter())
            .filter(|hit| hit.0 == site)
            .map(|&(_, shard, count)| (shard, count))
            .collect();
        let (shard, count) = at[rng.gen_range(0..at.len())];
        Some((FaultOp::ALL[site], shard, rng.gen_range(0..count), kind))
    }

    /// Whether rotting the newest checkpoint leaves a fallback generation
    /// of the current lineage (one from before a rebuild would recover to
    /// different trained state, which the monolith cannot stand for).
    fn can_rot(&self) -> bool {
        let checkpoints = wal::list_checkpoints(&self.dir).expect("list checkpoints");
        checkpoints.len() >= 2
            && self.checkpoints[&checkpoints[checkpoints.len() - 2].0].lineage
                == self.model.log.lineage
    }

    /// Draws and runs `steps` steps from `rng`.
    pub fn run(&mut self, rng: &mut StdRng, steps: usize) {
        for _ in 0..steps {
            let step = self.draw(rng);
            self.step(step);
        }
    }

    /// Runs a pasted history.
    pub fn replay(&mut self, steps: &[Step]) {
        for &step in steps {
            self.step(step);
        }
    }

    fn fresh_path(&mut self, tag: &str) -> PathBuf {
        self.files += 1;
        self.root.join(format!("{tag}-{}", self.files))
    }

    fn rule(op: Op, (site, shard, counter, kind): Fault) -> FaultRule {
        let stall = match op {
            Op::Rebuild(_, during) if during > 0 => TRAINING_STALL,
            _ => Duration::from_millis(2),
        };
        FaultRule {
            shard,
            op: site,
            from_op: counter,
            until_op: Some(counter + 1),
            kind: match kind {
                Kind::Stall => FaultKind::Stall(stall),
                Kind::Transient => FaultKind::Transient,
                Kind::Fail => FaultKind::Fail,
                Kind::Panic => FaultKind::Panic,
                Kind::Crash => FaultKind::Crash,
            },
        }
    }

    /// Runs one step and checks the fleet. Returns the `(site, shard,
    /// count)` triples it reached.
    pub fn step(&mut self, step: Step) -> Vec<(FaultOp, usize, u64)> {
        self.history.push(step);
        let Step(op, fault) = step;
        let mut plan = FaultPlan::new(PLAN_SHARDS);
        if let Some(fault) = fault {
            plan = plan.with_rule(Self::rule(op, fault));
        }
        let plan = Arc::new(plan);
        let slots = self.slots();
        self.fleet.set_fault_plan(Some(plan.clone()));
        self.apply(op, fault, &plan);
        self.fleet.set_fault_plan(None);
        // A failed op rolls back to the very states it started from (the
        // same allocations, not copies) — except where the failure came
        // after its point of no return, or after a sweep's earlier shards.
        if let Some((site, shard, _)) = failed(&plan, fault) {
            let sealed = matches!(site, FaultOp::Checkpoint | FaultOp::Rotate);
            let kept = if op == Op::Compact { shard } else { 0 };
            if !(sealed && matches!(op, Op::Rebuild(..) | Op::Resize(_))) {
                let label = &self.label;
                assert_eq!(self.slots()[kept..], slots[kept..], "{label}: rolled back");
            }
        }

        let mut hits = Vec::new();
        for site in FaultOp::ALL {
            for s in 0..PLAN_SHARDS {
                let count = plan.op_count(s, site);
                if count > 0 {
                    hits.push((site, s, count));
                }
            }
        }
        let seen = self.sites.entry(discriminant(&op)).or_default();
        seen.extend(hits.iter().map(|&(site, s, n)| (site_index(site), s, n)));
        if let Some((site, _, _, kind)) = fault.filter(|_| fired(&plan, fault)) {
            self.fired.insert((site_index(site), kind));
        }
        self.tag_checkpoints();
        if self.checks {
            self.check();
        }
        hits
    }

    fn tag_checkpoints(&mut self) {
        for (lsn, _) in wal::list_checkpoints(&self.dir).expect("list checkpoints") {
            self.checkpoints.entry(lsn).or_insert(self.model.log);
        }
    }

    fn apply(&mut self, op: Op, fault: Option<Fault>, plan: &FaultPlan) {
        let world = self.world;
        let pool = &world.pool;
        let rows = |from: usize, n: usize| -> Vec<Vec<f32>> {
            (from..from + n).map(|r| pool.row(r).to_vec()).collect()
        };
        match op {
            Op::Insert(row) | Op::Batch(row, _) => {
                let n = if let Op::Batch(_, n) = op { n } else { 1 };
                self.next_row = self.next_row.max(row + n);
                let batch = matches!(op, Op::Batch(..));
                let pins = self.pinned();
                let (fleet, mono, model) = (&self.fleet, &mut self.mono, &mut self.model);
                insert_rows(fleet, mono, model, &pins, &rows(row, n), batch, plan, fault);
            }
            Op::Remove(id) => {
                let pins = self.pinned();
                let (fleet, mono, model) = (&self.fleet, &mut self.mono, &mut self.model);
                if remove_id(fleet, mono, model, &pins, id, plan, fault) {
                    self.removed.push(id);
                }
            }
            Op::Compact => {
                let (lens, epochs) = shard_view(&self.fleet);
                let got = self.fleet.compact_all_shared();
                let failed = failed(plan, fault);
                expect_outcome(&got, failed);
                if got.is_ok() {
                    self.mono.compact().expect("monolith compact");
                    // A sweep publishes the dirty shards once, the clean not at all.
                    let dirty = self.model.dirty.iter().map(|&d| u64::from(d));
                    let next: Vec<u64> = epochs.iter().zip(dirty).map(|(e, d)| e + d).collect();
                    assert_eq!(shard_view(&self.fleet).1, next, "a sweep's epochs");
                }
                let pins = self.pinned();
                self.model.compact(&lens, failed, &pins);
            }
            Op::Checkpoint => expect_outcome(&self.fleet.checkpoint(), failed(plan, fault)),
            Op::Rebuild(row, during) => {
                self.next_row = self.next_row.max(row + during);
                self.rebuild(&rows(row, during), plan, fault);
            }
            Op::Resize(shards) => {
                let got = self.fleet.resize_shards(shards);
                let failed = failed(plan, fault);
                expect_outcome(&got, failed);
                if failed.is_none_or(|f| f.0 != FaultOp::Split) {
                    self.model.fresh(shards, true);
                }
            }
            Op::Restore | Op::RestoreMapped => {
                let got = if op == Op::Restore {
                    let bytes = self.fleet.to_snapshot_bytes().expect("snapshot");
                    self.fleet.restore_from_bytes(&bytes)
                } else {
                    let path = self.fresh_path("mapped");
                    self.fleet.save_to_path(&path).expect("save");
                    let map = Mmap::open(&path).expect("map");
                    let residency = ResidencyConfig {
                        budget_bytes: 1 << 14,
                        pin_bytes: 0,
                    };
                    self.fleet.restore_from_mapped(&map, &residency)
                };
                expect_outcome(&got, failed(plan, fault));
                if got.is_ok() {
                    assert!(!self.fleet.wal_enabled(), "a restore detaches the WAL");
                    self.fleet.set_fault_plan(None);
                    let fleet = &self.fleet;
                    fleet
                        .enable_wal(&self.dir, durability())
                        .expect("re-attach");
                    self.model.fresh(self.fleet.num_shards(), true);
                }
            }
            Op::Pin => {
                let reader = self.fleet.reader();
                let answers = self.answers(&reader);
                let epochs = (self.model.generation, reader.epochs());
                self.pins.push(Pinned {
                    reader,
                    answers,
                    epochs,
                });
            }
            Op::Unpin => {
                let pin = self.pins.remove(0);
                let label = format!("{}: unpinned reader", self.label);
                assert_bit_identical(&self.answers(&pin.reader), &pin.answers, Stats::Any, &label);
            }
            Op::Search(q) => self.search(q, plan, fault),
            Op::Recover(rot) => self.recover(rot),
        }
    }

    fn rebuild(&mut self, during: &[Vec<f32>], plan: &FaultPlan, fault: Option<Fault>) {
        let before = self.mono.clone();
        let got = if during.is_empty() {
            self.fleet.rebuild_shared()
        } else {
            // The rebuild pins the fleet it trains on, like a reader.
            let mut pins = self.pinned();
            pins.push((self.model.generation, self.fleet.shard_epochs()));
            let (fleet, mono, model) = (&self.fleet, &mut self.mono, &mut self.model);
            std::thread::scope(|scope| {
                let rebuild = scope.spawn(|| fleet.rebuild_shared());
                while plan.op_count(0, FaultOp::RebuildTrain) == 0 {
                    std::thread::yield_now();
                }
                for row in during {
                    let row = std::slice::from_ref(row);
                    insert_rows(fleet, mono, model, &pins, row, false, plan, fault);
                }
                let newest = *mono.ids().last().expect("a live id");
                assert!(remove_id(fleet, mono, model, &pins, newest, plan, fault));
                assert!(
                    !rebuild.is_finished(),
                    "the writes must land while the rebuild trains"
                );
                rebuild.join().expect("rebuild thread")
            })
        };
        let failed = failed(plan, fault);
        expect_outcome(&got, failed);
        let concurrent = !during.is_empty();
        if let Ok(report) = &got {
            // They reach the new lineage through the shadow replay alone.
            let writes = during.len() + usize::from(concurrent);
            assert_eq!(report.replayed_ops, writes as u64, "shadow replay");
        }
        let swapped = failed.is_none_or(|f| matches!(f.0, FaultOp::Checkpoint | FaultOp::Rotate));
        if swapped {
            let mut rebuilt = before.rebuild_for_live(&before.ids()).expect("rebuild");
            for row in during {
                rebuilt.insert(row).expect("monolith insert");
            }
            if concurrent {
                let newest = *rebuilt.ids().last().expect("a live id");
                rebuilt.remove(newest).expect("monolith remove");
            }
            self.mono = rebuilt;
            self.model.log.lineage += 1;
        }
        self.model.rebuild(failed);
    }

    /// A deadline search: a panicking shard is reported and left out, a
    /// stalled or transiently failing one still answers; the merge of the
    /// shards that answered is exact.
    fn search(&self, q: usize, plan: &FaultPlan, fault: Option<Fault>) {
        let never_trip = BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        };
        self.fleet
            .configure_health(never_trip, RetryPolicy::default());
        let reader = self.fleet.reader();
        let query = self.world.queries.row(q);
        let got = reader
            .search_deadline(query, K, Duration::from_secs(60))
            .expect("deadline search");
        let panicked = fault
            .filter(|f| f.0 == FaultOp::Search && f.3 == Kind::Panic && fired(plan, fault))
            .map(|f| f.1);
        let mut answered = Vec::new();
        for (s, status) in got.shards.iter().enumerate() {
            match status {
                ShardStatus::Ok if panicked != Some(s) => answered.push(
                    reader
                        .shard(s)
                        .index()
                        .search(query, K)
                        .expect("shard")
                        .neighbors,
                ),
                ShardStatus::Failed(Error::WorkerPanicked(_)) if panicked == Some(s) => {}
                other => panic!("{}: shard {s} answered {other:?}", self.label),
            }
        }
        let want = SearchResult {
            neighbors: merge_neighbors(&answered, K, ScoreOrder::Ascending),
            ..self.mono.search(query, K).expect("monolith search")
        };
        let label = format!("{}: deadline search", self.label);
        assert_bit_identical(&[got.result], &[want], Stats::Any, &label);
    }

    /// Recovers a copy of the WAL directory and carries on with the
    /// recovered fleet. With `rot`, the newest checkpoint generation is
    /// garbage: recovery falls back to the one before, unless a later
    /// checkpoint pruned records of its suffix — then it must refuse.
    fn recover(&mut self, rot: bool) {
        let copy = self.fresh_path("wal");
        copy_dir(&self.dir, &copy);
        // The generation recovery must restore: the newest, or the one
        // before it when the newest is rotted.
        let checkpoints = wal::list_checkpoints(&copy).expect("list checkpoints");
        let (lsn, path) = checkpoints
            .iter()
            .nth_back(usize::from(rot))
            .expect("a checkpoint");
        let mut refuse = false;
        if rot {
            let (_, rotted) = checkpoints.last().expect("a checkpoint");
            std::fs::write(rotted, b"rotted").expect("rot");
            let _ = std::fs::remove_file(juno::common::atomic_file::prev_path(rotted));
            let first = wal::list_segments(&copy)
                .expect("segments")
                .first()
                .map(|s| s.0);
            let last = self.fleet.wal_last_lsn().expect("a WAL");
            refuse = last > *lsn && first.is_some_and(|first| first > lsn + 1);
        }
        let prototype = self.world.engine.clone();
        match ShardedIndex::recover_from_dir(prototype, &copy, durability()) {
            Err(Error::Corrupted(_)) if refuse => {
                self.rotted.0 += 1;
                let _ = std::fs::remove_dir_all(&copy);
            }
            Ok((fleet, report)) if !refuse => {
                // Everything logged after the generation replays, except
                // what an Abort covers.
                let (now, then) = (self.model.log, self.checkpoints[lsn]);
                let skipped = now.aborted - then.aborted;
                let replayed = now.logged - then.logged - skipped;
                let last = self.fleet.wal_last_lsn().expect("a WAL");
                let want = (1 + usize::from(rot), *lsn, last, replayed, skipped);
                let got = (
                    report.checkpoints_tried,
                    report.checkpoint_lsn,
                    report.last_lsn,
                );
                let got = (
                    got.0,
                    got.1,
                    got.2,
                    report.replayed_ops,
                    report.skipped_aborted,
                );
                assert_eq!(
                    got,
                    want,
                    "{}: {report:?} from {}",
                    self.label,
                    path.display()
                );
                if let (true, Some((newest, rotted))) = (rot, checkpoints.last()) {
                    std::fs::remove_file(rotted).expect("drop the rotted generation");
                    self.checkpoints.remove(newest);
                    self.rotted.1 += 1;
                }
                assert!(fleet.wal_enabled(), "recovery re-attaches the WAL");
                self.fleet = fleet;
                let _ = std::fs::remove_dir_all(&self.dir);
                self.dir = copy;
                // Replay leaves each shard's retired epoch where its last
                // replayed record put it; a sweep settles every shard.
                let lsn = self.fleet.wal_last_lsn();
                self.fleet
                    .compact_all_shared()
                    .expect("post-recovery sweep");
                self.model.log.logged += u64::from(self.fleet.wal_last_lsn() != lsn);
                self.model.fresh(self.fleet.num_shards(), false);
                (self.model.reused, self.model.cloned) = self.stage_counts();
            }
            other => panic!(
                "{}: recovery returned {:?}, expected {}",
                self.label,
                other.map(|(_, report)| report),
                if refuse { "a refusal" } else { "a fleet" }
            ),
        }
    }

    /// The address of each shard's published state.
    fn slots(&self) -> Vec<usize> {
        let reader = self.fleet.reader();
        let state = |s| std::ptr::from_ref(reader.shard(s)) as usize;
        (0..reader.num_shards()).map(state).collect()
    }

    fn answers(&self, reader: &FleetReader<JunoIndex>) -> Vec<SearchResult> {
        let queries = self.world.queries.iter();
        queries
            .map(|q| reader.search(q, K).expect("search"))
            .collect()
    }

    fn stage_counts(&self) -> (u64, u64) {
        let metrics = self.fleet.metrics();
        (
            metrics.counter("serve.stage_reused"),
            metrics.counter("serve.stage_cloned"),
        )
    }

    /// The fleet against the monolith and the model.
    pub fn check(&self) {
        let label = &self.label;
        let shards = self.fleet.num_shards();
        assert_eq!(shards, self.model.shards(), "{label}: shard count");
        let ids = self.mono.ids();
        assert_eq!(self.fleet.ids(), ids, "{label}: ids");
        let reader = self.fleet.reader();
        for s in 0..shards {
            let owned = owned_by(&ids, shards, s);
            assert_eq!(
                reader.shard(s).index().ids(),
                owned,
                "{label}: shard {s}'s ids"
            );
        }
        let want: Vec<SearchResult> = (self.world.queries.iter())
            .map(|q| self.mono.search(q, K).expect("monolith search"))
            .collect();
        let got = self.answers(&reader);
        assert_bit_identical(
            &got,
            &want,
            Stats::Any,
            &format!("{label}: fleet vs monolith"),
        );
        if let Some(pin) = self.pins.first() {
            let again = self.answers(&pin.reader);
            let label = format!("{label}: pinned reader");
            assert_bit_identical(&again, &pin.answers, Stats::Any, &label);
        }
        let predicted = (self.model.reused, self.model.cloned);
        assert_eq!(
            self.stage_counts(),
            predicted,
            "{label}: (reused, cloned) stagings"
        );
    }
}

/// A failing sim prints its history, ready to paste into a replay test.
impl Drop for Sim<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "fleet oracle: {} failed at step {}; replay it with\nvec!{:#?}",
                self.label,
                self.history.len() - 1,
                self.history
            );
        }
        self.pins.clear();
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
