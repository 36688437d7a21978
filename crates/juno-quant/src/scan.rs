//! The one scan driver: how a probed IVF list is scanned for a set of
//! queries.
//!
//! PQ-based ANN search is filter → LUT construction → accumulation over the
//! probed IVF lists. Engines differ in *what the LUT is* — the FAISS-style
//! baseline builds a dense residual table, JUNO a sparse threshold-selected
//! one — but the scan over the lists is the same stage in both, and this
//! module owns it once:
//!
//! * **one cluster visit** ([`PlannedBatch`]`::visit`): a tile of
//!   1..=[`GROUP_TILE`] queries against one [`IvfListCodes`] cluster —
//!   expand each query's table, gate pruning (on how much of the cluster
//!   can be pruned beyond the candidates a still-filling selector needs),
//!   cluster-bound skip, the multi-query quantised prune pass with exact
//!   re-rank of survivors, the exact base scan for queries whose gate
//!   stayed shut, then the append tail. A query whose gate opens with no
//!   bound at all — the seed pass, the first probe of a query-major search
//!   — does not stream: it takes the **ranked visit**
//!   ([`PlannedBatch`]`::ranked_visit`), one quantised pass that keeps every
//!   lane's bound, then exact re-ranks 32 at a time from the lowest bound
//!   up until the next bound cannot enter the top-k. On the ledger's fat
//!   lists (48 × 64 codes, ≈ 6,250 records a list, k = 100; 1 thread of a
//!   2-vCPU Xeon with AVX-512 VBMI) that cuts a seed visit's exact scores
//!   from 675 to 210 and its time from ≈ 160 to ≈ 95 µs a query;
//! * **one batch pipeline** ([`search_batch_grouped`]): plan → seed →
//!   schedule → chunk scan → gather. The query-major path ([`search_one`])
//!   is the same visit with a tile of one, no seed bound, clusters in probe
//!   order. Every entry point is "[`ScanEngine::plan`] each query, then scan
//!   from the plans" ([`search_batch_planned`], [`search_one_planned`]), so
//!   a caller holding plans already — a fleet that planned the batch once
//!   for all its shards — enters at the second step;
//! * **one arena** ([`ScanArena`]) and **one counters struct**
//!   ([`ScanCounters`]).
//!
//! What stays engine-specific is [`ScanEngine`]: how a `(query, probe,
//! cluster)` expands into the dense `S×E` table and its per-visit constants,
//! how that table quantises into the prune LUT, and how one candidate is
//! scored exactly from it ([`ScanEngine::score`]) — or every candidate of a
//! 32-point block at once ([`ScanEngine::score_block`], same bits), which
//! the visit uses wherever a whole base block is scored exactly.
//!
//! Results — ids **and** distance bits — are identical on every path: the
//! per-query top-k selection is insertion-order invariant
//! ([`TopK`] breaks boundary ties by id), pruning
//! only ever discards candidates whose score lower bound provably cannot
//! enter the top-k, and every surviving candidate goes through the engine's
//! one exact scoring function.

use crate::layout::{GroupLane, IvfListCodes, Survivor};
use juno_common::error::{Error, Result};
use juno_common::group::GroupSchedule;
use juno_common::index::{Neighbor, SearchResult};
use juno_common::kernel::{
    tighter_worst, QuantizedLut, BLOCK_LANES, GROUP_CHUNK_WORK, GROUP_TILE, MIN_GROUP_QUERIES,
    MIN_PRUNE_POINTS,
};
use juno_common::metric::Metric;
use juno_common::parallel;
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;

/// Work counters of one scan, copied into
/// [`SearchStats`](juno_common::index::SearchStats) by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Exact per-subspace additions actually performed.
    pub accumulations: usize,
    /// Every stored record of every probed cluster, counted up front per
    /// visit — invariant to prune order, the fast-scan toggle and the
    /// execution strategy, so simulated stage times are too. (Engines with
    /// their own unit define their own count.)
    pub candidates: usize,
    /// Candidates settled by the quantised bound without exact evaluation.
    pub pruned_points: usize,
    /// Whole blocks abandoned mid-accumulation.
    pub pruned_blocks: usize,
    /// Probed clusters skipped by the cluster-level bound.
    pub pruned_clusters: usize,
    /// Per-(query, probe) table expansions.
    pub lut_builds: usize,
    /// Additional scan passes (exact re-rank, tail scan) served from an
    /// already-expanded table.
    pub lut_reuses: usize,
}

impl ScanCounters {
    fn merge(&mut self, other: &ScanCounters) {
        self.accumulations += other.accumulations;
        self.candidates += other.candidates;
        self.pruned_points += other.pruned_points;
        self.pruned_blocks += other.pruned_blocks;
        self.pruned_clusters += other.pruned_clusters;
        self.lut_builds += other.lut_builds;
        self.lut_reuses += other.lut_reuses;
    }
}

/// What is engine-specific about scanning a probed cluster. Everything else
/// — visit order, tiling, pruning, tails, tombstones, the batch pipeline —
/// is the driver's.
pub trait ScanEngine: Sync {
    /// One query's routed plan: its probe list plus whatever
    /// [`ScanEngine::expand`] needs (JUNO: the selective LUT and thresholds;
    /// IVFPQ: just the filter output).
    type Plan: Send + Sync;
    /// One expanded `(query, probe)` pair: the dense `S×E` table plus its
    /// per-visit constants. Reused across visits; the arena holds up to
    /// [`GROUP_TILE`] of them per worker.
    type Slot: std::fmt::Debug;

    /// The list storage being scanned.
    fn lists(&self) -> &IvfListCodes;

    /// The metric raw scores rank under in the per-query selector.
    fn rank_metric(&self) -> Metric;

    /// Whether the quantised prune pass may run (results are bit-identical
    /// either way; off is the reference the parity suites diff against).
    fn fastscan(&self) -> bool;

    /// Routes one query: probe selection plus LUT construction inputs.
    ///
    /// # Errors
    ///
    /// Dimension mismatches and filter-stage errors.
    fn plan(&self, query: &[f32]) -> Result<Self::Plan>;

    /// The probed clusters of a plan, nearest first.
    fn probes<'p>(&self, plan: &'p Self::Plan) -> &'p [usize];

    /// A fresh, reusable slot.
    fn new_slot(&self) -> Self::Slot;

    /// Expands probe `probe` of `plan` (cluster `cluster`) into `slot`.
    fn expand(
        &self,
        query: &[f32],
        plan: &Self::Plan,
        probe: usize,
        cluster: usize,
        slot: &mut Self::Slot,
    );

    /// Quantises an expanded slot into the `u8` prune LUT ("lower is
    /// better" score contributions, conservative rounding).
    fn quantize(&self, slot: &Self::Slot, qlut: &mut QuantizedLut);

    /// Scores one candidate exactly from an expanded slot — **the** engine
    /// arithmetic every path goes through. Returns the raw metric value, or
    /// `None` when the code is not a candidate at all; bumps
    /// `ctr.accumulations` by the additions performed.
    fn score(&self, slot: &Self::Slot, code: &[u8], ctr: &mut ScanCounters) -> Option<f32>;

    /// Scores the lanes of one 32-point block — a base block, or the ranked
    /// visit's gathered candidates — that `live` marks (bit `l` = lane `l`)
    /// exactly: `out[l]` gets what [`ScanEngine::score`] returns for
    /// lane `l`'s code, bit for bit, and `ctr` counts the same
    /// accumulations. Lanes outside `live` are neither scored nor counted.
    /// The default calls `score` lane by lane; an engine overrides it with a
    /// lane-parallel kernel that finishes each lane with `score`'s
    /// arithmetic.
    fn score_block(
        &self,
        slot: &Self::Slot,
        block: BlockRef<'_>,
        live: u32,
        ctr: &mut ScanCounters,
        out: &mut [Option<f32>; BLOCK_LANES],
    ) {
        let subspaces = self.lists().num_subspaces();
        let mut lanes = live;
        while lanes != 0 {
            let l = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            out[l] = self.score(slot, &block.codes[l * subspaces..(l + 1) * subspaces], ctr);
        }
    }

    /// `true` when the engine currently ranks through its own per-cluster
    /// unit ([`ScanEngine::scan_unit`]) instead of the exact ADC visit —
    /// JUNO's hit-count modes. Such a unit never prunes, so the pipeline
    /// skips the seed pass and groups every probe.
    fn own_unit(&self) -> bool {
        false
    }

    /// The engine's own unit for one `(query, probed cluster)` pair, pushing
    /// ranked candidates into `topk`. Only called when
    /// [`ScanEngine::own_unit`] is `true`.
    fn scan_unit(
        &self,
        _query: &[f32],
        _plan: &Self::Plan,
        _cluster: usize,
        _slot: &mut Self::Slot,
        _topk: &mut TopK,
        _ctr: &mut ScanCounters,
    ) {
        unreachable!("scan_unit is only driven when own_unit() is true");
    }

    /// Assembles the final result (stats, simulated stage times) from a
    /// query's plan, ranked neighbours and scan counters.
    fn finish(
        &self,
        plan: &Self::Plan,
        neighbors: Vec<Neighbor>,
        ctr: &ScanCounters,
    ) -> SearchResult;
}

/// One 32-point block of a cluster's base segment, or of candidates the
/// ranked visit gathered from it, in both layouts.
#[derive(Debug, Clone, Copy)]
pub struct BlockRef<'a> {
    /// The block's subspace-major rows
    /// ([`BlockCodes::block_rows`](crate::layout::BlockCodes::block_rows);
    /// a gathered block's are never nibble-packed).
    pub rows: &'a [u8],
    /// Whether `rows` are nibble-packed.
    pub nibble: bool,
    /// The same points' codes point-major: lane `l`'s code is
    /// `codes[l * S..(l + 1) * S]`.
    pub codes: &'a [u8],
}

/// One slot of the visit tile: an engine slot, its quantised prune LUT and
/// the gate decisions of the current visit, so the prune pass, the exact
/// re-rank and the tail scan all read the same expansion.
#[derive(Debug)]
struct TileSlot<S> {
    slot: S,
    qlut: QuantizedLut,
    query: u32,
    /// The query's seed-pass bound (an upper bound on its final top-k worst
    /// score), combined with the local worst via [`tighter_worst`].
    seed: Option<f32>,
    prune: bool,
    /// The gate opened with no bound at all: the slot takes the ranked
    /// visit ([`PlannedBatch::ranked_visit`]) instead of the lane stream.
    ranked: bool,
    done: bool,
}

/// Per-query accumulation state: the top-k selector and the counters.
#[derive(Debug)]
struct QueryState {
    topk: TopK,
    ctr: ScanCounters,
    touched: bool,
}

impl QueryState {
    fn new(k: usize, metric: Metric) -> Self {
        Self {
            topk: TopK::new(k, metric),
            ctr: ScanCounters::default(),
            touched: false,
        }
    }
}

/// Reusable per-worker scan state: the visit tile (grown on demand up to
/// [`GROUP_TILE`] engine slots + quantised LUTs), the ranked visit's
/// buffers (grown to the largest base it ranks) and, for the batch
/// pipeline, one accumulation state per batch query. Steady-state searches
/// perform **zero per-query heap allocation** from it — `grow_events` and
/// `footprint` stay put once the first search or batch has sized it.
#[derive(Debug)]
pub struct ScanArena<S> {
    tile: Vec<TileSlot<S>>,
    states: Vec<QueryState>,
    /// Queries touched by the current chunk, in touch order.
    touched: Vec<u32>,
    ranked: RankedScratch,
    grow_events: usize,
}

/// A `u16` lane sum `b` falls in bucket `b >> RANK_SHIFT` of the ranked
/// visit's counting sort.
const RANK_SHIFT: u32 = 6;

/// Buckets of the ranked visit's counting sort: 1,024 of 64 sums each cover
/// every `u16`.
const RANK_BUCKETS: usize = (u16::MAX as usize >> RANK_SHIFT) + 1;

/// The ranked visit's buffers, sized to the largest base segment visited
/// (or, from [`ScanArena::for_lists`], to the largest there is).
#[derive(Debug)]
struct RankedScratch {
    /// Every base lane's quantised lower bound.
    bounds: Vec<u16>,
    /// Base indices, bucket by bucket from the lowest bound up.
    order: Vec<u32>,
    /// The counting sort's bucket cursors (`RANK_BUCKETS + 1`).
    cursors: Vec<u32>,
    /// One gathered group: subspace-major rows of [`BLOCK_LANES`] bytes …
    rows: Vec<u8>,
    /// … and the same codes point-major.
    codes: Vec<u8>,
    grow_events: usize,
}

impl RankedScratch {
    fn new() -> Self {
        Self {
            bounds: Vec::new(),
            order: Vec::new(),
            cursors: vec![0; RANK_BUCKETS + 1],
            rows: Vec::new(),
            codes: Vec::new(),
            grow_events: 0,
        }
    }

    /// Sizes the buffers for a base of `points` records of `subspaces`
    /// codes (growth only, counted).
    fn fit(&mut self, points: usize, subspaces: usize) {
        let group = BLOCK_LANES * subspaces;
        if self.bounds.len() < points || self.rows.len() < group {
            self.grow_events += 1;
            self.bounds.resize(points.max(self.bounds.len()), 0);
            self.order.resize(points.max(self.order.len()), 0);
            self.rows.resize(group.max(self.rows.len()), 0);
            self.codes.resize(group.max(self.codes.len()), 0);
        }
    }

    fn footprint(&self) -> usize {
        self.bounds.capacity()
            + self.order.capacity()
            + self.rows.capacity()
            + self.codes.capacity()
    }
}

impl<S> ScanArena<S> {
    /// An arena holding one tile slot — all the query-major path needs; the
    /// batch pipeline grows it to a full tile on first use.
    pub fn new(slot: S) -> Self {
        let mut arena = Self {
            tile: Vec::new(),
            states: Vec::new(),
            touched: Vec::new(),
            ranked: RankedScratch::new(),
            grow_events: 0,
        };
        arena.push_slot(slot);
        arena
    }

    /// [`ScanArena::new`] with the ranked visit's buffers already sized to
    /// `lists`' largest base segment, so that no query-major search of
    /// those lists grows the arena.
    pub fn for_lists(slot: S, lists: &IvfListCodes) -> Self {
        let mut arena = Self::new(slot);
        let largest = (0..lists.num_clusters())
            .map(|c| lists.cluster_ids(c).len())
            .max()
            .unwrap_or(0);
        arena.ranked.fit(largest, lists.num_subspaces());
        arena
    }

    fn push_slot(&mut self, slot: S) {
        self.tile.push(TileSlot {
            slot,
            qlut: QuantizedLut::new(),
            query: 0,
            seed: None,
            prune: false,
            ranked: false,
            done: false,
        });
    }

    /// Number of times the arena had to grow (the first batch sizes it; a
    /// steady-state workload must not grow it again).
    pub fn grow_events(&self) -> usize {
        self.grow_events + self.ranked.grow_events
    }

    /// Total reusable capacity held by the arena's growable buffers —
    /// together with [`ScanArena::grow_events`] this pins the zero
    /// per-query allocation contract: repeating a search or a batch must
    /// leave both numbers unchanged.
    pub fn footprint(&self) -> usize {
        self.tile.len() + self.states.capacity() + self.touched.capacity() + self.ranked.footprint()
    }

    /// Prepares the arena for one cluster-group chunk: a full tile, one
    /// state per batch query (growth only on the first batch of a new size)
    /// and the previous chunk's touch marks cleared. States themselves are
    /// reset lazily on first touch.
    fn begin_chunk(
        &mut self,
        num_queries: usize,
        k: usize,
        metric: Metric,
        new_slot: impl Fn() -> S,
    ) {
        if self.tile.len() < GROUP_TILE {
            self.grow_events += 1;
            while self.tile.len() < GROUP_TILE {
                self.push_slot(new_slot());
            }
        }
        if self.states.len() < num_queries {
            self.grow_events += 1;
            self.states
                .resize_with(num_queries, || QueryState::new(k, metric));
        }
        for &q in &self.touched {
            self.states[q as usize].touched = false;
        }
        self.touched.clear();
    }

    /// Marks a query as touched by the current chunk, resetting its state
    /// on first touch.
    fn touch(&mut self, query: u32, k: usize, metric: Metric) {
        let state = &mut self.states[query as usize];
        if !state.touched {
            state.touched = true;
            state.topk.reset(k, metric);
            state.ctr = ScanCounters::default();
            if self.touched.len() == self.touched.capacity() {
                self.grow_events += 1;
            }
            self.touched.push(query);
        }
    }
}

/// One chunk's contribution to one query: the drained top-k candidates plus
/// the counters observed on the query's behalf. Merging every partial of a
/// query — in any order — reproduces the sequential result bit-identically.
#[derive(Debug)]
pub struct Partial {
    query: u32,
    top: Vec<(u64, f32)>,
    ctr: ScanCounters,
}

/// A planned batch: everything a cluster visit of it reads. The batch
/// pipeline builds one per call; the query-major path builds a batch of one.
#[allow(missing_debug_implementations)] // would force `Debug` onto every engine and plan type
pub struct PlannedBatch<'a, E: ScanEngine> {
    /// The engine being scanned.
    pub engine: &'a E,
    /// The query rows, indexed like `plans`.
    pub queries: &'a [&'a [f32]],
    /// One routed plan per query.
    pub plans: &'a [E::Plan],
    /// Per-query seed-pass bounds (upper bounds on the final top-k worst
    /// score); may be shorter than `plans` — a missing entry is "no bound".
    pub seeds: &'a [Option<f32>],
    /// Neighbours requested per query.
    pub k: usize,
}

impl<E: ScanEngine> PlannedBatch<'_, E> {
    /// **The** cluster visit: scans `cluster` for a tile of up to
    /// [`GROUP_TILE`] `(query, probe)` entries, accumulating into
    /// `states[query]`. The caller has already faulted the cluster in
    /// ([`IvfListCodes::touch_cluster`]) — the visit itself is infallible.
    fn visit(
        &self,
        cluster: usize,
        entries: &[(u32, u32)],
        tile: &mut [TileSlot<E::Slot>],
        states: &mut [QueryState],
        ranked: &mut RankedScratch,
    ) {
        let engine = self.engine;
        if engine.own_unit() {
            for &(q, _) in entries {
                let state = &mut states[q as usize];
                engine.scan_unit(
                    self.queries[q as usize],
                    &self.plans[q as usize],
                    cluster,
                    &mut tile[0].slot,
                    &mut state.topk,
                    &mut state.ctr,
                );
            }
            return;
        }

        let lists = engine.lists();
        let subspaces = lists.num_subspaces();
        // Hoisted: after build or compact there are no stored tombstones, so
        // the never-mutated hot path skips the per-candidate random-access
        // load into the tombstone bitmap entirely.
        let check_tombstones = lists.stored_tombstones() > 0;
        let base_ids = lists.cluster_ids(cluster);
        let base_codes = lists.cluster_codes(cluster);
        let (tail_ids, tail_codes) = lists.cluster_tail(cluster);
        let stored = lists.cluster_stored(cluster);
        let tile = &mut tile[..entries.len()];

        // Phase A: expand each query's table and gate its pruning.
        for (t, &(q, probe)) in tile.iter_mut().zip(entries) {
            let qi = q as usize;
            let state = &mut states[qi];
            state.ctr.candidates += stored;
            state.ctr.lut_builds += 1;
            t.query = q;
            t.seed = self.seeds.get(qi).copied().flatten();
            engine.expand(
                self.queries[qi],
                &self.plans[qi],
                probe as usize,
                cluster,
                &mut t.slot,
            );
            // The prune pass pays for itself when enough of the cluster can
            // be pruned to amortise the O(S × E) quantisation (≈ 3.6 µs for
            // a 48 × 64 slot on the AVX2 quantiser, ≈ 11 µs before it was
            // vectorised; the VBMI block scan then costs ≈ 1.4–3 ns a
            // candidate; 2-vCPU Xeon with AVX-512 VBMI). With a bound —
            // the local top-k's worst, tightened by the seed bound (any
            // upper bound on the final k-th score is safe) — that is the
            // whole base, and the slot streams through the lane pass.
            // Without one, the candidates that must first fill the selector
            // cannot be pruned and only the rest of the base counts; such a
            // slot takes the ranked visit, whose full quantised pass
            // (≈ 20 µs over a 6,250-record fat list) buys exact re-ranks in
            // bound order (there 210 instead of the stream's 675, at
            // ≈ 250 ns each one by one).
            let worst0 = tighter_worst(state.topk.worst_score(), t.seed);
            let fill = match worst0 {
                Some(_) => 0,
                None => state.topk.k() - state.topk.len(),
            };
            t.prune = engine.fastscan() && base_ids.len() >= MIN_PRUNE_POINTS + fill;
            t.ranked = t.prune && worst0.is_none();
            t.done = false;
            if t.prune {
                engine.quantize(&t.slot, &mut t.qlut);
                // Cluster-level pruning, once there is a bound: no member
                // (base or tail) can beat the per-subspace minima bound for
                // this query.
                t.done = worst0.is_some_and(|w| t.qlut.cluster_bound() >= w as f64);
                if t.done {
                    state.ctr.pruned_clusters += 1;
                    state.ctr.pruned_points += stored;
                }
            }
        }
        let tile = &*tile;

        let rank = |t: &TileSlot<E::Slot>, state: &mut QueryState, pid: u32, code: &[u8]| {
            if check_tombstones && lists.is_deleted(pid) {
                return;
            }
            if let Some(raw) = engine.score(&t.slot, code, &mut state.ctr) {
                state.topk.push(pid as u64, raw);
            }
        };
        let scan_exact =
            |t: &TileSlot<E::Slot>, state: &mut QueryState, ids: &[u32], codes: &[u8]| {
                for (i, &pid) in ids.iter().enumerate() {
                    rank(t, state, pid, &codes[i * subspaces..(i + 1) * subspaces]);
                }
            };
        // A whole base block through the engine's block entry; tombstoned
        // lanes are dropped first, so they are neither scored nor counted.
        let blocks = lists.cluster_blocks(cluster);
        let rank_block = |t: &TileSlot<E::Slot>, state: &mut QueryState, b: usize| {
            let start = b * BLOCK_LANES;
            let ids = &base_ids[start..start + blocks.block_len(b)];
            let mut live = u32::MAX >> (BLOCK_LANES - ids.len());
            if check_tombstones {
                for (l, &pid) in ids.iter().enumerate() {
                    if lists.is_deleted(pid) {
                        live &= !(1 << l);
                    }
                }
            }
            if live == 0 {
                return;
            }
            let block = BlockRef {
                rows: blocks.block_rows(b),
                nibble: blocks.nibble_packed(),
                codes: &base_codes[start * subspaces..(start + ids.len()) * subspaces],
            };
            let mut scores = [None; BLOCK_LANES];
            engine.score_block(&t.slot, block, live, &mut state.ctr, &mut scores);
            for (l, (&pid, raw)) in ids.iter().zip(scores).enumerate() {
                if let Some(raw) = raw.filter(|_| live >> l & 1 != 0) {
                    state.topk.push(pid as u64, raw);
                }
            }
        };

        // Phase B: ranked slots take their own visit; the others join the
        // multi-query prune pass — the tile's quantised LUTs held against
        // each 32-point block (codes stream once per tile), survivors
        // re-ranked exactly on the spot: one by one, or a block at a time
        // while a lane has no prune threshold yet.
        let mut lane_map = [0usize; GROUP_TILE];
        let mut lanes_n = 0usize;
        for (ti, t) in tile.iter().enumerate() {
            if t.ranked {
                self.ranked_visit(cluster, t, &mut states[t.query as usize], ranked);
            } else if t.prune && !t.done {
                lane_map[lanes_n] = ti;
                lanes_n += 1;
            }
        }
        if lanes_n > 0 {
            let lane_map = &lane_map[..lanes_n];
            let mut lanes = [GroupLane::new(&tile[lane_map[0]].qlut, None); GROUP_TILE];
            for (lane, &ti) in lanes.iter_mut().zip(lane_map) {
                let t = &tile[ti];
                let worst = tighter_worst(states[t.query as usize].topk.worst_score(), t.seed);
                *lane = GroupLane::new(&t.qlut, worst);
            }
            blocks.prune_scan_group(&mut lanes[..lanes_n], |li, handed| {
                let t = &tile[lane_map[li]];
                let state = &mut states[t.query as usize];
                match handed {
                    Survivor::Point(i) => rank(
                        t,
                        state,
                        base_ids[i],
                        &base_codes[i * subspaces..(i + 1) * subspaces],
                    ),
                    Survivor::Block(b) => rank_block(t, state, b),
                }
                tighter_worst(state.topk.worst_score(), t.seed)
            });
            for (lane, &ti) in lanes.iter().zip(lane_map) {
                let ctr = &mut states[tile[ti].query as usize].ctr;
                ctr.pruned_points += lane.pruned_points;
                ctr.pruned_blocks += lane.pruned_blocks;
                // The exact re-rank consumed the already-expanded table.
                ctr.lut_reuses += 1;
            }
        }

        for t in tile {
            if t.done {
                continue;
            }
            let state = &mut states[t.query as usize];
            // Phase C: queries whose gate stayed shut (too little of the
            // cluster left to prune once the top-k has filled, fast-scan
            // off) scan the base exactly — block by block, or candidate by
            // candidate on the fast-scan-off reference path.
            if !t.prune {
                if engine.fastscan() {
                    for b in 0..blocks.num_blocks() {
                        rank_block(t, state, b);
                    }
                } else {
                    scan_exact(t, state, base_ids, base_codes);
                }
            }
            // Phase D: append-tail records have no block view; scan them
            // exactly, in id order, after the base — the same per-query
            // order on every path.
            if !tail_ids.is_empty() {
                state.ctr.lut_reuses += 1;
                scan_exact(t, state, tail_ids, tail_codes);
            }
        }
    }

    /// The **ranked visit** of one tile slot whose prune gate opened with
    /// no bound yet (an empty or filling selector and no seed): rather than
    /// stream the base in storage order — where the k-th best tightens only
    /// gradually, so about `k·(1 + ln(n/k))` candidates are scored exactly
    /// — it scores the base in bound order:
    ///
    /// 1. one full quantised pass ([`BlockCodes::lower_bounds`]) keeps
    ///    every base lane's `u16` lower bound;
    /// 2. a counting sort puts them in [`RANK_BUCKETS`] buckets;
    /// 3. candidates are scored exactly from the lowest bucket up,
    ///    [`BLOCK_LANES`] at a time through [`ScanEngine::score_block`] on a
    ///    gathered mini-block (tombstones skipped; a lane whose bound has
    ///    reached the threshold is settled on the spot), the prune
    ///    threshold re-derived from the running k-th after each group;
    /// 4. the visit stops at the first bucket whose floor reaches the
    ///    threshold.
    ///
    /// Nothing is lost: a candidate left unscored has a bound at or above
    /// the threshold of a k-th that only tightens afterwards, so by the
    /// strictly positive margin of [`QuantizedLut`] it is strictly worse
    /// than k held candidates — and the selector is insertion-order
    /// invariant, so ids and distance bits equal the streaming visit's.
    /// Kept out of line so that the streaming visit's code stays as it is.
    ///
    /// [`BlockCodes::lower_bounds`]: crate::layout::BlockCodes::lower_bounds
    #[inline(never)]
    fn ranked_visit(
        &self,
        cluster: usize,
        t: &TileSlot<E::Slot>,
        state: &mut QueryState,
        scratch: &mut RankedScratch,
    ) {
        let engine = self.engine;
        let lists = engine.lists();
        let subspaces = lists.num_subspaces();
        let check_tombstones = lists.stored_tombstones() > 0;
        let base_ids = lists.cluster_ids(cluster);
        let base_codes = lists.cluster_codes(cluster);
        let n = base_ids.len();
        let group = BLOCK_LANES * subspaces;
        scratch.fit(n, subspaces);
        let RankedScratch {
            bounds,
            order,
            cursors,
            rows,
            codes,
            ..
        } = scratch;
        let (bounds, order) = (&mut bounds[..n], &mut order[..n]);
        let (rows, codes) = (&mut rows[..group], &mut codes[..group]);

        lists.cluster_blocks(cluster).lower_bounds(&t.qlut, bounds);
        cursors.fill(0);
        for &b in bounds.iter() {
            cursors[(b >> RANK_SHIFT) as usize + 1] += 1;
        }
        for i in 1..cursors.len() {
            cursors[i] += cursors[i - 1];
        }
        for (i, &b) in bounds.iter().enumerate() {
            let cursor = &mut cursors[(b >> RANK_SHIFT) as usize];
            order[*cursor as usize] = i as u32;
            *cursor += 1;
        }

        let mut ids = [0u32; BLOCK_LANES];
        let mut gathered = 0usize;
        let rank_group = |state: &mut QueryState, ids: &[u32], codes: &[u8], rows: &[u8]| {
            let block = BlockRef {
                rows,
                nibble: false,
                codes,
            };
            let mut scores = [None; BLOCK_LANES];
            let live = u32::MAX >> (BLOCK_LANES - ids.len());
            engine.score_block(&t.slot, block, live, &mut state.ctr, &mut scores);
            for (&pid, raw) in ids.iter().zip(scores) {
                if let Some(raw) = raw {
                    state.topk.push(pid as u64, raw);
                }
            }
            // No seed reaches a ranked slot: the local k-th is the bound.
            t.qlut.prune_threshold(state.topk.worst_score())
        };
        let mut threshold = t.qlut.prune_threshold(state.topk.worst_score());
        // No threshold exists until the top-k holds k scores, so the first
        // group is only the k lowest bounds: at k = 1 a first group of 32
        // exact-scored 42 candidates of a 2,000-point toy list where the
        // streaming visit, tightening after every score, scored 37.
        let mut take = self.k.clamp(1, BLOCK_LANES);
        let mut settled = 0usize;
        let mut next = 0usize;
        while next < n {
            let i = order[next] as usize;
            let bound = u32::from(bounds[i]);
            if bound >> RANK_SHIFT << RANK_SHIFT >= threshold {
                break;
            }
            next += 1;
            if bound >= threshold {
                settled += 1;
                continue;
            }
            let pid = base_ids[i];
            if check_tombstones && lists.is_deleted(pid) {
                continue;
            }
            let code = &base_codes[i * subspaces..(i + 1) * subspaces];
            codes[gathered * subspaces..(gathered + 1) * subspaces].copy_from_slice(code);
            for (s, &c) in code.iter().enumerate() {
                rows[s * BLOCK_LANES + gathered] = c;
            }
            ids[gathered] = pid;
            gathered += 1;
            if gathered == take {
                threshold = rank_group(state, &ids[..take], &codes[..take * subspaces], rows);
                gathered = 0;
                take = BLOCK_LANES;
            }
        }
        if gathered > 0 {
            rank_group(
                state,
                &ids[..gathered],
                &codes[..gathered * subspaces],
                rows,
            );
        }
        state.ctr.pruned_points += settled + (n - next);
        // The exact re-rank consumed the already-expanded table.
        state.ctr.lut_reuses += 1;
    }

    /// The cluster→query-group schedule of this batch, chunk cuts weighted
    /// by each cluster's stored record count (what a scan streams).
    /// `first_probe = 1` excludes each query's nearest probe (covered by the
    /// seed pass).
    pub fn schedule(&self, first_probe: usize) -> GroupSchedule {
        let probe_lists: Vec<&[usize]> = self
            .plans
            .iter()
            .map(|plan| {
                let probes = self.engine.probes(plan);
                &probes[first_probe.min(probes.len())..]
            })
            .collect();
        let lists = self.engine.lists();
        GroupSchedule::build(
            lists.num_clusters(),
            &probe_lists,
            first_probe,
            |c| lists.cluster_stored(c),
            GROUP_CHUNK_WORK,
        )
    }

    /// Scans one cluster-group chunk for every query probing it — clusters
    /// in storage order, [`GROUP_TILE`] queries per visit — and returns the
    /// per-query partials, leaving the arena's capacity in place.
    pub fn scan_chunk(
        &self,
        sched: &GroupSchedule,
        chunk: usize,
        arena: &mut ScanArena<E::Slot>,
    ) -> Vec<Partial> {
        let (k, metric) = (self.k, self.engine.rank_metric());
        arena.begin_chunk(self.plans.len(), k, metric, || self.engine.new_slot());
        for (cluster, group) in sched.chunk(chunk) {
            for entries in group.chunks(GROUP_TILE) {
                for &(q, _) in entries {
                    arena.touch(q, k, metric);
                }
                self.visit(
                    cluster,
                    entries,
                    &mut arena.tile,
                    &mut arena.states,
                    &mut arena.ranked,
                );
            }
        }
        let ScanArena {
            states, touched, ..
        } = arena;
        touched
            .iter()
            .map(|&query| {
                let state = &mut states[query as usize];
                let mut top = Vec::new();
                state.topk.drain_entries(&mut top);
                Partial {
                    query,
                    top,
                    ctr: state.ctr,
                }
            })
            .collect()
    }
}

/// Scans the first `limit` probes of one planned query, query-major: the
/// visit with a tile of one, no seed bound, clusters in probe order. With
/// `fault_in`, each cluster is faulted in (and verified) before the
/// infallible visit reads its slices; without, the caller already has.
fn scan_probes<E: ScanEngine>(
    engine: &E,
    query: &[f32],
    plan: &E::Plan,
    limit: usize,
    fault_in: bool,
    k: usize,
    arena: &mut ScanArena<E::Slot>,
) -> Result<QueryState> {
    let batch = PlannedBatch {
        engine,
        queries: &[query],
        plans: std::slice::from_ref(plan),
        seeds: &[],
        k,
    };
    let mut state = [QueryState::new(k, engine.rank_metric())];
    for (probe, &cluster) in engine.probes(plan).iter().enumerate().take(limit) {
        if fault_in {
            engine.lists().touch_cluster(cluster)?;
        }
        batch.visit(
            cluster,
            &[(0, probe as u32)],
            &mut arena.tile,
            &mut state,
            &mut arena.ranked,
        );
    }
    let [state] = state;
    Ok(state)
}

/// Routes every query of a batch ([`ScanEngine::plan`], parallel over
/// queries): the front half of every batch entry point, and what a fleet
/// computes once and hands to each shard's [`search_batch_planned`].
///
/// # Errors
///
/// The first planning error, in query order.
pub fn plan_batch<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    num_threads: usize,
) -> Result<Vec<E::Plan>> {
    parallel::map(queries.len(), num_threads, |i| engine.plan(queries.row(i)))?
        .into_iter()
        .collect()
}

/// Searches one query through the caller's reusable arena: plan, then
/// [`search_one_planned`].
///
/// # Errors
///
/// [`Error::InvalidConfig`] for `k == 0`, planning errors, and
/// [`Error::Corrupted`] when a mapped cluster fails verification.
pub fn search_one<E: ScanEngine>(
    engine: &E,
    query: &[f32],
    k: usize,
    arena: &mut ScanArena<E::Slot>,
) -> Result<SearchResult> {
    search_one_planned(engine, query, &engine.plan(query)?, k, arena)
}

/// The query-major scan of one already-planned query: every probe in probe
/// order, a tile of one, no seed bound.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for `k == 0` and [`Error::Corrupted`] when a
/// mapped cluster fails verification.
pub fn search_one_planned<E: ScanEngine>(
    engine: &E,
    query: &[f32],
    plan: &E::Plan,
    k: usize,
    arena: &mut ScanArena<E::Slot>,
) -> Result<SearchResult> {
    if k == 0 {
        return Err(Error::invalid_config("k must be positive"));
    }
    let state = scan_probes(engine, query, plan, usize::MAX, true, k, arena)?;
    Ok(engine.finish(plan, state.topk.into_sorted_vec(), &state.ctr))
}

/// The query-major batch path: plan, then one task per query, each running
/// [`search_one_planned`] through a per-worker arena. The fallback for tiny
/// batches and the differential / benchmark reference for the grouped
/// pipeline.
///
/// # Errors
///
/// The first planning error, else the first scan error, in query order.
pub fn search_batch_query_major<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    k: usize,
    num_threads: usize,
) -> Result<Vec<SearchResult>> {
    let plans = plan_batch(engine, queries, num_threads)?;
    scan_query_major(engine, queries, &plans, k, num_threads)
}

fn scan_query_major<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    plans: &[E::Plan],
    k: usize,
    num_threads: usize,
) -> Result<Vec<SearchResult>> {
    parallel::map_with(
        queries.len(),
        num_threads,
        0,
        || ScanArena::new(engine.new_slot()),
        |arena, i| search_one_planned(engine, queries.row(i), &plans[i], k, arena),
    )?
    .into_iter()
    .collect()
}

/// The cluster-major grouped batch pipeline:
///
/// 1. **Plan** (parallel over queries): [`plan_batch`].
/// 2. **Seed**: every query scans its *nearest* probe query-major first —
///    the same visit from an empty selector, so a fat nearest list fills
///    the top-k from its first candidates and prunes the rest on the
///    running k-th score. Storage-order visits would otherwise fill top-ks
///    with far-cluster candidates and leave the prune thresholds toothless;
///    the seed's k-th best score is a provably safe bound for every later
///    visit. Engines on their own unit never prune, so they skip the seed.
/// 3. **Schedule**: a cluster→query-group table cut into chunks by scan
///    work — never by thread budget, so results *and* statistics are
///    thread-count invariant.
/// 4. **Chunk scan** (work-stealing, one task per chunk): clusters in
///    storage order, each cluster's blocks streamed once per tile.
/// 5. **Gather**: partials merge into the seed's selector under the
///    insertion-order-invariant top-k order, so final ids and distance bits
///    equal the sequential per-query path.
///
/// # Errors
///
/// Same failure modes as [`search_one`], reported for the first failing
/// query in query order.
pub fn search_batch_grouped<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    k: usize,
    num_threads: usize,
) -> Result<Vec<SearchResult>> {
    let plans = plan_batch(engine, queries, num_threads)?;
    scan_grouped(engine, queries, &plans, k, num_threads)
}

/// Steps 2–5 of [`search_batch_grouped`], from the batch's plans. A mapped
/// index takes its residency faults before step 2, on the calling thread.
fn scan_grouped<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    plans: &[E::Plan],
    k: usize,
    num_threads: usize,
) -> Result<Vec<SearchResult>> {
    if k == 0 {
        return Err(Error::invalid_config("k must be positive"));
    }
    let nq = queries.len();
    if nq == 0 {
        return Ok(Vec::new());
    }
    let rows: Vec<&[f32]> = queries.iter().collect();

    let first_probe = usize::from(!engine.own_unit());
    // Fault in (and verify) every cluster the batch probes, once, up front
    // and in storage order: the seed and chunk workers are infallible, and
    // a fault taken from a worker would evict under the feet of the others
    // in an order that depends on their timing. Advisory eviction keeps
    // already-verified slices readable, so the workers stay safe even under
    // a tight residency budget.
    let mut probed: Vec<usize> = plans
        .iter()
        .flat_map(|plan| engine.probes(plan).iter().copied())
        .collect();
    probed.sort_unstable();
    probed.dedup();
    for cluster in probed {
        engine.lists().touch_cluster(cluster)?;
    }
    let mut finals: Vec<QueryState> = parallel::map_with(
        nq,
        num_threads,
        0,
        || ScanArena::new(engine.new_slot()),
        |arena, qi| scan_probes(engine, rows[qi], &plans[qi], first_probe, false, k, arena),
    )?
    .into_iter()
    .collect::<Result<_>>()?;
    let seeds: Vec<Option<f32>> = finals.iter().map(|s| s.topk.worst_score()).collect();

    let batch = PlannedBatch {
        engine,
        queries: &rows,
        plans,
        seeds: &seeds,
        k,
    };
    let sched = batch.schedule(first_probe);
    let partial_lists = parallel::map_with(
        sched.num_chunks(),
        num_threads,
        1,
        || ScanArena::new(engine.new_slot()),
        |arena, ci| batch.scan_chunk(&sched, ci, arena),
    )?;

    for partial in partial_lists.into_iter().flatten() {
        let state = &mut finals[partial.query as usize];
        state.ctr.merge(&partial.ctr);
        for (id, score) in partial.top {
            state.topk.push_score(id, score);
        }
    }
    Ok(plans
        .iter()
        .zip(finals)
        .map(|(plan, state)| engine.finish(plan, state.topk.into_sorted_vec(), &state.ctr))
        .collect())
}

/// Batch search: plan, then [`search_batch_planned`].
///
/// # Errors
///
/// See [`search_batch_grouped`].
pub fn search_batch<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    k: usize,
    num_threads: usize,
) -> Result<Vec<SearchResult>> {
    let plans = plan_batch(engine, queries, num_threads)?;
    search_batch_planned(engine, queries, &plans, k, num_threads)
}

/// Batch search from the batch's plans (`plans[i]` routes `queries.row(i)`,
/// made by this engine or by one with identical planning state):
/// cluster-major grouped, except that batches below [`MIN_GROUP_QUERIES`] —
/// where scheduling cannot amortise — run query-major.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when `plans` and `queries` disagree in length;
/// otherwise see [`search_batch_grouped`].
pub fn search_batch_planned<E: ScanEngine>(
    engine: &E,
    queries: &VectorSet,
    plans: &[E::Plan],
    k: usize,
    num_threads: usize,
) -> Result<Vec<SearchResult>> {
    if plans.len() != queries.len() {
        return Err(Error::invalid_config(format!(
            "{} plans for {} queries",
            plans.len(),
            queries.len()
        )));
    }
    if queries.len() < MIN_GROUP_QUERIES {
        scan_query_major(engine, queries, plans, k, num_threads)
    } else {
        scan_grouped(engine, queries, plans, k, num_threads)
    }
}
