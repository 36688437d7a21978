//! The prune gate of the one cluster visit, driven through the public scan
//! entry points with a toy engine: when a visit that has no bound yet takes
//! the quantised pass, that it then scores the base in bound order (the
//! ranked visit), and that neither ever changes what is kept.

use juno_common::error::Result;
use juno_common::index::{Neighbor, SearchResult, SearchStats};
use juno_common::kernel::{QuantizedLut, BLOCK_LANES, MIN_PRUNE_POINTS};
use juno_common::metric::Metric;
use juno_common::rng::{seeded, Rng};
use juno_common::topk::TopK;
use juno_quant::layout::IvfListCodes;
use juno_quant::pq::EncodedPoints;
use juno_quant::scan::{search_one, BlockRef, PlannedBatch, ScanArena, ScanCounters, ScanEngine};
use std::sync::atomic::{AtomicUsize, Ordering};

const SUBSPACES: usize = 4;
const ENTRIES: usize = 16;
const QUERY: [f32; SUBSPACES] = [3.2, 7.9, 11.1, 5.5];

/// One cluster of codes scored by squared distance to the entry index,
/// counting how often the driver quantises (the gate opened), scores
/// exactly, and scores through the block entry.
struct Toy {
    lists: IvfListCodes,
    entries: usize,
    query: Vec<f32>,
    fastscan: bool,
    /// A table entry that expands to NaN, making every candidate holding it
    /// score NaN.
    nan_entry: Option<usize>,
    quantized: AtomicUsize,
    scored: AtomicUsize,
    block_calls: AtomicUsize,
}

/// `(quantize calls, exact evaluations, score_block calls)`.
type Counts = (usize, usize, usize);

impl Toy {
    /// `points` random codes over [`SUBSPACES`] × [`ENTRIES`], against
    /// [`QUERY`].
    fn new(points: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let codes: Vec<u8> = (0..points * SUBSPACES)
            .map(|_| rng.gen_range(0..ENTRIES as u32) as u8)
            .collect();
        Self::from_codes(codes, ENTRIES, QUERY.to_vec())
    }

    /// Point-major `codes` of `query.len()` subspaces, `entries` each.
    fn from_codes(codes: Vec<u8>, entries: usize, query: Vec<f32>) -> Self {
        let codes = EncodedPoints::from_parts(codes, query.len()).unwrap();
        Self {
            lists: IvfListCodes::build(&vec![0; codes.len()], &codes, 1).unwrap(),
            entries,
            query,
            fastscan: true,
            nan_entry: None,
            quantized: AtomicUsize::new(0),
            scored: AtomicUsize::new(0),
            block_calls: AtomicUsize::new(0),
        }
    }

    fn subspaces(&self) -> usize {
        self.query.len()
    }

    /// The counts since the last call.
    fn take_counts(&self) -> Counts {
        (
            self.quantized.swap(0, Ordering::Relaxed),
            self.scored.swap(0, Ordering::Relaxed),
            self.block_calls.swap(0, Ordering::Relaxed),
        )
    }

    fn search(&self, k: usize) -> SearchResult {
        let mut arena = ScanArena::new(self.new_slot());
        search_one(self, &self.query, k, &mut arena).unwrap()
    }

    /// How many candidates the streaming visit (the storage-order lane pass
    /// from an empty selector, as the visit ran before it ranked) scores
    /// exactly for `k`.
    fn streaming_scored(&self, k: usize) -> usize {
        let mut slot = self.new_slot();
        self.expand(&self.query, &vec![0], 0, 0, &mut slot);
        let mut qlut = QuantizedLut::new();
        self.quantize(&slot, &mut qlut);
        self.take_counts();
        let (ids, codes) = (self.lists.cluster_ids(0), self.lists.cluster_codes(0));
        let s = self.subspaces();
        let mut topk = TopK::new(k, Metric::L2);
        let mut scored = 0usize;
        let mut sums = [0u16; BLOCK_LANES];
        self.lists
            .cluster_blocks(0)
            .prune_scan(&qlut, &mut sums, None, |i| {
                if !self.lists.is_deleted(ids[i]) {
                    scored += 1;
                    let raw = self.score(
                        &slot,
                        &codes[i * s..(i + 1) * s],
                        &mut ScanCounters::default(),
                    );
                    topk.push(u64::from(ids[i]), raw.unwrap());
                }
                topk.worst_score()
            });
        self.take_counts();
        scored
    }
}

impl ScanEngine for Toy {
    type Plan = Vec<usize>;
    type Slot = Vec<f32>;

    fn lists(&self) -> &IvfListCodes {
        &self.lists
    }

    fn rank_metric(&self) -> Metric {
        Metric::L2
    }

    fn fastscan(&self) -> bool {
        self.fastscan
    }

    fn plan(&self, _query: &[f32]) -> Result<Vec<usize>> {
        Ok(vec![0])
    }

    fn probes<'p>(&self, plan: &'p Vec<usize>) -> &'p [usize] {
        plan
    }

    fn new_slot(&self) -> Vec<f32> {
        Vec::new()
    }

    fn expand(
        &self,
        query: &[f32],
        _: &Vec<usize>,
        _: usize,
        _: usize,
        slot: &mut Vec<f32>,
    ) -> usize {
        slot.clear();
        for q in query {
            slot.extend((0..self.entries).map(|e| (q - e as f32).powi(2)));
        }
        if let Some(at) = self.nan_entry {
            slot[at] = f32::NAN;
        }
        0
    }

    fn quantize(&self, slot: &Vec<f32>, qlut: &mut QuantizedLut) {
        self.quantized.fetch_add(1, Ordering::Relaxed);
        // A NaN entry bounds from below as the best contribution there is.
        qlut.build_selective(slot, self.subspaces(), self.entries, 0.0, 0.0, false);
    }

    fn score(&self, slot: &Vec<f32>, code: &[u8], ctr: &mut ScanCounters) -> Option<f32> {
        self.scored.fetch_add(1, Ordering::Relaxed);
        ctr.accumulations += code.len();
        Some(
            code.iter()
                .enumerate()
                .map(|(s, &c)| slot[s * self.entries + c as usize])
                .sum(),
        )
    }

    fn score_block(
        &self,
        slot: &Vec<f32>,
        block: BlockRef<'_>,
        live: u32,
        ctr: &mut ScanCounters,
        out: &mut [Option<f32>; BLOCK_LANES],
    ) {
        self.block_calls.fetch_add(1, Ordering::Relaxed);
        let s = self.subspaces();
        for (l, out) in out.iter_mut().enumerate() {
            if live >> l & 1 != 0 {
                *out = self.score(slot, &block.codes[l * s..(l + 1) * s], ctr);
            }
        }
    }

    fn finish(&self, _: &Vec<usize>, neighbors: Vec<Neighbor>, ctr: &ScanCounters) -> SearchResult {
        SearchResult {
            neighbors,
            simulated_us: 0.0,
            stats: SearchStats {
                candidates: ctr.candidates,
                accumulations: ctr.accumulations,
                pruned_points: ctr.pruned_points,
                pruned_blocks: ctr.pruned_blocks,
                pruned_clusters: ctr.pruned_clusters,
                ..SearchStats::default()
            },
        }
    }
}

/// Ids and distance bits (NaN distances compare by bits, not by `==`).
fn kept(result: &SearchResult) -> Vec<(u64, u32)> {
    result
        .neighbors
        .iter()
        .map(|n| (n.id, n.distance.to_bits()))
        .collect()
}

/// Holds the fast-scan search to the exact scan for `k` ∈ {1, 10, 100,
/// n − 1}; where the gate opens from the empty selector, the visit must be
/// the ranked one: one quantisation, scored through the block entry, fewer
/// exact scores than the exact scan. Returns the ranked exact-score counts.
fn holds_to_exact(toy: &mut Toy, label: &str) -> Vec<(usize, usize)> {
    let n = toy.lists.cluster_ids(0).len();
    let mut ranked = Vec::new();
    for k in [1, 10, 100, n - 1] {
        toy.fastscan = true;
        let pruned = toy.search(k);
        let (quantized, scored, block_calls) = toy.take_counts();
        toy.fastscan = false;
        let exact = toy.search(k);
        let (_, scored_exact, _) = toy.take_counts();
        let label = format!("{label} k={k}");
        assert_eq!(kept(&pruned), kept(&exact), "{label}");
        assert_eq!(pruned.stats.candidates, exact.stats.candidates, "{label}");
        if n >= MIN_PRUNE_POINTS + k {
            assert_eq!(quantized, 1, "{label}: the gate must open");
            assert!(block_calls > 0, "{label}: not the ranked visit");
            assert!(scored < scored_exact, "{label}: nothing pruned");
            assert_eq!(pruned.stats.pruned_blocks, 0, "{label}");
            ranked.push((k, scored));
        } else {
            assert_eq!(quantized, 0, "{label}: the gate must stay shut");
        }
    }
    ranked
}

#[test]
fn an_empty_selector_opens_the_gate_only_when_enough_is_left_to_prune() {
    // The fleet workloads' fattest list: 142 records, k = 100. The 100
    // candidates that fill the selector cannot be pruned, and the 42 left
    // do not amortise a quantisation.
    let toy = Toy::new(142, 7);
    let exact = toy.search(100);
    let (quantized, scored, _) = toy.take_counts();
    assert_eq!((quantized, scored), (0, 142), "gate must stay shut");
    assert_eq!(exact.stats.pruned_points, 0);
    assert_eq!(exact.stats.candidates, 142);

    // The boundary: the gate opens exactly when the records left after the
    // fill reach MIN_PRUNE_POINTS.
    let open_k = 142 - MIN_PRUNE_POINTS;
    let pruned = toy.search(open_k);
    let (quantized, scored, _) = toy.take_counts();
    assert_eq!(
        quantized, 1,
        "k = {open_k} leaves MIN_PRUNE_POINTS to prune"
    );
    assert!((open_k..142).contains(&scored), "scored {scored}");
    assert_eq!(pruned.stats.pruned_points, 142 - scored);
    toy.search(open_k + 1);
    let (quantized, scored, _) = toy.take_counts();
    assert_eq!((quantized, scored), (0, 142));

    // The same list and k behind a seed bound (here the true k-th score)
    // prunes as it always has, empty selector or not: the slot streams its
    // survivors one by one, never through the ranked visit's block entry.
    let bound = exact.neighbors.last().unwrap().distance;
    let batch = PlannedBatch {
        replicas: &[&toy],
        queries: &[&QUERY],
        plans: &[vec![0]],
        seeds: &[Some(bound)],
        k: 100,
    };
    let sched = batch.schedule(0);
    assert_eq!(sched.num_chunks(), 1);
    batch.scan_chunk(&sched, 0, &mut ScanArena::new(toy.new_slot()));
    let (quantized, scored, block_calls) = toy.take_counts();
    assert_eq!(
        quantized, 1,
        "a seed bound opens the gate on list size alone"
    );
    assert!((100..142).contains(&scored), "scored {scored}");
    assert_eq!(block_calls, 0, "a slot holding a seed bound streams");
}

#[test]
fn pruning_from_an_empty_selector_keeps_what_the_exact_scan_keeps() {
    for nan_entry in [None, Some(ENTRIES + 3)] {
        let mut toy = Toy::new(700, 11);
        toy.nan_entry = nan_entry;
        let check = |toy: &mut Toy, label: &str| {
            for k in [1, 10, 100, 600, 701] {
                toy.fastscan = true;
                let pruned = toy.search(k);
                let (quantized, scored, _) = toy.take_counts();
                toy.fastscan = false;
                let exact = toy.search(k);
                let (_, scored_exact, _) = toy.take_counts();
                let label = format!("{label} nan={nan_entry:?} k={k}");
                assert_eq!(kept(&pruned), kept(&exact), "{label}");
                assert_eq!(pruned.stats.candidates, exact.stats.candidates, "{label}");
                if k <= 100 {
                    assert_eq!(quantized, 1, "{label}");
                    assert!(scored < scored_exact, "{label}: nothing pruned");
                } else if k > 700 {
                    assert_eq!((quantized, scored), (0, scored_exact), "{label}");
                }
            }
        };
        check(&mut toy, "built");
        // Tombstone the prefix that would otherwise fill the selector, and a
        // stride through the rest; then grow an append tail.
        for id in (0..120).chain((120..700).step_by(7)) {
            assert!(toy.lists.remove(id));
        }
        for i in 0..40u8 {
            toy.lists.append(0, &[i % 16, 3, 9, 5]).unwrap();
        }
        check(&mut toy, "mutated");
        toy.lists.compact();
        check(&mut toy, "compacted");
    }
}

#[test]
fn the_ranked_visit_keeps_what_the_exact_scan_keeps() {
    // Tombstones through the whole base, the lowest bounds included.
    let mut toy = Toy::new(700, 23);
    for id in (0..700).step_by(3).chain(300..340) {
        toy.lists.remove(id);
    }
    holds_to_exact(&mut toy, "tombstones");

    // An entry that scores NaN but bounds as the best contribution there
    // is, so its holders come first in bound order.
    let mut toy = Toy::new(700, 29);
    toy.nan_entry = Some(2 * ENTRIES + 11);
    holds_to_exact(&mut toy, "nan");

    // Saturated u16 sums: 300 subspaces whose far codes quantise to 255
    // each, so half the base sums past u16::MAX and lands in the last
    // bucket.
    let (subspaces, points) = (300usize, 500usize);
    let mut rng = seeded(31);
    let codes: Vec<u8> = (0..points)
        .flat_map(|i| {
            let near = i % 2 == 0;
            (0..subspaces)
                .map(|_| {
                    if near {
                        rng.gen_range(0..4u32) as u8
                    } else {
                        15
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut toy = Toy::from_codes(codes, ENTRIES, vec![0.5; subspaces]);
    let mut slot = toy.new_slot();
    toy.expand(&toy.query, &vec![0], 0, 0, &mut slot);
    let mut qlut = QuantizedLut::new();
    toy.quantize(&slot, &mut qlut);
    let mut bounds = vec![0u16; points];
    toy.lists.cluster_blocks(0).lower_bounds(&qlut, &mut bounds);
    assert_eq!(
        bounds.iter().filter(|&&b| b == u16::MAX).count(),
        points / 2
    );
    toy.take_counts();
    holds_to_exact(&mut toy, "saturated");

    // Three codes shared by every point: the k-th boundary falls inside a
    // run of equal scores, broken by id.
    let patterns = [[3u8, 8, 11, 5], [4, 7, 12, 6], [2, 9, 10, 4]];
    let codes: Vec<u8> = (0..400).flat_map(|i| patterns[i % 3]).collect();
    let mut toy = Toy::from_codes(codes, ENTRIES, QUERY.to_vec());
    holds_to_exact(&mut toy, "ties");

    // Nibble-packed rows (every code < 16) and plain u8 rows (40 entries).
    let mut toy = Toy::new(700, 37);
    assert!(toy.lists.cluster_blocks(0).nibble_packed());
    holds_to_exact(&mut toy, "nibble");
    let mut rng = seeded(41);
    let codes: Vec<u8> = (0..700 * SUBSPACES)
        .map(|_| rng.gen_range(0..40u32) as u8)
        .collect();
    let mut toy = Toy::from_codes(codes, 40, vec![13.2, 27.9, 31.1, 5.5]);
    assert!(!toy.lists.cluster_blocks(0).nibble_packed());
    holds_to_exact(&mut toy, "u8 rows");
}

#[test]
fn the_ranked_visit_scores_fewer_candidates_than_the_streaming_visit() {
    // k = 1 is left out: the ranked visit scores a whole group of 32 before
    // its first threshold, the streaming visit tightens after every
    // candidate, and at k = 1 that can cost the ranked visit a few scores.
    for seed in [43, 47, 53] {
        let mut toy = Toy::new(2_000, seed);
        for (k, ranked) in holds_to_exact(&mut toy, &format!("seed {seed}")) {
            if k == 1 {
                continue;
            }
            let streaming = toy.streaming_scored(k);
            assert!(
                ranked < streaming,
                "seed {seed} k={k}: ranked {ranked} vs streaming {streaming}"
            );
        }
    }
}

#[test]
fn the_ranked_visit_at_k_1_scores_no_more_than_the_streaming_visit() {
    // The ranked visit's first group holds only the k candidates that fill
    // the top-k, so at k = 1 the threshold exists after one exact score,
    // as the streaming visit's does; a whole first group of 32 scored 42
    // candidates on seed 47 where the streaming visit scored 37.
    for seed in [43, 47, 53] {
        let mut toy = Toy::new(2_000, seed);
        let ranked = holds_to_exact(&mut toy, &format!("seed {seed}"));
        let (k, ranked) = ranked[0];
        assert_eq!(k, 1);
        let streaming = toy.streaming_scored(1);
        assert!(
            ranked <= streaming,
            "seed {seed} k=1: ranked {ranked} vs streaming {streaming}"
        );
    }
}
