//! The prune gate of the one cluster visit, driven through the public scan
//! entry points with a toy engine: when a visit that has no bound yet takes
//! the quantised pass, and that taking it never changes what is kept.

use juno_common::error::Result;
use juno_common::index::{Neighbor, SearchResult, SearchStats};
use juno_common::kernel::{QuantizedLut, MIN_PRUNE_POINTS};
use juno_common::metric::Metric;
use juno_common::rng::{seeded, Rng};
use juno_quant::layout::IvfListCodes;
use juno_quant::pq::EncodedPoints;
use juno_quant::scan::{search_one, PlannedBatch, ScanArena, ScanCounters, ScanEngine};
use std::sync::atomic::{AtomicUsize, Ordering};

const SUBSPACES: usize = 4;
const ENTRIES: usize = 16;
const QUERY: [f32; SUBSPACES] = [3.2, 7.9, 11.1, 5.5];

/// One cluster of random codes scored by squared distance to the entry
/// index, counting how often the driver quantises (the gate opened) and
/// scores exactly.
struct Toy {
    lists: IvfListCodes,
    fastscan: bool,
    /// A table entry that expands to NaN, making every candidate holding it
    /// score NaN.
    nan_entry: Option<usize>,
    quantized: AtomicUsize,
    scored: AtomicUsize,
}

impl Toy {
    fn new(points: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let codes: Vec<u8> = (0..points * SUBSPACES)
            .map(|_| rng.gen_range(0..ENTRIES as u32) as u8)
            .collect();
        let codes = EncodedPoints::from_parts(codes, SUBSPACES).unwrap();
        Self {
            lists: IvfListCodes::build(&vec![0; points], &codes, 1).unwrap(),
            fastscan: true,
            nan_entry: None,
            quantized: AtomicUsize::new(0),
            scored: AtomicUsize::new(0),
        }
    }

    /// `(quantize calls, exact evaluations)` since the last call.
    fn take_counts(&self) -> (usize, usize) {
        (
            self.quantized.swap(0, Ordering::Relaxed),
            self.scored.swap(0, Ordering::Relaxed),
        )
    }

    fn search(&self, k: usize) -> SearchResult {
        let mut arena = ScanArena::new(self.new_slot());
        search_one(self, &QUERY, k, &mut arena).unwrap()
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

    fn expand(&self, query: &[f32], _: &Vec<usize>, _: usize, _: usize, slot: &mut Vec<f32>) {
        slot.clear();
        for q in query {
            slot.extend((0..ENTRIES).map(|e| (q - e as f32).powi(2)));
        }
        if let Some(at) = self.nan_entry {
            slot[at] = f32::NAN;
        }
    }

    fn quantize(&self, slot: &Vec<f32>, qlut: &mut QuantizedLut) {
        self.quantized.fetch_add(1, Ordering::Relaxed);
        // A NaN entry bounds from below as the best contribution there is.
        qlut.build_selective(slot, SUBSPACES, ENTRIES, 0.0, 0.0, false);
    }

    fn score(&self, slot: &Vec<f32>, code: &[u8], ctr: &mut ScanCounters) -> Option<f32> {
        self.scored.fetch_add(1, Ordering::Relaxed);
        ctr.accumulations += code.len();
        Some(
            code.iter()
                .enumerate()
                .map(|(s, &c)| slot[s * ENTRIES + c as usize])
                .sum(),
        )
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

#[test]
fn an_empty_selector_opens_the_gate_only_when_enough_is_left_to_prune() {
    // The fleet workloads' fattest list: 142 records, k = 100. The 100
    // candidates that fill the selector cannot be pruned, and the 42 left
    // do not amortise a quantisation.
    let toy = Toy::new(142, 7);
    let exact = toy.search(100);
    assert_eq!(toy.take_counts(), (0, 142), "gate must stay shut");
    assert_eq!(exact.stats.pruned_points, 0);
    assert_eq!(exact.stats.candidates, 142);

    // The boundary: the gate opens exactly when the records left after the
    // fill reach MIN_PRUNE_POINTS.
    let open_k = 142 - MIN_PRUNE_POINTS;
    let pruned = toy.search(open_k);
    let (quantized, scored) = toy.take_counts();
    assert_eq!(
        quantized, 1,
        "k = {open_k} leaves MIN_PRUNE_POINTS to prune"
    );
    assert!((open_k..142).contains(&scored), "scored {scored}");
    assert_eq!(pruned.stats.pruned_points, 142 - scored);
    toy.search(open_k + 1);
    assert_eq!(toy.take_counts(), (0, 142));

    // The same list and k behind a seed bound (here the true k-th score)
    // prunes as it always has, empty selector or not.
    let bound = exact.neighbors.last().unwrap().distance;
    let batch = PlannedBatch {
        engine: &toy,
        queries: &[&QUERY],
        plans: &[vec![0]],
        seeds: &[Some(bound)],
        k: 100,
    };
    let sched = batch.schedule(0);
    assert_eq!(sched.num_chunks(), 1);
    batch.scan_chunk(&sched, 0, &mut ScanArena::new(toy.new_slot()));
    let (quantized, scored) = toy.take_counts();
    assert_eq!(
        quantized, 1,
        "a seed bound opens the gate on list size alone"
    );
    assert!((100..142).contains(&scored), "scored {scored}");
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
                let (quantized, scored) = toy.take_counts();
                toy.fastscan = false;
                let exact = toy.search(k);
                let (_, scored_exact) = toy.take_counts();
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
