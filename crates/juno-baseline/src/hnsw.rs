//! Hierarchical Navigable Small World (HNSW) graph index.
//!
//! The paper's strongest baseline configurations add HNSW on top of IVF/PQ
//! (`IVFx_HNSWy,PQz` in FAISS). This module implements a standalone HNSW
//! graph (Malkov & Yashunin) over the raw vectors: a multi-layer proximity
//! graph where upper layers are sparse "express lanes" and layer 0 contains
//! every point. Search greedily descends the upper layers and then runs a
//! best-first beam (`ef_search`) on layer 0.

use crate::sim::SimulationConfig;
use juno_common::error::{Error, Result};
use juno_common::index::{AnnIndex, SearchResult, SearchStats};
use juno_common::metric::Metric;
use juno_common::rng::seeded;
use juno_common::rng::Rng;
use juno_common::topk::TopK;
use juno_common::vector::VectorSet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Build/search configuration of an [`HnswIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Maximum number of neighbours per node on layers above 0 (layer 0 keeps
    /// `2 * m`).
    pub m: usize,
    /// Beam width while inserting.
    pub ef_construction: usize,
    /// Beam width while searching (search-time knob; larger = better recall).
    pub ef_search: usize,
    /// Metric.
    pub metric: Metric,
    /// Seed for the level sampler.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            metric: Metric::L2,
            seed: 0x45E,
        }
    }
}

/// A max-heap entry ordered by score (worst on top) for result sets.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    id: u32,
}

impl Eq for Scored {}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A min-heap wrapper (best candidate on top) built on `Reverse` ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinScored(Scored);

impl Eq for MinScored {}
impl PartialOrd for MinScored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinScored {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// The HNSW graph index.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    points: VectorSet,
    metric: Metric,
    /// `neighbors[level][node]` is the adjacency list of `node` at `level`.
    neighbors: Vec<Vec<Vec<u32>>>,
    entry_point: u32,
    max_level: usize,
    ef_search: usize,
    m: usize,
    sim: SimulationConfig,
}

impl HnswIndex {
    /// Builds the graph by inserting every point.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] for an empty point set and
    /// [`Error::InvalidConfig`] for degenerate parameters.
    pub fn build(points: VectorSet, config: &HnswConfig) -> Result<Self> {
        if points.is_empty() {
            return Err(Error::empty_input("HNSW requires at least one point"));
        }
        if config.m < 2 {
            return Err(Error::invalid_config("HNSW m must be at least 2"));
        }
        if config.ef_construction == 0 || config.ef_search == 0 {
            return Err(Error::invalid_config("HNSW ef parameters must be positive"));
        }
        let mut rng = seeded(config.seed);
        let level_mult = 1.0 / (config.m as f64).ln();
        let n = points.len();

        // Pre-sample levels so the layer count is known.
        let node_levels: Vec<usize> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                (-u.ln() * level_mult).floor() as usize
            })
            .collect();
        let max_level = *node_levels.iter().max().unwrap_or(&0);
        let mut neighbors: Vec<Vec<Vec<u32>>> =
            (0..=max_level).map(|_| vec![Vec::new(); n]).collect();

        let mut index = Self {
            points,
            metric: config.metric,
            neighbors: Vec::new(),
            entry_point: 0,
            max_level: node_levels[0],
            ef_search: config.ef_search,
            m: config.m,
            sim: SimulationConfig::default(),
        };

        // Insert points one at a time.
        for node in 1..n {
            let node_level = node_levels[node];
            let query = index.points.row(node).to_vec();
            let mut ep = index.entry_point;
            let top = index.max_level;

            // Greedy descent through the layers above the node's level.
            for level in ((node_level + 1)..=top).rev() {
                ep = greedy_closest(&index.points, index.metric, &neighbors[level], &query, ep);
            }

            // Beam search + connect on the node's layers.
            for level in (0..=node_level.min(top)).rev() {
                let found = search_layer(
                    &index.points,
                    index.metric,
                    &neighbors[level],
                    &query,
                    &[ep],
                    config.ef_construction,
                    &mut 0usize,
                );
                let max_degree = if level == 0 { config.m * 2 } else { config.m };
                // Diversity heuristic (Malkov & Yashunin Alg. 4): keeping only
                // the nearest candidates severs clusters on clustered data;
                // keep a candidate only if it is closer to the new node than
                // to every already-kept neighbour, so long-range links survive.
                let selected =
                    select_neighbors_heuristic(&index.points, index.metric, &found, config.m);
                for &peer in &selected {
                    neighbors[level][node].push(peer);
                    neighbors[level][peer as usize].push(node as u32);
                    // Prune the peer's adjacency if it grew too large, with the
                    // same diversity heuristic.
                    if neighbors[level][peer as usize].len() > max_degree {
                        let peer_vec = index.points.row(peer as usize).to_vec();
                        let mut ranked: Vec<Scored> = neighbors[level][peer as usize]
                            .iter()
                            .map(|&nb| Scored {
                                score: index.metric.raw_to_score(
                                    index
                                        .metric
                                        .distance(&peer_vec, index.points.row(nb as usize)),
                                ),
                                id: nb,
                            })
                            .collect();
                        ranked.sort();
                        neighbors[level][peer as usize] = select_neighbors_heuristic(
                            &index.points,
                            index.metric,
                            &ranked,
                            max_degree,
                        );
                    }
                }
                if let Some(best) = found.first() {
                    ep = best.id;
                }
            }

            if node_level > index.max_level {
                index.max_level = node_level;
                index.entry_point = node as u32;
            }
        }

        index.neighbors = neighbors;
        Ok(index)
    }

    /// Replaces the GPU simulation configuration (builder style).
    pub fn with_simulation(mut self, sim: SimulationConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Changes the search beam width (search-time quality knob).
    pub fn set_ef_search(&mut self, ef: usize) {
        self.ef_search = ef.max(1);
    }
}

/// Selects up to `m` diverse neighbours from `candidates` (sorted best
/// first): a candidate is kept only if it is closer to `base` than to every
/// already-kept neighbour (Malkov & Yashunin Alg. 4, without extension). If
/// fewer than `m` survive, the discarded candidates fill the remainder in
/// rank order so degree is not wasted.
fn select_neighbors_heuristic(
    points: &VectorSet,
    metric: Metric,
    candidates: &[Scored],
    m: usize,
) -> Vec<u32> {
    let mut kept: Vec<u32> = Vec::with_capacity(m);
    let mut discarded: Vec<u32> = Vec::new();
    for cand in candidates {
        if kept.len() >= m {
            break;
        }
        let cand_vec = points.row(cand.id as usize);
        // Every candidate's `score` was computed against the base vector by
        // the caller, so the base distance needs no recomputation.
        let to_base = cand.score;
        let diverse = kept.iter().all(|&kb| {
            let to_kept = metric.raw_to_score(metric.distance(cand_vec, points.row(kb as usize)));
            to_base <= to_kept
        });
        if diverse {
            kept.push(cand.id);
        } else {
            discarded.push(cand.id);
        }
    }
    for id in discarded {
        if kept.len() >= m {
            break;
        }
        kept.push(id);
    }
    kept
}

/// Greedy single-step descent used on the upper layers.
fn greedy_closest(
    points: &VectorSet,
    metric: Metric,
    layer: &[Vec<u32>],
    query: &[f32],
    mut current: u32,
) -> u32 {
    let mut best = metric.raw_to_score(metric.distance(query, points.row(current as usize)));
    loop {
        let mut improved = false;
        for &nb in &layer[current as usize] {
            let score = metric.raw_to_score(metric.distance(query, points.row(nb as usize)));
            if score < best {
                best = score;
                current = nb;
                improved = true;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Best-first beam search within one layer. Returns up to `ef` candidates
/// sorted by score (best first). `evaluations` counts distance computations.
fn search_layer(
    points: &VectorSet,
    metric: Metric,
    layer: &[Vec<u32>],
    query: &[f32],
    entry_points: &[u32],
    ef: usize,
    evaluations: &mut usize,
) -> Vec<Scored> {
    let mut visited = vec![false; points.len()];
    let mut candidates: BinaryHeap<MinScored> = BinaryHeap::new();
    let mut results: BinaryHeap<Scored> = BinaryHeap::new();

    for &ep in entry_points {
        if visited[ep as usize] {
            continue;
        }
        visited[ep as usize] = true;
        *evaluations += 1;
        let score = metric.raw_to_score(metric.distance(query, points.row(ep as usize)));
        let s = Scored { score, id: ep };
        candidates.push(MinScored(s));
        results.push(s);
    }

    while let Some(MinScored(current)) = candidates.pop() {
        let worst = results.peek().map(|s| s.score).unwrap_or(f32::INFINITY);
        if results.len() >= ef && current.score > worst {
            break;
        }
        for &nb in &layer[current.id as usize] {
            if visited[nb as usize] {
                continue;
            }
            visited[nb as usize] = true;
            *evaluations += 1;
            let score = metric.raw_to_score(metric.distance(query, points.row(nb as usize)));
            let worst = results.peek().map(|s| s.score).unwrap_or(f32::INFINITY);
            if results.len() < ef || score < worst {
                let s = Scored { score, id: nb };
                candidates.push(MinScored(s));
                results.push(s);
                if results.len() > ef {
                    results.pop();
                }
            }
        }
    }

    let mut out: Vec<Scored> = results.into_vec();
    out.sort();
    out
}

impl AnnIndex for HnswIndex {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn search(&self, query: &[f32], k: usize) -> Result<SearchResult> {
        if k == 0 {
            return Err(Error::invalid_config("k must be positive"));
        }
        if query.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                actual: query.len(),
            });
        }
        let mut evaluations = 0usize;
        let mut ep = self.entry_point;
        for level in (1..=self.max_level).rev() {
            ep = greedy_closest(&self.points, self.metric, &self.neighbors[level], query, ep);
        }
        let ef = self.ef_search.max(k);
        let found = search_layer(
            &self.points,
            self.metric,
            &self.neighbors[0],
            query,
            &[ep],
            ef,
            &mut evaluations,
        );
        let mut topk = TopK::new(k, self.metric);
        for s in &found {
            topk.push_score(s.id as u64, s.score);
        }
        let mut stats = SearchStats {
            candidates: evaluations,
            accumulations: evaluations * self.dim(),
            ..SearchStats::default()
        };
        // Graph search is a sequence of full-dimension distance evaluations;
        // model it like a flat scan over the evaluated candidates.
        let simulated_us = self
            .sim
            .flat_scan_us(&mut stats, evaluations.max(1), self.dim());
        Ok(SearchResult {
            neighbors: topk.into_sorted_vec(),
            simulated_us,
            stats,
        })
    }

    fn name(&self) -> String {
        format!("HNSW(m={},ef={})", self.m, self.ef_search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::recall::recall_at;
    use juno_data::profiles::DatasetProfile;

    fn build_small() -> (juno_data::profiles::Dataset, HnswIndex) {
        let ds = DatasetProfile::DeepLike.generate(2_000, 20, 23).unwrap();
        let index = HnswIndex::build(
            ds.points.clone(),
            &HnswConfig {
                m: 12,
                ef_construction: 80,
                ef_search: 64,
                metric: ds.metric(),
                seed: 2,
            },
        )
        .unwrap();
        (ds, index)
    }

    #[test]
    fn recall_is_high_on_clustered_data() {
        let (ds, index) = build_small();
        let gt = ds.ground_truth(10).unwrap();
        let retrieved: Vec<Vec<u64>> = ds
            .queries
            .iter()
            .map(|q| index.search(q, 10).unwrap().ids())
            .collect();
        let r = recall_at(&retrieved, &gt, 10, 10).unwrap();
        assert!(r > 0.85, "HNSW recall {r} too low");
    }

    #[test]
    fn recall_improves_with_ef_search() {
        let (ds, mut index) = build_small();
        let gt = ds.ground_truth(10).unwrap();
        let recall_with = |index: &HnswIndex| {
            let retrieved: Vec<Vec<u64>> = ds
                .queries
                .iter()
                .map(|q| index.search(q, 10).unwrap().ids())
                .collect();
            recall_at(&retrieved, &gt, 10, 10).unwrap()
        };
        index.set_ef_search(8);
        let low_ef = recall_with(&index);
        index.set_ef_search(128);
        let high_ef = recall_with(&index);
        assert!(
            high_ef >= low_ef,
            "recall must not drop with larger ef ({low_ef} -> {high_ef})"
        );
    }

    #[test]
    fn visits_small_fraction_of_points() {
        let (ds, index) = build_small();
        let res = index.search(ds.queries.row(0), 10).unwrap();
        assert!(
            res.stats.candidates < ds.points.len() / 2,
            "HNSW evaluated {} of {} points",
            res.stats.candidates,
            ds.points.len()
        );
        assert!(res.simulated_us > 0.0);
    }

    #[test]
    fn degree_bound_is_respected() {
        let (_, index) = build_small();
        let max_degree = index.neighbors[0].iter().map(Vec::len).max().unwrap_or(0);
        assert!(max_degree <= 24, "layer-0 degree {max_degree} exceeds 2m");
        assert!(!index.neighbors.is_empty());
    }

    #[test]
    fn single_point_and_validation() {
        let points = VectorSet::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        let index = HnswIndex::build(points, &HnswConfig::default()).unwrap();
        let res = index.search(&[1.0, 2.0], 1).unwrap();
        assert_eq!(res.neighbors[0].id, 0);
        assert!(index.search(&[1.0, 2.0], 0).is_err());
        assert!(index.search(&[1.0], 1).is_err());
        assert!(HnswIndex::build(VectorSet::new(2).unwrap(), &HnswConfig::default()).is_err());
        assert!(HnswIndex::build(
            VectorSet::from_rows(vec![vec![0.0]]).unwrap(),
            &HnswConfig {
                m: 1,
                ..HnswConfig::default()
            }
        )
        .is_err());
        assert!(index.name().starts_with("HNSW"));
    }
}
