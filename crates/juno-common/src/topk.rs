//! Bounded top-k selection and deterministic top-k merging.
//!
//! Every ANN index in the workspace ends its search with "keep the k best
//! candidates seen so far". [`TopK`] implements that with a bounded binary
//! max-heap over "lower is better" scores (see
//! [`Metric::raw_to_score`](crate::metric::Metric::raw_to_score)), so both L2
//! and inner-product searches use the same selector.
//!
//! The sharded serving layer additionally needs to combine per-shard result
//! lists into one global top-k. [`merge_neighbors`] implements that as a
//! deterministic k-way merge under a **total** order — the raw value mapped
//! through a [`ScoreOrder`] direction, ties broken by ascending id, NaN
//! ranked strictly worst — which makes the merge associative and invariant
//! to the order its inputs arrive in (the contract the scatter-gather path
//! and its property tests rely on).
//!
//! [`TopK`] ranks under the *same* strict total order (score, then ascending
//! id, NaN worst): a candidate tied with the current worst on score but
//! carrying a smaller id displaces it. With unique ids the kept set is
//! therefore a pure function of the candidate *set* — *insertion-order
//! invariant* — which is what lets the cluster-major grouped batch executor
//! visit a query's probed clusters in storage order (and merge per-chunk
//! partial top-ks) while staying bit-identical to the sequential per-query
//! scan, and what makes the boundary-tie behaviour agree with
//! [`merge_neighbors`].

use crate::index::Neighbor;
use crate::metric::Metric;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate held inside the heap. Ordered by score so that the *worst*
/// (largest score) candidate sits at the top of the max-heap and can be
/// evicted in `O(log k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    score: f32,
    id: u64,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN-safe total ordering: NaN scores are considered the worst possible
        // candidates so they never displace valid ones.
        self.score
            .partial_cmp(&other.score)
            .unwrap_or_else(|| match (self.score.is_nan(), other.score.is_nan()) {
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                _ => Ordering::Equal,
            })
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A bounded selector that keeps the `k` candidates with the lowest score.
///
/// # Example
///
/// ```
/// use juno_common::{topk::TopK, Metric};
///
/// let mut topk = TopK::new(2, Metric::L2);
/// topk.push(10, 5.0);
/// topk.push(11, 1.0);
/// topk.push(12, 3.0);
/// let out = topk.into_sorted_vec();
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].id, 11);
/// assert_eq!(out[1].id, 12);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    metric: Metric,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Creates a selector keeping the best `k` candidates under `metric`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, metric: Metric) -> Self {
        assert!(k > 0, "top-k selector requires k > 0");
        Self {
            k,
            metric,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The `k` this selector was created with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The metric this selector interprets raw values with.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of candidates currently held (at most `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no candidate has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes a candidate given its *raw* metric value (L2 distance or inner
    /// product). Returns `true` if the candidate was kept.
    #[inline]
    pub fn push(&mut self, id: u64, raw: f32) -> bool {
        self.push_score(id, self.metric.raw_to_score(raw))
    }

    /// Pushes a candidate given an already-converted "lower is better" score.
    ///
    /// Boundary comparisons use the full `(score, id)` total order (NaN
    /// strictly worst): a candidate that ties the current worst on score but
    /// has a smaller id displaces it. This keeps the kept set
    /// insertion-order invariant (ids are unique), so any scan order — and
    /// any merge of partial selections — produces the same k best.
    #[inline]
    pub fn push_score(&mut self, id: u64, score: f32) -> bool {
        let candidate = HeapEntry { score, id };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
            return true;
        }
        // Heap is full: insert only when strictly better than the worst
        // under the total order. The order ranks NaN worst, so a NaN worst
        // is displaced by any real score while a NaN candidate never
        // displaces a real one.
        let worst = self
            .heap
            .peek()
            .expect("heap cannot be empty when len == k > 0");
        if candidate < *worst {
            self.heap.pop();
            self.heap.push(candidate);
            true
        } else {
            false
        }
    }

    /// Resets the selector for reuse (e.g. the per-query slots of a batch
    /// arena), keeping the heap's allocation.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize, metric: Metric) {
        assert!(k > 0, "top-k selector requires k > 0");
        self.k = k;
        self.metric = metric;
        self.heap.clear();
    }

    /// Drains the held candidates as `(id, "lower is better" score)` pairs in
    /// unspecified order, leaving the selector empty but its allocation
    /// intact. Feeding every drained pair of several selectors into one fresh
    /// selector via [`TopK::push_score`] reconstructs the global k best
    /// (selection is insertion-order invariant), which is how the grouped
    /// batch executor merges per-chunk partial results.
    pub fn drain_entries(&mut self, out: &mut Vec<(u64, f32)>) {
        out.extend(self.heap.drain().map(|e| (e.id, e.score)));
    }

    /// Current worst kept score, or `None` if fewer than `k` candidates have
    /// been pushed. Useful for pruning (a candidate with a worse bound cannot
    /// enter the result).
    #[inline]
    pub fn worst_score(&self) -> Option<f32> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|e| e.score)
        }
    }

    /// Consumes the selector and returns neighbours sorted from best to worst.
    ///
    /// The returned [`Neighbor::distance`] holds the *raw* metric value (an L2
    /// distance, or an inner product for MIPS).
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let metric = self.metric;
        let mut entries: Vec<HeapEntry> = self.heap.into_vec();
        entries.sort_unstable();
        entries
            .into_iter()
            .map(|e| Neighbor {
                id: e.id,
                distance: metric.score_to_raw(e.score),
            })
            .collect()
    }
}

/// The direction in which raw [`Neighbor::distance`] values rank, used by
/// the scatter-gather merge to compare results coming from different shards.
///
/// Engines whose raw values are "lower is better" (L2 distances) merge
/// [`ScoreOrder::Ascending`]; engines whose raw values are "higher is
/// better" (inner products, hit-count scores) merge
/// [`ScoreOrder::Descending`]. See
/// [`AnnIndex::merge_order`](crate::index::AnnIndex::merge_order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreOrder {
    /// Smaller raw values are better (L2 squared distances).
    Ascending,
    /// Larger raw values are better (inner products, hit counts).
    Descending,
}

impl ScoreOrder {
    /// The order implied by a metric's raw values: L2 ranks ascending,
    /// inner product ranks descending.
    pub fn from_metric(metric: Metric) -> Self {
        match metric {
            Metric::L2 => ScoreOrder::Ascending,
            Metric::InnerProduct => ScoreOrder::Descending,
        }
    }

    /// Maps a raw value onto the shared "lower is better" key space
    /// (negation for descending orders; NaN stays NaN and ranks worst).
    #[inline]
    pub(crate) fn key(self, raw: f32) -> f32 {
        match self {
            ScoreOrder::Ascending => raw,
            ScoreOrder::Descending => -raw,
        }
    }

    /// The total order the merge ranks with: key first (NaN strictly worst),
    /// ties broken by ascending id.
    #[inline]
    pub fn cmp_neighbors(self, a: &Neighbor, b: &Neighbor) -> Ordering {
        score_order(self.key(a.distance), self.key(b.distance)).then_with(|| a.id.cmp(&b.id))
    }
}

/// Merges per-shard result lists into the global `k` best under `order`.
///
/// Every input list must already be sorted best-first under the same total
/// order (which [`TopK::into_sorted_vec`] and the engines' hit-count sort
/// both produce); ids must be unique across lists. Under that contract the
/// merge is **deterministic, associative and order-invariant**: merging the
/// lists in any grouping or sequence — including through truncated
/// intermediate merges of at least `k` — yields bit-identical output, which
/// is what makes scatter-gather results independent of shard completion
/// order. Fewer than `k` total candidates simply yield a shorter list.
pub fn merge_neighbors(lists: &[Vec<Neighbor>], k: usize, order: ScoreOrder) -> Vec<Neighbor> {
    let mut cursors = vec![0usize; lists.len()];
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(k.min(total));
    while out.len() < k {
        let mut best: Option<(usize, &Neighbor)> = None;
        for (li, list) in lists.iter().enumerate() {
            let Some(head) = list.get(cursors[li]) else {
                continue;
            };
            best = match best {
                Some((_, b)) if order.cmp_neighbors(b, head) != Ordering::Greater => best,
                _ => Some((li, head)),
            };
        }
        let Some((li, head)) = best else {
            break;
        };
        out.push(*head);
        cursors[li] += 1;
    }
    out
}

/// NaN-safe "lower is better" ordering over values: any NaN ranks strictly
/// worse than every number, matching the heap selector's semantics.
#[inline]
fn score_order(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| match (a.is_nan(), b.is_nan()) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            _ => Ordering::Equal,
        })
}

/// O(n) partial selection of the `k` best indices under `cmp`, returned in
/// ranked (best-first) order. `select_nth_unstable_by` partitions the k best
/// to the front in linear time; only those k are then sorted.
fn select_k_indices(n: usize, k: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<usize> {
    let k = k.min(n);
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    if k < n {
        idx.select_nth_unstable_by(k - 1, |&a, &b| cmp(a, b));
        idx.truncate(k);
    }
    idx.sort_unstable_by(|&a, &b| cmp(a, b));
    idx
}

/// Selects the indices of the `k` largest values of a slice (ties broken by
/// index, NaN ranked worst) in O(n).
pub fn largest_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    select_k_indices(values.len(), k, |a, b| {
        score_order(-values[a], -values[b]).then_with(|| a.cmp(&b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k_under_l2() {
        let mut topk = TopK::new(3, Metric::L2);
        let values = [9.0, 1.0, 4.0, 7.0, 2.0, 8.0];
        for (i, &v) in values.iter().enumerate() {
            topk.push(i as u64, v);
        }
        let ids: Vec<u64> = topk.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 4, 2]);
    }

    #[test]
    fn keeps_best_k_under_ip() {
        let mut topk = TopK::new(2, Metric::InnerProduct);
        for (i, &v) in [0.1, 0.9, 0.5, 0.95].iter().enumerate() {
            topk.push(i as u64, v);
        }
        let out = topk.into_sorted_vec();
        assert_eq!(out[0].id, 3);
        assert_eq!(out[1].id, 1);
        // Raw inner-product values are preserved in the output.
        assert!((out[0].distance - 0.95).abs() < 1e-6);
    }

    #[test]
    fn worst_score_reports_threshold() {
        let mut topk = TopK::new(2, Metric::L2);
        assert!(topk.worst_score().is_none());
        topk.push(0, 3.0);
        assert!(topk.worst_score().is_none());
        topk.push(1, 1.0);
        assert_eq!(topk.worst_score(), Some(3.0));
        topk.push(2, 2.0);
        assert_eq!(topk.worst_score(), Some(2.0));
    }

    #[test]
    fn nan_never_displaces_valid_candidates() {
        let mut topk = TopK::new(2, Metric::L2);
        topk.push(0, 1.0);
        topk.push(1, 2.0);
        topk.push(2, f32::NAN);
        let ids: Vec<u64> = topk.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn boundary_ties_break_by_id_like_the_merge_order() {
        // A tie with the current worst on score is decided by id — the same
        // total order merge_neighbors ranks with — so the kept set does not
        // depend on which tied candidate arrived first.
        let mut early = TopK::new(2, Metric::L2);
        for (id, v) in [(9, 3.0), (1, 1.0), (5, 3.0)] {
            early.push(id, v);
        }
        let mut late = TopK::new(2, Metric::L2);
        for (id, v) in [(5, 3.0), (1, 1.0), (9, 3.0)] {
            late.push(id, v);
        }
        let ids = |t: TopK| t.into_sorted_vec().iter().map(|n| n.id).collect::<Vec<_>>();
        assert_eq!(ids(early), vec![1, 5]);
        assert_eq!(ids(late), vec![1, 5]);
    }

    #[test]
    fn selection_is_insertion_order_invariant() {
        use crate::rng::{seeded, Rng};
        let mut rng = seeded(0x0D3A);
        for case in 0..100u64 {
            let n = rng.gen_range(1..40usize);
            let k = rng.gen_range(1..12usize);
            // Few distinct values force boundary ties.
            let scores: Vec<f32> = (0..n).map(|_| (rng.gen_range(0..5u32)) as f32).collect();
            let forward = {
                let mut t = TopK::new(k, Metric::L2);
                for (i, &s) in scores.iter().enumerate() {
                    t.push_score(i as u64, s);
                }
                t.into_sorted_vec()
            };
            // A deterministic shuffle of the insertion order.
            let mut order: Vec<usize> = (0..n).collect();
            for i in 0..n {
                let j = rng.gen_range(i..n);
                order.swap(i, j);
            }
            let shuffled = {
                let mut t = TopK::new(k, Metric::L2);
                for &i in &order {
                    t.push_score(i as u64, scores[i]);
                }
                t.into_sorted_vec()
            };
            assert_eq!(forward, shuffled, "case {case} scores={scores:?}");
            // Partial selections merged through drain_entries reconstruct
            // the same global k best (the grouped executor's merge step).
            let cut = rng.gen_range(0..=n);
            let mut merged = TopK::new(k, Metric::L2);
            let mut buf = Vec::new();
            for part in [&order[..cut], &order[cut..]] {
                let mut partial = TopK::new(k, Metric::L2);
                for &i in part {
                    partial.push_score(i as u64, scores[i]);
                }
                buf.clear();
                partial.drain_entries(&mut buf);
                for &(id, s) in &buf {
                    merged.push_score(id, s);
                }
            }
            assert_eq!(forward, merged.into_sorted_vec(), "case {case} merge");
        }
    }

    #[test]
    fn reset_reuses_the_selector() {
        let mut topk = TopK::new(3, Metric::L2);
        topk.push(1, 4.0);
        topk.push(2, 2.0);
        topk.reset(2, Metric::InnerProduct);
        assert!(topk.is_empty());
        assert_eq!(topk.k(), 2);
        assert_eq!(topk.metric(), Metric::InnerProduct);
        topk.push(7, 0.5);
        assert_eq!(topk.into_sorted_vec()[0].id, 7);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut topk = TopK::new(10, Metric::L2);
        topk.push(7, 3.0);
        let out = topk.into_sorted_vec();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
    }

    #[test]
    #[should_panic(expected = "k > 0")]
    fn zero_k_panics() {
        let _ = TopK::new(0, Metric::L2);
    }

    fn heap_largest_k(values: &[f32], k: usize) -> Vec<usize> {
        if k == 0 || values.is_empty() {
            return Vec::new();
        }
        let mut selector = TopK::new(k.min(values.len()), Metric::L2);
        for (i, &v) in values.iter().enumerate() {
            selector.push_score(i as u64, -v);
        }
        selector
            .into_sorted_vec()
            .into_iter()
            .map(|n| n.id as usize)
            .collect()
    }

    #[test]
    fn selection_matches_heap_reference_including_tie_order() {
        use crate::rng::{seeded, Rng};
        let mut rng = seeded(0x5E1);
        for case in 0..200u64 {
            let n = rng.gen_range(0..60usize);
            // Few distinct values => plenty of ties that must break by index.
            let values: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..10u32) {
                    0 => f32::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    v => (v % 4) as f32,
                })
                .collect();
            for k in [0usize, 1, 2, 5, n, n + 3] {
                assert_eq!(
                    largest_k_indices(&values, k),
                    heap_largest_k(&values, k),
                    "case {case} largest k={k} values={values:?}"
                );
            }
        }
    }

    #[test]
    fn equal_values_rank_by_index() {
        let v = [2.0, 1.0, 2.0, 1.0, 2.0];
        assert_eq!(largest_k_indices(&v, 3), vec![0, 2, 4]);
    }

    fn sorted_under(mut v: Vec<Neighbor>, order: ScoreOrder) -> Vec<Neighbor> {
        v.sort_by(|a, b| order.cmp_neighbors(a, b));
        v
    }

    #[test]
    fn merge_neighbors_matches_global_sort_both_directions() {
        use crate::rng::{seeded, Rng};
        let mut rng = seeded(0x004D_4552u64);
        for order in [ScoreOrder::Ascending, ScoreOrder::Descending] {
            for case in 0..50u64 {
                let lists: Vec<Vec<Neighbor>> = (0..rng.gen_range(1..5usize))
                    .map(|li| {
                        sorted_under(
                            (0..rng.gen_range(0..12usize))
                                .map(|i| {
                                    Neighbor::new(
                                        (li * 1000 + i) as u64,
                                        (rng.gen_range(0..6u32)) as f32 * 0.5,
                                    )
                                })
                                .collect(),
                            order,
                        )
                    })
                    .collect();
                for k in [1usize, 3, 10, 50] {
                    let merged = merge_neighbors(&lists, k, order);
                    let mut all: Vec<Neighbor> = lists.iter().flatten().copied().collect();
                    all = sorted_under(all, order);
                    all.truncate(k);
                    assert_eq!(merged, all, "case {case} k={k} order={order:?}");
                }
            }
        }
    }

    #[test]
    fn merge_ranks_nan_strictly_worst_and_ties_by_id() {
        let a = vec![Neighbor::new(7, 1.0), Neighbor::new(8, f32::NAN)];
        let b = vec![Neighbor::new(3, 1.0), Neighbor::new(4, 2.0)];
        let merged = merge_neighbors(&[a, b], 4, ScoreOrder::Ascending);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 7, 4, 8], "tie 1.0 breaks by id, NaN last");
    }

    #[test]
    fn merge_handles_empty_and_short_inputs() {
        assert!(merge_neighbors(&[], 5, ScoreOrder::Ascending).is_empty());
        assert!(merge_neighbors(&[vec![], vec![]], 5, ScoreOrder::Descending).is_empty());
        let one = vec![Neighbor::new(1, 0.5)];
        assert_eq!(
            merge_neighbors(std::slice::from_ref(&one), 5, ScoreOrder::Ascending),
            one
        );
    }

    #[test]
    fn score_order_from_metric_and_key() {
        assert_eq!(ScoreOrder::from_metric(Metric::L2), ScoreOrder::Ascending);
        assert_eq!(
            ScoreOrder::from_metric(Metric::InnerProduct),
            ScoreOrder::Descending
        );
        assert_eq!(ScoreOrder::Ascending.key(2.0), 2.0);
        assert_eq!(ScoreOrder::Descending.key(2.0), -2.0);
        assert!(ScoreOrder::Descending.key(f32::NAN).is_nan());
    }

    #[test]
    fn index_helpers() {
        let v = [5.0, 1.0, 3.0, 2.0];
        assert_eq!(largest_k_indices(&v, 2), vec![0, 2]);
        assert_eq!(largest_k_indices(&v, 0), Vec::<usize>::new());
        assert_eq!(largest_k_indices(&[], 3), Vec::<usize>::new());
        // k larger than the slice simply returns all indices ranked.
        assert_eq!(largest_k_indices(&v, 10).len(), 4);
    }
}
