//! Similarity metrics used throughout the JUNO paper.
//!
//! The paper (Section 2.1) evaluates two metrics:
//!
//! * **L2 distance** (lower is better): `L2(q, x) = Σ (x_i - q_i)^2`.
//!   Note that, following FAISS and the paper, the *squared* L2 distance is
//!   used everywhere — the square root is monotone and therefore irrelevant
//!   for ranking.
//! * **Inner product** (higher is better): `IP(q, x) = Σ x_i * q_i`, used by
//!   the TTI1M dataset and LLM attention workloads (MIPS).
//!
//! [`Metric::score`] converts both into a uniform "lower is better" value so
//! that top-k selection code does not need to special-case the metric.

/// The similarity metric of a dataset or index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Squared Euclidean distance; lower is better.
    #[default]
    L2,
    /// Inner (dot) product similarity; higher is better (MIPS).
    InnerProduct,
}

impl Metric {
    /// Returns `true` if a *larger* raw metric value means a better match.
    #[inline]
    pub fn higher_is_better(self) -> bool {
        matches!(self, Metric::InnerProduct)
    }

    /// Computes the raw metric value between two equal-length slices.
    ///
    /// For [`Metric::L2`] this is the squared L2 distance, for
    /// [`Metric::InnerProduct`] the dot product.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slices have different lengths.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "metric operands must have equal length");
        match self {
            Metric::L2 => l2_squared(a, b),
            Metric::InnerProduct => inner_product(a, b),
        }
    }

    /// Computes a "lower is better" score usable directly by top-k selection.
    ///
    /// For L2 this is the distance itself; for inner product it is the negated
    /// dot product.
    #[inline]
    pub fn score(self, a: &[f32], b: &[f32]) -> f32 {
        let raw = self.distance(a, b);
        self.raw_to_score(raw)
    }

    /// Converts a raw metric value into a "lower is better" score.
    #[inline]
    pub fn raw_to_score(self, raw: f32) -> f32 {
        match self {
            Metric::L2 => raw,
            Metric::InnerProduct => -raw,
        }
    }

    /// Converts a "lower is better" score back into the raw metric value.
    #[inline]
    pub fn score_to_raw(self, score: f32) -> f32 {
        match self {
            Metric::L2 => score,
            Metric::InnerProduct => -score,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Metric::L2 => write!(f, "L2"),
            Metric::InnerProduct => write!(f, "IP"),
        }
    }
}

/// Squared L2 distance between two equal-length slices.
///
/// Eight independent accumulators over eight-element chunks, reduced as
/// `((a0+a4)+(a1+a5))+((a2+a6)+(a3+a7))`, then the tail added scalar in
/// order. What makes the chunk loop vectorise is its shape, not the
/// accumulators: `as_chunks` hands it `&[f32; 8]`, so the eight lane
/// accesses need no bounds check and the optimiser emits packed
/// subtract / multiply / add (two 128-bit registers at baseline SSE2). An
/// indexed `a[i + lane]` keeps a check per element and stays scalar. The
/// result's bits are pinned against a transcription of the indexed loop by
/// `chunked_kernels_repeat_the_indexed_loop_bit_for_bit` below.
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (a8, a_tail) = a.as_chunks::<8>();
    let (b8, b_tail) = b.as_chunks::<8>();
    let mut acc = [0.0f32; 8];
    for (x, y) in a8.iter().zip(b8) {
        for lane in 0..8 {
            let d = x[lane] - y[lane];
            acc[lane] += d * d;
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Inner (dot) product between two equal-length slices — the loop shape,
/// reduction order and pinning test of [`l2_squared`].
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (a8, a_tail) = a.as_chunks::<8>();
    let (b8, b_tail) = b.as_chunks::<8>();
    let mut acc = [0.0f32; 8];
    for (x, y) in a8.iter().zip(b8) {
        for lane in 0..8 {
            acc[lane] += x[lane] * y[lane];
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// Squared L2 norm of a vector (`Σ x_i^2`).
#[inline]
pub fn squared_norm(a: &[f32]) -> f32 {
    inner_product(a, a)
}

/// Computes raw metric values from one query against many rows of a flat
/// row-major matrix, appending the results to `out`.
///
/// `rows` must have length `n * dim`. This is the batched kernel used by the
/// filtering stage (query vs. all IVF centroids) and by flat baselines.
pub fn batch_distances(
    metric: Metric,
    query: &[f32],
    rows: &[f32],
    dim: usize,
    out: &mut Vec<f32>,
) {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(rows.len() % dim, 0, "rows length must be a multiple of dim");
    assert_eq!(query.len(), dim, "query length must equal dim");
    let n = rows.len() / dim;
    out.reserve(n);
    for r in 0..n {
        let row = &rows[r * dim..(r + 1) * dim];
        out.push(metric.distance(query, row));
    }
}

/// Decomposed squared L2 distance `‖x − q‖² = ‖x‖² − 2·x·q + ‖q‖²`.
///
/// The paper (Section 5.3) uses this identity so that the `‖x‖²` term can be
/// precomputed offline and the cross term `x·qᵀ` mapped to a GEMM on tensor
/// cores. This helper evaluates the identity given a precomputed `‖x‖²`.
#[inline]
pub fn l2_from_decomposition(x_sq_norm: f32, dot_xq: f32, q_sq_norm: f32) -> f32 {
    x_sq_norm - 2.0 * dot_xq + q_sq_norm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_naive() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [5.0, 4.0, 3.0, 2.0, 1.0];
        let naive: f32 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_squared(&a, &b) - naive).abs() < 1e-6);
    }

    #[test]
    fn ip_matches_naive() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [0.5, -1.0, 2.0, 0.0, 1.0, -2.0];
        let naive: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!((inner_product(&a, &b) - naive).abs() < 1e-6);
    }

    #[test]
    fn score_orders_ip_correctly() {
        // Higher inner product must produce a lower (better) score.
        let q = [1.0, 0.0];
        let close = [0.9, 0.1];
        let far = [0.1, 0.9];
        let m = Metric::InnerProduct;
        assert!(m.score(&q, &close) < m.score(&q, &far));
    }

    #[test]
    fn score_raw_roundtrip() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            for raw in [-3.5f32, 0.0, 1.25, 97.0] {
                let score = metric.raw_to_score(raw);
                assert_eq!(metric.score_to_raw(score), raw);
            }
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let dim = 3;
        let rows = vec![1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0];
        let q = [1.0, 1.0, 1.0];
        let mut out = Vec::new();
        batch_distances(Metric::L2, &q, &rows, dim, &mut out);
        assert_eq!(out.len(), 3);
        for (i, &d) in out.iter().enumerate() {
            let row = &rows[i * dim..(i + 1) * dim];
            assert!((d - l2_squared(&q, row)).abs() < 1e-6);
        }
    }

    #[test]
    fn decomposition_identity() {
        let x = [0.5f32, -1.0, 2.0, 4.0];
        let q = [1.0f32, 1.0, -1.0, 0.25];
        let direct = l2_squared(&x, &q);
        let via = l2_from_decomposition(squared_norm(&x), inner_product(&x, &q), squared_norm(&q));
        assert!((direct - via).abs() < 1e-4);
    }

    #[test]
    fn widened_kernels_match_naive_within_tolerance() {
        // Property test: random lengths (covering every chunk remainder) and
        // random values; the 8-lane kernels must agree with the naive loop
        // to within 1e-4 relative error.
        use crate::rng::{seeded, Rng};
        let mut rng = seeded(0xACC);
        for case in 0..200u64 {
            let n = rng.gen_range(0..70usize);
            let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
            let naive_l2: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            let naive_ip: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let l2 = l2_squared(&a, &b);
            let ip = inner_product(&a, &b);
            assert!(
                (l2 - naive_l2).abs() <= 1e-4 * naive_l2.abs().max(1.0),
                "case {case} (n={n}): l2 {l2} vs naive {naive_l2}"
            );
            assert!(
                (ip - naive_ip).abs() <= 1e-4 * naive_ip.abs().max(1.0),
                "case {case} (n={n}): ip {ip} vs naive {naive_ip}"
            );
        }
    }

    /// The loops as they were written before they vectorised: indexed
    /// element access, the same accumulators, reduction and tail.
    fn indexed_l2(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let i = c * 8;
            for lane in 0..8 {
                let d = a[i + lane] - b[i + lane];
                acc[lane] += d * d;
            }
        }
        let mut sum =
            ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        for i in chunks * 8..a.len() {
            let d = a[i] - b[i];
            sum += d * d;
        }
        sum
    }

    fn indexed_ip(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let i = c * 8;
            for lane in 0..8 {
                acc[lane] += a[i + lane] * b[i + lane];
            }
        }
        let mut sum =
            ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        for i in chunks * 8..a.len() {
            sum += a[i] * b[i];
        }
        sum
    }

    #[test]
    fn chunked_kernels_repeat_the_indexed_loop_bit_for_bit() {
        use crate::rng::{seeded, Rng};
        let mut rng = seeded(0xB175);
        for n in (0..=40usize).chain([96]) {
            for case in 0..24u32 {
                // Magnitudes from 1e-3 to 1e6, so rounding differs per lane.
                let scale = 10f32.powi(case as i32 % 10 - 3);
                let a: Vec<f32> = (0..n)
                    .map(|_| rng.gen_range(-1.0f32..1.0) * scale)
                    .collect();
                let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                assert_eq!(
                    l2_squared(&a, &b).to_bits(),
                    indexed_l2(&a, &b).to_bits(),
                    "l2 n={n} case {case}"
                );
                assert_eq!(
                    inner_product(&a, &b).to_bits(),
                    indexed_ip(&a, &b).to_bits(),
                    "ip n={n} case {case}"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Metric::L2.to_string(), "L2");
        assert_eq!(Metric::InnerProduct.to_string(), "IP");
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn batch_rejects_ragged_rows() {
        let mut out = Vec::new();
        batch_distances(Metric::L2, &[1.0, 2.0], &[1.0, 2.0, 3.0], 2, &mut out);
    }
}
