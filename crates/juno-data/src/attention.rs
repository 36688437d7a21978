//! Synthetic LLM-attention workload (the Fig. 15 substitution).
//!
//! The paper verifies on Llama-7B that keeping only the top-k attended tokens
//! (found with MIPS between query and key vectors) barely hurts perplexity
//! until the retained fraction becomes very small. Running Llama-7B is out of
//! scope for this reproduction, so this module builds a synthetic multi-head
//! attention workload with the property that makes the experiment meaningful:
//! attention weights are *concentrated* — most of the softmax mass of a query
//! lives on a handful of keys — which is exactly the sparsity that lets an
//! ANN engine stand in for dense attention.
//!
//! Two quality measures are exposed:
//!
//! * `AttentionWorkload::retained_mass` — the softmax probability mass kept
//!   when only the top-`k` keys per query are attended;
//! * `AttentionWorkload::pseudo_perplexity` — `exp(average extra
//!   cross-entropy)` of the truncated attention distribution versus the full
//!   one, a perplexity-style proxy that is 1.0 for lossless truncation and
//!   grows as mass is dropped (the shape reported by Fig. 15).

use juno_common::error::{Error, Result};
use juno_common::metric::inner_product;
use juno_common::rng::Rng;
use juno_common::rng::{normal, seeded};
use juno_common::topk::largest_k_indices;
use juno_common::vector::VectorSet;

/// Configuration of the synthetic attention workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionSpec {
    /// Sequence length (number of key/value tokens).
    pub seq_len: usize,
    /// Number of query tokens to evaluate.
    pub num_queries: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Softmax temperature scale (larger → more concentrated attention).
    pub concentration: f32,
    /// Seed for reproducibility.
    pub seed: u64,
}

impl Default for AttentionSpec {
    fn default() -> Self {
        Self {
            seq_len: 2_048,
            num_queries: 64,
            head_dim: 64,
            concentration: 4.0,
            seed: 0xA77E,
        }
    }
}

/// A generated attention workload: query and key vectors of one head.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionWorkload {
    queries: VectorSet,
    keys: VectorSet,
    concentration: f32,
}

impl AttentionWorkload {
    /// Generates a workload according to `spec`.
    ///
    /// Queries are built by perturbing a small number of "anchor" keys so
    /// that each query genuinely attends strongly to a few tokens, as real
    /// transformer heads do.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for degenerate shapes.
    pub fn generate(spec: &AttentionSpec) -> Result<Self> {
        if spec.seq_len == 0 || spec.num_queries == 0 || spec.head_dim == 0 {
            return Err(Error::invalid_config(
                "attention workload requires positive seq_len, num_queries and head_dim",
            ));
        }
        let mut rng = seeded(spec.seed);
        let scale = 1.0 / (spec.head_dim as f32).sqrt();

        let mut keys = Vec::with_capacity(spec.seq_len * spec.head_dim);
        for _ in 0..spec.seq_len * spec.head_dim {
            keys.push(normal(&mut rng, 0.0, 1.0) * scale);
        }
        let keys = VectorSet::from_flat(keys, spec.head_dim)?;

        let mut queries = Vec::with_capacity(spec.num_queries * spec.head_dim);
        for _ in 0..spec.num_queries {
            // Anchor the query near 1–3 keys to concentrate its attention.
            let anchors = 1 + (rng.gen::<u32>() % 3) as usize;
            let mut q = vec![0.0f32; spec.head_dim];
            for _ in 0..anchors {
                let key = keys.row(rng.gen_range(0..spec.seq_len));
                for (qi, &ki) in q.iter_mut().zip(key.iter()) {
                    *qi += ki * spec.concentration;
                }
            }
            for qi in q.iter_mut() {
                *qi += normal(&mut rng, 0.0, 0.2) * scale;
            }
            queries.extend_from_slice(&q);
        }
        let queries = VectorSet::from_flat(queries, spec.head_dim)?;

        Ok(Self {
            queries,
            keys,
            concentration: spec.concentration,
        })
    }

    /// The query vectors (used as ANN queries under the inner-product metric).
    pub fn queries(&self) -> &VectorSet {
        &self.queries
    }

    /// The key vectors (used as ANN search points).
    pub fn keys(&self) -> &VectorSet {
        &self.keys
    }

    /// Sequence length.
    pub fn seq_len(&self) -> usize {
        self.keys.len()
    }

    /// Softmax attention distribution of one query over all keys.
    pub fn attention_row(&self, q: usize) -> Vec<f64> {
        let query = self.queries.row(q);
        let logits: Vec<f64> = self
            .keys
            .iter()
            .map(|k| inner_product(query, k) as f64)
            .collect();
        softmax(&logits)
    }

    /// Average softmax mass retained per query when only each query's top-`k`
    /// keys (by inner product — what a MIPS ANN search returns) are attended.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `k == 0`.
    pub(crate) fn retained_mass(&self, k: usize) -> Result<f64> {
        if k == 0 {
            return Err(Error::invalid_config("top-k must be positive"));
        }
        let k = k.min(self.seq_len());
        let mut total = 0.0;
        for q in 0..self.queries.len() {
            let probs = self.attention_row(q);
            let query = self.queries.row(q);
            let scores: Vec<f32> = self
                .keys
                .iter()
                .map(|key| inner_product(query, key))
                .collect();
            let kept = largest_k_indices(&scores, k);
            total += kept.iter().map(|&i| probs[i]).sum::<f64>();
        }
        Ok(total / self.queries.len() as f64)
    }

    /// A perplexity-style proxy: `exp` of the average extra cross-entropy the
    /// truncated attention pays versus full attention. Equals 1.0 when every
    /// query keeps all its mass and grows as mass is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `k == 0`.
    pub(crate) fn pseudo_perplexity(&self, k: usize) -> Result<f64> {
        let mass = self.retained_mass(k)?.clamp(1e-9, 1.0);
        Ok((-mass.ln() + 1.0).exp() / std::f64::consts::E)
    }

    /// Sweeps a set of retained fractions and returns `(fraction, retained
    /// mass, pseudo-perplexity)` rows — the series plotted by Fig. 15.
    ///
    /// # Errors
    ///
    /// Propagates errors from the per-fraction evaluations.
    pub fn sweep(&self, fractions: &[f64]) -> Result<Vec<(f64, f64, f64)>> {
        let mut rows = Vec::with_capacity(fractions.len());
        for &f in fractions {
            let k = ((self.seq_len() as f64 * f).round() as usize).max(1);
            rows.push((f, self.retained_mass(k)?, self.pseudo_perplexity(k)?));
        }
        Ok(rows)
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> AttentionWorkload {
        AttentionWorkload::generate(&AttentionSpec {
            seq_len: 256,
            num_queries: 16,
            head_dim: 32,
            concentration: 6.0,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn shapes_follow_spec() {
        let w = small_workload();
        assert_eq!(w.seq_len(), 256);
        assert_eq!(w.queries().len(), 16);
        assert_eq!(w.keys().dim(), 32);
    }

    #[test]
    fn full_attention_retains_all_mass() {
        let w = small_workload();
        let mass = w.retained_mass(256).unwrap();
        assert!((mass - 1.0).abs() < 1e-9);
        assert!((w.pseudo_perplexity(256).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn attention_is_concentrated() {
        // Keeping 10 % of keys should retain the large majority of the mass —
        // the property Fig. 15 relies on.
        let w = small_workload();
        let mass = w.retained_mass(26).unwrap();
        assert!(mass > 0.7, "retained mass {mass} too small for top-10%");
    }

    #[test]
    fn retained_mass_is_monotone_in_k() {
        let w = small_workload();
        let mut last = 0.0;
        for k in [1, 4, 16, 64, 256] {
            let m = w.retained_mass(k).unwrap();
            assert!(m >= last - 1e-12, "mass decreased at k={k}");
            last = m;
        }
    }

    #[test]
    fn perplexity_rises_as_fraction_shrinks() {
        let w = small_workload();
        let rows = w.sweep(&[1.0, 0.5, 0.1, 0.02, 0.004]).unwrap();
        for pair in rows.windows(2) {
            assert!(
                pair[1].2 >= pair[0].2 - 1e-9,
                "perplexity must not drop as fraction shrinks"
            );
        }
        // Severe truncation must hurt noticeably more than mild truncation.
        assert!(rows.last().unwrap().2 > rows[0].2);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let w = small_workload();
        assert!(w.retained_mass(0).is_err());
        assert!(AttentionWorkload::generate(&AttentionSpec {
            seq_len: 0,
            ..AttentionSpec::default()
        })
        .is_err());
    }
}
