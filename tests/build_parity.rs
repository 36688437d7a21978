//! Build parity: the shipped offline half (k-means through the nearest-row
//! kernel, label-free subspace fits spread over the thread budget, blocked
//! assignment) against a reference trainer written here from the loops it
//! replaced — one `l2_squared` per entry, subspaces one after another, a full
//! labelling pass at the end of every k-means run whether or not anybody
//! reads it. Centroids, labels, codebooks, codes and iteration counts must be
//! equal, bit for bit, under every thread budget.
//!
//! The reference sums the objective the way the shipped trainer does (per
//! 4096-point block, blocks added in order): the summation order is the one
//! thing this suite does not hold to the older code.

use juno::common::metric::{l2_squared, Metric};
use juno::common::rng::{derive_seed, normal, sample_indices, seeded, Rng};
use juno::common::vector::VectorSet;
use juno::core::config::JunoConfig;
use juno::core::engine::JunoIndex;
use juno::quant::ivf::{IvfIndex, IvfTrainConfig};
use juno::quant::kmeans::{KMeans, KMeansConfig};
use juno::quant::pq::{PqTrainConfig, ProductQuantizer};

const OBJECTIVE_BLOCK: usize = 4096;

/// What a reference k-means run produced, and how often it re-seeded an
/// emptied cluster on the way.
struct Reference {
    centroids: VectorSet,
    labels: Vec<usize>,
    inertia: f64,
    iterations: usize,
    reseeds: usize,
}

fn ref_nearest(v: &[f32], centroids: &VectorSet) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, row) in centroids.iter().enumerate() {
        let d = l2_squared(v, row);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    (best, best_d)
}

fn ref_assign(points: &VectorSet, centroids: &VectorSet, labels: &mut [usize]) -> f64 {
    let mut total = 0.0f64;
    for (b, block) in labels.chunks_mut(OBJECTIVE_BLOCK).enumerate() {
        let mut sum = 0.0f64;
        for (i, label) in block.iter_mut().enumerate() {
            let (c, d) = ref_nearest(points.row(b * OBJECTIVE_BLOCK + i), centroids);
            *label = c;
            sum += d as f64;
        }
        total += sum;
    }
    total / points.len() as f64
}

fn ref_plus_plus(points: &VectorSet, k: usize, rng: &mut impl Rng) -> VectorSet {
    let n = points.len();
    let first = rng.gen_range(0..n);
    let mut chosen = vec![first];
    let mut dist: Vec<f32> = points
        .iter()
        .map(|p| l2_squared(p, points.row(first)))
        .collect();
    while chosen.len() < k {
        let total: f64 = dist.iter().map(|&d| d as f64).sum();
        let next = if total <= f64::EPSILON {
            (0..n).find(|i| !chosen.contains(i)).unwrap_or(0)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        chosen.push(next);
        for (i, p) in points.iter().enumerate() {
            let d = l2_squared(p, points.row(next));
            if d < dist[i] {
                dist[i] = d;
            }
        }
    }
    points.select(&chosen).unwrap()
}

fn ref_update(
    points: &VectorSet,
    labels: &[usize],
    centroids: &mut VectorSet,
    rng: &mut impl Rng,
) -> usize {
    let (dim, k) = (points.dim(), centroids.len());
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0usize; k];
    for (p, &c) in points.iter().zip(labels) {
        counts[c] += 1;
        for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += x as f64;
        }
    }
    let mut reseeds = 0;
    for c in 0..k {
        if counts[c] == 0 {
            let idx = rng.gen_range(0..points.len());
            centroids.row_mut(c).copy_from_slice(points.row(idx));
            reseeds += 1;
        } else {
            let inv = 1.0 / counts[c] as f64;
            for (r, &s) in centroids
                .row_mut(c)
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *r = (s * inv) as f32;
            }
        }
    }
    reseeds
}

fn ref_kmeans(points: &VectorSet, config: &KMeansConfig) -> Reference {
    let mut rng = seeded(config.seed);
    let training = match config.train_subsample {
        Some(cap) if cap < points.len() && cap >= config.n_clusters => {
            let ids = sample_indices(&mut rng, points.len(), cap);
            points.select(&ids).unwrap()
        }
        _ => points.clone(),
    };
    let mut centroids = ref_plus_plus(&training, config.n_clusters, &mut rng);
    let mut labels = vec![0usize; training.len()];
    let mut inertia = f64::INFINITY;
    let (mut iterations, mut reseeds) = (0, 0);
    for iter in 0..config.max_iters.max(1) {
        iterations = iter + 1;
        let new_inertia = ref_assign(&training, &centroids, &mut labels);
        reseeds += ref_update(&training, &labels, &mut centroids, &mut rng);
        let improved = inertia.is_infinite()
            || (inertia - new_inertia) > config.tolerance * inertia.abs().max(1e-12);
        inertia = new_inertia;
        if !improved {
            break;
        }
    }
    let mut labels = vec![0usize; points.len()];
    let inertia = ref_assign(points, &centroids, &mut labels);
    Reference {
        centroids,
        labels,
        inertia,
        iterations,
        reseeds,
    }
}

fn ref_coarse(points: &VectorSet, config: &IvfTrainConfig) -> Reference {
    ref_kmeans(
        points,
        &KMeansConfig {
            n_clusters: config.n_clusters,
            max_iters: config.kmeans_iters,
            tolerance: 1e-4,
            seed: config.seed,
            train_subsample: config.train_subsample,
        },
    )
}

/// Sequential subspaces, each labelled in full and the labels dropped.
fn ref_codebooks(vectors: &VectorSet, config: &PqTrainConfig) -> Vec<VectorSet> {
    let sub_dim = vectors.dim() / config.num_subspaces;
    (0..config.num_subspaces)
        .map(|s| {
            let projections = vectors.subspace(s * sub_dim, sub_dim).unwrap();
            let km = ref_kmeans(
                &projections,
                &KMeansConfig {
                    n_clusters: config.entries_per_subspace,
                    max_iters: config.kmeans_iters,
                    tolerance: 1e-4,
                    seed: derive_seed(config.seed, s as u64),
                    train_subsample: config.train_subsample,
                },
            );
            km.centroids
        })
        .collect()
}

fn ref_encode(vectors: &VectorSet, codebooks: &[VectorSet]) -> Vec<u8> {
    let sub_dim = codebooks[0].dim();
    let mut codes = Vec::with_capacity(vectors.len() * codebooks.len());
    for row in vectors.iter() {
        for (s, entries) in codebooks.iter().enumerate() {
            codes.push(ref_nearest(&row[s * sub_dim..(s + 1) * sub_dim], entries).0 as u8);
        }
    }
    codes
}

/// A Gaussian mixture with a few exact duplicates (distance ties).
fn mixture(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut rng = seeded(seed);
    let centers: Vec<Vec<f32>> = (0..9)
        .map(|_| (0..dim).map(|_| rng.gen_range(-6.0f32..6.0)).collect())
        .collect();
    let mut rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            centers[i % centers.len()]
                .iter()
                .map(|&m| normal(&mut rng, m, 1.0))
                .collect()
        })
        .collect();
    for i in (0..n).step_by(17) {
        rows[i] = rows[(i * 7 + 3) % n].clone();
    }
    VectorSet::from_rows(rows).unwrap()
}

fn assert_kmeans_equals(got: &KMeans, want: &Reference, label: &str) {
    assert_eq!(got.centroids(), &want.centroids, "{label}: centroids");
    assert_eq!(got.labels(), want.labels.as_slice(), "{label}: labels");
    assert_eq!(got.iterations(), want.iterations, "{label}: iterations");
    assert_eq!(
        got.inertia().to_bits(),
        want.inertia.to_bits(),
        "{label}: inertia"
    );
}

/// The quantiser layer under the current thread budget: coarse index per
/// metric, codebooks and codes per `E` and subsample mode.
fn quantiser_parity(budget: &str) {
    let points = mixture(4_600, 8, 0xB01D);
    // Taken, not asked for, larger than n (not taken), smaller than the
    // cluster count (not taken).
    let subsamples = [Some(1_700), None, Some(50_000), Some(9)];

    for metric in [Metric::L2, Metric::InnerProduct] {
        for train_subsample in subsamples {
            let label = format!("{budget} coarse {metric} subsample {train_subsample:?}");
            let config = IvfTrainConfig {
                train_subsample,
                ..IvfTrainConfig::new(12, metric)
            };
            let want = ref_coarse(&points, &config);
            let ivf = IvfIndex::train(&points, &config).unwrap();
            assert_eq!(ivf.centroids(), &want.centroids, "{label}: centroids");
            assert_eq!(ivf.labels(), want.labels.as_slice(), "{label}: labels");
            assert_eq!(ivf.metric(), metric);
        }
    }

    // The same run through the public trainer: iterations and (two blocks
    // of) objective.
    let km_cfg = KMeansConfig {
        train_subsample: Some(4_300),
        ..KMeansConfig::new(12, 0x1F5)
    };
    let want = ref_kmeans(&points, &km_cfg);
    assert!(want.iterations > 1);
    let got = KMeans::train(&points, &km_cfg).unwrap();
    assert_kmeans_equals(&got, &want, &format!("{budget} k-means"));

    let ivf = IvfIndex::train(&points, &IvfTrainConfig::new(12, Metric::L2)).unwrap();
    let residuals = ivf.point_residuals(&points).unwrap();
    for entries in [16usize, 64, 256] {
        // E = 256 costs 16× E = 16 per point; fewer points keep it short.
        let n = if entries == 256 { 1_200 } else { 2_400 };
        let ids: Vec<usize> = (0..n).collect();
        let vectors = residuals.select(&ids).unwrap();
        for train_subsample in [Some(n / 2), None, Some(50_000)] {
            let label = format!("{budget} E={entries} subsample {train_subsample:?}");
            let config = PqTrainConfig {
                kmeans_iters: 8,
                train_subsample,
                ..PqTrainConfig::new(4, entries)
            };
            let want = ref_codebooks(&vectors, &config);
            let pq = ProductQuantizer::train(&vectors, &config).unwrap();
            for (s, entries) in want.iter().enumerate() {
                assert_eq!(
                    pq.codebooks()[s].entries(),
                    entries,
                    "{label}: codebook {s}"
                );
            }
            let codes = pq.encode(&vectors).unwrap();
            assert_eq!(
                codes.as_flat(),
                ref_encode(&vectors, &want),
                "{label}: codes"
            );
        }
    }
}

/// `JunoIndex::build` end to end: its trained parts against the reference,
/// and its plan stamp for comparison across thread budgets.
fn engine_parity(budget: &str) -> Vec<u64> {
    [Metric::L2, Metric::InnerProduct]
        .into_iter()
        .map(|metric| {
            let label = format!("{budget} engine {metric}");
            let points = mixture(4_400, 8, 0xE261);
            let config = JunoConfig::small_test(8, metric);
            let index = JunoIndex::build(&points, &config).unwrap();

            let coarse = ref_coarse(
                &points,
                &IvfTrainConfig {
                    n_clusters: config.n_clusters,
                    metric,
                    seed: config.seed,
                    ..IvfTrainConfig::default()
                },
            );
            assert_eq!(
                index.ivf().centroids(),
                &coarse.centroids,
                "{label}: coarse"
            );
            assert_eq!(
                index.ivf().labels(),
                coarse.labels.as_slice(),
                "{label}: labels"
            );

            let residuals = points
                .residual_to(&coarse.centroids, &coarse.labels)
                .unwrap();
            let codebooks = ref_codebooks(
                &residuals,
                &PqTrainConfig {
                    num_subspaces: config.pq_subspaces,
                    entries_per_subspace: config.pq_entries,
                    seed: config.seed ^ 0x5147,
                    ..PqTrainConfig::default()
                },
            );
            for (s, entries) in codebooks.iter().enumerate() {
                assert_eq!(
                    index.pq().codebooks()[s].entries(),
                    entries,
                    "{label}: codebook {s}"
                );
            }
            assert_eq!(
                index.codes().as_flat(),
                ref_encode(&residuals, &codebooks),
                "{label}: codes"
            );
            index.plan_stamp()
        })
        .collect()
}

/// The one test that sets `JUNO_NUM_THREADS`; nothing else in this file
/// depends on it (that is the claim under test).
#[test]
fn shipped_build_equals_the_reference_under_thread_budgets_1_and_3() {
    let mut stamps = Vec::new();
    for budget in ["1", "3"] {
        std::env::set_var("JUNO_NUM_THREADS", budget);
        quantiser_parity(&format!("{budget} threads"));
        stamps.push(engine_parity(&format!("{budget} threads")));
    }
    std::env::remove_var("JUNO_NUM_THREADS");
    assert_eq!(stamps[0], stamps[1], "plan stamps differ between budgets");
}

/// Five distinct points and nine clusters: four centroids start as
/// duplicates of another, lose every tie to the lower index and are emptied
/// in every iteration, so every iteration re-seeds from the RNG stream the
/// seeding drew from.
#[test]
fn an_emptied_cluster_is_reseeded_from_the_same_rng_stream() {
    for dim in [2usize, 8] {
        let mut rng = seeded(0xE0 + dim as u64);
        let distinct: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
            .collect();
        let points =
            VectorSet::from_rows((0..250).map(|i| distinct[i % 5].clone()).collect()).unwrap();
        for seed in 0..6 {
            let config = KMeansConfig {
                max_iters: 6,
                ..KMeansConfig::new(9, seed)
            };
            let want = ref_kmeans(&points, &config);
            assert!(want.reseeds > 0, "{dim}-d seed {seed}: nothing was emptied");
            let got = KMeans::train(&points, &config).unwrap();
            assert_kmeans_equals(&got, &want, &format!("{dim}-d seed {seed}"));
        }
    }
}

#[test]
fn single_point_paths_agree_with_the_batch_ones() {
    let points = mixture(1_500, 8, 0x51A6);
    let ivf = IvfIndex::train(&points, &IvfTrainConfig::new(12, Metric::L2)).unwrap();
    let residuals = ivf.point_residuals(&points).unwrap();
    let pq = ProductQuantizer::train(&residuals, &PqTrainConfig::new(4, 64)).unwrap();
    let codes = pq.encode(&residuals).unwrap();
    for i in 0..500 {
        assert_eq!(
            ivf.assign(points.row(i)).unwrap(),
            ivf.labels()[i],
            "coarse assign of point {i}"
        );
        assert_eq!(
            pq.encode_one(residuals.row(i)).unwrap(),
            codes.code(i),
            "code of point {i}"
        );
    }
}
