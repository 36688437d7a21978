//! End-to-end integration tests across crates: dataset generation → index
//! construction → search → recall evaluation, for the JUNO engine and the
//! baselines on the same data.

use juno::prelude::*;

fn recall_of(index: &dyn AnnIndex, queries: &VectorSet, gt: &GroundTruth, k: usize) -> (f64, f64) {
    let mut retrieved = Vec::new();
    let mut total_us = 0.0;
    for q in queries.iter() {
        let r = index.search(q, k).expect("search");
        total_us += index.simulate(q, &r).expect("simulate").simulated_us;
        retrieved.push(r.ids());
    }
    (
        r1_at_100(&retrieved, gt).expect("recall"),
        total_us / queries.len() as f64,
    )
}

fn deep_fixture() -> (Dataset, GroundTruth) {
    let dataset = DatasetProfile::DeepLike.generate(5_000, 20, 1234).unwrap();
    let gt = dataset.ground_truth(100).unwrap();
    (dataset, gt)
}

#[test]
fn juno_high_matches_baseline_quality_with_less_lut_work() {
    let (dataset, gt) = deep_fixture();
    let config = JunoConfig {
        n_clusters: 64,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(dataset.dim(), dataset.metric())
    };
    let juno = JunoIndex::build(&dataset.points, &config).unwrap();
    let baseline = IvfPqIndex::build(
        &dataset.points,
        &IvfPqConfig {
            n_clusters: 64,
            nprobs: 8,
            pq_subspaces: config.pq_subspaces,
            pq_entries: 64,
            metric: dataset.metric(),
            seed: 3,
        },
    )
    .unwrap();

    let (juno_recall, _) = recall_of(&juno, &dataset.queries, &gt, 100);
    let (base_recall, _) = recall_of(&baseline, &dataset.queries, &gt, 100);
    assert!(juno_recall > 0.85, "JUNO-H R1@100 = {juno_recall}");
    assert!(base_recall > 0.85, "baseline R1@100 = {base_recall}");
    assert!(
        juno_recall >= base_recall - 0.1,
        "JUNO-H ({juno_recall}) must stay close to the baseline ({base_recall})"
    );

    // The defining property: JUNO computes far fewer pairwise entry distances
    // during LUT construction than the dense baseline.
    let q = dataset.queries.row(0);
    let juno_stats = juno.search(q, 100).unwrap().stats;
    let base_stats = baseline.search(q, 100).unwrap().stats;
    assert!(
        juno_stats.lut_distances * 2 < base_stats.lut_distances,
        "selective LUT computed {} entry distances vs dense {}",
        juno_stats.lut_distances,
        base_stats.lut_distances
    );
}

#[test]
fn quality_modes_trade_recall_for_simulated_throughput() {
    let (dataset, gt) = deep_fixture();
    let config = JunoConfig {
        n_clusters: 64,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(dataset.dim(), dataset.metric())
    };
    let mut juno = JunoIndex::build(&dataset.points, &config).unwrap();

    juno.set_quality(QualityMode::High);
    let (recall_h, us_h) = recall_of(&juno, &dataset.queries, &gt, 100);
    juno.set_quality(QualityMode::Low);
    juno.set_threshold_scale(0.6).unwrap();
    let (recall_l, us_l) = recall_of(&juno, &dataset.queries, &gt, 100);

    assert!(recall_h >= recall_l - 0.02, "H {recall_h} vs L {recall_l}");
    assert!(
        us_l < us_h,
        "JUNO-L with a tightened threshold must be faster: {us_l} vs {us_h}"
    );
}

#[test]
fn nprobs_sweep_shows_the_fig3_shape() {
    // The simulated baseline time must grow ~linearly with nprobs while its
    // filtering time stays flat (Fig. 3(a)).
    let (dataset, _) = deep_fixture();
    let mut baseline = IvfPqIndex::build(
        &dataset.points,
        &IvfPqConfig {
            n_clusters: 64,
            nprobs: 2,
            pq_subspaces: 48,
            pq_entries: 64,
            metric: dataset.metric(),
            seed: 3,
        },
    )
    .unwrap();
    let q = dataset.queries.row(0);
    baseline.set_nprobs(2);
    let small = baseline.search(q, 100).unwrap().stats;
    baseline.set_nprobs(32);
    let large = baseline.search(q, 100).unwrap().stats;
    assert!((small.filter_us - large.filter_us).abs() < 1e-9);
    assert!(large.lut_us > 4.0 * small.lut_us);
    assert!(large.total_us() > small.total_us());
}

#[test]
fn a100_erases_the_rt_advantage_at_high_quality() {
    // Fig. 14(a): without RT cores the selective construction runs as
    // software on CUDA cores and JUNO's simulated advantage shrinks/inverts.
    let (dataset, _) = deep_fixture();
    let config = JunoConfig {
        n_clusters: 64,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(dataset.dim(), dataset.metric())
    };
    let mut juno = JunoIndex::build(&dataset.points, &config).unwrap();
    let q = dataset.queries.row(0);

    let simulated_us = |juno: &JunoIndex| {
        let result = juno.search(q, 100).unwrap();
        juno.simulate(q, &result).unwrap().simulated_us
    };
    juno.set_execution(ExecutionMode::Pipelined, GpuDevice::rtx4090());
    let on_rtx = simulated_us(&juno);
    juno.set_execution(ExecutionMode::Pipelined, GpuDevice::a100());
    let on_a100 = simulated_us(&juno);
    assert!(
        on_a100 > on_rtx,
        "software traversal on A100 ({on_a100}) must be slower than RTX 4090 ({on_rtx})"
    );
}

#[test]
fn a_juno_fleet_simulates_like_its_monolith() {
    // A fleet's search merges shard results that carry no simulated time;
    // `simulate` on the fleet must still produce the monolith's front half.
    let (dataset, _) = deep_fixture();
    let config = JunoConfig {
        n_clusters: 64,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(dataset.dim(), dataset.metric())
    };
    let juno = JunoIndex::build(&dataset.points, &config).unwrap();
    let fleet = ShardedIndex::from_monolith(juno.clone(), 4, ShardRouter::Modulo).unwrap();
    let q = dataset.queries.row(0);
    let result = fleet.search(q, 100).unwrap();
    let simulated = fleet.simulate(q, &result).unwrap();
    let alone = juno.simulate(q, &juno.search(q, 100).unwrap()).unwrap();
    assert!(simulated.simulated_us > 0.0);
    assert_eq!(simulated.stats.rt_hits, alone.stats.rt_hits);
    assert_eq!(simulated.stats.lut_us, alone.stats.lut_us);
}
