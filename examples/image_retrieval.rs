//! Image-retrieval scenario: SIFT-like 128-d descriptors under the L2 metric.
//!
//! Demonstrates the quality/throughput trade-off surface the paper's Fig. 12
//! exposes to users: sweeping the JUNO quality mode (L/M/H) and threshold
//! scaling factor, and printing the resulting recall / simulated-QPS pairs so
//! an application can pick its operating point.
//!
//! Run with: `cargo run --release --example image_retrieval`

use juno::prelude::*;

fn sweep(
    index: &JunoIndex,
    queries: &VectorSet,
    gt: &GroundTruth,
) -> Result<(f64, f64), juno::common::Error> {
    let mut retrieved = Vec::new();
    let mut total_us = 0.0;
    for q in queries.iter() {
        let r = index.search(q, 100)?;
        total_us += index.simulate(q, &r)?.simulated_us;
        retrieved.push(r.ids());
    }
    let recall = r1_at_100(&retrieved, gt)?;
    let qps = 1e6 / (total_us / queries.len() as f64);
    Ok((recall, qps))
}

fn main() -> Result<(), juno::common::Error> {
    let dataset = DatasetProfile::SiftLike.generate(15_000, 20, 3)?;
    let ground_truth = dataset.ground_truth(100)?;
    let config = JunoConfig {
        n_clusters: 128,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(dataset.dim(), dataset.metric())
    };
    let mut index = JunoIndex::build(&dataset.points, &config)?;

    println!("operating point                         R1@100   simulated QPS");
    for (mode, scales) in [
        (QualityMode::Low, vec![0.4f32, 0.7, 1.0]),
        (QualityMode::Medium, vec![0.7, 1.0]),
        (QualityMode::High, vec![0.5, 0.75, 1.0]),
    ] {
        index.set_quality(mode);
        for scale in scales {
            index.set_threshold_scale(scale)?;
            let (recall, qps) = sweep(&index, &dataset.queries, &ground_truth)?;
            println!(
                "{:<8} threshold scale {:<4}            {:>7.3}  {:>12.0}",
                mode, scale, recall, qps
            );
        }
    }

    println!("\nPick JUNO-L for recommendation-style workloads (recall ≤ 0.95 is fine),");
    println!("JUNO-H with scale 1.0 when missing the true neighbour is costly.");
    Ok(())
}
