//! Quick start: build a JUNO index over a synthetic DEEP-like dataset, search
//! a few queries, and compare quality and simulated throughput against the
//! FAISS-style IVFPQ baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use juno::prelude::*;

fn main() -> Result<(), juno::common::Error> {
    // 1. A reduced-scale DEEP-like dataset (96-d, L2) with exact ground truth.
    let dataset = DatasetProfile::DeepLike.generate(20_000, 20, 42)?;
    println!(
        "dataset: {} points, {} queries, dim {}, metric {}",
        dataset.points.len(),
        dataset.queries.len(),
        dataset.dim(),
        dataset.metric()
    );
    let ground_truth = dataset.ground_truth(100)?;

    // 2. Build the JUNO index (IVF + PQ + RT scene + threshold model).
    let config = JunoConfig {
        n_clusters: 128,
        nprobs: 8,
        pq_entries: 64,
        ..JunoConfig::small_test(dataset.dim(), dataset.metric())
    };
    let juno = JunoIndex::build(&dataset.points, &config)?;

    // 3. Build the FAISS-style baseline with the same IVF/PQ shape.
    let baseline = IvfPqIndex::build(
        &dataset.points,
        &IvfPqConfig {
            n_clusters: 128,
            nprobs: 8,
            pq_subspaces: config.pq_subspaces,
            pq_entries: 64,
            metric: dataset.metric(),
            seed: 7,
        },
    )?;

    // 4. Search every query with both engines and compare.
    let mut juno_hits = Vec::new();
    let mut base_hits = Vec::new();
    let mut juno_us = 0.0;
    let mut base_us = 0.0;
    for query in dataset.queries.iter() {
        let r = juno.search(query, 100)?;
        // JUNO's simulated GPU time is computed on request, off the search.
        juno_us += juno.simulate(query, &r)?.simulated_us;
        juno_hits.push(r.ids());
        let r = baseline.search(query, 100)?;
        base_us += r.simulated_us;
        base_hits.push(r.ids());
    }
    let n = dataset.queries.len() as f64;
    println!("\n                R1@100   simulated QPS");
    println!(
        "{:<14} {:>7.3}   {:>10.0}",
        juno.name(),
        r1_at_100(&juno_hits, &ground_truth)?,
        1e6 / (juno_us / n)
    );
    println!(
        "{:<14} {:>7.3}   {:>10.0}",
        baseline.name(),
        r1_at_100(&base_hits, &ground_truth)?,
        1e6 / (base_us / n)
    );

    // 5. Inspect one result in detail.
    let result = juno.search(dataset.queries.row(0), 5)?;
    let simulated = juno.simulate(dataset.queries.row(0), &result)?;
    println!("\ntop-5 neighbours of query 0:");
    for n in &result.neighbors {
        println!("  point {:>6}  distance {:.3}", n.id, n.distance);
    }
    println!(
        "RT work for that query: {} AABB tests, {} sphere tests, {} hits",
        simulated.stats.rt_aabb_tests, simulated.stats.rt_primitive_tests, simulated.stats.rt_hits
    );

    // 6. Persist the index and serve it back out of core: same neighbours,
    //    straight from the mapped file.
    let path = std::env::temp_dir().join("juno_quickstart.snap");
    juno.save_snapshot(&path)?;
    let mapped = JunoIndex::load_snapshot_mapped(&path, &ResidencyConfig::default())?;
    assert_eq!(
        mapped.search(dataset.queries.row(0), 5)?.ids(),
        result.ids()
    );
    println!(
        "snapshot: {} (reloaded mapped, same result)",
        path.display()
    );
    Ok(())
}
