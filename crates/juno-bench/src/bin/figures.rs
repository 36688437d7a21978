//! The paper's evaluation figures (Figs. 2–15, §6) as JSON lines.
//!
//! ```text
//! figures --figure <id>    # one of fig02 fig03 fig04 fig05 fig06 fig07
//!                          #        fig11 fig12 fig13 fig14 fig15
//! figures --all            # every figure, in that order
//! ```
//!
//! Each table row is one line, `{"figure":"<panel>","table":"<title>",
//! "cells":{…}}` (see [`juno_bench::report`]); a figure id can print several
//! panels (`fig04` prints Fig. 3(b), 4(a) and 4(b)). Every figure builds its
//! own data from its own seed, so every cell but the `host*` ones is
//! deterministic at a given scale: `results/figures.jsonl` is the output at
//! the default scale, and `.github/paper_claims.py` diffs a fresh run against
//! it and checks the paper's claims on it.

use juno_baseline::hnsw::{HnswConfig, HnswIndex};
use juno_baseline::ivfpq::IvfPqIndex;
use juno_baseline::sim::SimulationConfig;
use juno_bench::analysis::{
    coverage_cdf, density_threshold_samples, pearson, radius_scaling_curve, remaining_vs_threshold,
    usage_ratios,
};
use juno_bench::report::{fmt_f64, Table};
use juno_bench::setup::{build_fixture, clusters_for, ivfpq_config_for, BenchScale};
use juno_bench::sweep::{run_sweep, SweepResult, SWEEP_K};
use juno_common::error::Result;
use juno_common::index::AnnIndex;
use juno_common::metric::l2_squared;
use juno_common::rng::{seeded, Rng};
use juno_core::config::{JunoConfig, QualityMode};
use juno_core::engine::JunoIndex;
use juno_core::threshold::ThresholdStrategy;
use juno_data::attention::{AttentionSpec, AttentionWorkload};
use juno_data::profiles::DatasetProfile;
use juno_gpu::device::GpuDevice;
use juno_gpu::pipeline::ExecutionMode;
use juno_rt::ray::Ray;
use juno_rt::scene::SceneBuilder;
use juno_rt::sphere::Sphere;

type Figure = fn(BenchScale) -> Result<()>;

const FIGURES: [(&str, Figure); 11] = [
    ("fig02", fig02),
    ("fig03", fig03),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&(&str, Figure)> = match args.as_slice() {
        [all] if all == "--all" => FIGURES.iter().collect(),
        [flag, id] if flag == "--figure" => FIGURES.iter().filter(|(f, _)| f == id).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!("usage: figures --figure <{}> | --all", ids.join("|"));
        std::process::exit(2);
    }
    let scale = BenchScale::from_env();
    for (id, figure) in selected {
        if let Err(err) = figure(scale) {
            eprintln!("{id}: {err}");
            std::process::exit(1);
        }
    }
}

/// A speed-up cell: `1.23x`, or `n/a` when there is nothing to compare.
fn speedup_cell(speedup: Option<f64>) -> String {
    speedup.map_or_else(|| "n/a".into(), |s| format!("{s:.2}x"))
}

/// The mean of `values`, `None` when there are none.
fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Fig. 2 — the RT-core 2-D nearest-neighbour mapping (RTNN-style). Random
/// 2-D points become fixed-radius circles and queries `+z` rays: the RT hit
/// set equals the brute-force within-radius set, and the BVH traversal tests
/// far fewer primitives than a linear scan — the property JUNO inherits for
/// every subspace.
fn fig02(scale: BenchScale) -> Result<()> {
    let n_points = scale.points.min(50_000);
    let n_queries = scale.queries;
    let radius = 0.02f32;
    let mut rng = seeded(42);

    let points: Vec<[f32; 2]> = (0..n_points)
        .map(|_| [rng.gen_range(0.0..1.0f32), rng.gen_range(0.0..1.0f32)])
        .collect();
    let mut builder = SceneBuilder::new();
    for (i, p) in points.iter().enumerate() {
        builder.add_sphere(Sphere::new([p[0], p[1], 1.0], radius, i as u32));
    }
    let scene = builder.build();

    let table = Table::new(
        "fig02",
        "Fig. 2 — RT-core 2-D kNN mapping: hit-set correctness and traversal savings",
        &[
            "query",
            "rt_hits",
            "brute_hits",
            "match",
            "prim_tests",
            "scan_tests",
            "work_saving",
        ],
    );
    let mut total_tests = 0usize;
    for q in 0..n_queries {
        let origin = [rng.gen_range(0.0..1.0f32), rng.gen_range(0.0..1.0f32)];
        let ray = Ray::axis_aligned_z([origin[0], origin[1], 0.0], 2.0);
        let mut hits = Vec::new();
        let stats = scene.trace(&ray, &mut |h| hits.push(h.primitive_id));
        hits.sort_unstable();
        let brute: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let dx = p[0] - origin[0];
                let dy = p[1] - origin[1];
                dx * dx + dy * dy <= radius * radius
            })
            .map(|(i, _)| i as u32)
            .collect();
        total_tests += stats.primitive_tests;
        table.row(vec![
            q.to_string(),
            hits.len().to_string(),
            brute.len().to_string(),
            (hits == brute).to_string(),
            stats.primitive_tests.to_string(),
            n_points.to_string(),
            fmt_f64(n_points as f64 / stats.primitive_tests.max(1) as f64),
        ]);
    }
    let mean_tests = total_tests / n_queries.max(1);
    Table::new(
        "fig02",
        "Fig. 2 — mean primitive tests per query",
        &["mean primitive tests", "points"],
    )
    .row(vec![mean_tests.to_string(), n_points.to_string()]);
    Ok(())
}

/// Fig. 3(a) — the stage breakdown of the FAISS-style IVFPQ baseline against
/// `nprobs`. The paper: LUT construction and distance calculation take
/// 90–99.9 % of a query and scale with `nprobs`; filtering is flat.
fn fig03(scale: BenchScale) -> Result<()> {
    let profile = DatasetProfile::DeepLike;
    let ds = profile.generate(scale.points, scale.queries, 7)?;
    let gt = ds.ground_truth(SWEEP_K)?;
    let clusters = clusters_for(scale.points);
    let mut index = IvfPqIndex::build(&ds.points, &ivfpq_config_for(profile, scale.points, 4, 11))?;

    let table = Table::new(
        "fig03a",
        format!(
            "Fig. 3(a) — IVF{clusters},PQ{} stage breakdown on {} ({} points)",
            profile.paper_pq_subspaces(),
            profile.name(),
            scale.points
        ),
        &[
            "nprobs",
            "filter_us",
            "lut_us",
            "dist_us",
            "total_us",
            "lut+dist share",
        ],
    );
    let mut nprobs = 4usize;
    while nprobs <= clusters.min(512) {
        index.set_nprobs(nprobs);
        let r = run_sweep(&index, &ds.queries, &gt)?;
        let (filter, lut, dist) = (r.filter_us, r.lut_us, r.accumulate_us);
        let total = filter + lut + dist;
        table.row(vec![
            nprobs.to_string(),
            fmt_f64(filter),
            fmt_f64(lut),
            fmt_f64(dist),
            fmt_f64(total),
            format!("{:.1}%", 100.0 * (lut + dist) / total),
        ]);
        nprobs *= 2;
    }
    Ok(())
}

/// Figs. 3(b) and 4 — codebook-entry sparsity and spatial locality on the
/// DEEP-like dataset: (3b) how many of one query's true top-100 use each
/// entry, entries from closest to farthest; (4a) the mean/max fraction of
/// entries used per subspace; (4b) the CDF of top-100 coverage from the
/// closest to the farthest entries.
fn fig04(scale: BenchScale) -> Result<()> {
    let fixture = build_fixture(DatasetProfile::DeepLike, scale, 21)?;
    let ds = &fixture.dataset;
    let gt = &fixture.ground_truth;
    let index = &fixture.juno;

    // Fig. 3(b): single-query usage by entry rank, bucketed into deciles.
    let entries = index.pq().entries_per_subspace();
    let q0 = ds.queries.row(0);
    let filter = index.ivf().filter(q0, 1)?;
    let residual = index.ivf().query_residual(q0, filter.clusters[0])?;
    let mut decile_usage = [0usize; 10];
    for s in 0..index.pq().num_subspaces() {
        let order = index
            .pq()
            .codebook(s)?
            .entries_by_distance(&residual[2 * s..2 * s + 2])?;
        let mut rank_of = vec![0usize; entries];
        for (rank, &(e, _)) in order.iter().enumerate() {
            rank_of[e as usize] = rank;
        }
        for &pid in &gt.truth[0] {
            let e = index.codes().code(pid as usize)[s] as usize;
            decile_usage[(rank_of[e] * 10 / entries).min(9)] += 1;
        }
    }
    let t3b = Table::new(
        "fig03b",
        "Fig. 3(b) — single-query entry usage vs. entry rank",
        &["entry rank decile (closest→farthest)", "top-100 usages"],
    );
    for (d, &u) in decile_usage.iter().enumerate() {
        t3b.row(vec![format!("{}0-{}0%", d, d + 1), u.to_string()]);
    }

    let usage = usage_ratios(index, &ds.queries, gt)?;
    let t4a = Table::new(
        "fig04a",
        "Fig. 4(a) — codebook entry usage ratio per subspace (every 4th subspace)",
        &["subspace", "mean usage", "max usage"],
    );
    for (s, (m, x)) in usage.mean.iter().zip(&usage.max).enumerate().step_by(4) {
        t4a.row(vec![s.to_string(), fmt_f64(*m), fmt_f64(*x)]);
    }
    Table::new(
        "fig04a",
        "Fig. 4(a) — overall mean usage ratio",
        &["overall mean usage ratio"],
    )
    .row(vec![fmt_f64(usage.overall_mean())]);

    let cov = coverage_cdf(index, &ds.queries, gt)?;
    let t4b = Table::new(
        "fig04b",
        "Fig. 4(b) — coverage CDF from closest to farthest entries",
        &["closest entries considered", "top-100 covered"],
    );
    for frac in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let idx = ((entries as f64 * frac) as usize).clamp(1, entries) - 1;
        t4b.row(vec![format!("{:.0}%", frac * 100.0), fmt_f64(cov.cdf[idx])]);
    }
    let title = "Fig. 4(b) — share of the codebook needed for 90% coverage";
    Table::new("fig04b", title, &["entries needed for 90% coverage"])
        .row(vec![format!("{:.0}%", cov.entries_for_90pct * 100.0)]);
    Ok(())
}

/// Fig. 5 — entry usage ratios and coverage on the SIFT-like and TTI-like
/// datasets (the cross-dataset version of Fig. 4).
fn fig05(scale: BenchScale) -> Result<()> {
    let scale = scale.reduced(2);
    for profile in [DatasetProfile::SiftLike, DatasetProfile::TtiLike] {
        let fixture = build_fixture(profile, scale, 31)?;
        let (queries, gt) = (&fixture.dataset.queries, &fixture.ground_truth);
        let usage = usage_ratios(&fixture.juno, queries, gt)?;
        let cov = coverage_cdf(&fixture.juno, queries, gt)?;
        let entries = fixture.juno.pq().entries_per_subspace();
        let table = Table::new(
            "fig05",
            format!(
                "Fig. 5 — sparsity and locality on {} ({} points, PQ{})",
                profile.name(),
                scale.points,
                fixture.juno.pq().num_subspaces()
            ),
            &["quantity", "value"],
        );
        for (quantity, value) in [
            ("mean entry usage ratio", fmt_f64(usage.overall_mean())),
            (
                "max entry usage ratio (any subspace)",
                fmt_f64(usage.max.iter().cloned().fold(0.0, f64::max)),
            ),
            (
                "coverage with closest 50% of entries",
                fmt_f64(cov.cdf[entries / 2 - 1]),
            ),
            (
                "entries needed for 90% coverage",
                format!("{:.0}%", cov.entries_for_90pct * 100.0),
            ),
        ] {
            table.row(vec![quantity.into(), value]);
        }
    }
    Ok(())
}

/// Fig. 6 — the fraction of search-point projections that remain (need LUT
/// lookups and accumulation) against the distance threshold.
fn fig06(scale: BenchScale) -> Result<()> {
    let fixture = build_fixture(DatasetProfile::DeepLike, scale, 41)?;
    let curve = remaining_vs_threshold(
        &fixture.juno,
        &fixture.dataset.points,
        &fixture.dataset.queries,
        10,
    )?;
    let table = Table::new(
        "fig06",
        "Fig. 6 — remaining point projections vs. distance threshold (DEEP-like)",
        &["threshold (fraction of max distance)", "points remaining"],
    );
    for (threshold, remaining) in curve {
        table.row(vec![fmt_f64(threshold), fmt_f64(remaining)]);
    }
    Ok(())
}

/// Fig. 7 — (a) region density against the radius that contains the top-100,
/// and (b) the share of the top-100 retained when that radius is scaled down.
fn fig07(scale: BenchScale) -> Result<()> {
    let fixture = build_fixture(DatasetProfile::DeepLike, scale, 51)?;

    let (mut samples, correlation) =
        density_threshold_samples(&fixture.juno, &fixture.dataset.points, 0, 100, 400)?;
    samples.sort_by(|a, b| a.density.total_cmp(&b.density));
    let t7a = Table::new(
        "fig07a",
        "Fig. 7(a) — containment radius vs. region density (subspace 0)",
        &[
            "density decile",
            "mean density",
            "mean radius to contain top-100",
        ],
    );
    let bucket = (samples.len() / 10).max(1);
    for d in 0..10 {
        let slice =
            &samples[(d * bucket).min(samples.len())..((d + 1) * bucket).min(samples.len())];
        if slice.is_empty() {
            continue;
        }
        let n = slice.len() as f64;
        let mean_density = slice.iter().map(|s| s.density as f64).sum::<f64>() / n;
        let mean_radius = slice.iter().map(|s| s.radius as f64).sum::<f64>() / n;
        t7a.row(vec![
            d.to_string(),
            fmt_f64(mean_density),
            fmt_f64(mean_radius),
        ]);
    }
    Table::new(
        "fig07a",
        "Fig. 7(a) — Pearson correlation (ln density vs radius)",
        &["pearson"],
    )
    .row(vec![fmt_f64(correlation)]);

    let rows = radius_scaling_curve(
        &fixture.juno,
        &fixture.dataset.points,
        &fixture.dataset.queries,
        &fixture.ground_truth,
        &[1.0, 0.75, 0.5, 0.25, 0.1],
    )?;
    let t7b = Table::new(
        "fig07b",
        "Fig. 7(b) — top-100 retained vs. radius scaling factor",
        &["radius scaling factor", "top-100 retained"],
    );
    for (s, retained) in rows {
        t7b.row(vec![fmt_f64(s as f64), fmt_f64(retained)]);
    }
    Ok(())
}

/// Fig. 11 — (a) stage latencies under solo-run, naive co-run and the
/// Tensor-core pipelined execution; (b) the correlation between hit count and
/// the exact query–point distance, with and without the reward/penalty
/// refinement.
fn fig11(scale: BenchScale) -> Result<()> {
    let mut fixture = build_fixture(DatasetProfile::DeepLike, scale, 61)?;
    let (queries, gt) = (&fixture.dataset.queries, &fixture.ground_truth);

    let t11a = Table::new(
        "fig11a",
        "Fig. 11(a) — per-query latency under solo-run / naive co-run / pipelined execution",
        &["mode", "lut_us", "accumulate_us", "total_us", "normalised"],
    );
    let mut serial_total = 0.0;
    for mode in [
        ExecutionMode::Serial,
        ExecutionMode::NaiveCorun,
        ExecutionMode::Pipelined,
    ] {
        fixture.juno.set_execution(mode, GpuDevice::rtx4090());
        let r = run_sweep(&fixture.juno, queries, gt)?;
        if mode == ExecutionMode::Serial {
            serial_total = r.mean_us;
        }
        t11a.row(vec![
            format!("{mode:?}"),
            fmt_f64(r.lut_us),
            fmt_f64(r.accumulate_us),
            fmt_f64(r.mean_us),
            fmt_f64(r.mean_us / serial_total.max(1e-12)),
        ]);
    }

    // (b): the engine's hit counting for query 0, scored against the exact
    // distances under both variants.
    let index = &fixture.juno;
    let q = queries.row(0);
    let (clusters, lut, _, thresholds) = index.build_selective_lut(q)?;
    let subspaces = index.pq().num_subspaces();
    let labels = index.ivf().labels();
    // (outer hits, inner hits) per point: a hit wherever the point's entry is
    // selected in its subspace's LUT row, inner when within half the radius.
    let mut counts = vec![(0u32, 0u32); labels.len()];
    let mut selected = vec![None; index.config().pq_entries];
    for (slot, &cluster) in clusters.iter().enumerate() {
        let members: Vec<usize> = (0..labels.len())
            .filter(|&p| labels[p] == cluster)
            .collect();
        for (s, &threshold) in thresholds[slot].iter().enumerate().take(subspaces) {
            let half = threshold * 0.5;
            selected.fill(None);
            for (entry, value) in lut.row(slot, s) {
                selected[entry as usize] = Some(value);
            }
            for &p in &members {
                if let Some(value) = selected[index.codes().code(p)[s] as usize] {
                    counts[p].0 += 1;
                    counts[p].1 += u32::from(value <= half * half);
                }
            }
        }
    }
    let mut xs_exact = Vec::new();
    let mut ys_count = Vec::new();
    let mut ys_penalty = Vec::new();
    for (pid, &(outer, inner)) in counts.iter().enumerate().filter(|(_, c)| c.0 > 0) {
        let exact = l2_squared(q, fixture.dataset.points.row(pid)) as f64;
        xs_exact.push(-exact); // negated so "closer" correlates with "higher count"
        ys_count.push(outer as f64);
        ys_penalty.push(inner as f64 + outer as f64); // ranks as inner − misses does
    }
    let t11b = Table::new(
        "fig11b",
        "Fig. 11(b) — hit count vs. exact distance correlation (single query)",
        &["scoring", "correlation with (negated) exact distance"],
    );
    t11b.row(vec![
        "hit count".into(),
        fmt_f64(pearson(&xs_exact, &ys_count)),
    ]);
    t11b.row(vec![
        "hit count w/ reward-penalty".into(),
        fmt_f64(pearson(&xs_exact, &ys_penalty)),
    ]);
    Table::new(
        "fig11b",
        "Fig. 11(b) — candidates scored",
        &["candidates scored"],
    )
    .row(vec![xs_exact.len().to_string()]);
    Ok(())
}

/// Fig. 12 — QPS against search quality on the SIFT-, DEEP- and TTI-like
/// datasets: the FAISS-style IVFPQ baseline (nprobs sweep), HNSW, and
/// JUNO-L/M/H (threshold-scale sweep), then the §6.2 summary: the best JUNO
/// QPS against the best baseline QPS in the low (R1@100 ≤ 0.95) and high
/// (R1@100 > 0.95) quality bands. Every sweep point runs the whole query
/// batch through the engines' parallel batch pipeline, so `host QPS` is
/// measured under batch traffic.
fn fig12(scale: BenchScale) -> Result<()> {
    let mut speedups_low = Vec::new();
    let mut speedups_high = Vec::new();

    for profile in DatasetProfile::paper_profiles() {
        let mut fixture = build_fixture(profile, scale, 81)?;
        let (queries, gt) = (&fixture.dataset.queries, &fixture.ground_truth);
        let mut rows: Vec<(String, SweepResult)> = Vec::new();

        let mut baseline = IvfPqIndex::build(
            &fixture.dataset.points,
            &ivfpq_config_for(profile, scale.points, 4, 5),
        )?;
        for nprobs in [2usize, 4, 8, 16, 32] {
            baseline.set_nprobs(nprobs);
            let r = run_sweep(&baseline, queries, gt)?;
            rows.push((format!("FAISS-IVFPQ nprobs={nprobs}"), r));
        }

        let mut hnsw = HnswIndex::build(
            fixture.dataset.points.clone(),
            &HnswConfig {
                ef_construction: 80,
                metric: profile.metric(),
                seed: 9,
                ..HnswConfig::default()
            },
        )?;
        for ef in [32usize, 128] {
            hnsw.set_ef_search(ef);
            let r = run_sweep(&hnsw, queries, gt)?;
            rows.push((format!("+HNSW ef={ef}"), r));
        }

        for (mode, scales) in [
            (QualityMode::Low, vec![0.4f32, 0.7, 1.0]),
            (QualityMode::Medium, vec![0.5, 1.0]),
            (QualityMode::High, vec![0.5, 0.75, 1.0]),
        ] {
            fixture.juno.set_quality(mode);
            for s in scales {
                fixture.juno.set_threshold_scale(s)?;
                let r = run_sweep(&fixture.juno, queries, gt)?;
                rows.push((format!("{} scale={s}", mode.label()), r));
            }
        }

        let table = Table::new(
            "fig12",
            format!(
                "Fig. 12 — QPS vs. recall on {} ({} points, {} queries)",
                profile.name(),
                scale.points,
                scale.queries
            ),
            &["engine", "R1@100", "R100@100", "mean us", "QPS", "host QPS"],
        );
        for (name, r) in &rows {
            table.row(vec![
                name.clone(),
                fmt_f64(r.r1_at_100),
                fmt_f64(r.r100_at_100),
                fmt_f64(r.mean_us),
                fmt_f64(r.qps),
                fmt_f64(r.host_qps),
            ]);
        }

        let best_qps = |juno: bool, low: bool| {
            rows.iter()
                .filter(|(name, r)| {
                    name.starts_with("JUNO") == juno && (r.r1_at_100 <= 0.95) == low
                })
                .map(|(_, r)| r.qps)
                .fold(0.0f64, f64::max)
        };
        let summary = Table::new(
            "fig12",
            format!("§6.2 summary — {}", profile.name()),
            &["regime", "best baseline QPS", "best JUNO QPS", "speed-up"],
        );
        for (label, low, speedups) in [
            ("low quality (R1@100 ≤ 0.95)", true, &mut speedups_low),
            ("high quality (R1@100 > 0.95)", false, &mut speedups_high),
        ] {
            let (base, juno) = (best_qps(false, low), best_qps(true, low));
            let speedup = (base > 0.0 && juno > 0.0).then(|| juno / base);
            speedups.extend(speedup);
            summary.row(vec![
                label.into(),
                fmt_f64(base),
                fmt_f64(juno),
                speedup_cell(speedup),
            ]);
        }
    }

    let overall = Table::new(
        "fig12",
        "Overall (paper reports 4.4x avg low-quality, 2.1x avg high-quality)",
        &["regime", "mean speed-up", "datasets"],
    );
    for (label, speedups) in [
        ("low quality", speedups_low),
        ("high quality", speedups_high),
    ] {
        overall.row(vec![
            label.into(),
            speedup_cell(mean(&speedups)),
            speedups.len().to_string(),
        ]);
    }
    Ok(())
}

/// Fig. 13 — (a) JUNO against the IVFPQ baseline with single optimisations
/// removed (no pipelining, no hit-count selection); (b) the dynamic against
/// the static small/large threshold strategies.
fn fig13(scale: BenchScale) -> Result<()> {
    let profile = DatasetProfile::DeepLike;
    let mut fixture = build_fixture(profile, scale, 91)?;
    let (queries, gt) = (&fixture.dataset.queries, &fixture.ground_truth);
    let baseline = IvfPqIndex::build(
        &fixture.dataset.points,
        &ivfpq_config_for(profile, scale.points, 8, 5),
    )?;
    let base = run_sweep(&baseline, queries, gt)?;

    let t13a = Table::new(
        "fig13a",
        "Fig. 13(a) — improvement breakdown against the IVFPQ baseline",
        &["configuration", "R1@100", "QPS", "speed-up vs FAISS"],
    );
    t13a.row(vec![
        "FAISS-IVFPQ (baseline)".into(),
        fmt_f64(base.r1_at_100),
        fmt_f64(base.qps),
        "1.00x".into(),
    ]);
    for (name, quality, mode) in [
        (
            "JUNO (full: hit-count + pipeline)",
            QualityMode::Low,
            ExecutionMode::Pipelined,
        ),
        ("JUNO w/o pipeline", QualityMode::Low, ExecutionMode::Serial),
        (
            "JUNO w/o hit count (exact dist.)",
            QualityMode::High,
            ExecutionMode::Pipelined,
        ),
        ("JUNO w/o both", QualityMode::High, ExecutionMode::Serial),
    ] {
        fixture.juno.set_quality(quality);
        fixture.juno.set_execution(mode, GpuDevice::rtx4090());
        fixture.juno.set_threshold_scale(0.75)?;
        let r = run_sweep(&fixture.juno, queries, gt)?;
        t13a.row(vec![
            name.into(),
            fmt_f64(r.r1_at_100),
            fmt_f64(r.qps),
            speedup_cell(Some(r.qps / base.qps.max(1e-12))),
        ]);
    }

    fixture.juno.set_quality(QualityMode::High);
    fixture
        .juno
        .set_execution(ExecutionMode::Pipelined, GpuDevice::rtx4090());
    fixture.juno.set_threshold_scale(1.0)?;
    let t13b = Table::new(
        "fig13b",
        "Fig. 13(b) — static vs. dynamic threshold strategies (JUNO-H)",
        &["strategy", "R1@100", "QPS"],
    );
    for (name, strategy) in [
        ("R-Small (static)", ThresholdStrategy::StaticSmall),
        ("R-Large (static)", ThresholdStrategy::StaticLarge),
        (
            "R-Dynamic (density + regression)",
            ThresholdStrategy::Dynamic,
        ),
    ] {
        fixture.juno.set_threshold_strategy(strategy);
        let r = run_sweep(&fixture.juno, queries, gt)?;
        t13b.row(vec![name.into(), fmt_f64(r.r1_at_100), fmt_f64(r.qps)]);
    }
    Ok(())
}

/// Fig. 14 — sensitivity to RT-core performance: (a) JUNO without RT cores
/// (the A100's software fallback) against the FAISS-style baseline, and (b)
/// JUNO-H's speed-up over the baseline on A100 / A40 / RTX 4090.
fn fig14(scale: BenchScale) -> Result<()> {
    let profile = DatasetProfile::SiftLike;
    let mut fixture = build_fixture(profile, scale, 101)?;
    let (queries, gt) = (&fixture.dataset.queries, &fixture.ground_truth);
    let baseline = IvfPqIndex::build(
        &fixture.dataset.points,
        &ivfpq_config_for(profile, scale.points, 8, 5),
    )?;
    let baseline_on = |device: GpuDevice| {
        baseline
            .clone()
            .with_simulation(SimulationConfig::on_device(device))
    };

    let base = run_sweep(&baseline_on(GpuDevice::a100()), queries, gt)?;
    let t14a = Table::new(
        "fig14a",
        "Fig. 14(a) — JUNO vs. FAISS on A100 (RT traversal falls back to CUDA cores)",
        &["engine on A100 (no RT cores)", "R1@100", "QPS"],
    );
    t14a.row(vec![
        "FAISS-IVFPQ".into(),
        fmt_f64(base.r1_at_100),
        fmt_f64(base.qps),
    ]);
    for (label, quality, thr) in [
        ("JUNO w/o RT core (low quality)", QualityMode::Low, 0.6f32),
        ("JUNO w/o RT core (high quality)", QualityMode::High, 1.0),
    ] {
        fixture.juno.set_quality(quality);
        fixture.juno.set_threshold_scale(thr)?;
        fixture
            .juno
            .set_execution(ExecutionMode::Serial, GpuDevice::a100());
        let r = run_sweep(&fixture.juno, queries, gt)?;
        t14a.row(vec![label.into(), fmt_f64(r.r1_at_100), fmt_f64(r.qps)]);
    }

    let t14b = Table::new(
        "fig14b",
        "Fig. 14(b) — JUNO speed-up over the baseline across GPUs",
        &["GPU", "baseline QPS", "JUNO-H QPS", "speed-up"],
    );
    fixture.juno.set_quality(QualityMode::High);
    fixture.juno.set_threshold_scale(1.0)?;
    for device in [GpuDevice::a100(), GpuDevice::a40(), GpuDevice::rtx4090()] {
        let base = run_sweep(&baseline_on(device.clone()), queries, gt)?;
        fixture
            .juno
            .set_execution(ExecutionMode::Pipelined, device.clone());
        let juno = run_sweep(&fixture.juno, queries, gt)?;
        t14b.row(vec![
            device.name.clone(),
            fmt_f64(base.qps),
            fmt_f64(juno.qps),
            speedup_cell(Some(juno.qps / base.qps.max(1e-12))),
        ]);
    }
    Ok(())
}

/// Fig. 15 — LLM attention sparsity. The paper measures Llama-7B word
/// perplexity; this reproduction uses a synthetic multi-head attention
/// workload (`JUNO_BENCH_SEQ_LEN` keys, default 1024) and reports (i) the
/// softmax mass kept and a pseudo-perplexity proxy when keeping the exact
/// top-k keys, and (ii) the mass kept when a JUNO MIPS index retrieves the
/// top-k keys instead.
fn fig15(_scale: BenchScale) -> Result<()> {
    let seq_len = std::env::var("JUNO_BENCH_SEQ_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_024usize);
    let workload = AttentionWorkload::generate(&AttentionSpec {
        seq_len,
        num_queries: 32,
        head_dim: 64,
        concentration: 5.0,
        seed: 13,
    })?;

    let t = Table::new(
        "fig15",
        "Fig. 15 — attention quality vs. fraction of keys retained (exact top-k)",
        &[
            "attention retained (fraction of keys)",
            "softmax mass kept",
            "pseudo-perplexity",
        ],
    );
    for (f, mass, ppl) in workload.sweep(&[1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.02])? {
        t.row(vec![fmt_f64(f), fmt_f64(mass), fmt_f64(ppl)]);
    }

    let config = JunoConfig {
        n_clusters: 16,
        nprobs: 8,
        pq_entries: 32,
        ..JunoConfig::small_test(workload.keys().dim(), juno_common::Metric::InnerProduct)
    };
    let index = JunoIndex::build(workload.keys(), &config)?;
    let t2 = Table::new(
        "fig15",
        "Fig. 15 (ANN variant) — attention mass kept when JUNO retrieves the keys",
        &["fraction retained via JUNO (MIPS)", "softmax mass kept"],
    );
    let num_queries = workload.queries().len();
    for f in [0.2f64, 0.1, 0.05] {
        let k = ((seq_len as f64 * f) as usize).max(1);
        let mut kept_mass = 0.0;
        for qi in 0..num_queries {
            let result = index.search(workload.queries().row(qi), k)?;
            let probs = workload.attention_row(qi);
            kept_mass += result
                .neighbors
                .iter()
                .map(|n| probs[n.id as usize])
                .sum::<f64>();
        }
        t2.row(vec![fmt_f64(f), fmt_f64(kept_mass / num_queries as f64)]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_band_no_dataset_reaches_reads_na() {
        assert_eq!(speedup_cell(mean(&[])), "n/a");
        assert_eq!(speedup_cell(mean(&[0.001, 0.002])), "0.00x");
        assert_eq!(speedup_cell(mean(&[1.0, 2.0])), "1.50x");
    }
}
