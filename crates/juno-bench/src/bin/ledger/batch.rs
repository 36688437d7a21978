//! The two workloads that bypass `juno-serve`: back-to-back 64-query batch
//! calls on one monolith with fat lists, held in RAM
//! (`batch-mono-fatlists`) or served from a mapped snapshot under a
//! residency budget of a quarter of its code bytes
//! (`batch-mapped-budget25`). Nothing but list storage differs between
//! them, so the ratio of their `qps` is the out-of-core cost.

use crate::fixture::{self, bits, mismatches, Bits, Fixture, BATCH, FAT, K};
use crate::json::Json;
use crate::layers;
use crate::names::Workload;
use crate::provenance::ENGINE_THREADS;
use crate::report::{Options, Report};
use crate::stats;
use crate::trace::Tracer;
use juno_common::error::{Error, Result};
use juno_common::index::AnnIndex;
use juno_common::mmap::ResidencyConfig;
use juno_common::vector::VectorSet;
use juno_core::engine::JunoIndex;
use std::time::{Duration, Instant};

/// Share of the code bytes the mapped index may keep resident.
const BUDGET_SHARE: f64 = 0.25;

fn search_batch(index: &JunoIndex, batch: &VectorSet) -> Result<Vec<Bits>> {
    Ok(index
        .search_batch_threads(batch, K, ENGINE_THREADS)?
        .iter()
        .map(bits)
        .collect())
}

fn batch_constants(report: &mut Report) {
    for (name, value) in FAT.constants() {
        report.constant(name, value);
    }
    report.constant("batch_queries", Json::UInt(BATCH as u64));
    report.constant("callers", Json::UInt(1));
}

/// Warm-up, the three windows and the traced pass over `index`.
/// `reference` holds the expected reply of every pool batch; every batch
/// call of the run is compared with it, ids and distance bits.
fn measure(
    opts: &Options,
    report: &mut Report,
    fixture: &Fixture,
    index: &JunoIndex,
    batches: &[VectorSet],
    reference: &[Vec<Bits>],
) -> Result<()> {
    // Warm-up: the whole pool once, which also yields the recall.
    let mut replies: Vec<Bits> = Vec::with_capacity(fixture.queries.len());
    for (batch, want) in batches.iter().zip(reference) {
        let got = search_batch(index, batch)?;
        report.tally.add(batch.len(), mismatches(&got, want));
        replies.extend(got);
    }
    fixture.check_recall(report, &replies)?;

    let (mut qps, mut p50s, mut calls_ns) = (vec![], vec![], Vec::<u64>::new());
    let mut call = 0usize;
    for _ in 0..3 {
        let started = Instant::now();
        let (mut correct, mut window_ns) = (0usize, Vec::new());
        while started.elapsed() < opts.window() {
            let b = call % batches.len();
            let sent = Instant::now();
            let got = search_batch(index, &batches[b])?;
            window_ns.push(sent.elapsed().as_nanos() as u64);
            let wrong = mismatches(&got, &reference[b]);
            report.tally.add(batches[b].len(), wrong);
            correct += batches[b].len() - wrong;
            call += 1;
        }
        qps.push(correct as f64 / started.elapsed().as_secs_f64());
        p50s.push(stats::percentile(
            &stats::sorted_ms(window_ns.iter().copied()),
            50.0,
        ));
        calls_ns.extend(window_ns);
    }
    report.set_windows("qps", qps);
    report.set_latency(
        "lat_p50_ms",
        50.0,
        stats::median(&p50s),
        p50s,
        calls_ns.len(),
    );

    if opts.trace.traced() {
        let mut tracer = Tracer::new(1 << 15);
        layers::engine_read_path(&mut tracer, report, index, &fixture.queries)?;
        let untraced_qps = report.get("qps").unwrap_or(0.0);
        let replay = Duration::from_secs_f64(opts.seconds / 10.0);
        layers::batch_trace_overhead(&mut tracer, report, index, batches, replay, untraced_qps)?;
        opts.write_trace(report.workload, &tracer)?;
    }
    Ok(())
}

pub fn run_mono(opts: &Options) -> Result<Report> {
    let started = Instant::now();
    let mut report = Report::new(Workload::BatchMonoFatlists);
    batch_constants(&mut report);
    let (fixture, index) = fixture::build(FAT, opts.seed)?;
    let batches = fixture.batches()?;
    fixture.record_setup(&mut report, started.elapsed().as_secs_f64());

    // The first pass over the pool is its own reference: every later call
    // must repeat it exactly.
    let reference: Vec<Vec<Bits>> = batches
        .iter()
        .map(|b| search_batch(&index, b))
        .collect::<Result<_>>()?;
    measure(opts, &mut report, &fixture, &index, &batches, &reference)?;
    // The engine's contract: a batch call returns what sequential searches
    // return.
    let batched: Vec<Bits> = reference.iter().flatten().cloned().collect();
    let sequential = fixture::sequential_probe(&index, &fixture.queries)?;
    report.compare_probe(
        "batch_equals_sequential",
        &sequential,
        &batched[..sequential.len()],
        "ids and distance bits, sequential searches against batch replies",
    );
    report.finish();
    Ok(report)
}

pub fn run_mapped(opts: &Options) -> Result<Report> {
    let started = Instant::now();
    let workload = Workload::BatchMappedBudget25;
    let mut report = Report::new(workload);
    batch_constants(&mut report);
    report.constant("residency_budget_share", Json::Num(BUDGET_SHARE));
    report.constant("residency_pin_bytes", Json::UInt(0));

    let scratch = opts.scratch(workload);
    std::fs::create_dir_all(&scratch).map_err(|e| Error::Io(format!("create scratch: {e}")))?;
    let snapshot = scratch.join("index.snap");

    let (fixture, index) = fixture::build(FAT, opts.seed)?;
    let batches = fixture.batches()?;
    // What the same index answers from RAM — the mapped index must match.
    let reference: Vec<Vec<Bits>> = batches
        .iter()
        .map(|b| search_batch(&index, b))
        .collect::<Result<_>>()?;
    index.save_snapshot(&snapshot)?;
    let points = index.len();
    let code_bytes = index.list_codes().code_bytes();
    drop(index);
    let residency = ResidencyConfig {
        budget_bytes: (code_bytes as f64 * BUDGET_SHARE) as usize,
        pin_bytes: 0,
    };
    report.constant("code_bytes", Json::UInt(code_bytes as u64));
    report.constant(
        "residency_budget_bytes",
        Json::UInt(residency.budget_bytes as u64),
    );
    let clock = Instant::now();
    let mapped = JunoIndex::load_snapshot_mapped(&snapshot, &residency)?;
    report.set("mapped.restore_ms", clock.elapsed().as_secs_f64() * 1e3);
    fixture.record_setup(&mut report, started.elapsed().as_secs_f64());
    report.check(
        "index_is_mapped",
        mapped.is_mapped(),
        "load_snapshot_mapped returned a mapped index",
    );

    measure(opts, &mut report, &fixture, &mapped, &batches, &reference)?;
    let mismatched = report.tally.failed;
    report.check(
        "mapped_equals_ram",
        mismatched == 0,
        format!("{mismatched} batch replies differ from the RAM index (ids and distance bits)"),
    );
    let file_bytes = std::fs::metadata(&snapshot)
        .map_err(|e| Error::Io(format!("{}: {e}", snapshot.display())))?
        .len();
    report.set("disk_bytes_per_point", file_bytes as f64 / points as f64);

    if opts.trace.traced() {
        let clock = Instant::now();
        let copied = JunoIndex::load_snapshot(&snapshot)?;
        report.set(
            "mapped.copy_restore_ms",
            clock.elapsed().as_secs_f64() * 1e3,
        );
        drop(copied);
    }
    drop(mapped);
    let _ = std::fs::remove_file(&snapshot);
    report.finish();
    Ok(report)
}
