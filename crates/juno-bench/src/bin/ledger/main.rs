//! `ledger` — the one benchmark for JUNO's read, write and out-of-core
//! paths. See `README.md` beside this file for the workloads, the metric
//! tables, the probe surface and the stage budget.
//!
//! ```text
//! ledger --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ledger --all             [--seed <n>] [--seconds <s>]
//! ledger --repeat <n> --workload <name> [--seed <n>] [--seconds <s>]
//! ```
//!
//! Each run prints the full report of every workload it ran as one JSON
//! line, then the result line (`correct`, `attempted`, `failed`,
//! `metrics`). The process exits non-zero when an output check fails.
//!
//! The ledger binds only to public functions of the product crates and
//! deliberately not to `juno_bench::{loadgen, setup, harness}`: those stay
//! free to change, the instrument does not.

mod batch;
mod fixture;
mod json;
mod layers;
mod loadgen;
mod names;
mod provenance;
mod report;
mod serving;
mod stats;
mod trace;

use json::Json;
use names::{Workload, END_TO_END};
use report::{Options, Report, TraceMode};
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of BENCHMARK.json: three windows of five seconds.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workloads: Vec<Workload>,
    repeat: usize,
    options: Options,
}

fn usage() -> String {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: ledger (--workload <name> | --all) [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--repeat <n>]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut trace, mut repeat) =
        (1u64, DEFAULT_SECONDS, TraceMode::Both, 1usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name)
                    .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
                workloads = vec![w];
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => TraceMode::EndToEnd,
                    "1" => TraceMode::PerLayer,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if workloads.is_empty() {
        return Err(usage());
    }
    // Build outputs and run scratch share one ignored directory.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    Ok(Args {
        workloads,
        repeat,
        options: Options {
            seed,
            seconds,
            trace,
            scratch_root: target.join("ledger"),
        },
    })
}

fn run(workload: Workload, options: &Options) -> juno_common::error::Result<Report> {
    let scratch = options.scratch(workload);
    // A previous run's WAL or snapshot must not leak into this one.
    let _ = std::fs::remove_dir_all(&scratch);
    match workload {
        Workload::OnlineS4Small => serving::run_online(options),
        Workload::MixedRwWalS4 => serving::run_mixed(options),
        Workload::BatchMonoFatlists => batch::run_mono(options),
        Workload::BatchMappedBudget25 => batch::run_mapped(options),
    }
}

/// `--repeat`: each end-to-end metric's `(max − min) / median` over the
/// repeats, beside the bound the ledger holds it to.
fn spread_table(workload: Workload, reports: &[Report]) -> Json {
    let rows = END_TO_END.iter().filter_map(|m| {
        let values: Vec<f64> = reports.iter().filter_map(|r| r.get(m.name)).collect();
        (!values.is_empty()).then(|| {
            let spread = stats::spread(&values);
            (
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("values", Json::nums(&values)),
                    ("median", Json::Num(stats::median(&values))),
                    ("spread", Json::Num(spread)),
                    ("bound", Json::Num(m.bound)),
                    ("within_bound", Json::Bool(spread <= m.bound)),
                ]),
            )
        })
    });
    Json::obj([
        ("workload", Json::str(workload.name())),
        ("repeats", Json::UInt(reports.len() as u64)),
        ("spreads", Json::obj(rows)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Pin the engine's default thread pool; whatever the caller exported is
    // ignored. Nothing else is running yet, so the write cannot race.
    std::env::set_var("JUNO_NUM_THREADS", provenance::ENGINE_THREADS.to_string());
    let provenance = provenance::collect(args.options.seed, args.options.seconds);

    let mut all_correct = true;
    for &workload in &args.workloads {
        let mut reports = Vec::with_capacity(args.repeat);
        for _ in 0..args.repeat {
            let report = match run(workload, &args.options) {
                Ok(report) => report,
                Err(err) => {
                    eprintln!("ledger: {} failed: {err}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            for check in report.checks.iter().filter(|c| !c.pass) {
                eprintln!(
                    "ledger: {}: check {} failed: {}",
                    workload.name(),
                    check.name,
                    check.detail
                );
            }
            for (name, samples) in report.undersampled() {
                eprintln!(
                    "ledger: {}: {name} rests on {samples} samples, too few for the \
                     percentile it names; raise --seconds",
                    workload.name()
                );
            }
            all_correct &= report.correct();
            println!("{}", report.to_json(&provenance));
            reports.push(report);
        }
        if args.repeat > 1 {
            println!("{}", spread_table(workload, &reports));
        }
        let last = reports.last().expect("repeat is at least 1");
        println!("{}", last.result_line(args.options.trace));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "mixed-rw-wal-s4",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::MixedRwWalS4]);
        assert_eq!(a.options.seed, 7);
        assert_eq!(a.options.seconds, 15.0);
        assert_eq!(a.options.trace, TraceMode::PerLayer);
        assert_eq!(a.repeat, 1);
        assert!(a.options.scratch_root.ends_with("ledger"));
        assert_eq!(a.options.window().as_secs_f64(), 5.0);
    }

    #[test]
    fn all_selects_the_four_workloads_and_defaults_hold() {
        let a = args(&["--all"]).unwrap();
        assert_eq!(a.workloads, Workload::ALL);
        assert_eq!(a.options.seed, 1);
        assert_eq!(a.options.seconds, DEFAULT_SECONDS);
        assert_eq!(a.options.trace, TraceMode::Both);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--all", "--trace", "2"]).is_err());
        assert!(args(&["--all", "--seconds", "0"]).is_err());
        assert!(args(&["--all", "--repeat", "0"]).is_err());
        assert!(args(&["--all", "--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn spread_table_puts_each_spread_beside_its_bound() {
        let reports: Vec<Report> = [380.0, 400.0, 420.0]
            .into_iter()
            .map(|qps| {
                let mut r = Report::new(Workload::OnlineS4Small);
                r.set("qps", qps);
                r
            })
            .collect();
        let text = spread_table(Workload::OnlineS4Small, &reports).to_string();
        assert!(text.contains("\"qps\": {\"unit\": \"1/s\", \"values\": [380, 400, 420]"));
        assert!(text.contains("\"spread\": 0.1, \"bound\": 0.25, \"within_bound\": true"));
        assert!(!text.contains("recover_s"));
    }
}
