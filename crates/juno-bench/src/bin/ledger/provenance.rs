//! Host and build facts printed beside every number, so a result can be
//! carried to another machine or compared with one from there.

use crate::json::Json;
use crate::loadgen::SUBMITTERS;
use std::process::Command;

/// Cores of the reference host; fewer online cores flag the run.
pub const REFERENCE_CORES: usize = 2;
/// Thread budget of every engine batch call and of the engine's own
/// default pool (`JUNO_NUM_THREADS` is overwritten with it at start).
pub const ENGINE_THREADS: usize = 2;

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cores_online() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `VmHWM` of this process in MB, or 0 where `/proc` does not offer it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn collect(seed: u64, seconds: f64) -> Json {
    let cores = cores_online();
    Json::obj([
        (
            "git_rev",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Num(seconds)),
        ("cores_online", Json::UInt(cores as u64)),
        ("reference_cores", Json::UInt(REFERENCE_CORES as u64)),
        ("host_below_reference", Json::Bool(cores < REFERENCE_CORES)),
        ("kernel", Json::str(juno_common::kernel::kernel_name())),
        ("submitting_threads", Json::UInt(SUBMITTERS as u64)),
        ("engine_batch_threads", Json::UInt(ENGINE_THREADS as u64)),
        (
            "juno_num_threads_pinned_to",
            Json::UInt(ENGINE_THREADS as u64),
        ),
    ])
}
