//! The ledger's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, each named once. Everything printed is looked up here, and the
//! unit tests hold `/BENCHMARK.json` to these tables.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OnlineS4Small,
    BatchMonoFatlists,
    MixedRwWalS4,
    BatchMappedBudget25,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OnlineS4Small,
        Workload::BatchMonoFatlists,
        Workload::MixedRwWalS4,
        Workload::BatchMappedBudget25,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineS4Small => "online-s4-small",
            Workload::BatchMonoFatlists => "batch-mono-fatlists",
            Workload::MixedRwWalS4 => "mixed-rw-wal-s4",
            Workload::BatchMappedBudget25 => "batch-mapped-budget25",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the median by which the metric may worsen; `--repeat`
    /// prints each spread beside it. For a gated metric it is also the
    /// `bound` in BENCHMARK.json.
    pub bound: f64,
    /// Listed in BENCHMARK.json's `end_to_end`, where the driver wants the
    /// metric from every workload, never 0, within a bound ≤ 0.25. The
    /// metrics that only some workloads report, `fail_ratio` (0 on a good
    /// run) and `peak_rss_mb` (see below) ride in its unbounded `per_layer`
    /// list instead and read 0 where they do not apply.
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        gated,
    }
}

/// The 13 end-to-end metrics. Each bound is at least twice the spread seen
/// over ten seeds on the reference host (README, "Bounds"). That host runs
/// identical work up to 1.5× slower for minutes at a time, so the timings
/// cannot hold the 10 % the issue hoped for. The tails and `peak_rss_mb`
/// cannot hold even 25 %: on `mixed-rw-wal-s4` the high-water mark follows
/// how many superseded shard clones the allocator still holds when the
/// next one lands (160–320 MB on identical inputs).
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("qps", "1/s", Better::Higher, 0.25, true),
    e2e("lat_p50_ms", "ms", Better::Lower, 0.25, true),
    e2e("lat_p99_ms", "ms", Better::Lower, 0.4, false),
    e2e("open_lat_p50_ms", "ms", Better::Lower, 0.25, false),
    e2e("open_lat_p99_ms", "ms", Better::Lower, 1.0, false),
    e2e("write_p50_ms", "ms", Better::Lower, 0.5, false),
    e2e("write_p99_ms", "ms", Better::Lower, 0.5, false),
    e2e("recover_s", "s", Better::Lower, 0.15, false),
    e2e("recall_10_at_100", "ratio", Better::Higher, 0.05, true),
    // Any failure fails the run; there is nothing to be relative to.
    e2e("fail_ratio", "ratio", Better::Lower, 0.0, false),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.8, false),
    e2e("disk_bytes_per_point", "B", Better::Lower, 0.01, false),
];

/// One per-layer metric of the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, grouped by the module they time or count.
pub const PER_LAYER: [Layer; 61] = [
    // juno-data / build
    lo("data.generate_s", "s"),
    lo("data.ground_truth_s", "s"),
    lo("engine.build_s", "s"),
    lo("shard.from_monolith_ms", "ms"),
    // juno-quant::ivf
    lo("ivf.filter_us", "us"),
    // juno-rt + juno-core::lut, the front half
    lo("engine.front_us", "us"),
    lo("rt.traverse_lut_us", "us"),
    lo("rt.aabb_tests_per_query", "count"),
    lo("rt.prim_tests_per_query", "count"),
    lo("rt.hits_per_query", "count"),
    hi("rt.hit_ratio", "ratio"),
    lo("lut.selected_per_query", "count"),
    lo("lut.density", "ratio"),
    lo("lut.decode_us", "us"),
    // juno-common::kernel
    lo("kernel.quantize_us", "us"),
    // juno-quant::layout
    lo("layout.prune_scan_us", "us"),
    lo("layout.scan_ns_per_candidate", "ns"),
    lo("layout.bytes_streamed_per_query", "B"),
    // juno-core::engine
    lo("engine.search_us", "us"),
    lo("engine.residual_us", "us"),
    lo("engine.batch64_ms", "ms"),
    hi("engine.batch_speedup", "ratio"),
    lo("engine.candidates_per_query", "count"),
    hi("engine.pruned_ratio", "ratio"),
    hi("engine.pruned_clusters_per_query", "count"),
    lo("engine.accumulations_per_query", "count"),
    lo("engine.insert_us", "us"),
    lo("engine.clone_ms", "ms"),
    // juno-gpu, the simulated model beside the wall clock
    lo("gpu.sim_filter_us", "us"),
    lo("gpu.sim_lut_us", "us"),
    lo("gpu.sim_accumulate_us", "us"),
    lo("gpu.sim_total_us", "us"),
    // juno-common::topk
    lo("topk.merge_us", "us"),
    // juno-serve::shard
    lo("shard.fleet_search_us", "us"),
    lo("shard.per_shard_search_us", "us"),
    lo("shard.fanout_cost_ratio", "ratio"),
    lo("shard.batch16_deadline_ms", "ms"),
    lo("shard.insert_nowal_us", "us"),
    lo("shard.insert_amplification", "ratio"),
    // juno-serve::server + batcher
    lo("server.queue_wait_us_p50", "us"),
    lo("server.queue_wait_us_p99", "us"),
    hi("server.batch_size_mean", "count"),
    lo("server.overhead_us", "us"),
    lo("server.rejected", "count"),
    lo("server.degraded", "count"),
    lo("server.gen_lag_p99_ms", "ms"),
    lo("server.slo50_miss_ratio", "ratio"),
    // juno-common::wal
    lo("wal.append_us", "us"),
    lo("wal.fsync_us", "us"),
    lo("wal.bytes_per_write", "B"),
    lo("wal.syncs_per_write", "ratio"),
    // juno-serve::durability
    lo("durability.checkpoint_ms", "ms"),
    lo("durability.checkpoint_bytes", "B"),
    lo("durability.replayed_records", "count"),
    // juno-quant::mapped + residency
    lo("mapped.restore_ms", "ms"),
    lo("mapped.copy_restore_ms", "ms"),
    hi("residency.hit_ratio", "ratio"),
    lo("residency.cold_faults_per_query", "count"),
    lo("residency.evictions_per_query", "count"),
    lo("residency.resident_mb", "MB"),
    // the ledger itself
    lo("trace.overhead_pct", "%"),
];

/// Unit and direction of a metric name, whichever table holds it.
pub fn unit_of(name: &str) -> Option<(&'static str, Better)> {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit, m.better));
    let layers = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better));
    e2e.chain(layers)
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
}

/// Names a `--trace 0` result line carries: BENCHMARK.json's `end_to_end`.
pub fn contract_end_to_end() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().filter(|m| m.gated).map(|m| m.name)
}

/// Names a `--trace 1` result line carries: BENCHMARK.json's `per_layer`.
pub fn contract_per_layer() -> impl Iterator<Item = &'static str> {
    END_TO_END
        .iter()
        .filter(|m| !m.gated)
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The text of the JSON array stored under `key`.
    fn section<'a>(text: &'a str, key: &str) -> &'a str {
        let at = text
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = at + text[at..].find('[').expect("array opens");
        let mut depth = 0usize;
        for (i, c) in text[open..].char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return &text[open..open + i + 1];
                    }
                }
                _ => {}
            }
        }
        panic!("{key} array never closes");
    }

    /// The `{...}` objects of a section, as text.
    fn objects(section: &str) -> Vec<&str> {
        section
            .split('{')
            .skip(1)
            .map(|o| o.split('}').next().expect("object closes"))
            .collect()
    }

    /// The string or number stored under `key` in an object's text.
    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let at = object
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in {object}"));
        let rest = object[at + key.len() + 2..].trim_start();
        let rest = rest.strip_prefix(':').expect("colon").trim_start();
        match rest.strip_prefix('"') {
            Some(s) => &s[..s.find('"').expect("string closes")],
            None => rest.split([',', '\n']).next().expect("value").trim(),
        }
    }

    fn names(key: &str) -> Vec<&'static str> {
        objects(section(BENCHMARK_JSON, key))
            .into_iter()
            .map(|o| field(o, "name"))
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let all = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(name.as_bytes()[0].is_ascii_alphanumeric(), "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert_eq!(unit_of("qps"), Some(("1/s", Better::Higher)));
        assert_eq!(unit_of("wal.fsync_us"), Some(("us", Better::Lower)));
        assert_eq!(unit_of("nope"), None);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn benchmark_json_names_equal_the_names_the_ledger_emits() {
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(
            names("end_to_end"),
            contract_end_to_end().collect::<Vec<_>>()
        );
        assert_eq!(names("per_layer"), contract_per_layer().collect::<Vec<_>>());
        let emitted: BTreeSet<_> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let listed: BTreeSet<_> = names("end_to_end")
            .into_iter()
            .chain(names("per_layer"))
            .collect();
        assert_eq!(listed, emitted);
    }

    #[test]
    fn benchmark_json_carries_each_unit_direction_and_bound() {
        for object in objects(section(BENCHMARK_JSON, "end_to_end")) {
            let name = field(object, "name");
            let m = END_TO_END.iter().find(|m| m.name == name).expect(name);
            assert_eq!(field(object, "unit"), m.unit, "{name}");
            assert_eq!(field(object, "better"), m.better.as_str(), "{name}");
            let bound: f64 = field(object, "bound").parse().expect("bound");
            assert_eq!(bound, m.bound, "{name}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        for object in objects(section(BENCHMARK_JSON, "per_layer")) {
            let name = field(object, "name");
            let (unit, better) = unit_of(name).expect(name);
            assert_eq!(field(object, "unit"), unit, "{name}");
            assert_eq!(field(object, "better"), better.as_str(), "{name}");
        }
        for object in objects(section(BENCHMARK_JSON, "workloads")) {
            let why = field(object, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
