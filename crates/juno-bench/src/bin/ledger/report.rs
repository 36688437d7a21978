//! What one workload run produces, and how it is printed.

use crate::fixture::{mismatches, Bits};
use crate::json::Json;
use crate::names::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use juno_common::error::{Error, Result};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which halves of a run are printed in the result line. The end-to-end
/// windows always run, untraced; `PerLayer` and `Both` add the traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// `--trace 0`: end-to-end metrics only, no traced pass.
    EndToEnd,
    /// `--trace 1`: windows plus traced pass; the per-layer list is printed.
    PerLayer,
    /// No `--trace`: everything.
    Both,
}

impl TraceMode {
    pub fn traced(self) -> bool {
        self != TraceMode::EndToEnd
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Total measured time: three windows of a third each.
    pub seconds: f64,
    pub trace: TraceMode,
    /// Where WAL directories, snapshots and `trace.json` go.
    pub scratch_root: PathBuf,
}

impl Options {
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds / 3.0)
    }

    pub fn scratch(&self, workload: Workload) -> PathBuf {
        self.scratch_root.join(workload.name())
    }

    /// Writes the traced pass of `workload` to its `trace.json`.
    pub fn write_trace(&self, workload: Workload, tracer: &Tracer) -> Result<()> {
        tracer
            .write_json(&self.scratch(workload).join("trace.json"))
            .map_err(|e| Error::Io(format!("write trace: {e}")))
    }
}

/// Operations attempted and failed — errors, `Overloaded`, coverage < 1,
/// oracle mismatches, acknowledged writes missing after recovery.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

#[derive(Debug, Clone, Default)]
pub struct Value {
    pub value: f64,
    /// The per-window values behind a median (empty for one-shot metrics).
    pub windows: Vec<f64>,
    /// For a latency metric: the percentile it names and the timed
    /// requests behind it.
    pub latency: Option<(f64, usize)>,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub tally: Tally,
    pub checks: Vec<Check>,
    pub constants: Vec<(&'static str, Json)>,
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            tally: Tally::default(),
            checks: Vec::new(),
            constants: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    fn insert(&mut self, name: &'static str, value: Value) {
        assert!(
            names::unit_of(name).is_some(),
            "{name} is not in the ledger's tables"
        );
        self.values.insert(name, value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(
            name,
            Value {
                value,
                ..Value::default()
            },
        );
    }

    /// A metric reported as the median of its per-window values.
    pub fn set_windows(&mut self, name: &'static str, windows: Vec<f64>) {
        self.insert(
            name,
            Value {
                value: stats::median(&windows),
                windows,
                latency: None,
            },
        );
    }

    /// Latency percentile `percentile` with the samples behind it.
    /// `windows` are the per-window readings of the same percentile.
    pub fn set_latency(
        &mut self,
        name: &'static str,
        percentile: f64,
        value: f64,
        windows: Vec<f64>,
        samples: usize,
    ) {
        self.insert(
            name,
            Value {
                value,
                windows,
                latency: Some((percentile, samples)),
            },
        );
    }

    /// Latency metrics with fewer than ten samples beyond the percentile
    /// they name — the run was too short to back them.
    pub fn undersampled(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.values.iter().filter_map(|(name, v)| {
            let (percentile, samples) = v.latency?;
            (!stats::supports(samples, percentile)).then_some((*name, samples))
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    pub fn check(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            pass,
            detail: detail.into(),
        });
    }

    /// Bit-for-bit comparison of two reply lists as one named check;
    /// mismatches count as failed operations.
    pub fn compare_probe(&mut self, name: &'static str, got: &[Bits], want: &[Bits], what: &str) {
        let wrong = mismatches(got, want);
        self.tally.add(want.len(), wrong);
        self.check(
            name,
            wrong == 0,
            format!("{wrong} of {} probe queries differ ({what})", want.len()),
        );
    }

    pub fn constant(&mut self, name: &'static str, value: Json) {
        self.constants.push((name, value));
    }

    /// Every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    fn metric_json(&self, name: &'static str, value: &Value) -> Json {
        let (unit, better) = names::unit_of(name).expect("checked on insert");
        let mut pairs = vec![
            ("value".to_string(), Json::Num(value.value)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better.as_str())),
        ];
        if !value.windows.is_empty() {
            pairs.push(("windows".to_string(), Json::nums(&value.windows)));
        }
        if let Some((_, samples)) = value.latency {
            pairs.push(("samples".to_string(), Json::UInt(samples as u64)));
            let supported = stats::highest_supported_percentile(samples).unwrap_or(0.0);
            pairs.push((
                "highest_supported_percentile".to_string(),
                Json::Num(supported),
            ));
        }
        Json::Obj(pairs)
    }

    /// The reported metrics among `names`, in that order.
    fn section(&self, names: impl Iterator<Item = &'static str>) -> Json {
        Json::obj(names.filter_map(|name| {
            self.values
                .get(name)
                .map(|v| (name, self.metric_json(name, v)))
        }))
    }

    /// Closes the run: `fail_ratio` from the tally, `peak_rss_mb` from the
    /// process's high-water mark.
    pub fn finish(&mut self) {
        self.set(
            "fail_ratio",
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64,
        );
        self.set("peak_rss_mb", crate::provenance::peak_rss_mb());
    }

    /// The full report: every metric this workload reported, by name, with
    /// unit, per-window values, checks and constants.
    pub fn to_json(&self, provenance: &Json) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.tally.attempted)),
            ("failed", Json::UInt(self.tally.failed)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name)),
                                ("pass", Json::Bool(c.pass)),
                                ("detail", Json::str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                self.section(END_TO_END.iter().map(|m| m.name)),
            ),
            ("per_layer", self.section(PER_LAYER.iter().map(|m| m.name))),
            (
                "constants",
                Json::obj(self.constants.iter().map(|(k, v)| (*k, v.clone()))),
            ),
            ("provenance", provenance.clone()),
        ])
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. Metrics a workload does not report read 0 in the
    /// per-layer list; a missing gated end-to-end metric is a bug.
    pub fn result_line(&self, trace: TraceMode) -> Json {
        let mut metrics = Vec::new();
        let mut push = |name: &'static str, value: f64| {
            metrics.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    (
                        "unit",
                        Json::str(names::unit_of(name).expect("table name").0),
                    ),
                ]),
            ));
        };
        if trace != TraceMode::PerLayer {
            for name in names::contract_end_to_end() {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("{} did not report {name}", self.workload.name()));
                push(name, value);
            }
        }
        if trace != TraceMode::EndToEnd {
            for name in names::contract_per_layer() {
                push(name, self.get(name).unwrap_or(0.0));
            }
        }
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.tally.attempted.max(1))),
            ("failed", Json::UInt(self.tally.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        let mut r = Report::new(Workload::OnlineS4Small);
        for name in names::contract_end_to_end() {
            r.set(name, 1.5);
        }
        r.set_windows("qps", vec![390.0, 410.0, 400.0]);
        r.set_latency("lat_p99_ms", 99.0, 9.5, vec![9.0, 9.5, 11.0], 2570);
        r.set("engine.front_us", 830.25);
        r.tally.add(100, 0);
        r.check("fleet_equals_monolith", true, "100 queries");
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        let r = sample_report();
        let Json::Obj(pairs) = r.result_line(TraceMode::EndToEnd) else {
            panic!("object");
        };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics object");
        };
        let got: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names::contract_end_to_end().collect::<Vec<_>>());

        let Json::Obj(pairs) = r.result_line(TraceMode::PerLayer) else {
            panic!("object");
        };
        let Json::Obj(metrics) = &pairs[3].1 else {
            panic!("metrics object");
        };
        let got: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, names::contract_per_layer().collect::<Vec<_>>());
        // Unreported per-layer metrics read 0, reported ones their value.
        let text = r.result_line(TraceMode::PerLayer).to_string();
        assert!(text.contains("\"engine.front_us\": {\"value\": 830.25, \"unit\": \"us\"}"));
        assert!(text.contains("\"wal.fsync_us\": {\"value\": 0, \"unit\": \"us\"}"));
    }

    #[test]
    fn medians_windows_and_checks_reach_the_full_report() {
        let mut r = sample_report();
        assert_eq!(r.get("qps"), Some(400.0));
        assert!(r.correct());
        let text = r.to_json(&Json::obj([("seed", Json::UInt(1))])).to_string();
        assert!(text.contains("\"windows\": [390, 410, 400]"));
        assert!(text.contains("\"samples\": 2570"));
        assert!(text.contains("\"highest_supported_percentile\": 99"));
        assert!(text.contains("\"provenance\": {\"seed\": 1}"));
        assert!(text.contains("\"unit\": \"1/s\", \"better\": \"higher\""));
        // Only reported metrics appear in the full report.
        assert!(!text.contains("wal.fsync_us"));
        assert_eq!(r.undersampled().count(), 0);
        r.set_latency("write_p99_ms", 99.0, 30.0, vec![], 999);
        assert_eq!(
            r.undersampled().collect::<Vec<_>>(),
            [("write_p99_ms", 999)]
        );
        r.check("recall_floor", false, "0.5 < 0.9");
        assert!(!r.correct());
        r.checks.pop();
        r.tally.add(1, 1);
        assert!(!r.correct());
    }

    #[test]
    #[should_panic(expected = "not in the ledger's tables")]
    fn unknown_names_are_refused() {
        Report::new(Workload::OnlineS4Small).set("made.up", 1.0);
    }
}
