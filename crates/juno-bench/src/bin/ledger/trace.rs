//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the ledger around its calls into each layer and
//! kept in a preallocated vector until the run ends; nothing here runs
//! during the end-to-end windows. Where a child stage cannot be observed in
//! place (`ivf.filter` runs inside `build_selective_lut`) it is re-executed
//! back to back on the same query and recorded as a *replayed* child: its
//! interval lies outside the parent's, so the parent's self time subtracts
//! the child's whole duration instead of the overlap.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u32,
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            counts: BTreeMap::new(),
        }
    }

    /// The instant span timestamps are relative to (for spans timed on
    /// other threads and merged in with [`Tracer::push`]).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            replayed: false,
        })
    }

    /// Like [`Tracer::begin`] for a child re-executed outside its parent.
    pub fn begin_replayed(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        let id = self.begin(name, Some(parent), request);
        self.spans[id as usize].replayed = true;
        id
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Adds to a named count recorded at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span: its duration minus the part of its interval
    /// its in-place children cover, minus the full duration of its replayed
    /// children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut replayed = vec![0u64; self.spans.len()];
        for span in &self.spans {
            let Some(parent) = span.parent else { continue };
            let p = &self.spans[parent as usize];
            if span.replayed {
                replayed[parent as usize] += span.duration_ns();
            } else {
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    covered[parent as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let intervals = &mut covered[i];
                intervals.sort_unstable();
                let mut union = 0u64;
                let mut reach = 0u64;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        union += end - start;
                        reach = end;
                    }
                }
                span.duration_ns()
                    .saturating_sub(union)
                    .saturating_sub(replayed[i])
            })
            .collect()
    }

    /// Summed duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed self time of every span called `name`, in nanoseconds.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let selfs = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                let mut pairs = vec![
                    ("name".to_string(), Json::str(s.name)),
                    ("start_ns".to_string(), Json::UInt(s.start_ns)),
                    ("end_ns".to_string(), Json::UInt(s.end_ns)),
                    ("self_ns".to_string(), Json::UInt(self_ns)),
                    ("request".to_string(), Json::UInt(u64::from(s.request))),
                ];
                if let Some(parent) = s.parent {
                    pairs.push(("parent".to_string(), Json::UInt(u64::from(parent))));
                }
                if s.replayed {
                    pairs.push(("replayed".to_string(), Json::Bool(true)));
                }
                Json::Obj(pairs)
            })
            .collect();
        Json::obj([
            ("spans", Json::Arr(spans)),
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
        ])
    }

    /// Writes the trace as JSON, creating the parent directory.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{}\n", self.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_in_place_children() {
        let mut t = Tracer::new(8);
        let root = t.push(span("root", 0, 100, None));
        t.push(span("a", 10, 40, Some(root)));
        // Overlaps `a` by 10 and sticks out of the parent by 20.
        t.push(span("b", 30, 120, Some(root)));
        let leaf_parent = t.push(span("c", 50, 60, Some(root)));
        t.push(span("d", 52, 55, Some(leaf_parent)));
        let selfs = t.self_times_ns();
        // Children cover [10, 100) of the root.
        assert_eq!(selfs[root as usize], 10);
        assert_eq!(selfs[leaf_parent as usize], 7);
        assert_eq!(selfs[1], 30);
        assert_eq!(t.total_self_ns("root"), 10);
        assert_eq!(t.total_ns("root"), 100);
    }

    #[test]
    fn replayed_children_subtract_their_whole_duration() {
        let mut t = Tracer::new(4);
        let front = t.push(span("engine.front", 0, 100, None));
        let mut filter = span("ivf.filter", 100, 130, Some(front));
        filter.replayed = true;
        t.push(filter);
        assert_eq!(t.self_times_ns()[front as usize], 70);
        // A replayed child longer than its parent clamps at zero.
        let mut long = span("ivf.filter", 130, 400, Some(front));
        long.replayed = true;
        t.push(long);
        assert_eq!(t.self_times_ns()[front as usize], 0);
    }

    #[test]
    fn begin_end_and_counts_round_trip_through_json() {
        let mut t = Tracer::new(4);
        let a = t.begin("engine.search", None, 3);
        let b = t.begin_replayed("engine.front", a, 3);
        t.end(b);
        t.end(a);
        t.count("rt.hits", 2.0);
        t.count("rt.hits", 3.0);
        assert_eq!(t.counted("rt.hits"), 5.0);
        assert_eq!(t.counted("missing"), 0.0);
        assert_eq!(t.self_times_ns().len(), 2);
        let text = t.to_json().to_string();
        assert!(text.contains("\"name\": \"engine.front\""));
        assert!(text.contains("\"parent\": 0"));
        assert!(text.contains("\"replayed\": true"));
        assert!(text.contains("\"rt.hits\": 5"));
        assert_eq!(t.durations_ns("engine.search").len(), 1);
    }
}
