//! Aggregated observation reports and the versioned JSON export artifact.

use crate::event::Event;
use crate::hist::LogHistogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag written into every exported artifact. Bump when the shape of
/// [`ObsArtifact`] / [`ObsReport`] or any stage/counter/gauge label changes.
pub const OBS_SCHEMA: &str = "sketchad-obs/v1";

/// Aggregate of one span stage: how many times it ran and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpanStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded span, nanoseconds.
    pub(crate) min_ns: u64,
    /// Longest recorded span, nanoseconds.
    pub(crate) max_ns: u64,
}

impl SpanStats {
    /// Mean span duration in nanoseconds (0 when nothing was recorded).
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Folds another aggregate into this one.
    pub(crate) fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregate of one gauge: last / min / max over its samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugeStats {
    /// Most recently recorded value. After a cross-shard
    /// [`ObsReport::merge`] this is the value from the last report merged
    /// in, which is arbitrary but stable; min/max/samples stay exact.
    pub last: f64,
    /// Smallest recorded value.
    pub(crate) min: f64,
    /// Largest recorded value.
    pub(crate) max: f64,
    /// Number of recorded samples.
    pub samples: u64,
}

impl GaugeStats {
    /// Folds another aggregate into this one (`last` is taken from
    /// `other`).
    pub(crate) fn merge(&mut self, other: &GaugeStats) {
        self.last = other.last;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.samples += other.samples;
    }
}

/// Everything one recorder (or a merge of several) observed, keyed by the
/// stable labels of [`Stage`](crate::Stage), [`Counter`](crate::Counter),
/// and [`Gauge`](crate::Gauge).
///
/// Reports are serializable (this is the `report` field of the exported
/// [`ObsArtifact`]), mergeable across serve shards, and renderable as a
/// human table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ObsReport {
    /// Per-stage span aggregates, keyed by stage label.
    pub(crate) spans: BTreeMap<String, SpanStats>,
    /// Monotone counters, keyed by counter label.
    pub counters: BTreeMap<String, u64>,
    /// Gauge aggregates, keyed by gauge label.
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Bounded structured event log, oldest first.
    pub events: Vec<Event>,
    /// Events discarded because the log was full (drop-oldest).
    pub events_dropped: u64,
    /// Log-bucketed duration histograms, keyed by
    /// [`Hist`](crate::Hist) label. Additive to the v1 schema: artifacts
    /// written before this field existed deserialize with an empty map.
    #[serde(default)]
    pub hists: BTreeMap<String, LogHistogram>,
}

impl ObsReport {
    /// The span aggregate for `label`, if that stage ever ran.
    pub fn span(&self, label: &str) -> Option<&SpanStats> {
        self.spans.get(label)
    }

    /// The value of counter `label` (0 when never incremented).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters.get(label).copied().unwrap_or(0)
    }

    /// The gauge aggregate for `label`, if ever set.
    pub fn gauge(&self, label: &str) -> Option<&GaugeStats> {
        self.gauges.get(label)
    }

    /// The duration histogram for `label`, if anything was recorded.
    pub fn hist(&self, label: &str) -> Option<&LogHistogram> {
        self.hists.get(label)
    }

    /// How many logged events have the given `Event::kind`.
    pub fn event_count(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Whether nothing at all was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
            && self.hists.is_empty()
    }

    /// Folds `other` into this report: span and gauge aggregates combine,
    /// counters add, event logs concatenate (self's events first). This is
    /// how per-shard recorders roll up into one pipeline-wide report.
    pub fn merge(&mut self, other: &ObsReport) {
        for (label, stats) in &other.spans {
            self.spans.entry(label.clone()).or_default().merge(stats);
        }
        for (label, value) in &other.counters {
            *self.counters.entry(label.clone()).or_insert(0) += value;
        }
        for (label, stats) in &other.gauges {
            match self.gauges.get_mut(label) {
                Some(existing) => existing.merge(stats),
                None => {
                    self.gauges.insert(label.clone(), *stats);
                }
            }
        }
        for (label, hist) in &other.hists {
            match self.hists.get_mut(label) {
                Some(existing) => existing.merge(hist),
                None => {
                    self.hists.insert(label.clone(), hist.clone());
                }
            }
        }
        self.events.extend(other.events.iter().cloned());
        self.events_dropped += other.events_dropped;
    }

    /// Renders the report as an aligned, human-readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no observations recorded)\n");
            return out;
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<22} {:>10} {:>12} {:>12} {:>12}",
                "span", "count", "total_ms", "mean_us", "max_us"
            );
            for (label, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "{:<22} {:>10} {:>12.3} {:>12.2} {:>12.2}",
                    label,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.mean_ns() / 1e3,
                    s.max_ns as f64 / 1e3,
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<22} {:>10}", "counter", "value");
            for (label, value) in &self.counters {
                let _ = writeln!(out, "{label:<22} {value:>10}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12} {:>12} {:>10}",
                "gauge", "last", "min", "max", "samples"
            );
            for (label, g) in &self.gauges {
                let _ = writeln!(
                    out,
                    "{:<22} {:>12.4} {:>12.4} {:>12.4} {:>10}",
                    label, g.last, g.min, g.max, g.samples
                );
            }
        }
        if !self.hists.is_empty() {
            let _ = writeln!(
                out,
                "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50_us", "p99_us", "p999_us", "overflow"
            );
            for (label, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "{:<22} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>10}",
                    label,
                    h.count(),
                    h.quantile_us(0.50),
                    h.quantile_us(0.99),
                    h.quantile_us(0.999),
                    h.overflow(),
                );
            }
        }
        if !self.events.is_empty() || self.events_dropped > 0 {
            let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
            for e in &self.events {
                *kinds.entry(e.kind()).or_insert(0) += 1;
            }
            let summary = kinds
                .iter()
                .map(|(k, n)| format!("{k} x{n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "events: {} kept, {} dropped ({summary})",
                self.events.len(),
                self.events_dropped
            );
        }
        out
    }
}

/// The versioned envelope `--metrics-out` writes.
///
/// Carries the schema tag, the command that produced it, free-form context
/// (dataset, detector config, shard count, …) and the merged report. Fields
/// are flat strings so artifacts stay diffable and greppable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsArtifact {
    /// Always [`OBS_SCHEMA`] for artifacts written by this crate version.
    pub schema: String,
    /// The command (or bench name) that produced this artifact.
    pub command: String,
    /// Free-form run context: dataset, config knobs, shard count, …
    pub context: BTreeMap<String, String>,
    /// The merged observation report.
    pub report: ObsReport,
}

impl ObsArtifact {
    /// Wraps a report with the current schema tag and a producing command.
    pub fn new(command: impl Into<String>, report: ObsReport) -> Self {
        Self {
            schema: OBS_SCHEMA.to_string(),
            command: command.into(),
            context: BTreeMap::new(),
            report,
        }
    }

    /// Adds one context key (builder style).
    #[must_use]
    pub fn with_context(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.context.insert(key.into(), value.into());
        self
    }

    /// Serializes to pretty JSON.
    ///
    /// # Panics
    /// Never: the artifact contains no non-serializable values.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ObsArtifact serializes")
    }

    /// Writes the pretty-JSON artifact to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    /// Any I/O failure creating directories or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        let mut report = ObsReport::default();
        report.spans.insert(
            "score".into(),
            SpanStats {
                count: 2,
                total_ns: 300,
                min_ns: 100,
                max_ns: 200,
            },
        );
        report.counters.insert("updates_skipped".into(), 3);
        report.gauges.insert(
            "queue_depth".into(),
            GaugeStats {
                last: 2.0,
                min: 0.0,
                max: 5.0,
                samples: 7,
            },
        );
        report.events.push(Event::RefreshFired {
            processed: 64,
            reason: "periodic(64)".into(),
        });
        let mut hist = LogHistogram::new();
        hist.record_ns(1_000);
        hist.record_ns(2_000);
        report.hists.insert("submit_latency".into(), hist);
        report
    }

    #[test]
    fn merge_combines_spans_counters_gauges_events() {
        let mut a = sample_report();
        let mut b = sample_report();
        b.spans.get_mut("score").unwrap().min_ns = 50;
        b.gauges.get_mut("queue_depth").unwrap().max = 9.0;
        b.spans.insert(
            "model_refresh".into(),
            SpanStats {
                count: 1,
                total_ns: 1000,
                min_ns: 1000,
                max_ns: 1000,
            },
        );
        a.merge(&b);
        let s = a.span("score").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.total_ns, 600);
        assert_eq!(s.min_ns, 50);
        assert_eq!(s.max_ns, 200);
        assert_eq!(a.span("model_refresh").unwrap().count, 1);
        assert_eq!(a.counter("updates_skipped"), 6);
        let g = a.gauge("queue_depth").unwrap();
        assert_eq!(g.min, 0.0);
        assert_eq!(g.max, 9.0);
        assert_eq!(g.samples, 14);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.event_count("refresh_fired"), 2);
        assert_eq!(a.hist("submit_latency").unwrap().count(), 4);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let mut a = ObsReport::default();
        let b = sample_report();
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn artifact_carries_schema_and_context() {
        let artifact = ObsArtifact::new("pipeline", sample_report())
            .with_context("dataset", "synthetic")
            .with_context("shards", "4");
        let json = artifact.to_json();
        assert!(json.contains(OBS_SCHEMA), "{json}");
        let back: ObsArtifact = serde_json::from_str(&json).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.context.get("shards").map(String::as_str), Some("4"));
    }

    #[test]
    fn render_table_mentions_every_section() {
        let table = sample_report().render_table();
        assert!(table.contains("score"), "{table}");
        assert!(table.contains("updates_skipped"), "{table}");
        assert!(table.contains("queue_depth"), "{table}");
        assert!(table.contains("submit_latency"), "{table}");
        assert!(table.contains("refresh_fired x1"), "{table}");
    }

    #[test]
    fn v1_report_json_without_hists_still_parses() {
        // Artifacts written before the `hists` field existed must stay
        // readable: the field is additive, defaulting to an empty map.
        let v1 = r#"{
            "spans": {},
            "counters": {"points_shed": 2},
            "gauges": {},
            "events": [],
            "events_dropped": 0
        }"#;
        let report: ObsReport = serde_json::from_str(v1).unwrap();
        assert!(report.hists.is_empty());
        assert_eq!(report.counter("points_shed"), 2);
    }

    #[test]
    fn empty_report_renders_placeholder() {
        assert!(ObsReport::default()
            .render_table()
            .contains("no observations"));
    }
}
