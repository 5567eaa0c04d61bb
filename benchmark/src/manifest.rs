//! `BENCHMARK.json`, compiled in. The manifest at the repository root is the
//! one place where the workloads' names and every metric's name, unit,
//! direction and bound are written down; the program reads them from here.

use serde_json::Value;
use std::sync::OnceLock;

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// A declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics are never gated and
/// have none.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// Every declared metric, end-to-end first.
    pub fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

fn text(v: &Value, key: &str) -> String {
    match field(v, key) {
        Some(Value::String(s)) => s.clone(),
        other => panic!("BENCHMARK.json: {key}: expected a string, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key}: expected a list"))
}

fn metric(v: &Value) -> Metric {
    Metric {
        name: text(v, "name"),
        unit: text(v, "unit"),
        higher_is_better: match text(v, "better").as_str() {
            "higher" => true,
            "lower" => false,
            other => panic!("BENCHMARK.json: better is higher or lower, not {other}"),
        },
        bound: field(v, "bound").and_then(number),
    }
}

/// The parsed manifest.
///
/// # Panics
/// Panics when the compiled-in file is not a manifest: that is a broken
/// build, not an input error.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        Manifest {
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: list(&doc, "end_to_end").iter().map(metric).collect(),
            per_layer: list(&doc, "per_layer").iter().map(metric).collect(),
        }
    })
}
