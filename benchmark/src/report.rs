//! Result of one run and how it is printed: every metric as
//! `workload metric value unit`, then one JSON object as the last line.

use crate::manifest::manifest;
use serde_json::Value;

/// Median of `values` (sorts them; mean of the middle pair when even).
///
/// # Panics
/// Panics on an empty slice or NaN.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (sorts them).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub workload: String,
    pub quick: bool,
    /// Operations attempted (rows submitted; recoveries on `durable_recover`).
    pub attempted: u64,
    /// Attempted operations without a correct result (rows without a finite
    /// score in the report; recoveries that lost rows or changed a score).
    pub failed: u64,
    /// Output checks that did not hold; empty means `correct`.
    pub violations: Vec<String>,
    /// Observations worth a reader's attention that are not errors.
    pub findings: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

/// Name and unit of every declared metric, end-to-end first.
fn declared() -> impl Iterator<Item = (&'static str, &'static str)> {
    manifest()
        .metrics()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
}

impl RunResult {
    pub fn new(workload: &str, quick: bool) -> Self {
        Self {
            workload: workload.to_string(),
            quick,
            ..Self::default()
        }
    }

    /// Records a metric. Only declared names are accepted, so the output
    /// can never drift from `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = declared()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in BENCHMARK.json"));
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// `(name, value, unit)` of every recorded metric, in declared order.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        declared().filter_map(|(name, unit)| self.get(name).map(|v| (name, v, unit)))
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// `workload metric value unit`, one line per metric, plus the counts.
    pub fn print_lines(&self) {
        let note = if self.quick {
            "  # --quick: not comparable"
        } else {
            ""
        };
        for (name, value, unit) in self.metrics() {
            println!("{} {name} {value} {unit}{note}", self.workload);
        }
        println!("{} attempted {} count", self.workload, self.attempted);
        println!("{} failed {} count", self.workload, self.failed);
        for f in &self.findings {
            println!("# finding: {} {f}", self.workload);
        }
        for v in &self.violations {
            println!("# CHECK FAILED: {} {v}", self.workload);
        }
    }

    /// The object the driver reads from the last line of standard output.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::String(unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// Host facts recorded beside every result.
pub fn host_block() -> Value {
    // The repository this benchmark was built in; git must not climb past
    // it into whatever directory a checkout happens to sit in.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in a repository");
    let ceiling = repo.parent().unwrap_or(repo);
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(repo)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let host = sketchad_eval::HostMeta::capture();
    let text = |s: String| Value::String(s);
    Value::Object(vec![
        (
            "nproc".into(),
            Value::UInt(host.available_parallelism as u64),
        ),
        ("arch".into(), text(host.arch)),
        ("os".into(), text(host.os)),
        ("simd".into(), text(host.simd_dispatch)),
        ("rustc".into(), text(command("rustc", &["--version"]))),
        (
            "commit".into(),
            text(command("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
