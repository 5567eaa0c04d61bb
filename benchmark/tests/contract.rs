//! `BENCHMARK.json` and the program agree: the manifest parses and stays
//! within its limits, every workload it names has a configuration, and a
//! `--quick` run of every workload emits exactly the declared metrics.

use serde_json::Value;
use skbench::manifest::{self, field, number};
use skbench::spec::{workload, WORKLOADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "manifest larger than 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match field(v, key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key}: expected a list"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

#[test]
fn manifest_has_the_contract_shape() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&Value> = list(&m, "paths").iter().collect();
    assert_eq!(paths, [&Value::String("benchmark".into())]);
    let command = list(&m, "command");
    assert!(command.len() <= 32);
    for part in command {
        let Value::String(part) = part else {
            panic!("command parts are strings")
        };
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let seconds = field(&m, "run_seconds")
        .and_then(number)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    // 4 + 22 x workloads runs, their set-up and two builds fit the cap when
    // a run's fixed work (set-up, reference replay, last lifetime) stays
    // under seven seconds and a build under three minutes.
    let runs = 4.0 + 22.0 * list(&m, "workloads").len() as f64;
    assert!(runs * (seconds + 7.0) + 2.0 * 180.0 <= 3420.0);
}

#[test]
fn manifest_entries_are_within_the_limits() {
    let m = manifest();
    let mut names = BTreeSet::new();

    let workloads = list(&m, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), WORKLOADS.len());
    for declared in workloads {
        assert_eq!(keys(declared), ["name", "why"]);
        let (name, why) = (text(declared, "name"), text(declared, "why"));
        assert!(workload(name).is_some(), "{name} has no configuration");
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        assert!(valid_name(name) && names.insert(name), "{name}");
    }

    let end_to_end = list(&m, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    let bound = |metric| field(metric, "bound").and_then(number).expect("bound");
    for metric in end_to_end {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
        let name = text(metric, "name");
        assert!(bound(metric) > 0.0 && bound(metric) <= 0.25, "{name}");
        assert!(valid_name(name) && names.insert(name), "{name}");
        assert!(valid_unit(text(metric, "unit")), "{name}");
        assert!(
            matches!(text(metric, "better"), "higher" | "lower"),
            "{name}"
        );
    }
    let setup = end_to_end
        .iter()
        .find(|metric| text(metric, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let widest = end_to_end.iter().map(bound).fold(0.0, f64::max);
    assert_eq!(bound(setup), widest, "setup_s carries the largest bound");

    let per_layer = list(&m, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for metric in per_layer {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
        let name = text(metric, "name");
        assert!(valid_name(name) && names.insert(name), "{name}");
        assert!(valid_unit(text(metric, "unit")), "{name}");
        assert!(
            matches!(text(metric, "better"), "higher" | "lower"),
            "{name}"
        );
    }
}

/// Runs one `--quick` run and returns the JSON object of its last line.
fn quick_run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_skbench"))
        .args(["run", "--quick", "--workload", workload])
        .args(["--seed", "3", "--seconds", "0.2", "--trace", trace])
        .output()
        .expect("skbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a last line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn assert_emits(result: &Value, declared: &[(&str, &str)], what: &str) {
    assert_eq!(
        keys(result),
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(field(result, "correct"), Some(&Value::Bool(true)), "{what}");
    assert!(
        field(result, "attempted")
            .and_then(number)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(
        field(result, "failed").and_then(number),
        Some(0.0),
        "{what}"
    );
    let metrics = field(result, "metrics").expect("metrics");
    let emitted: Vec<(&str, &str)> = metrics
        .as_object()
        .expect("metrics is an object")
        .iter()
        .map(|(name, metric)| {
            let value = field(metric, "value").and_then(number).expect("value");
            assert!(value.is_finite(), "{what}: {name} is not finite");
            (name.as_str(), text(metric, "unit"))
        })
        .collect();
    assert_eq!(emitted, declared, "{what}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "an unoptimized engine cannot hold fd_paced's schedule: run with --release"
)]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let declared = manifest::manifest();
    let pairs = |metrics: &'static [manifest::Metric]| -> Vec<(&str, &str)> {
        metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    };
    let end_to_end = pairs(&declared.end_to_end);
    let per_layer = pairs(&declared.per_layer);
    for w in &WORKLOADS {
        let untraced = quick_run(w.name, "0");
        assert_emits(&untraced, &end_to_end, w.name);
        let metrics = field(&untraced, "metrics").expect("metrics");
        for (name, _) in &end_to_end {
            let value = field(metrics, name)
                .and_then(|m| field(m, "value"))
                .and_then(number);
            assert!(
                value.expect("value") > 0.0,
                "{}: {name} must never be 0",
                w.name
            );
        }
        assert_emits(&quick_run(w.name, "1"), &per_layer, w.name);
    }
}

#[test]
fn a_run_too_short_to_score_is_an_error() {
    // 0.01 s of the paced schedule is one 64-row batch: fewer rows than the
    // warmup the AUC skips.
    let output = Command::new(env!("CARGO_BIN_EXE_skbench"))
        .args(["run", "--workload", "fd_paced", "--seconds", "0.01"])
        .output()
        .expect("skbench runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("run too short"), "{stderr}");
}
