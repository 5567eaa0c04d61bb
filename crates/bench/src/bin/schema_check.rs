//! CI gate over the committed `results/` artifacts: every JSON file must
//! parse and carry the keys downstream tooling (plots, dashboards, the
//! quality gate) relies on. Catches the failure mode where a writer's
//! output shape drifts but the stale committed artifact — or a
//! half-written one — goes unnoticed until a plot script breaks weeks
//! later.
//!
//! Checked shapes:
//!
//! * `MATRIX_*.json` — must round-trip through the real
//!   `sketchad_eval::matrix::MatrixArtifact` deserializer with the
//!   `sketchad-matrix/v1` schema tag, non-empty anchored cells, AUCs in
//!   `[0, 1]`, and a Pareto block.
//! * experiment artifacts (`f*.json`, `t*.json`, `a*.json`) — `id`
//!   matching the file stem, `description`, and a non-empty `results`
//!   array whose entries are objects.
//! * any other `.json` file is a **violation**: new JSON artifact families
//!   must land together with a schema rule, not slide past the gate.
//! * files with unrecognized extensions are reported as a note (listed,
//!   not fatal), so nothing under a checked directory is silently skipped.
//! * `*.jsonl` telemetry flight recordings — at least one line, every line
//!   a valid `TelemetryRecord` carrying the `sketchad-telemetry/v1` schema
//!   tag, with strictly increasing sample steps.
//! * `*.skad` durable snapshots — magic, format version, and whole-file
//!   checksum verified by the real `sketchad-durable` reader.
//! * `*.skwl` WAL segments — header magic/version valid, every complete
//!   frame checksum-verified, and the records contiguous: the first
//!   carries `start_seq + 1` and each the previous + 1. A torn tail is
//!   legitimate crash damage (the reader reports it and recovery drops
//!   it), not a violation. The rule reads frames with a serial reader of
//!   its own, not `sketchad-durable`'s frame walk, and reports a
//!   violation wherever that walk's records or tail status differ.
//! * `*.rows` binary row files — `sketchad-rows/v1` magic, version, and
//!   row-count/body-length consistency verified by the real
//!   `sketchad-core::rowfmt` reader.
//! * `BENCH_trajectory.json`, the committed benchmark trajectory at the
//!   repository root — the `sketchad-trajectory/v1` tag, and per row: git
//!   revisions, a host, a workload and metric, the pair counts, parent and
//!   change quartiles in order, and a ratio that is the medians' quotient
//!   (see [`check_trajectory`]).
//!
//! The argument is a directory, searched recursively (durable state dirs
//! nest per-shard subdirectories), or one file. Exits non-zero listing
//! every violation (not just the first), so one CI run shows the full
//! damage.

use serde::Value;
use sketchad_core::rowfmt::RowsView;
use sketchad_durable::{
    checksum64, read_snapshot, snapshot::parse_snapshot_name, wal, DurableError, TailStatus,
};
use sketchad_eval::matrix::{MatrixArtifact, MATRIX_SCHEMA};
use sketchad_obs::{TelemetryRecord, TELEMETRY_SCHEMA};
use std::path::Path;

fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn get_str<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    match get(value, key)? {
        Value::String(s) => Some(s.as_str()),
        _ => None,
    }
}

/// True for the experiment-artifact naming family: an `f`/`t`/`a` prefix
/// followed by digits (figure / table / ablation ids like `f5`, `t12`).
fn is_experiment_stem(stem: &str) -> bool {
    let mut chars = stem.chars();
    matches!(chars.next(), Some('f' | 't' | 'a'))
        && stem.len() > 1
        && chars.all(|c| c.is_ascii_digit())
}

/// Checks one artifact; returns the violations found in it.
fn check_file(path: &Path) -> Vec<String> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let mut violations = Vec::new();
    let mut violation = |msg: String| violations.push(format!("{name}: {msg}"));

    if path.extension().is_some_and(|x| x == "skad") {
        // Durable snapshot: the real reader verifies magic, version, and
        // the trailing whole-file checksum.
        match read_snapshot(path) {
            Ok(snap) => {
                if parse_snapshot_name(&name).is_some_and(|g| g != snap.generation) {
                    violation(format!(
                        "file name generation does not match encoded generation {}",
                        snap.generation
                    ));
                }
                if snap.payload.is_empty() {
                    violation("empty detector payload".to_string());
                }
            }
            Err(e) => violation(format!("invalid snapshot: {e}")),
        }
        return violations;
    }
    if path.extension().is_some_and(|x| x == "skwl") {
        // WAL segment: header magic/version, per-frame checksums, and
        // sequences running on from the header without a gap. A torn tail
        // is expected crash damage — reported, not a violation. The rule
        // reads the segment itself, one frame at a time, and then holds
        // the durable tier's own reader to what it found.
        match read_segment_serially(path) {
            Ok((header, records, tail)) => {
                let due = |i: usize| header.start_seq.checked_add(i as u64 + 1);
                if let Some((i, rec)) = records
                    .iter()
                    .enumerate()
                    .find(|(i, r)| Some(r.seq) != due(*i))
                {
                    violation(format!(
                        "record {i} has seq {} where the segment start {} makes {} due",
                        rec.seq,
                        header.start_seq,
                        due(i).map_or("none".to_string(), |s| s.to_string())
                    ));
                }
                match wal::read_segment(path) {
                    Ok((_, theirs, their_tail)) => {
                        if theirs != records {
                            violation(format!(
                                "the WAL reader returns {} records where a serial read finds {}",
                                theirs.len(),
                                records.len()
                            ));
                        }
                        if their_tail != tail {
                            violation(format!(
                                "the WAL reader reports tail {their_tail:?} where a serial \
                                 read finds {tail:?}"
                            ));
                        }
                    }
                    Err(e) => violation(format!(
                        "the WAL reader rejects a segment a serial read accepts: {e}"
                    )),
                }
                if let TailStatus::Torn { bytes_dropped } = tail {
                    println!(
                        "schema_check: note: {name} has a torn tail ({bytes_dropped} bytes) — \
                         valid crash damage, recovery drops it"
                    );
                }
            }
            Err(e) => violation(format!("invalid WAL segment: {e}")),
        }
        return violations;
    }

    if path.extension().is_some_and(|x| x == "rows") {
        // Binary row file: the real reader checks magic, version, and that
        // the body length matches the header's row count and stride.
        match std::fs::read(path) {
            Ok(bytes) => match RowsView::new(&bytes) {
                Ok(view) => {
                    if view.dim() == 0 {
                        violation("zero-dimensional rows".to_string());
                    }
                }
                Err(e) => violation(format!("invalid rows file: {e}")),
            },
            Err(e) => violation(format!("unreadable: {e}")),
        }
        return violations;
    }

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            violation(format!("unreadable: {e}"));
            return violations;
        }
    };

    if path.extension().is_some_and(|x| x == "jsonl") {
        // Telemetry flight recording: one TelemetryRecord per line,
        // strictly increasing steps (the sampler's monotone counter).
        let mut last_step: Option<u64> = None;
        let mut frames = 0usize;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            frames += 1;
            match serde_json::from_str::<TelemetryRecord>(line) {
                Ok(record) => {
                    if record.schema != TELEMETRY_SCHEMA {
                        violation(format!(
                            "line {}: schema tag {:?} (expected {TELEMETRY_SCHEMA:?})",
                            i + 1,
                            record.schema
                        ));
                    }
                    if last_step.is_some_and(|prev| record.step <= prev) {
                        violation(format!(
                            "line {}: step {} does not advance past {}",
                            i + 1,
                            record.step,
                            last_step.unwrap_or(0)
                        ));
                    }
                    last_step = Some(record.step);
                }
                Err(e) => violation(format!("line {}: not a valid TelemetryRecord: {e}", i + 1)),
            }
        }
        if frames == 0 {
            violation("no telemetry frames".to_string());
        }
        return violations;
    }

    if name == "BENCH_trajectory.json" {
        match serde_json::from_str::<Trajectory>(&text) {
            Ok(trajectory) => check_trajectory(&trajectory, &mut violation),
            Err(e) => violation(format!("not a valid trajectory: {e}")),
        }
        return violations;
    }

    if name.starts_with("MATRIX_") {
        // The benchmark-matrix artifact: the real deserializer, then the
        // invariants the quality gate and `matrix select` rely on.
        match serde_json::from_str::<MatrixArtifact>(&text) {
            Ok(artifact) => {
                if artifact.schema != MATRIX_SCHEMA {
                    violation(format!(
                        "schema tag {:?} (expected {MATRIX_SCHEMA:?})",
                        artifact.schema
                    ));
                }
                if artifact.id != stem {
                    violation(format!(
                        "id {:?} does not match file stem {stem:?}",
                        artifact.id
                    ));
                }
                if artifact.cells.is_empty() {
                    violation("no cells".to_string());
                } else if artifact.anchored().count() == 0 {
                    violation(
                        "no anchored cells — the quality gate has nothing to compare".to_string(),
                    );
                }
                if artifact.pareto.is_empty() && !artifact.cells.is_empty() {
                    violation("missing Pareto summary".to_string());
                }
                if artifact.host.available_parallelism < 1 {
                    violation("host.available_parallelism < 1".to_string());
                }
                for cell in &artifact.cells {
                    let key = cell.key();
                    if let Some(auc) = cell.metrics.auc {
                        if !(0.0..=1.0).contains(&auc) {
                            violation(format!("{key}: AUC {auc} outside [0, 1]"));
                        }
                    }
                    if cell.metrics.sketch_bytes == 0 {
                        violation(format!("{key}: zero resident sketch bytes"));
                    }
                    if cell.cost.seconds < 0.0 || !cell.cost.seconds.is_finite() {
                        violation(format!("{key}: invalid wall-time {}", cell.cost.seconds));
                    }
                }
            }
            Err(e) => violation(format!("not a valid MatrixArtifact: {e}")),
        }
        return violations;
    }

    let value: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            violation(format!("invalid JSON: {e}"));
            return violations;
        }
    };
    if value.as_object().is_none() {
        violation(format!("top level is {}, expected object", value.kind()));
        return violations;
    }
    match get_str(&value, "id") {
        Some(id) if id == stem => {}
        Some(id) => violation(format!("id {id:?} does not match file stem {stem:?}")),
        None => violation("missing string key \"id\"".to_string()),
    }
    match get_str(&value, "description") {
        Some(d) if !d.is_empty() => {}
        Some(_) => violation("empty description".to_string()),
        None => violation("missing string key \"description\"".to_string()),
    }

    if !is_experiment_stem(&stem) {
        // A `.json` file matching no known artifact family: new families
        // must land with their own rule, not slide past the gate. If the
        // file declares a schema tag, surface it in the violation.
        match get_str(&value, "schema") {
            Some(tag) => violation(format!(
                "unknown schema tag {tag:?} — add a schema_check rule for this artifact family"
            )),
            None => violation(
                "unknown JSON artifact family (expected MATRIX_* or an f*/t*/a* \
                 experiment id) — add a schema_check rule"
                    .to_string(),
            ),
        }
    } else {
        // Experiment figure/table artifacts: flat rows in `results`,
        // grouped curves in `series`; either may be empty but not both.
        let results = get(&value, "results").and_then(Value::as_array);
        let series = get(&value, "series").and_then(Value::as_array);
        match (results, series) {
            (None, None) => violation("missing array key \"results\" (or \"series\")".to_string()),
            (r, s) => {
                if r.is_none_or(|a| a.is_empty()) && s.is_none_or(|a| a.is_empty()) {
                    violation("both results and series are empty".to_string());
                }
                for (i, row) in r.unwrap_or_default().iter().enumerate() {
                    if row.as_object().is_none() {
                        violation(format!("results[{i}] is {}, expected object", row.kind()));
                    }
                }
            }
        }
    }
    violations
}

/// Schema tag of `BENCH_trajectory.json`.
const TRAJECTORY_SCHEMA: &str = "sketchad-trajectory/v1";

/// The committed benchmark trajectory: one row per (change, workload,
/// metric, seed) a performance change measured against its parent.
#[derive(serde::Deserialize)]
struct Trajectory {
    schema: String,
    description: String,
    rows: Vec<TrajectoryRow>,
}

#[derive(serde::Deserialize)]
struct TrajectoryRow {
    /// The revision measured against.
    parent_rev: String,
    /// The revision measured; `null` on the rows a commit adds about
    /// itself, since a commit cannot name its own hash.
    change_rev: Option<String>,
    host: String,
    workload: String,
    metric: String,
    /// `"higher"` or `"lower"`.
    better: String,
    seed: u64,
    /// Parent/change run pairs.
    pairs: u64,
    /// Pairs whose change run beat its parent run; `null` where unreported.
    pairs_won: Option<u64>,
    /// `change.median / parent.median`.
    median_ratio: f64,
    parent: Quartiles,
    change: Quartiles,
    /// Whether the change claimed this metric as its gain.
    claimed: bool,
}

/// One side's runs; quartiles are `null` where only the median was kept.
#[derive(serde::Deserialize)]
struct Quartiles {
    q1: Option<f64>,
    median: f64,
    q3: Option<f64>,
}

/// Checks a trajectory: the schema tag, then per row its revisions (7–40
/// hex digits), names, `better` direction, `pairs_won ≤ pairs`, positive
/// medians inside their quartiles, and `median_ratio` within 1% of the
/// medians' quotient (figures are kept to about three digits). A claimed
/// row reports its pairs won and a ratio on the `better` side of 1. No two
/// rows share (revisions, workload, metric, seed), and the rows without a
/// `change_rev` share one parent.
fn check_trajectory(t: &Trajectory, violation: &mut impl FnMut(String)) {
    if t.schema != TRAJECTORY_SCHEMA {
        violation(format!(
            "schema tag {:?} (expected {TRAJECTORY_SCHEMA:?})",
            t.schema
        ));
    }
    if t.description.is_empty() {
        violation("empty description".to_string());
    }
    if t.rows.is_empty() {
        violation("no rows".to_string());
    }
    let is_rev = |r: &str| (7..=40).contains(&r.len()) && r.bytes().all(|b| b.is_ascii_hexdigit());
    let mut seen = std::collections::BTreeSet::new();
    let mut unnamed_parents = std::collections::BTreeSet::new();
    for (i, r) in t.rows.iter().enumerate() {
        let change = r.change_rev.as_deref().unwrap_or("this commit");
        let mut row = |msg: String| {
            violation(format!(
                "row {i} ({} {} {}→{change}): {msg}",
                r.workload, r.metric, r.parent_rev
            ))
        };
        if !is_rev(&r.parent_rev) || r.change_rev.as_deref().is_some_and(|c| !is_rev(c)) {
            row("revisions must be 7 to 40 hex digits".to_string());
        }
        if r.change_rev.is_none() {
            unnamed_parents.insert(r.parent_rev.clone());
        }
        if r.host.is_empty() || r.workload.is_empty() || r.metric.is_empty() {
            row("empty host, workload or metric".to_string());
        }
        let higher = match r.better.as_str() {
            "higher" => true,
            "lower" => false,
            other => {
                row(format!(
                    "better is {other:?}, expected \"higher\" or \"lower\""
                ));
                true
            }
        };
        if r.pairs == 0 || r.pairs_won.is_some_and(|w| w > r.pairs) {
            row(format!("{:?} of {} pairs won", r.pairs_won, r.pairs));
        }
        for (side, q) in [("parent", &r.parent), ("change", &r.change)] {
            let in_order =
                q.q1.is_none_or(|q1| q1 <= q.median) && q.q3.is_none_or(|q3| q.median <= q3);
            if !(q.median > 0.0 && q.median.is_finite() && in_order) {
                row(format!(
                    "{side} quartiles {:?} / {} / {:?} are not positive and ordered",
                    q.q1, q.median, q.q3
                ));
            }
        }
        let quotient = r.change.median / r.parent.median;
        if !(r.median_ratio > 0.0 && (r.median_ratio / quotient - 1.0).abs() <= 0.01) {
            row(format!(
                "median_ratio {} is not the medians' quotient {quotient:.4}",
                r.median_ratio
            ));
        }
        if r.claimed && (r.pairs_won.is_none() || (r.median_ratio > 1.0) != higher) {
            row("a claimed gain needs its pairs won and a ratio on the better side".to_string());
        }
        let key = (
            r.parent_rev.clone(),
            r.change_rev.clone(),
            r.workload.clone(),
            r.metric.clone(),
            r.seed,
        );
        if !seen.insert(key) {
            row("duplicate row".to_string());
        }
    }
    if unnamed_parents.len() > 1 {
        violation(format!(
            "rows without a change_rev name {} parents; only the newest change may",
            unnamed_parents.len()
        ));
    }
}

/// Reads a WAL segment without the durable tier's frame walk: the whole
/// file into memory, then one frame at a time, each sized and checked
/// with a serial [`checksum64`], stopping at the first frame that is
/// incomplete, inconsistent or corrupt. Only the header goes through the
/// tier's decoder; a bad header is the error.
fn read_segment_serially(
    path: &Path,
) -> Result<(wal::WalHeader, Vec<wal::WalRecord>, TailStatus), DurableError> {
    let bytes = std::fs::read(path)?;
    let header = wal::decode_wal_header(&bytes)?;
    let u32_at =
        |b: &[u8], at: usize| Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?));
    let u64_at =
        |b: &[u8], at: usize| Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?));
    let mut records = Vec::new();
    let mut pos = wal::WAL_HEADER_LEN;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        // `len`, then the body (`first_seq`, `rows`, `dim`, values), then
        // the body's checksum.
        let frame = u32_at(rest, 0).and_then(|len| {
            let len = len as usize;
            let body = rest.get(4..4 + len)?;
            (checksum64(body) == u64_at(rest, 4 + len)?).then_some(())?;
            let (first, n, dim) = (u64_at(body, 0)?, u32_at(body, 8)?, u32_at(body, 12)?);
            let values = body.get(16..)?;
            let whole = n > 0
                && dim > 0
                && (n as usize).checked_mul(dim as usize * 8) == Some(values.len())
                && first.checked_add(u64::from(n)).is_some();
            whole.then_some((len, first, dim as usize, values))
        });
        let Some((len, first, dim, values)) = frame else {
            return Ok((
                header,
                records,
                TailStatus::Torn {
                    bytes_dropped: bytes.len() - pos,
                },
            ));
        };
        for (row, seq) in values.chunks_exact(dim * 8).zip(first..) {
            let row = row
                .chunks_exact(8)
                .map(|v| f64::from_le_bytes(v.try_into().expect("8 bytes")))
                .collect();
            records.push(wal::WalRecord { seq, row });
        }
        pos += 4 + len + 8;
    }
    Ok((header, records, TailStatus::Clean))
}

/// True when `path` has an extension a schema rule exists for.
fn has_known_extension(path: &Path) -> bool {
    path.extension()
        .is_some_and(|x| x == "json" || x == "jsonl" || x == "skad" || x == "skwl" || x == "rows")
}

/// Recursively gathers **every** file (durable state dirs nest `shard-NNNN`
/// subdirectories under the root handed to us). Files without a schema rule
/// are collected too — main reports them as notes rather than silently
/// skipping them.
fn collect_artifacts(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_artifacts(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

fn main() {
    let root = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let root = Path::new(&root);
    if !root.is_dir() && !root.is_file() {
        eprintln!(
            "schema_check: {} is neither a directory nor a file",
            root.display()
        );
        std::process::exit(2);
    }
    let mut all_files = Vec::new();
    if root.is_file() {
        all_files.push(root.to_path_buf());
    } else if let Err(e) = collect_artifacts(root, &mut all_files) {
        eprintln!("schema_check: cannot read {}: {e}", root.display());
        std::process::exit(2);
    }
    all_files.sort();
    let (paths, unknown): (Vec<_>, Vec<_>) =
        all_files.into_iter().partition(|p| has_known_extension(p));
    for path in &unknown {
        println!(
            "schema_check: note: {} has no schema rule (unrecognized extension) — \
             checked for existence only",
            path.display()
        );
    }
    if paths.is_empty() {
        eprintln!("schema_check: no JSON artifacts under {}", root.display());
        std::process::exit(2);
    }
    let mut all_violations = Vec::new();
    for path in &paths {
        all_violations.extend(check_file(path));
    }
    if all_violations.is_empty() {
        println!(
            "schema_check: {} artifact(s) OK ({} unrecognized file(s) noted)",
            paths.len(),
            unknown.len()
        );
    } else {
        eprintln!(
            "schema_check: {} violation(s) across {} artifact(s):",
            all_violations.len(),
            paths.len()
        );
        for v in &all_violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, content: &str) -> std::path::PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("schema_check_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn valid_artifacts_pass() {
        let dir = tmpdir("ok");
        let f = write(
            &dir,
            "f9.json",
            r#"{"id":"f9","description":"a figure","results":[{"auc":0.9}]}"#,
        );
        assert!(check_file(&f).is_empty(), "{:?}", check_file(&f));
    }

    #[test]
    fn violations_are_specific() {
        let dir = tmpdir("bad");
        let wrong_id = write(
            &dir,
            "f9.json",
            r#"{"id":"f8","description":"d","results":[{"a":1}]}"#,
        );
        assert!(check_file(&wrong_id)[0].contains("does not match file stem"));
        let empty = write(
            &dir,
            "a9.json",
            r#"{"id":"a9","description":"d","results":[]}"#,
        );
        assert!(check_file(&empty)[0].contains("both results and series are empty"));
        let garbage = write(&dir, "t9.json", "not json");
        assert!(check_file(&garbage)[0].contains("invalid JSON"));
    }

    #[test]
    fn unknown_json_family_is_a_violation() {
        let dir = tmpdir("unknown");
        // Unknown schema tag: named in the violation.
        let tagged = write(
            &dir,
            "NOVEL_thing.json",
            r#"{"schema":"sketchad-novel/v1","id":"NOVEL_thing","description":"d"}"#,
        );
        assert!(
            check_file(&tagged)[0].contains("unknown schema tag \"sketchad-novel/v1\""),
            "{:?}",
            check_file(&tagged)
        );
        // No schema tag and no known family either.
        let untagged = write(&dir, "random.json", r#"{"id":"random","description":"d"}"#);
        assert!(
            check_file(&untagged)
                .iter()
                .any(|v| v.contains("unknown JSON artifact family")),
            "{:?}",
            check_file(&untagged)
        );
        // The deleted legacy bench families get no free pass either.
        let stray = write(
            &dir,
            "BENCH_serve.json",
            r#"{"id":"BENCH_serve","description":"d","runs":[{}]}"#,
        );
        assert!(
            check_file(&stray)[0].contains("unknown JSON artifact family"),
            "{:?}",
            check_file(&stray)
        );
        // Known families are unaffected.
        assert!(is_experiment_stem("f12") && is_experiment_stem("t1") && is_experiment_stem("a2"));
        assert!(
            !is_experiment_stem("f") && !is_experiment_stem("fx1") && !is_experiment_stem("x1")
        );
    }

    #[test]
    fn collect_gathers_unrecognized_files() {
        let dir = tmpdir("collect");
        write(
            &dir,
            "f9.json",
            r#"{"id":"f9","description":"d","results":[{}]}"#,
        );
        write(&dir, "README.txt", "not an artifact");
        let mut files = Vec::new();
        collect_artifacts(&dir, &mut files).unwrap();
        assert_eq!(files.len(), 2, "every file is collected");
        let (known, unknown): (Vec<_>, Vec<_>) =
            files.into_iter().partition(|p| has_known_extension(p));
        assert_eq!(known.len(), 1);
        assert_eq!(unknown.len(), 1);
        assert!(unknown[0].to_string_lossy().ends_with("README.txt"));
    }

    #[test]
    fn matrix_artifact_rule() {
        use sketchad_eval::matrix::{
            pareto_frontiers, CellCost, CellMetrics, CellParams, MatrixCell,
        };
        use sketchad_eval::HostMeta;

        let dir = tmpdir("matrix");
        let cell = MatrixCell {
            scenario: "synth-lowrank".into(),
            sketch: "fd".into(),
            budget: "mid".into(),
            anchor: true,
            params: CellParams {
                k: 10,
                ell: 18,
                eps: 0.125,
                refresh_period: 64,
                warmup: 64,
                seed: 7,
            },
            metrics: CellMetrics {
                auc: Some(0.95),
                ap: Some(0.6),
                best_f1: Some(0.7),
                detection_delay: Some(1.0),
                sketch_bytes: 2880,
                points: 800,
                dim: 25,
            },
            cost: CellCost {
                seconds: 0.05,
                points_per_sec: 16_000.0,
            },
        };
        let artifact = MatrixArtifact {
            schema: MATRIX_SCHEMA.into(),
            id: "MATRIX_ok".into(),
            description: "test matrix".into(),
            scale: "small".into(),
            smoke: false,
            host: HostMeta::capture(),
            total_seconds: 0.05,
            pareto: pareto_frontiers(std::slice::from_ref(&cell)),
            cells: vec![cell],
        };
        let good = dir.join("MATRIX_ok.json");
        artifact.write_json(&good).unwrap();
        assert!(check_file(&good).is_empty(), "{:?}", check_file(&good));

        // Wrong schema tag.
        let mut bad = artifact.clone();
        bad.schema = "sketchad-matrix/v0".into();
        bad.id = "MATRIX_bad".into();
        let p = dir.join("MATRIX_bad.json");
        bad.write_json(&p).unwrap();
        assert!(check_file(&p).iter().any(|v| v.contains("schema tag")));

        // Out-of-range AUC and no anchors.
        let mut broken = artifact.clone();
        broken.id = "MATRIX_broken".into();
        broken.cells[0].metrics.auc = Some(1.5);
        broken.cells[0].anchor = false;
        let p = dir.join("MATRIX_broken.json");
        broken.write_json(&p).unwrap();
        let v = check_file(&p);
        assert!(v.iter().any(|m| m.contains("outside [0, 1]")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("no anchored cells")), "{v:?}");

        // Not a MatrixArtifact at all.
        let garbage = write(&dir, "MATRIX_garbage.json", r#"{"id":"MATRIX_garbage"}"#);
        assert!(check_file(&garbage)[0].contains("not a valid MatrixArtifact"));
    }

    /// One trajectory row; `edit` rewrites the JSON text of a valid one.
    fn trajectory(edit: impl Fn(String) -> String) -> String {
        let row = r#"{"parent_rev":"847ca04","change_rev":"ccfed9b","host":"2-vCPU AVX-512",
            "workload":"ingest_cheap","metric":"throughput_pts_s","better":"higher","seed":1,
            "pairs":10,"pairs_won":9,"median_ratio":1.25,
            "parent":{"q1":7.5,"median":8.0,"q3":8.5},
            "change":{"q1":null,"median":10.0,"q3":null},"claimed":true}"#;
        format!(
            r#"{{"schema":"sketchad-trajectory/v1","description":"d","rows":[{}]}}"#,
            edit(row.to_string())
        )
    }

    #[test]
    fn trajectory_rule() {
        let dir = tmpdir("trajectory");
        let check = |text: String| check_file(&write(&dir, "BENCH_trajectory.json", &text));
        assert!(
            check(trajectory(|r| r)).is_empty(),
            "{:?}",
            check(trajectory(|r| r))
        );
        // A row a commit adds about itself has no change revision.
        let own = trajectory(|r| r.replace(r#""ccfed9b""#, "null"));
        assert!(check(own).is_empty());
        let cases: [(&str, &str, &str); 8] = [
            ("847ca04", "no-hex!", "revisions must be"),
            (
                r#""better":"higher""#,
                r#""better":"up""#,
                "expected \"higher\"",
            ),
            (r#""pairs_won":9"#, r#""pairs_won":11"#, "pairs won"),
            (r#""q3":8.5"#, r#""q3":7.9"#, "not positive and ordered"),
            (
                r#""median_ratio":1.25"#,
                r#""median_ratio":1.3"#,
                "medians' quotient",
            ),
            (r#""pairs_won":9"#, r#""pairs_won":null"#, "a claimed gain"),
            (
                r#""better":"higher""#,
                r#""better":"lower""#,
                "a claimed gain",
            ),
            (
                r#""workload":"ingest_cheap""#,
                r#""workload":"""#,
                "empty host",
            ),
        ];
        for (from, to, expect) in cases {
            let violations = check(trajectory(|r| r.replace(from, to)));
            assert!(
                violations.iter().any(|v| v.contains(expect)),
                "{from} → {to}: {violations:?}"
            );
        }
        let twice = trajectory(|r| format!("{r},{r}"));
        assert!(check(twice).iter().any(|v| v.contains("duplicate row")));
        let two_unnamed = trajectory(|r| {
            let r = r.replace(r#""ccfed9b""#, "null");
            format!("{r},{}", r.replace("847ca04", "eb9eb0a"))
        });
        assert!(check(two_unnamed).iter().any(|v| v.contains("2 parents")));
        let tag = trajectory(|r| r).replace("trajectory/v1", "trajectory/v0");
        assert!(check(tag)[0].contains("schema tag"));
        assert!(check("{}".to_string())[0].contains("not a valid trajectory"));
    }

    #[test]
    fn committed_trajectory_validates() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trajectory.json");
        let violations = check_file(&path);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn committed_artifacts_validate() {
        // The real gate, inline: if this fails, a committed artifact broke
        // schema (or this checker drifted from the writers).
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut checked = 0;
        for entry in std::fs::read_dir(results).unwrap() {
            let path = entry.unwrap().path();
            if path
                .extension()
                .is_some_and(|x| x == "json" || x == "jsonl")
            {
                let violations = check_file(&path);
                assert!(violations.is_empty(), "{violations:?}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no committed artifacts found");
    }

    #[test]
    fn durable_artifact_rules() {
        use sketchad_durable::{snapshot::write_snapshot, FsyncPolicy, Snapshot, StateStore};
        let dir = tmpdir("durable");

        // A real snapshot passes; flipping any byte fails the checksum.
        let snap = Snapshot {
            generation: 3,
            shard: 0,
            seq: 17,
            payload: vec![1, 2, 3, 4],
        };
        let path = write_snapshot(&dir, &snap, false).unwrap();
        assert!(check_file(&path).is_empty(), "{:?}", check_file(&path));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let bad = dir.join("snapshot-000000000004.skad");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(
            check_file(&bad)[0].contains("invalid snapshot"),
            "{:?}",
            check_file(&bad)
        );

        // A real WAL segment passes, even with a torn tail; garbage fails.
        let wal_dir = dir.join("wal");
        let mut store = StateStore::open(&wal_dir, 0, FsyncPolicy::Never).unwrap();
        store.append_row(&[1.0, 2.0]).unwrap();
        store.flush().unwrap();
        let seg = sketchad_durable::wal::list_segments(&wal_dir).unwrap()[0]
            .1
            .clone();
        assert!(check_file(&seg).is_empty(), "{:?}", check_file(&seg));
        let mut torn = std::fs::read(&seg).unwrap();
        torn.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&seg, &torn).unwrap();
        assert!(check_file(&seg).is_empty(), "torn tail is not a violation");
        let garbage = dir.join("wal-000000000009.skwl");
        std::fs::write(&garbage, b"not a wal segment at all").unwrap();
        assert!(check_file(&garbage)[0].contains("invalid WAL segment"));

        // Valid frames whose sequences skip a row, or do not start right
        // after the header's start_seq, are violations.
        let header = wal::WalHeader {
            shard: 0,
            start_seq: 4,
        };
        for (number, firsts) in [(10, [5u64, 8]), (11, [6, 8])] {
            let mut w = wal::SegmentWriter::create(&dir, number, &header).unwrap();
            for first in firsts {
                let mut frame = Vec::new();
                wal::encode_wal_frame(first, &[1.0, 2.0, 3.0, 4.0], 2, &mut frame);
                w.append(&frame).unwrap();
            }
            let v = check_file(w.path());
            assert!(v.len() == 1 && v[0].contains("due"), "{v:?}");
        }
    }

    /// The rule's serial reader and the durable tier's walk agree on a
    /// segment of six frames, whole, cut inside every frame and with a
    /// byte flipped in every frame, so the rule raises no cross-check
    /// violation on honest damage.
    #[test]
    fn serial_wal_reader_agrees_with_the_durable_walk() {
        let dir = tmpdir("wal-serial");
        let header = wal::WalHeader {
            shard: 0,
            start_seq: 0,
        };
        let mut w = wal::SegmentWriter::create(&dir, 0, &header).unwrap();
        let mut ends = vec![wal::WAL_HEADER_LEN];
        let mut seq = 1;
        for n in [1usize, 5, 2, 9, 1, 3] {
            let rows: Vec<f64> = (0..n * 2).map(|v| v as f64 + seq as f64).collect();
            let mut frame = Vec::new();
            wal::encode_wal_frame(seq, &rows, 2, &mut frame);
            w.append(&frame).unwrap();
            ends.push(w.len() as usize);
            seq += n as u64;
        }
        let path = w.path().to_path_buf();
        drop(w);
        let good = std::fs::read(&path).unwrap();
        let mut cases = vec![good.clone()];
        for pair in ends.windows(2) {
            let mid = (pair[0] + pair[1]) / 2;
            cases.push(good[..mid].to_vec());
            let mut bad = good.clone();
            bad[mid] ^= 0x04;
            cases.push(bad);
        }
        for bytes in cases {
            std::fs::write(&path, &bytes).unwrap();
            let serial = read_segment_serially(&path).unwrap();
            assert_eq!(serial, wal::read_segment(&path).unwrap());
            assert!(check_file(&path).is_empty(), "{:?}", check_file(&path));
        }
    }

    #[test]
    fn rows_file_rule() {
        use sketchad_core::rowfmt::encode_rows;
        let dir = tmpdir("rows");
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 1.0, 2.0]).collect();
        let good = dir.join("sample.rows");
        std::fs::write(&good, encode_rows(&rows, None).unwrap()).unwrap();
        assert!(check_file(&good).is_empty(), "{:?}", check_file(&good));

        // Truncating the body breaks row-count/length consistency.
        let mut bytes = std::fs::read(&good).unwrap();
        bytes.truncate(bytes.len() - 8);
        let torn = dir.join("torn.rows");
        std::fs::write(&torn, &bytes).unwrap();
        assert!(check_file(&torn)[0].contains("invalid rows file"));

        let garbage = dir.join("garbage.rows");
        std::fs::write(&garbage, b"not a rows file").unwrap();
        assert!(check_file(&garbage)[0].contains("invalid rows file"));
    }

    #[test]
    fn telemetry_jsonl_rule() {
        let dir = tmpdir("jsonl");
        let good = write(
            &dir,
            "TELEMETRY_ok.jsonl",
            "{\"schema\":\"sketchad-telemetry/v1\",\"step\":0,\"elapsed_ms\":0,\"counters\":{\"processed\":1},\"gauges\":{}}\n\
             {\"schema\":\"sketchad-telemetry/v1\",\"step\":1,\"elapsed_ms\":100,\"counters\":{\"processed\":9},\"gauges\":{}}\n",
        );
        assert!(check_file(&good).is_empty(), "{:?}", check_file(&good));
        let stale_step = write(
            &dir,
            "TELEMETRY_stale.jsonl",
            "{\"schema\":\"sketchad-telemetry/v1\",\"step\":1,\"elapsed_ms\":0}\n\
             {\"schema\":\"sketchad-telemetry/v1\",\"step\":1,\"elapsed_ms\":1}\n",
        );
        assert!(check_file(&stale_step)[0].contains("does not advance"));
        let wrong_schema = write(
            &dir,
            "TELEMETRY_schema.jsonl",
            "{\"schema\":\"sketchad-telemetry/v0\",\"step\":0,\"elapsed_ms\":0}\n",
        );
        assert!(check_file(&wrong_schema)[0].contains("schema tag"));
        let empty = write(&dir, "TELEMETRY_empty.jsonl", "\n");
        assert!(check_file(&empty)[0].contains("no telemetry frames"));
        let garbage = write(&dir, "TELEMETRY_garbage.jsonl", "not json\n");
        assert!(check_file(&garbage)[0].contains("not a valid TelemetryRecord"));
    }
}
