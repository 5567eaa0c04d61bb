//! `selfcheck`: two full sets of untraced runs on the same build. A metric
//! whose median differs between the two by more than its declared bound is
//! too noisy on this host to gate on at that bound.

use crate::manifest::{field, manifest, number};
use crate::report::median;
use serde_json::Value;
use std::process::{Command, Stdio};

/// Runs of every workload per set; a set's value is their median. Fixed, so
/// that two selfcheck tables mean the same thing.
const REPEATS: usize = 3;

/// Runs one workload in a process of its own (so `peak_rss_mb` is that
/// workload's alone) and returns the JSON object from the last line of its
/// output and whether it exited cleanly. `echo` passes its metric lines on.
pub fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    if echo {
        for line in lines.iter().filter(|l| !l.starts_with("# host")) {
            println!("{line}");
        }
    }
    let json = serde_json::from_str::<Value>(last)
        .map_err(|e| format!("{workload}: last line is not JSON ({e}): {last}"))?;
    Ok((json, output.status.success()))
}

/// Median of each end-to-end metric over `REPEATS` runs of every workload.
fn one_set(
    seed: u64,
    seconds: f64,
    quick: bool,
    correct: &mut bool,
) -> Result<Vec<Vec<f64>>, String> {
    let m = manifest();
    let mut set = Vec::with_capacity(m.workloads.len());
    for w in &m.workloads {
        let mut samples = vec![Vec::with_capacity(REPEATS); m.end_to_end.len()];
        for _ in 0..REPEATS {
            let (json, ok) = child_run(w, seed, seconds, false, quick, false)?;
            *correct &= ok;
            for (metric, values) in m.end_to_end.iter().zip(samples.iter_mut()) {
                let value = field(&json, "metrics")
                    .and_then(|metrics| field(metrics, &metric.name))
                    .and_then(|metric| field(metric, "value"))
                    .and_then(number)
                    .ok_or_else(|| format!("{w}: no value for {}", metric.name))?;
                values.push(value);
            }
        }
        set.push(samples.iter_mut().map(|v| median(v)).collect());
        eprintln!("selfcheck: {w} done");
    }
    Ok(set)
}

pub fn selfcheck(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    let m = manifest();
    let mut correct = true;
    let first = one_set(seed, seconds, quick, &mut correct)?;
    let second = one_set(seed, seconds, quick, &mut correct)?;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>7} {:>7}  verdict",
        "workload", "metric", "median 1", "median 2", "gap", "bound"
    );
    let mut within = true;
    for (w, (a, b)) in m.workloads.iter().zip(first.iter().zip(&second)) {
        for (metric, (&a, &b)) in m.end_to_end.iter().zip(a.iter().zip(b)) {
            // The same code ran twice, so a gap in either direction is
            // noise: a set that reads better is no less of a warning than
            // one that reads worse.
            let gap = (a - b).abs() / a.min(b);
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let ok = gap <= bound;
            within &= ok;
            let second_reads = match (b > a) == metric.higher_is_better {
                _ if a == b => "same",
                true => "better",
                false => "worse",
            };
            println!(
                "{w:<16} {:<18} {a:>14.6} {b:>14.6} {:>6.2}% {:>6.1}%  {} (second set {second_reads})",
                metric.name,
                100.0 * gap,
                100.0 * bound,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    if quick {
        println!("# --quick: the sets are too short for their gaps to mean anything");
    }
    if !correct {
        println!("# at least one run failed its output checks");
    }
    Ok(correct && (within || quick))
}
