use serde_json::Value;
use skbench::manifest::manifest;
use skbench::report::host_block;
use skbench::run::{run, RunArgs};
use skbench::selfcheck::{self, child_run};
use skbench::spec::workload;
use std::process::ExitCode;

const USAGE: &str = "usage:
  skbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  skbench selfcheck [--seed N] [--seconds S] [--quick]

run        one workload, or without --workload all seven, each in a process
           of its own; prints every metric as `workload metric value unit`
           and, for one workload, one JSON object as the last line
selfcheck  two full sets of untraced runs on this build; fails if any
           end-to-end median differs between them by more than its bound";

/// Command-line options shared by both subcommands.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {s}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Seconds one run measures when `--seconds` is not given.
fn default_seconds(quick: bool) -> f64 {
    if quick {
        0.4
    } else {
        12.0
    }
}

/// A result object with its workload's name in front.
fn entry(workload: &str, result: Value) -> Value {
    let mut fields = vec![("workload".to_string(), Value::String(workload.into()))];
    if let Value::Object(rest) = result {
        fields.extend(rest);
    }
    Value::Object(fields)
}

fn run_command(o: &Options) -> Result<bool, String> {
    let seconds = o.seconds.unwrap_or(default_seconds(o.quick));
    let host = host_block();
    println!(
        "# host {}",
        serde_json::to_string(&host).expect("value tree")
    );
    let Some(name) = &o.workload else {
        // Every workload in a process of its own, so that `peak_rss_mb` is
        // that workload's alone.
        let mut results = Vec::new();
        let mut correct = true;
        for name in &manifest().workloads {
            let (json, ok) = child_run(name, o.seed, seconds, o.trace, o.quick, true)?;
            correct &= ok;
            results.push(entry(name, json));
        }
        write_out(o, seconds, &host, &results)?;
        return Ok(correct);
    };
    let w = workload(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; one of {}",
            manifest().workloads.join(", ")
        )
    })?;
    let result = run(&RunArgs {
        workload: if o.quick { w.quick() } else { w },
        seed: o.seed,
        seconds,
        trace: o.trace,
        quick: o.quick,
    })?;
    result.print_lines();
    let mut detailed = vec![entry(name, result.to_json())];
    if let Value::Object(fields) = &mut detailed[0] {
        for (key, notes) in [
            ("findings", &result.findings),
            ("violations", &result.violations),
        ] {
            let notes = notes.iter().cloned().map(Value::String).collect();
            fields.push((key.into(), Value::Array(notes)));
        }
    }
    write_out(o, seconds, &host, &detailed)?;
    // The last line of standard output is what the driver reads.
    println!(
        "{}",
        serde_json::to_string(&result.to_json()).expect("value tree")
    );
    Ok(result.correct())
}

/// `--out FILE`: the results with the seed and the host block, as one
/// JSON document.
fn write_out(o: &Options, seconds: f64, host: &Value, results: &[Value]) -> Result<(), String> {
    let Some(file) = &o.out else {
        return Ok(());
    };
    let path = std::path::Path::new(file);
    let doc = Value::Object(vec![
        ("schema".into(), Value::String("skbench-result/v1".into())),
        ("host".into(), host.clone()),
        ("seed".into(), Value::UInt(o.seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("traced".into(), Value::Bool(o.trace)),
        ("comparable".into(), Value::Bool(!o.quick)),
        ("results".into(), Value::Array(results.to_vec())),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("value tree");
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..]).and_then(|o| run_command(&o)),
        Some("selfcheck") => parse(&args[1..]).and_then(|o| {
            let seconds = o.seconds.unwrap_or(default_seconds(o.quick));
            selfcheck::selfcheck(o.seed, seconds, o.quick)
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("skbench: {message}");
            ExitCode::from(2)
        }
    }
}
