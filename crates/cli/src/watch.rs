//! `watch`: offline/tailing viewer over a telemetry JSONL file (the pipeline's
//! `--telemetry-out` flight recording): replays the frames into a
//! [`sketchad_obs::SeriesStore`] and renders a summary table, refreshing
//! while `--follow`ing a live file.

use sketchad_obs::{SeriesStore, TelemetryRecord};

use crate::args::{Args, Command};

pub const COMMAND: Command = Command {
    name: "watch",
    options: &[&["--input FILE.jsonl [--follow] [--for-ms N] [--every-ms N] [--quiet]"]],
    run,
};

fn run(p: &Args) -> Result<(), String> {
    let input = p.required("input")?;
    let follow = p.flag("follow");
    let for_ms: u64 = p.parse_or("for-ms", 2_000, "integer milliseconds")?;
    let every_ms: u64 = p.parse_or("every-ms", 250, "positive integer milliseconds")?;
    let quiet = p.flag("quiet");
    let started = std::time::Instant::now();
    let store = SeriesStore::new(4096);
    let mut consumed = 0usize;
    let mut malformed = 0usize;
    loop {
        // Flight recordings are small (one line per sample period); re-read
        // in full and skip lines already ingested rather than tracking file
        // offsets across truncations.
        let raw = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
        for line in raw.lines().skip(consumed) {
            consumed += 1;
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<TelemetryRecord>(line) {
                Ok(record) => store.ingest(&record.into_frame()),
                Err(_) => malformed += 1,
            }
        }
        if !quiet {
            render_watch(&store, input, malformed);
        }
        if !follow || started.elapsed().as_millis() as u64 >= for_ms {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(every_ms.max(10)));
    }
    if store.frames() == 0 {
        return Err(format!(
            "{input}: no telemetry frames (malformed lines: {malformed})"
        ));
    }
    Ok(())
}

/// Renders the watch table for the current store state. On a terminal the
/// screen is cleared between refreshes; otherwise each refresh appends.
fn render_watch(store: &SeriesStore, source: &str, malformed: usize) {
    use std::io::IsTerminal;
    let Some(frame) = store.latest() else {
        println!("{source}: no frames yet");
        return;
    };
    let mut out = String::new();
    if std::io::stdout().is_terminal() {
        out.push_str("\x1b[2J\x1b[H");
    }
    out.push_str(&format!(
        "watching {source} — step {} at {:.1}s ({} frames{})\n",
        frame.step,
        frame.elapsed_ms as f64 / 1e3,
        store.frames(),
        if malformed > 0 {
            format!(", {malformed} malformed lines")
        } else {
            String::new()
        }
    ));
    let rate = store
        .rate_per_sec("processed")
        .map(|r| format!("{r:.0}/s"))
        .unwrap_or_else(|| "-".into());
    out.push_str(&format!(
        "  submitted {:>10}  processed {:>10} ({rate})\n",
        frame.counter("submitted"),
        frame.counter("processed"),
    ));
    out.push_str(&format!(
        "  queue depth {:>7}  high water {:>9}  degraded shards {}\n",
        frame.gauge("queue_depth").unwrap_or(0.0) as u64,
        frame.gauge("queue_high_water").unwrap_or(0.0) as u64,
        frame.gauge("degraded_shards").unwrap_or(0.0) as u64,
    ));
    if let Some(p99) = frame.gauge("submit_latency_p99_us") {
        out.push_str(&format!(
            "  submit latency p50 {:.1} us  p99 {:.1} us  p999 {:.1} us\n",
            frame.gauge("submit_latency_p50_us").unwrap_or(0.0),
            p99,
            frame.gauge("submit_latency_p999_us").unwrap_or(0.0),
        ));
    }
    out.push_str(&format!(
        "  dropped {}  rejected {}  shed {}  crash_lost {}  restarts {}  events_dropped {}\n",
        frame.counter("dropped"),
        frame.counter("rejected"),
        frame.counter("shed"),
        frame.counter("crash_lost"),
        frame.counter("restarts"),
        frame.counter("events_dropped"),
    ));
    let lag = frame.gauge("conservation_lag").unwrap_or(0.0);
    let ok = frame.gauge("conservation_ok") == Some(1.0);
    out.push_str(&format!(
        "  conservation lag {lag:+.0} ({})\n",
        if ok { "within slack" } else { "VIOLATED" }
    ));
    print!("{out}");
}
