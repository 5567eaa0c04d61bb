//! Zero-dependency exporters for the live telemetry tier: Prometheus
//! text-format exposition over a tiny `std::net::TcpListener` HTTP
//! endpoint, and a versioned JSONL flight-recorder file.
//!
//! Both sinks read the same sampled data ([`TelemetryFrame`]s from the
//! [`Sampler`](crate::timeseries::Sampler)); neither touches the scoring
//! path. The HTTP server is deliberately minimal — one request per
//! connection, `GET /metrics` (or `/`), `Connection: close` — because the
//! workspace is dependency-free by policy and a scrape endpoint needs
//! nothing more. Everything is offline-safe: the listener binds only where
//! told (tests and CI use `127.0.0.1:0`).

use crate::timeseries::{FrameSink, SeriesStore, TelemetryFrame};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Schema tag carried by every line of a telemetry JSONL file. Bump when
/// the [`TelemetryRecord`] shape changes incompatibly.
pub const TELEMETRY_SCHEMA: &str = "sketchad-telemetry/v1";

/// One line of the flight-recorder JSONL: a [`TelemetryFrame`] plus the
/// schema tag, so every line is self-describing and `schema_check` can
/// validate files line by line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Always [`TELEMETRY_SCHEMA`] for records written by this crate.
    pub schema: String,
    /// Monotone sample index.
    pub step: u64,
    /// Milliseconds since sampling began.
    pub(crate) elapsed_ms: u64,
    /// Monotone counters at this instant.
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges at this instant.
    #[serde(default)]
    pub gauges: BTreeMap<String, f64>,
}

impl TelemetryRecord {
    /// Wraps a frame with the current schema tag. Non-finite gauge values
    /// are dropped at this boundary: JSON cannot represent them, and a
    /// single NaN must not poison a whole flight-recorder line.
    pub(crate) fn from_frame(frame: &TelemetryFrame) -> Self {
        Self {
            schema: TELEMETRY_SCHEMA.to_string(),
            step: frame.step,
            elapsed_ms: frame.elapsed_ms,
            counters: frame.counters.clone(),
            gauges: frame
                .gauges
                .iter()
                .filter(|(_, v)| v.is_finite())
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
        }
    }

    /// Unwraps back into a plain frame (dropping the schema tag).
    pub fn into_frame(self) -> TelemetryFrame {
        TelemetryFrame {
            step: self.step,
            elapsed_ms: self.elapsed_ms,
            counters: self.counters,
            gauges: self.gauges,
        }
    }
}

/// JSONL flight recorder: one [`TelemetryRecord`] per line, flushed per
/// frame so `watch --follow` (and post-mortem inspection of a crashed run)
/// always sees complete lines.
///
/// Write errors after creation are swallowed (recording stops) — a failing
/// telemetry disk must never take down the engine.
#[derive(Debug)]
pub struct FlightRecorder {
    writer: Option<BufWriter<File>>,
}

impl FlightRecorder {
    /// Creates (truncating) the JSONL file at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    /// Any I/O failure creating directories or the file itself.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(Self {
            writer: Some(BufWriter::new(file)),
        })
    }
}

impl FrameSink for FlightRecorder {
    fn record(&mut self, frame: &TelemetryFrame) {
        let Some(writer) = self.writer.as_mut() else {
            return;
        };
        let Ok(line) = serde_json::to_string(&TelemetryRecord::from_frame(frame)) else {
            return;
        };
        let ok = writeln!(writer, "{line}").is_ok() && writer.flush().is_ok();
        if !ok {
            // First failure disables the sink; the engine keeps running.
            self.writer = None;
        }
    }

    fn flush(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders one frame as Prometheus text exposition (version 0.0.4):
/// counters become `sketchad_<key>_total` counter families, gauges become
/// `sketchad_<key>` gauge families. Non-finite gauge values are skipped
/// (Prometheus rejects them). `step`/`elapsed_ms` export as gauges too, so
/// a scraper can detect a stalled sampler.
pub(crate) fn render_prometheus(frame: &TelemetryFrame) -> String {
    let mut out = String::new();
    for (key, value) in &frame.counters {
        let name = format!("sketchad_{}_total", sanitize_metric_name(key));
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    let mut gauge = |key: &str, value: f64| {
        if !value.is_finite() {
            return;
        }
        let name = format!("sketchad_{}", sanitize_metric_name(key));
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    };
    gauge("telemetry_step", frame.step as f64);
    gauge("telemetry_elapsed_ms", frame.elapsed_ms as f64);
    for (key, value) in &frame.gauges {
        gauge(key, *value);
    }
    out
}

/// The scrape endpoint: a background accept loop over a non-blocking
/// `TcpListener` serving the latest frame of a shared [`SeriesStore`] as
/// Prometheus text. Offline-safe and dependency-free; stops (politely,
/// within one poll interval) on `stop` or drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `store`'s latest frame.
    ///
    /// # Errors
    /// Any failure resolving or binding the address.
    pub fn bind<A: ToSocketAddrs>(addr: A, store: Arc<SeriesStore>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("sketchad-metrics".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &store),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Handles exactly one request on `stream`: reads the request head (with a
/// short timeout), routes `/metrics` and `/` to the exposition, everything
/// else to 404. All errors are swallowed — a misbehaving scraper must not
/// disturb the engine.
fn serve_one(stream: TcpStream, store: &Arc<SeriesStore>) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut head = [0u8; 2048];
    let mut len = 0usize;
    // Read until the end of the request head, a full buffer, or a timeout.
    while len < head.len() {
        match stream.read(&mut head[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if head[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = std::str::from_utf8(&head[..len])
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("");
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" || path == "/" {
        let body = store
            .latest()
            .map(|frame| render_prometheus(&frame))
            .unwrap_or_default();
        ("200 OK", body)
    } else {
        ("404 Not Found", String::new())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn frame(step: u64) -> TelemetryFrame {
        let mut f = TelemetryFrame {
            step,
            elapsed_ms: step * 100,
            ..Default::default()
        };
        f.counters.insert("processed".into(), 10 * step);
        f.counters.insert("events_dropped".into(), 0);
        f.gauges.insert("queue_depth".into(), 2.0);
        f.gauges.insert("p99 latency(us)".into(), 1.5);
        f.gauges.insert("bad".into(), f64::NAN);
        f
    }

    #[test]
    fn prometheus_rendering_names_types_and_skips_non_finite() {
        let text = render_prometheus(&frame(3));
        assert!(text.contains("# TYPE sketchad_processed_total counter"));
        assert!(text.contains("sketchad_processed_total 30"));
        assert!(text.contains("sketchad_events_dropped_total 0"));
        assert!(text.contains("# TYPE sketchad_queue_depth gauge"));
        assert!(text.contains("sketchad_p99_latency_us_ 1.5"), "{text}");
        assert!(text.contains("sketchad_telemetry_step 3"));
        assert!(!text.contains("NaN"), "non-finite values are skipped");
    }

    #[test]
    fn record_round_trips_and_carries_schema() {
        let record = TelemetryRecord::from_frame(&frame(5));
        assert_eq!(record.schema, TELEMETRY_SCHEMA);
        let json = serde_json::to_string(&record).unwrap();
        let back: TelemetryRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.clone().into_frame().step, 5);
    }

    #[test]
    fn flight_recorder_writes_versioned_lines() {
        let path =
            std::env::temp_dir().join(format!("sketchad-flight-test-{}.jsonl", std::process::id()));
        let mut recorder = FlightRecorder::create(&path).unwrap();
        for step in 0..3 {
            recorder.record(&frame(step));
        }
        recorder.flush();
        drop(recorder);
        let file = std::fs::File::open(&path).unwrap();
        let lines: Vec<String> = std::io::BufReader::new(file)
            .lines()
            .map(|l| l.unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        let mut last_step = None;
        for line in &lines {
            let record: TelemetryRecord = serde_json::from_str(line).unwrap();
            assert_eq!(record.schema, TELEMETRY_SCHEMA);
            if let Some(last) = last_step {
                assert!(record.step > last, "steps strictly increase");
            }
            last_step = Some(record.step);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn http_endpoint_serves_latest_frame_and_404s_unknown_paths() {
        let store = Arc::new(SeriesStore::new(8));
        store.ingest(&frame(0));
        store.ingest(&frame(1));
        let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&store)).unwrap();
        let addr = server.local_addr();

        let get = |path: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };

        let ok = get("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("sketchad_processed_total 10"), "{ok}");
        let root = get("/");
        assert!(root.starts_with("HTTP/1.1 200 OK"));
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.stop();
        server.stop(); // idempotent
    }
}
