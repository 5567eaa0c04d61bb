//! Live telemetry for a running [`ServeEngine`](crate::ServeEngine):
//! periodic sampling of every shard's shared counters and recorder into
//! bounded time series, optionally exported over a zero-dependency
//! Prometheus endpoint and a JSONL flight recorder.
//!
//! The sampler is a pure reader. It never takes a queue lock, never pauses
//! a worker, and never touches a detector: it reads the relaxed atomics in
//! each shard's `ShardShared` and (on instrumented engines) snapshots the
//! per-shard [`MetricsRecorder`]s — the same brief mutex the workers
//! already take per point. Scores are bitwise identical with the sampler
//! running; the workspace `telemetry` integration tests assert exactly
//! that.
//!
//! ## The conservation identity, live
//!
//! At quiesce the pipeline guarantees
//! `processed + dropped + rejected + shed + crash_lost == submitted`
//! exactly. A live sample cannot: the counters are independent atomics read
//! at different instants while submissions race, and a slot is reserved in
//! `depth` *before* the matching enqueue lands. Every frame therefore
//! carries `conservation_lag` (submitted minus everything accounted for,
//! including in-queue depth) together with `conservation_ok`, which is
//! `1.0` while the lag stays inside the race window
//! `shards × (max_batch + 1) + in-flight rows` — each worker can be
//! mid-batch, each shard can have one reserved-but-unsent slot, and the
//! submit call in flight has claimed its whole batch in `submitted` before
//! staging the first row. The final frame (taken after the workers join)
//! must have a lag of exactly zero, and the stress tests check it does.

use crate::shard::ShardShared;
use sketchad_obs::{
    FlightRecorder, FrameSink, MetricsRecorder, MetricsServer, ObsReport, Sampler, SamplerConfig,
    SeriesStore, TelemetryFrame,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed},
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples each telemetry series retains: two minutes at the default
/// 200 ms period.
const SERIES_CAPACITY: usize = 600;

/// How [`ServeEngine::start_telemetry`](crate::ServeEngine::start_telemetry)
/// samples and exports.
///
/// ```
/// use sketchad_serve::TelemetryConfig;
/// use std::time::Duration;
///
/// let config = TelemetryConfig::new()
///     .with_sample_every(Duration::from_millis(50))
///     .with_metrics_addr("127.0.0.1:0");
/// assert_eq!(config.sample_every(), Duration::from_millis(50));
/// ```
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    sample_every: Duration,
    metrics_addr: Option<String>,
    flight_path: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryConfig {
    /// Defaults: sample every 200ms, retain 600 samples per series (two
    /// minutes of history), no exporters.
    pub fn new() -> Self {
        Self {
            sample_every: Duration::from_millis(200),
            metrics_addr: None,
            flight_path: None,
        }
    }

    /// Sets the sampling period (floored at 100µs by the sampler).
    pub fn with_sample_every(mut self, period: Duration) -> Self {
        self.sample_every = period;
        self
    }

    /// Serves Prometheus text exposition at `addr` (e.g. `127.0.0.1:9184`,
    /// or port `0` to let the OS pick — read the bound address back from
    /// [`TelemetryHandle::metrics_addr`]).
    pub fn with_metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Appends every sampled frame as one JSONL line (schema
    /// `sketchad-telemetry/v1`) to `path`, truncating any existing file.
    pub fn with_flight_recorder(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_path = Some(path.into());
        self
    }

    /// The configured sampling period.
    pub fn sample_every(&self) -> Duration {
        self.sample_every
    }

    /// Spawns the sampler (and exporters) over `probe`. Returns the sampler
    /// — owned by the engine so `finish` can stop it at quiesce — plus the
    /// caller's handle.
    pub(crate) fn launch(&self, probe: EngineProbe) -> std::io::Result<(Sampler, TelemetryHandle)> {
        let mut sinks: Vec<Box<dyn FrameSink>> = Vec::new();
        if let Some(path) = &self.flight_path {
            sinks.push(Box::new(FlightRecorder::create(path)?));
        }
        let sampler = Sampler::spawn(
            SamplerConfig {
                period: self.sample_every,
                capacity: SERIES_CAPACITY,
            },
            move |step| probe.frame(step),
            sinks,
        );
        let store = sampler.store();
        let server = match &self.metrics_addr {
            Some(addr) => Some(MetricsServer::bind(addr.as_str(), Arc::clone(&store))?),
            None => None,
        };
        Ok((sampler, TelemetryHandle { store, server }))
    }
}

/// The caller's side of a live telemetry session: the shared
/// [`SeriesStore`] the sampler feeds, and the Prometheus endpoint when one
/// was configured. Dropping the handle stops the HTTP server; the sampler
/// itself belongs to the engine and stops at
/// [`finish`](crate::ServeEngine::finish) (after the workers quiesce, so
/// the final frame records the exact terminal state).
#[derive(Debug)]
pub struct TelemetryHandle {
    store: Arc<SeriesStore>,
    server: Option<MetricsServer>,
}

impl TelemetryHandle {
    /// The store the sampler feeds — series history, latest frame, rates.
    pub fn store(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.store)
    }

    /// The bound address of the Prometheus endpoint, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }
}

/// Read-only view over the engine's shared state, moved into the sampler
/// thread. Everything here is an `Arc` to state the workers own; `frame` is
/// a pure read.
pub(crate) struct EngineProbe {
    pub(crate) shards: Vec<Arc<ShardShared>>,
    pub(crate) recorders: Vec<Option<Arc<MetricsRecorder>>>,
    pub(crate) submitted: Arc<AtomicU64>,
    /// Row count of the submit call in flight (0 between calls).
    pub(crate) in_flight: Arc<AtomicU64>,
    pub(crate) started: Instant,
    /// Allowed |conservation_lag| on a live sample besides the in-flight
    /// rows: one micro-batch per worker, one reserved slot per shard.
    pub(crate) slack_limit: u64,
}

impl EngineProbe {
    /// Takes one sample of the whole engine.
    pub(crate) fn frame(&self, step: u64) -> TelemetryFrame {
        let mut frame = TelemetryFrame {
            step,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            ..TelemetryFrame::default()
        };
        // Read the global submission counter *before* the per-shard
        // counters: anything submitted after this instant only makes the
        // accounted side larger, keeping the live lag one-sided-ish within
        // the documented slack either way. The in-flight row count is read
        // in between: a claim visible in `submitted` (Acquire pairs with
        // the engine's Release) is either still in flight here or was fully
        // accounted before the engine cleared it.
        let submitted = self.submitted.load(Acquire);
        let in_flight = self.in_flight.load(Acquire);
        let (mut processed, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
        let (mut shed, mut crash_lost, mut restarts) = (0u64, 0u64, 0u64);
        let (mut depth, mut high_water, mut degraded) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            processed += shard.processed.load(Relaxed);
            dropped += shard.dropped.load(Relaxed);
            rejected += shard.rejected.load(Relaxed);
            shed += shard.shed.load(Relaxed);
            crash_lost += shard.crash_lost.load(Relaxed);
            restarts += shard.restarts.load(Relaxed);
            depth += shard.depth.load(Relaxed) as u64;
            high_water = high_water.max(shard.high_water.load(Relaxed) as u64);
            degraded += u64::from(shard.degraded.load(Relaxed));
        }
        frame.counters.insert("submitted".into(), submitted);
        frame.counters.insert("processed".into(), processed);
        frame.counters.insert("dropped".into(), dropped);
        frame.counters.insert("rejected".into(), rejected);
        frame.counters.insert("shed".into(), shed);
        frame.counters.insert("crash_lost".into(), crash_lost);
        frame.counters.insert("restarts".into(), restarts);
        frame.gauges.insert("queue_depth".into(), depth as f64);
        frame
            .gauges
            .insert("queue_high_water".into(), high_water as f64);
        frame
            .gauges
            .insert("degraded_shards".into(), degraded as f64);
        let accounted = processed + dropped + rejected + shed + crash_lost + depth;
        let lag = submitted as i128 - accounted as i128;
        let lag = lag.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        frame.gauges.insert("conservation_lag".into(), lag as f64);
        frame.gauges.insert(
            "conservation_ok".into(),
            f64::from(u8::from(lag.unsigned_abs() <= self.slack_limit + in_flight)),
        );
        // Instrumented engines also surface the recorder tier: merged
        // counters (events_dropped, snapshots_published, updates_skipped,
        // …), last gauge values (fd_error_bound, residual_energy, …), and
        // latency/refresh histogram quantiles.
        if self.recorders.iter().any(Option::is_some) {
            let mut obs = ObsReport::default();
            for recorder in self.recorders.iter().flatten() {
                obs.merge(&recorder.snapshot());
            }
            frame
                .counters
                .insert("events_dropped".into(), obs.events_dropped);
            for (label, value) in &obs.counters {
                frame.counters.insert(format!("obs_{label}"), *value);
            }
            for (label, stats) in &obs.gauges {
                if stats.last.is_finite() {
                    frame.gauges.insert(label.clone(), stats.last);
                }
            }
            for (label, hist) in &obs.hists {
                frame
                    .counters
                    .insert(format!("{label}_count"), hist.count());
                frame
                    .counters
                    .insert(format!("{label}_overflow"), hist.overflow());
                for (q, suffix) in [
                    (0.50, "p50_us"),
                    (0.90, "p90_us"),
                    (0.99, "p99_us"),
                    (0.999, "p999_us"),
                ] {
                    frame
                        .gauges
                        .insert(format!("{label}_{suffix}"), hist.quantile_us(q));
                }
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(shards: Vec<Arc<ShardShared>>, submitted: u64, slack: u64) -> EngineProbe {
        EngineProbe {
            shards,
            recorders: Vec::new(),
            submitted: Arc::new(AtomicU64::new(submitted)),
            in_flight: Arc::new(AtomicU64::new(0)),
            started: Instant::now(),
            slack_limit: slack,
        }
    }

    #[test]
    fn quiesced_probe_reports_zero_lag() {
        let shard = Arc::new(ShardShared::default());
        shard.processed.store(90, Relaxed);
        shard.rejected.store(10, Relaxed);
        let frame = probe_with(vec![shard], 100, 1).frame(0);
        assert_eq!(frame.counter("submitted"), 100);
        assert_eq!(frame.counter("processed"), 90);
        assert_eq!(frame.counter("rejected"), 10);
        assert_eq!(frame.gauge("conservation_lag"), Some(0.0));
        assert_eq!(frame.gauge("conservation_ok"), Some(1.0));
        assert_eq!(frame.gauge("queue_depth"), Some(0.0));
    }

    #[test]
    fn lag_beyond_slack_flags_not_ok() {
        let shard = Arc::new(ShardShared::default());
        shard.processed.store(10, Relaxed);
        // 100 submitted, only 10 accounted: lag 90 with slack 3.
        let frame = probe_with(vec![shard], 100, 3).frame(0);
        assert_eq!(frame.gauge("conservation_lag"), Some(90.0));
        assert_eq!(frame.gauge("conservation_ok"), Some(0.0));
    }

    #[test]
    fn rows_of_the_submit_in_flight_widen_the_slack() {
        // A batch claimed up front and still being staged: 5 000 of its
        // rows are in `submitted` and nowhere else yet.
        let shard = Arc::new(ShardShared::default());
        shard.processed.store(10_000, Relaxed);
        let probe = probe_with(vec![shard], 15_000, 3);
        probe.in_flight.store(8_192, Relaxed);
        let frame = probe.frame(0);
        assert_eq!(frame.gauge("conservation_lag"), Some(5_000.0));
        assert_eq!(frame.gauge("conservation_ok"), Some(1.0));
        // The same lag with no submit in flight is a real violation.
        probe.in_flight.store(0, Relaxed);
        assert_eq!(probe.frame(1).gauge("conservation_ok"), Some(0.0));
    }

    #[test]
    fn lag_within_slack_is_ok_in_both_directions() {
        // Accounted side ahead of submitted (depth reserved before send).
        let shard = Arc::new(ShardShared::default());
        shard.processed.store(50, Relaxed);
        shard.depth.store(2, Relaxed);
        let frame = probe_with(vec![shard], 50, 3).frame(0);
        assert_eq!(frame.gauge("conservation_lag"), Some(-2.0));
        assert_eq!(frame.gauge("conservation_ok"), Some(1.0));
    }

    #[test]
    fn degraded_and_high_water_are_gauges() {
        let a = Arc::new(ShardShared::default());
        let b = Arc::new(ShardShared::default());
        a.degraded.store(true, Relaxed);
        a.high_water.store(7, Relaxed);
        b.high_water.store(3, Relaxed);
        let frame = probe_with(vec![a, b], 0, 1).frame(0);
        assert_eq!(frame.gauge("degraded_shards"), Some(1.0));
        assert_eq!(frame.gauge("queue_high_water"), Some(7.0));
    }
}
