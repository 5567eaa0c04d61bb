//! Live time-series sampling: bounded ring-buffer series, telemetry
//! frames, and the background [`Sampler`] that feeds them.
//!
//! The end-of-run [`ObsReport`](crate::ObsReport) is blind to transients —
//! a queue-depth spike or a restart storm dissolves into terminal
//! aggregates. This module adds the live tier: a [`Sampler`] thread
//! periodically asks a *frame source* (a read-only closure over the
//! engine's shared counters and recorder snapshots) for one
//! [`TelemetryFrame`], appends it to a bounded [`SeriesStore`], and hands
//! it to any registered [`FrameSink`]s (the JSONL flight recorder, see
//! [`export`](crate::export)).
//!
//! Sampling is a pure read of shared state: no worker pauses, no score
//! changes. The invisibility contract is tested end-to-end (bitwise score
//! equality with the sampler running at full tilt) in the workspace's
//! `telemetry` integration tests.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// A fixed-capacity series of `(step, value)` samples with drop-oldest
/// eviction and strictly increasing step stamps.
#[derive(Debug, Clone)]
pub(crate) struct TimeSeries<T> {
    buf: VecDeque<(u64, T)>,
    capacity: usize,
}

impl<T> TimeSeries<T> {
    /// An empty series holding at most `capacity` samples (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Appends a sample, evicting the oldest when full. Returns `false`
    /// (and keeps the series unchanged) if `step` does not advance past the
    /// latest stamp — series are strictly monotonic by construction.
    pub(crate) fn push(&mut self, step: u64, value: T) -> bool {
        if let Some(&(last, _)) = self.buf.back() {
            if step <= last {
                return false;
            }
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((step, value));
        true
    }

    /// Number of retained samples.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Iterates retained samples oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.buf.iter().map(|(s, v)| (*s, v))
    }
}

/// One sampled observation of the whole engine: monotone counters and
/// point-in-time gauges, stamped with the sample step and wall-clock
/// elapsed milliseconds since sampling began.
///
/// Keys are flat strings (e.g. `processed`, `queue_depth`,
/// `submit_latency_p99_us`) so frames serialize directly into the
/// `sketchad-telemetry/v1` JSONL schema and the Prometheus exposition.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryFrame {
    /// Monotone sample index (0, 1, 2, …), assigned by the sampler.
    pub step: u64,
    /// Milliseconds since the sampler started.
    pub elapsed_ms: u64,
    /// Monotone counters at this instant.
    #[serde(default)]
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges at this instant.
    #[serde(default)]
    pub gauges: BTreeMap<String, f64>,
}

impl TelemetryFrame {
    /// The value of counter `key` (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The value of gauge `key`, if present.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    series: BTreeMap<String, TimeSeries<f64>>,
    latest: Option<TelemetryFrame>,
    frames: u64,
}

/// Thread-safe store of the sampled series: one bounded `TimeSeries` per
/// counter/gauge key plus the latest whole frame (what the Prometheus
/// endpoint serves).
#[derive(Debug)]
pub struct SeriesStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

/// Key under which each frame's `elapsed_ms` is also stored as a series,
/// so rates (Δcounter / Δelapsed) can be derived from the store alone.
pub(crate) const ELAPSED_SERIES: &str = "elapsed_ms";

impl SeriesStore {
    /// An empty store whose per-key series retain `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(StoreInner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one frame into the per-key series and replaces the latest
    /// frame. Out-of-order frames (step not advancing) are ignored.
    pub fn ingest(&self, frame: &TelemetryFrame) {
        let mut inner = self.lock();
        if let Some(latest) = &inner.latest {
            if frame.step <= latest.step {
                return;
            }
        }
        let capacity = self.capacity;
        let push = |series: &mut BTreeMap<String, TimeSeries<f64>>, key: &str, v: f64| {
            series
                .entry(key.to_string())
                .or_insert_with(|| TimeSeries::new(capacity))
                .push(frame.step, v);
        };
        push(&mut inner.series, ELAPSED_SERIES, frame.elapsed_ms as f64);
        for (k, v) in &frame.counters {
            push(&mut inner.series, k, *v as f64);
        }
        for (k, v) in &frame.gauges {
            push(&mut inner.series, k, *v);
        }
        inner.latest = Some(frame.clone());
        inner.frames += 1;
    }

    /// The most recently ingested frame.
    pub fn latest(&self) -> Option<TelemetryFrame> {
        self.lock().latest.clone()
    }

    /// Total frames ingested (not bounded by series capacity).
    pub fn frames(&self) -> u64 {
        self.lock().frames
    }

    /// Rate of change of counter `key` in units/second over the last two
    /// samples, derived from the stored `elapsed_ms` series. `None` until
    /// two samples exist or when no wall-clock time elapsed between them.
    pub fn rate_per_sec(&self, key: &str) -> Option<f64> {
        let inner = self.lock();
        let series = inner.series.get(key)?;
        if series.len() < 2 {
            return None;
        }
        let samples: Vec<(u64, f64)> = series.iter().map(|(step, v)| (step, *v)).collect();
        let (s0, v0) = samples[samples.len() - 2];
        let (s1, v1) = samples[samples.len() - 1];
        let clock = inner.series.get(ELAPSED_SERIES)?;
        let t_of = |step: u64| clock.iter().find(|(s, _)| *s == step).map(|(_, t)| *t);
        let (t0, t1) = (t_of(s0)?, t_of(s1)?);
        let dt = (t1 - t0) / 1e3;
        (dt > 0.0).then(|| (v1 - v0) / dt)
    }
}

/// A consumer of sampled frames (e.g. the JSONL flight recorder).
/// Implementations must never panic: a telemetry sink failure must not
/// take down the engine, so sinks swallow I/O errors internally.
pub trait FrameSink: Send {
    /// Consumes one sampled frame.
    fn record(&mut self, frame: &TelemetryFrame);
    /// Flushes any buffered output (called once, after the final frame).
    fn flush(&mut self) {}
}

/// How a [`Sampler`] runs.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Interval between samples.
    pub period: Duration,
    /// Retained samples per series in the [`SeriesStore`].
    pub capacity: usize,
}

impl Default for SamplerConfig {
    /// 200ms period, 600 retained samples (two minutes of history).
    fn default() -> Self {
        Self {
            period: Duration::from_millis(200),
            capacity: 600,
        }
    }
}

#[derive(Debug)]
struct SamplerShared {
    stop: Mutex<bool>,
    cv: Condvar,
}

impl SamplerShared {
    /// Waits up to `period`; returns `true` once stop was requested.
    fn wait(&self, period: Duration) -> bool {
        let guard = self.stop.lock().unwrap_or_else(|e| e.into_inner());
        if *guard {
            return true;
        }
        let (guard, _) = self
            .cv
            .wait_timeout(guard, period)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }

    fn request_stop(&self) {
        let mut guard = self.stop.lock().unwrap_or_else(|e| e.into_inner());
        *guard = true;
        drop(guard);
        self.cv.notify_all();
    }
}

/// The background sampling thread: every `period` it pulls one frame from
/// the source, ingests it into the shared [`SeriesStore`], and feeds every
/// sink. [`stop`](Sampler::stop) (also run on drop) takes one final frame
/// before joining, so the terminal — quiesced — state is always recorded.
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<SamplerShared>,
    store: Arc<SeriesStore>,
    join: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the sampling thread. `source` is called with the sample step
    /// and must be a pure read of shared state (no locks held across calls,
    /// no mutation of scored data); the returned frame's `step` is
    /// overwritten with the sampler's own monotone counter.
    pub fn spawn<F>(config: SamplerConfig, source: F, mut sinks: Vec<Box<dyn FrameSink>>) -> Self
    where
        F: Fn(u64) -> TelemetryFrame + Send + 'static,
    {
        let shared = Arc::new(SamplerShared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
        });
        let store = Arc::new(SeriesStore::new(config.capacity));
        let thread_shared = Arc::clone(&shared);
        let thread_store = Arc::clone(&store);
        let period = config.period.max(Duration::from_micros(100));
        let join = std::thread::Builder::new()
            .name("sketchad-sampler".into())
            .spawn(move || {
                let mut step = 0u64;
                let take = |step: u64, sinks: &mut Vec<Box<dyn FrameSink>>| {
                    let mut frame = source(step);
                    frame.step = step;
                    thread_store.ingest(&frame);
                    for sink in sinks.iter_mut() {
                        sink.record(&frame);
                    }
                };
                while !thread_shared.wait(period) {
                    take(step, &mut sinks);
                    step += 1;
                }
                // Final frame after stop: the quiesced terminal state.
                take(step, &mut sinks);
                for sink in sinks.iter_mut() {
                    sink.flush();
                }
            })
            .expect("spawn sampler thread");
        Self {
            shared,
            store,
            join: Some(join),
        }
    }

    /// The store the sampler feeds (shared with exporters and watchers).
    pub fn store(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.store)
    }

    /// Stops the thread: one final frame is taken, sinks are flushed, and
    /// the thread is joined. Idempotent.
    pub fn stop(&mut self) {
        self.shared.request_stop();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn ring_buffer_drops_oldest_and_enforces_monotonic_steps() {
        let mut s = TimeSeries::new(3);
        assert!(s.push(0, 10));
        assert!(s.push(1, 11));
        assert!(!s.push(1, 99), "non-advancing step is rejected");
        assert!(!s.push(0, 99), "regressing step is rejected");
        assert!(s.push(2, 12));
        assert!(s.push(5, 15));
        assert_eq!(s.len(), 3);
        let kept: Vec<_> = s.iter().map(|(step, v)| (step, *v)).collect();
        assert_eq!(kept, vec![(1, 11), (2, 12), (5, 15)]);
        assert_eq!(s.iter().last(), Some((5, &15)));
    }

    #[test]
    fn store_ingests_frames_into_series_and_rates() {
        let store = SeriesStore::new(16);
        for (step, elapsed, n) in [(0u64, 0u64, 0u64), (1, 100, 50), (2, 200, 150)] {
            let mut frame = TelemetryFrame {
                step,
                elapsed_ms: elapsed,
                ..Default::default()
            };
            frame.counters.insert("processed".into(), n);
            frame.gauges.insert("queue_depth".into(), step as f64);
            store.ingest(&frame);
        }
        assert_eq!(store.frames(), 3);
        assert_eq!(store.latest().unwrap().counter("processed"), 150);
        assert_eq!(store.lock().series["processed"].len(), 3);
        assert!(store.lock().series.contains_key(ELAPSED_SERIES));
        // 100 points in the last 100ms → 1000/s.
        let rate = store.rate_per_sec("processed").unwrap();
        assert!((rate - 1000.0).abs() < 1e-9, "rate {rate}");
        // A stale (non-advancing) frame is ignored.
        store.ingest(&TelemetryFrame {
            step: 2,
            elapsed_ms: 999,
            ..Default::default()
        });
        assert_eq!(store.frames(), 3);
    }

    #[test]
    fn frame_round_trips_through_json() {
        let mut frame = TelemetryFrame {
            step: 7,
            elapsed_ms: 1400,
            ..Default::default()
        };
        frame.counters.insert("submitted".into(), 123);
        frame.gauges.insert("conservation_ok".into(), 1.0);
        let json = serde_json::to_string(&frame).unwrap();
        let back: TelemetryFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn sampler_samples_then_takes_a_final_frame_on_stop() {
        struct CountingSink(Arc<AtomicU64>);
        impl FrameSink for CountingSink {
            fn record(&mut self, _frame: &TelemetryFrame) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ticks = Arc::new(AtomicU64::new(0));
        let sunk = Arc::new(AtomicU64::new(0));
        let source_ticks = Arc::clone(&ticks);
        let mut sampler = Sampler::spawn(
            SamplerConfig {
                period: Duration::from_millis(1),
                capacity: 64,
            },
            move |_step| {
                source_ticks.fetch_add(1, Ordering::Relaxed);
                let mut frame = TelemetryFrame::default();
                frame.counters.insert("ticks".into(), 1);
                frame
            },
            vec![Box::new(CountingSink(Arc::clone(&sunk)))],
        );
        let store = sampler.store();
        std::thread::sleep(Duration::from_millis(30));
        sampler.stop();
        sampler.stop(); // idempotent
        let taken = ticks.load(Ordering::Relaxed);
        assert!(taken >= 2, "sampled at least twice, got {taken}");
        assert_eq!(sunk.load(Ordering::Relaxed), taken, "every frame sunk");
        assert_eq!(store.frames(), taken, "every frame ingested");
        // Steps in the store are strictly monotonic by construction.
        let steps: Vec<u64> = store.lock().series["ticks"]
            .iter()
            .map(|(s, _)| s)
            .collect();
        for pair in steps.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
