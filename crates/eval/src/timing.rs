//! Wall-clock measurement helpers for the runtime tables and latency
//! figures.

use std::time::{Duration, Instant};

/// A simple stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as `f64`.
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Per-item latency statistics collected from nanosecond samples.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    samples_ns: Vec<u64>,
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self {
            samples_ns: Vec::new(),
        }
    }

    /// Records one latency sample.
    pub(crate) fn record(&mut self, d: Duration) {
        self.samples_ns.push(d.as_nanos() as u64);
    }

    /// Times `f` and records its duration, returning its output.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(t.elapsed());
        out
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().sum::<u64>() as f64 / self.samples_ns.len() as f64
    }

    /// Latency percentile (`q ∈ [0, 1]`) in nanoseconds, nearest-rank.
    ///
    /// # Panics
    /// Panics when no samples were recorded or `q` is out of range.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        assert!(!self.samples_ns.is_empty(), "no samples recorded");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    /// Histogram over logarithmic buckets `< 1µs, < 10µs, < 100µs, < 1ms, ≥ 1ms`
    /// (the latency-distribution figure F7).
    pub fn log_histogram(&self) -> [usize; 5] {
        let mut h = [0usize; 5];
        for &ns in &self.samples_ns {
            let bucket = if ns < 1_000 {
                0
            } else if ns < 10_000 {
                1
            } else if ns < 100_000 {
                2
            } else if ns < 1_000_000 {
                3
            } else {
                4
            };
            h[bucket] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_elapsed_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(10));
        assert!(sw.seconds() >= 0.009);
    }

    #[test]
    fn stats_from_known_samples() {
        let mut s = LatencyStats::new();
        for ms in [1u64, 2, 3, 4, 5] {
            s.record(Duration::from_millis(ms));
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean_ns() - 3e6).abs() < 1.0);
        assert_eq!(s.percentile_ns(0.5), 3_000_000);
        assert_eq!(s.percentile_ns(1.0), 5_000_000);
        assert_eq!(s.percentile_ns(0.0), 1_000_000);
    }

    #[test]
    fn histogram_buckets() {
        let mut s = LatencyStats::new();
        s.record(Duration::from_nanos(500)); // <1µs
        s.record(Duration::from_micros(5)); // <10µs
        s.record(Duration::from_micros(50)); // <100µs
        s.record(Duration::from_micros(500)); // <1ms
        s.record(Duration::from_millis(5)); // ≥1ms
        assert_eq!(s.log_histogram(), [1, 1, 1, 1, 1]);
    }

    #[test]
    fn time_returns_closure_output() {
        let mut s = LatencyStats::new();
        let out = s.time(|| 21 * 2);
        assert_eq!(out, 42);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn percentile_of_empty_panics() {
        LatencyStats::new().percentile_ns(0.5);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_ns(), 0.0);
    }
}
