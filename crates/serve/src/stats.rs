//! Pipeline observability: per-shard counters and a log-bucketed latency
//! histogram, all serializable for dashboards and benchmark artifacts.

use serde::{Deserialize, Serialize};
use sketchad_obs::ObsReport;

/// The end-to-end latency histogram is the obs crate's HDR-style
/// [`LogHistogram`](sketchad_obs::LogHistogram): per-octave sub-buckets
/// give p50/p90/p99/p999 at ≤3% relative error, and out-of-range
/// observations land in an explicit `overflow` field instead of being
/// folded into the last bucket.
pub(crate) type LatencyHistogram = sketchad_obs::LogHistogram;

/// Schema version written into [`PipelineStats::stats_version`].
pub(crate) const STATS_VERSION: u32 = 3;

/// Final counters for one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Points scored by this shard's detector.
    pub processed: u64,
    /// Points dropped at this shard's full queue (`DropNewest` only).
    pub dropped: u64,
    /// Highest queue depth observed (approximate; sampled at enqueue).
    pub queue_high_water: usize,
    /// Rows routed here that input validation refused (quarantined).
    pub rejected: u64,
    /// Updates shed: `ShedOldest` evictions, submissions refused by a
    /// degraded shard, and rows it drained without scoring.
    pub shed: u64,
    /// Points consumed from the queue but unscored when the worker panicked.
    pub crash_lost: u64,
    /// Times the worker was restarted from its last published snapshot.
    pub restarts: u64,
    /// Whether the shard exhausted its restart budget and degraded to
    /// shed-with-count.
    pub degraded: bool,
    /// WAL rows replayed into this shard's detector during warm restart
    /// (0 for engines without a state directory, or for cold starts).
    pub replayed: u64,
    /// Generation of the durable snapshot this shard was restored from
    /// (0 when no snapshot existed — cold start or WAL-only recovery).
    pub recovered_generation: u64,
}

/// Whole-pipeline statistics, serializable as a benchmark / monitoring
/// artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Artifact schema version ([`STATS_VERSION`] when written by this
    /// build).
    pub(crate) stats_version: u32,
    /// Per-shard final counters.
    pub shards: Vec<ShardStats>,
    /// Sum of per-shard `processed`.
    pub total_processed: u64,
    /// Sum of per-shard `dropped`.
    pub total_dropped: u64,
    /// Sum of per-shard `rejected` (quarantined rows).
    pub total_rejected: u64,
    /// Sum of per-shard `shed`.
    pub total_shed: u64,
    /// Sum of per-shard `crash_lost`.
    pub total_crash_lost: u64,
    /// Sum of per-shard worker `restarts`.
    pub total_restarts: u64,
    /// Indices of shards that degraded (restart budget exhausted).
    pub degraded_shards: Vec<usize>,
    /// Sum of per-shard `replayed` WAL rows (warm restarts only).
    pub total_replayed: u64,
    /// Indices of shards that warm-restarted from durable state (restored
    /// a snapshot and/or replayed WAL rows).
    pub recovered_shards: Vec<usize>,
    /// End-to-end (enqueue → scored) latency over all shards.
    pub latency: LatencyHistogram,
    /// Median end-to-end latency in microseconds (bucket upper bound;
    /// 0 when nothing was processed).
    pub latency_p50_us: f64,
    /// 90th-percentile end-to-end latency in microseconds (bucket upper
    /// bound; 0 when nothing was processed).
    pub(crate) latency_p90_us: f64,
    /// 99th-percentile end-to-end latency in microseconds (bucket upper
    /// bound; 0 when nothing was processed).
    pub latency_p99_us: f64,
    /// 99.9th-percentile end-to-end latency in microseconds (bucket upper
    /// bound; 0 when nothing was processed).
    pub(crate) latency_p999_us: f64,
    /// Merged per-shard observability report (spans, counters, gauges,
    /// events). `None` for engines started without instrumentation
    /// (`ServeEngine::start`); populated by
    /// `ServeEngine::start_instrumented`.
    pub obs: Option<ObsReport>,
}

impl PipelineStats {
    /// Assembles pipeline stats from per-shard results, computing the
    /// summary quantiles.
    pub(crate) fn from_shards(shards: Vec<ShardStats>, latency: LatencyHistogram) -> Self {
        let total_processed = shards.iter().map(|s| s.processed).sum();
        let total_dropped = shards.iter().map(|s| s.dropped).sum();
        let total_rejected = shards.iter().map(|s| s.rejected).sum();
        let total_shed = shards.iter().map(|s| s.shed).sum();
        let total_crash_lost = shards.iter().map(|s| s.crash_lost).sum();
        let total_restarts = shards.iter().map(|s| s.restarts).sum();
        let degraded_shards = shards
            .iter()
            .filter(|s| s.degraded)
            .map(|s| s.shard)
            .collect();
        let total_replayed = shards.iter().map(|s| s.replayed).sum();
        let recovered_shards = shards
            .iter()
            .filter(|s| s.replayed > 0 || s.recovered_generation > 0)
            .map(|s| s.shard)
            .collect();
        let us = |q: f64| {
            latency
                .quantile(q)
                .map(|d| d.as_secs_f64() * 1e6)
                .unwrap_or(0.0)
        };
        let (latency_p50_us, latency_p90_us, latency_p99_us, latency_p999_us) =
            (us(0.50), us(0.90), us(0.99), us(0.999));
        Self {
            stats_version: STATS_VERSION,
            shards,
            total_processed,
            total_dropped,
            total_rejected,
            total_shed,
            total_crash_lost,
            total_restarts,
            degraded_shards,
            total_replayed,
            recovered_shards,
            latency,
            latency_p50_us,
            latency_p90_us,
            latency_p99_us,
            latency_p999_us,
            obs: None,
        }
    }

    /// Attaches a merged observability report (builder style).
    #[must_use]
    pub(crate) fn with_obs(mut self, obs: ObsReport) -> Self {
        self.obs = Some(obs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    fn shard_stats(shard: usize, processed: u64, dropped: u64) -> ShardStats {
        ShardStats {
            shard,
            processed,
            dropped,
            queue_high_water: 4,
            rejected: 0,
            shed: 0,
            crash_lost: 0,
            restarts: 0,
            degraded: false,
            replayed: 0,
            recovered_generation: 0,
        }
    }

    #[test]
    fn pipeline_stats_aggregates_shards() {
        let shards = vec![shard_stats(0, 10, 1), shard_stats(1, 20, 0)];
        let mut lat = LatencyHistogram::new();
        for _ in 0..30 {
            lat.record(Duration::from_micros(3));
        }
        let stats = PipelineStats::from_shards(shards, lat);
        assert_eq!(stats.stats_version, STATS_VERSION);
        assert_eq!(stats.total_processed, 30);
        assert_eq!(stats.total_dropped, 1);
        assert!(stats.latency_p50_us > 0.0);
        assert!(stats.latency_p90_us >= stats.latency_p50_us);
        assert!(stats.latency_p99_us >= stats.latency_p90_us);
        assert!(stats.latency_p999_us >= stats.latency_p99_us);
    }

    #[test]
    fn fault_counters_aggregate_and_name_degraded_shards() {
        let mut healthy = shard_stats(0, 50, 0);
        healthy.rejected = 2;
        let mut flaky = shard_stats(1, 30, 0);
        flaky.shed = 5;
        flaky.crash_lost = 3;
        flaky.restarts = 2;
        flaky.degraded = true;
        let stats = PipelineStats::from_shards(vec![healthy, flaky], LatencyHistogram::new());
        assert_eq!(stats.total_rejected, 2);
        assert_eq!(stats.total_shed, 5);
        assert_eq!(stats.total_crash_lost, 3);
        assert_eq!(stats.total_restarts, 2);
        assert_eq!(stats.degraded_shards, vec![1]);
    }

    #[test]
    fn recovery_counters_aggregate_and_name_recovered_shards() {
        let cold = shard_stats(0, 50, 0);
        let mut warm = shard_stats(1, 30, 0);
        warm.replayed = 12;
        warm.recovered_generation = 3;
        let mut wal_only = shard_stats(2, 10, 0);
        wal_only.replayed = 4; // recovered with no snapshot on disk
        let stats = PipelineStats::from_shards(vec![cold, warm, wal_only], LatencyHistogram::new());
        assert_eq!(stats.total_replayed, 16);
        assert_eq!(stats.recovered_shards, vec![1, 2]);
        let json = serde_json::to_string(&stats).unwrap();
        let back: PipelineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn stats_serialize_roundtrip() {
        let mut shard = shard_stats(0, 5, 0);
        shard.shed = 1;
        shard.restarts = 1;
        let mut lat = LatencyHistogram::new();
        lat.record(Duration::from_micros(1));
        let stats = PipelineStats::from_shards(vec![shard], lat);
        let json = serde_json::to_string(&stats).unwrap();
        let back: PipelineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn obs_report_rides_along_in_stats_json() {
        use sketchad_obs::{MetricsRecorder, Recorder, Stage};

        let rec = MetricsRecorder::new();
        rec.record_span(Stage::Score, 1_000);
        let stats = PipelineStats::from_shards(Vec::new(), LatencyHistogram::new())
            .with_obs(rec.snapshot());
        let json = serde_json::to_string(&stats).unwrap();
        let back: PipelineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.obs.unwrap().span("score").unwrap().count, 1);
    }
}
