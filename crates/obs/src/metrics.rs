//! The collecting [`MetricsRecorder`]: the one real [`Recorder`]
//! implementation.

use crate::event::Event;
use crate::hist::LogHistogram;
use crate::recorder::{Counter, Gauge, Hist, Recorder, Stage};
use crate::report::{GaugeStats, ObsReport, SpanStats};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Default bound on the structured event log (drop-oldest on overflow).
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

const STAGES: [Stage; 5] = [
    Stage::SketchUpdate,
    Stage::SketchShrink,
    Stage::ModelRefresh,
    Stage::Score,
    Stage::SnapshotPublish,
];

const COUNTERS: [Counter; 9] = [
    Counter::UpdatesSkipped,
    Counter::QueueDropped,
    Counter::QueueBlocked,
    Counter::SnapshotsPublished,
    Counter::PointsRejected,
    Counter::PointsShed,
    Counter::WorkerRestarts,
    Counter::RowsReplayed,
    Counter::CheckpointsWritten,
];

const GAUGES: [Gauge; 6] = [
    Gauge::FdErrorBound,
    Gauge::SketchEnergy,
    Gauge::ModelEnergyCaptured,
    Gauge::QueueDepth,
    Gauge::ResidualEnergy,
    Gauge::RingDepth,
];

const HISTS: [Hist; 2] = [Hist::SubmitLatency, Hist::RefreshDuration];

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::SketchUpdate => 0,
        Stage::SketchShrink => 1,
        Stage::ModelRefresh => 2,
        Stage::Score => 3,
        Stage::SnapshotPublish => 4,
    }
}

fn counter_index(counter: Counter) -> usize {
    match counter {
        Counter::UpdatesSkipped => 0,
        Counter::QueueDropped => 1,
        Counter::QueueBlocked => 2,
        Counter::SnapshotsPublished => 3,
        Counter::PointsRejected => 4,
        Counter::PointsShed => 5,
        Counter::WorkerRestarts => 6,
        Counter::RowsReplayed => 7,
        Counter::CheckpointsWritten => 8,
    }
}

fn gauge_index(gauge: Gauge) -> usize {
    match gauge {
        Gauge::FdErrorBound => 0,
        Gauge::SketchEnergy => 1,
        Gauge::ModelEnergyCaptured => 2,
        Gauge::QueueDepth => 3,
        Gauge::ResidualEnergy => 4,
        Gauge::RingDepth => 5,
    }
}

fn hist_index(hist: Hist) -> usize {
    match hist {
        Hist::SubmitLatency => 0,
        Hist::RefreshDuration => 1,
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct GaugeAgg {
    last: f64,
    min: f64,
    max: f64,
    samples: u64,
}

#[derive(Debug)]
struct Inner {
    spans: [SpanAgg; 5],
    counters: [u64; 9],
    gauges: [Option<GaugeAgg>; 6],
    hists: [LogHistogram; 2],
    events: VecDeque<Event>,
    event_capacity: usize,
    events_dropped: u64,
}

/// An in-memory, thread-safe [`Recorder`] that aggregates spans, counters,
/// and gauges into fixed slots and keeps a bounded event log.
///
/// One `Mutex` guards all state: the pipeline records a handful of
/// observations per point, so a short uncontended lock is cheaper than the
/// bookkeeping sharded atomics would need, and each serve shard gets its own
/// recorder anyway (merged at [`ObsReport`] level, not here).
#[derive(Debug)]
pub struct MetricsRecorder {
    inner: Mutex<Inner>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// A recorder with the [`DEFAULT_EVENT_CAPACITY`] event bound.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder whose event log keeps at most `capacity` events,
    /// discarding the oldest on overflow (the count of discarded events is
    /// reported as `events_dropped`).
    pub fn with_event_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                spans: [SpanAgg::default(); 5],
                counters: [0; 9],
                gauges: [None; 6],
                hists: [LogHistogram::new(), LogHistogram::new()],
                events: VecDeque::with_capacity(capacity.min(DEFAULT_EVENT_CAPACITY)),
                event_capacity: capacity,
                events_dropped: 0,
            }),
        }
    }

    /// Immutable snapshot of everything recorded so far.
    pub fn snapshot(&self) -> ObsReport {
        let inner = self.inner.lock().expect("obs recorder poisoned");
        let mut report = ObsReport::default();
        for (i, stage) in STAGES.iter().enumerate() {
            let agg = &inner.spans[i];
            if agg.count > 0 {
                report.spans.insert(
                    stage.label().to_string(),
                    SpanStats {
                        count: agg.count,
                        total_ns: agg.total_ns,
                        min_ns: agg.min_ns,
                        max_ns: agg.max_ns,
                    },
                );
            }
        }
        for (i, counter) in COUNTERS.iter().enumerate() {
            if inner.counters[i] > 0 {
                report
                    .counters
                    .insert(counter.label().to_string(), inner.counters[i]);
            }
        }
        for (i, gauge) in GAUGES.iter().enumerate() {
            if let Some(agg) = inner.gauges[i] {
                report.gauges.insert(
                    gauge.label().to_string(),
                    GaugeStats {
                        last: agg.last,
                        min: agg.min,
                        max: agg.max,
                        samples: agg.samples,
                    },
                );
            }
        }
        for (i, hist) in HISTS.iter().enumerate() {
            if !inner.hists[i].is_empty() {
                report
                    .hists
                    .insert(hist.label().to_string(), inner.hists[i].clone());
            }
        }
        report.events = inner.events.iter().cloned().collect();
        report.events_dropped = inner.events_dropped;
        report
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, stage: Stage, nanos: u64) {
        self.record_span_n(stage, nanos, 1);
    }

    fn record_span_n(&self, stage: Stage, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        // The `n` spans are `nanos / n` long, the first `nanos % n` of them
        // a nanosecond longer.
        let (shortest, longest) = (nanos / n, nanos.div_ceil(n));
        let mut inner = self.inner.lock().expect("obs recorder poisoned");
        let agg = &mut inner.spans[stage_index(stage)];
        if agg.count == 0 {
            agg.min_ns = shortest;
            agg.max_ns = longest;
        } else {
            agg.min_ns = agg.min_ns.min(shortest);
            agg.max_ns = agg.max_ns.max(longest);
        }
        agg.count += n;
        agg.total_ns = agg.total_ns.saturating_add(nanos);
    }

    fn incr(&self, counter: Counter, by: u64) {
        let mut inner = self.inner.lock().expect("obs recorder poisoned");
        let slot = &mut inner.counters[counter_index(counter)];
        *slot = slot.saturating_add(by);
    }

    fn gauge(&self, gauge: Gauge, value: f64) {
        let mut inner = self.inner.lock().expect("obs recorder poisoned");
        let slot = &mut inner.gauges[gauge_index(gauge)];
        *slot = Some(match *slot {
            None => GaugeAgg {
                last: value,
                min: value,
                max: value,
                samples: 1,
            },
            Some(prev) => GaugeAgg {
                last: value,
                min: prev.min.min(value),
                max: prev.max.max(value),
                samples: prev.samples + 1,
            },
        });
    }

    fn event(&self, event: Event) {
        let mut inner = self.inner.lock().expect("obs recorder poisoned");
        if inner.events.len() >= inner.event_capacity {
            inner.events.pop_front();
            inner.events_dropped += 1;
        }
        inner.events.push_back(event);
    }

    fn record_hist(&self, hist: Hist, nanos: u64) {
        self.record_hist_n(hist, nanos, 1);
    }

    fn record_hist_n(&self, hist: Hist, nanos: u64, n: u64) {
        let mut inner = self.inner.lock().expect("obs recorder poisoned");
        inner.hists[hist_index(hist)].record_n(nanos, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_count_total_min_max() {
        let rec = MetricsRecorder::new();
        rec.record_span(Stage::Score, 10);
        rec.record_span(Stage::Score, 30);
        rec.record_span(Stage::Score, 20);
        let report = rec.snapshot();
        let s = report.span("score").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
        assert!(report.span("sketch_update").is_none());
    }

    #[test]
    fn span_n_aggregates_as_its_n_spans() {
        /// Forwards single spans only, so `record_span_n` is the trait's
        /// definition: `n` calls of `record_span`.
        struct Split(MetricsRecorder);
        impl Recorder for Split {
            fn record_span(&self, stage: Stage, nanos: u64) {
                self.0.record_span(stage, nanos);
            }
        }
        let (fused, split) = (MetricsRecorder::new(), Split(MetricsRecorder::new()));
        for (nanos, n) in [(5, 1), (10, 4), (7, 0), (2, 3), (900, 9)] {
            fused.record_span_n(Stage::Score, nanos, n);
            split.record_span_n(Stage::Score, nanos, n);
        }
        let (fused, split) = (fused.snapshot(), split.0.snapshot());
        assert_eq!(fused.span("score"), split.span("score"));
        let s = fused.span("score").unwrap();
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (17, 917, 0, 100));
    }

    #[test]
    fn counters_and_gauges_aggregate() {
        let rec = MetricsRecorder::new();
        rec.incr(Counter::UpdatesSkipped, 2);
        rec.incr(Counter::UpdatesSkipped, 3);
        rec.gauge(Gauge::QueueDepth, 4.0);
        rec.gauge(Gauge::QueueDepth, 1.0);
        rec.gauge(Gauge::QueueDepth, 2.0);
        let report = rec.snapshot();
        assert_eq!(report.counter("updates_skipped"), 5);
        assert_eq!(report.counter("queue_dropped"), 0);
        let g = report.gauge("queue_depth").unwrap();
        assert_eq!(g.last, 2.0);
        assert_eq!(g.min, 1.0);
        assert_eq!(g.max, 4.0);
        assert_eq!(g.samples, 3);
    }

    #[test]
    fn event_log_is_bounded_drop_oldest() {
        let rec = MetricsRecorder::with_event_capacity(2);
        for seq in 0..5u64 {
            rec.event(Event::QueueDropped { shard: 0, seq });
        }
        let report = rec.snapshot();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events_dropped, 3);
        assert_eq!(report.events[0], Event::QueueDropped { shard: 0, seq: 3 });
        assert_eq!(report.events[1], Event::QueueDropped { shard: 0, seq: 4 });
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        use std::sync::Arc;
        let rec = Arc::new(MetricsRecorder::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        rec.incr(Counter::SnapshotsPublished, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.snapshot().counter("snapshots_published"), 400);
    }

    #[test]
    fn histograms_snapshot_only_when_recorded() {
        let rec = MetricsRecorder::new();
        assert!(rec.snapshot().hists.is_empty());
        rec.record_hist(Hist::SubmitLatency, 1_500);
        rec.record_hist(Hist::SubmitLatency, 3_000);
        let report = rec.snapshot();
        assert_eq!(report.hists.len(), 1);
        let h = report.hist("submit_latency").unwrap();
        assert_eq!(h.count(), 2);
        assert!(report.hist("refresh_duration").is_none());
    }
}
