//! The load generator: one thread driving one single-shard engine through
//! the real path — mapped `.rows` file, `RowsView::read_row_into` per chunk,
//! `submit_batch_rows_parallel(chunk, 1)`, `finish()`.

use crate::report::quantile;
use crate::spec::{Mode, Workload};
use crate::trace::{spanned, SpanRoot};
use sketchad_core::rowfmt::RowsView;
use sketchad_core::{ScoreKind, ScoreScratch};
use sketchad_serve::{BatchOutcome, PipelineStats, ServeEngine};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The generator sleeps in steps of this length while a due time is further
/// away, and spins for the rest, polling for completions either way.
const PACING_SLEEP: Duration = Duration::from_micros(100);
/// Calls of the snapshot read path timed for `serve.snapshot_score_ns_per_row`.
const SNAPSHOT_SCORE_CALLS: usize = 200;
/// Length of the windows whose completion rates make up `throughput_pts_s`.
/// The host takes the CPU away for a millisecond or so at a time, every few
/// milliseconds in its bad minutes: the median over windows shorter than the
/// gaps between those stalls steps over them, where 100 ms windows each held
/// several (run-to-run range on `ingest_cheap` 12%, against 6% at 10 ms).
/// The price: work that recurs less often than every other window, which is
/// only `durable_wal`'s checkpoint (every ~180 ms), is not in the median; it
/// is in `durable.checkpoint_*`.
const THROUGHPUT_WINDOW: Duration = Duration::from_millis(10);
/// Length of the blocks whose latency quantiles make up `latency_p50_ms` and
/// `latency_p90_ms`: long enough for a p90 (a block of the slowest workload
/// still holds ~30 chunks), short enough that a run has many.
const LATENCY_BLOCK: Duration = Duration::from_millis(500);

/// One engine lifetime, from the first decoded row to `finish()` returning.
pub struct Lifetime {
    pub rows: u64,
    pub wall_s: f64,
    pub scores: Vec<(u64, f64)>,
    pub stats: PipelineStats,
    pub outcome: BatchOutcome,
    /// Per submitted chunk: from the instant it was due (closed loop: the
    /// instant the generator was ready to decode it) to the instant
    /// `live_counters()` showed its last row processed.
    pub batch_latency_ms: Vec<f64>,
    /// Rows processed per second over consecutive ~10 ms windows.
    pub window_pts_s: Vec<f64>,
    /// Median and 90th percentile of `batch_latency_ms` within consecutive
    /// ~0.5 s blocks.
    pub block_p50_ms: Vec<f64>,
    pub block_p90_ms: Vec<f64>,
    /// Paced only: how long after its due time each chunk's decode began.
    pub late_ms: Vec<f64>,
    /// Paced only: chunks submitted but unprocessed when the schedule ended.
    pub backlog_batches_end: f64,
    pub submit_calls: u64,
    pub submit_busy_s: f64,
    pub drain_s: f64,
    pub snapshot_generations: u64,
    /// `SnapshotScorer::score_rows_into` from the generator thread; only
    /// measured on traced runs.
    pub snapshot_score_ns_per_row: f64,
}

/// What one lifetime submits: `total` rows of the cyclically repeated file
/// starting at row `offset`; with `period` set the chunks follow a fixed
/// schedule (open loop), without it each is submitted as soon as the last
/// submit returned (closed loop).
pub struct Plan {
    pub total: usize,
    pub offset: usize,
    pub period: Option<Duration>,
}

/// Row counts at which the generator waits until the worker has processed
/// everything submitted, then calls `then` with the count.
pub struct Quiesce<'a> {
    pub at: &'a [usize],
    pub then: &'a mut dyn FnMut(usize),
}

fn add(total: &mut BatchOutcome, o: BatchOutcome) {
    total.accepted += o.accepted;
    total.dropped += o.dropped;
    total.rejected += o.rejected;
    total.shed += o.shed;
}

/// Chunks submitted and not yet seen processed, and what was seen of the
/// ones that were.
#[derive(Default)]
struct Completions {
    /// `(last row, due time)` of every chunk in flight.
    pending: VecDeque<(u64, Instant)>,
    latency_ms: Vec<f64>,
    /// `(instant, rows processed by then)`, one entry per completed chunk.
    seen: Vec<(Instant, u64)>,
}

impl Completions {
    /// Marks every pending chunk the worker has finished as complete *now*.
    fn poll(&mut self, engine: &ServeEngine) {
        let processed = engine.live_counters()[0].0;
        let now = Instant::now();
        while self
            .pending
            .front()
            .is_some_and(|&(end, _)| end <= processed)
        {
            let (end, due) = self.pending.pop_front().expect("checked non-empty");
            self.latency_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            self.seen.push((now, end));
        }
    }

    /// Polls until nothing is in flight.
    fn drain(&mut self, engine: &ServeEngine) {
        while !self.pending.is_empty() {
            std::thread::yield_now();
            self.poll(engine);
        }
    }

    /// Rows per second over consecutive windows of at least
    /// `THROUGHPUT_WINDOW`, each closed by a chunk completion.
    fn window_rates(&self, started: Instant) -> Vec<f64> {
        let mut rates = Vec::new();
        let (mut from, mut rows_from) = (started, 0);
        for &(at, rows) in &self.seen {
            let window = at.duration_since(from);
            if window >= THROUGHPUT_WINDOW {
                rates.push((rows - rows_from) as f64 / window.as_secs_f64());
                (from, rows_from) = (at, rows);
            }
        }
        rates
    }

    /// The `q`-quantile of chunk latency within each consecutive block of
    /// at least `LATENCY_BLOCK`; a lifetime shorter than one block is one.
    fn block_quantiles(&self, started: Instant, q: f64) -> Vec<f64> {
        let mut quantiles = Vec::new();
        let (mut from, mut first) = (started, 0);
        for (i, &(at, _)) in self.seen.iter().enumerate() {
            if at.duration_since(from) >= LATENCY_BLOCK {
                quantiles.push(quantile(&mut self.latency_ms[first..=i].to_vec(), q));
                (from, first) = (at, i + 1);
            }
        }
        if quantiles.is_empty() && !self.latency_ms.is_empty() {
            quantiles.push(quantile(&mut self.latency_ms.clone(), q));
        }
        quantiles
    }
}

/// Drives `engine` through `plan` and finishes it.
pub fn run_lifetime(
    w: &Workload,
    view: RowsView<'_>,
    mut engine: ServeEngine,
    plan: Plan,
    spans: Option<SpanRoot<'_>>,
    mut quiesce: Option<Quiesce<'_>>,
) -> Result<Lifetime, String> {
    let Plan {
        total,
        offset,
        period,
    } = plan;
    let file_rows = view.len();
    let mut buf: Vec<Vec<f64>> = (0..w.chunk).map(|_| vec![0.0; w.d]).collect();
    let mut chunks = Completions::default();
    let mut late_ms = Vec::new();
    let mut outcome = BatchOutcome::default();
    let mut submit_busy = Duration::ZERO;
    let mut submit_calls = 0u64;
    let mut done = 0usize;
    let (tracer, root) = match spans {
        Some(s) => (Some(s.tracer.as_ref()), s.root),
        None => (None, 0),
    };
    let started = Instant::now();
    while done < total {
        let due = match period {
            Some(p) => {
                let due = started + p * submit_calls as u32;
                loop {
                    chunks.poll(&engine);
                    let now = Instant::now();
                    if now >= due {
                        late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
                        break;
                    }
                    if due - now > PACING_SLEEP + PACING_SLEEP / 2 {
                        std::thread::sleep(PACING_SLEEP);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                due
            }
            None => Instant::now(),
        };
        // A chunk never straddles a quiesce point.
        let stop = quiesce
            .iter()
            .flat_map(|q| q.at)
            .copied()
            .filter(|&at| at > done)
            .fold(total, usize::min);
        let m = w.chunk.min(stop - done);
        if let Some(t) = tracer {
            t.set_chunk(submit_calls as u32);
        }
        spanned(tracer, "decode", root, |_| {
            for (j, row) in buf[..m].iter_mut().enumerate() {
                view.read_row_into((offset + done + j) % file_rows, row)
                    .expect("row in range");
            }
        });
        let call = Instant::now();
        let submitted = spanned(tracer, "submit", root, |_| {
            engine.submit_batch_rows_parallel(&buf[..m], 1)
        });
        submit_busy += call.elapsed();
        add(&mut outcome, submitted.map_err(|e| format!("submit: {e}"))?);
        submit_calls += 1;
        done += m;
        chunks.pending.push_back((done as u64, due));
        chunks.poll(&engine);
        if let Some(q) = quiesce.as_mut().filter(|q| q.at.contains(&done)) {
            chunks.drain(&engine);
            (q.then)(done);
        }
    }
    let backlog_batches_end = period.map_or(0.0, |_| chunks.pending.len() as f64);
    spanned(tracer, "drain_wait", root, |_| chunks.drain(&engine));
    let ingest_s = started.elapsed().as_secs_f64();
    let scorer = engine.scorer(0, ScoreKind::RelativeProjection);
    let mut snapshot_score_ns_per_row = 0.0;
    if tracer.is_some() {
        let mut scratch = ScoreScratch::new();
        let mut out = Vec::new();
        let read = Instant::now();
        for _ in 0..SNAPSHOT_SCORE_CALLS {
            scorer.score_rows_into(&buf, &mut scratch, &mut out);
            std::hint::black_box(&out);
        }
        snapshot_score_ns_per_row =
            read.elapsed().as_nanos() as f64 / (SNAPSHOT_SCORE_CALLS * buf.len()) as f64;
    }
    let snapshot_generations = scorer.generation();
    let finishing = Instant::now();
    let report =
        spanned(tracer, "finish", root, |_| engine.finish()).map_err(|e| format!("finish: {e}"))?;
    let drain_s = finishing.elapsed().as_secs_f64();
    Ok(Lifetime {
        rows: total as u64,
        wall_s: ingest_s + drain_s,
        scores: report.scores,
        stats: report.stats,
        outcome,
        window_pts_s: chunks.window_rates(started),
        block_p50_ms: chunks.block_quantiles(started, 0.5),
        block_p90_ms: chunks.block_quantiles(started, 0.9),
        batch_latency_ms: chunks.latency_ms,
        late_ms,
        backlog_batches_end,
        submit_calls,
        submit_busy_s: submit_busy.as_secs_f64(),
        drain_s,
        snapshot_generations,
        snapshot_score_ns_per_row,
    })
}

/// One lifetime in the workload's own load shape: every chunk that falls
/// due within `seconds` when paced, the workload's fixed row count otherwise.
pub fn plan(w: &Workload, seconds: f64) -> Plan {
    match w.mode {
        Mode::Paced { period_us } => {
            let period = Duration::from_micros(period_us);
            let chunks = (seconds / period.as_secs_f64()).floor().max(1.0) as usize;
            Plan {
                total: chunks * w.chunk,
                offset: 0,
                period: Some(period),
            }
        }
        _ => Plan {
            total: w.lifetime_rows(),
            offset: 0,
            period: None,
        },
    }
}
