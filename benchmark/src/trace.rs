//! The benchmark's own span store. Spans are recorded from outside the
//! program — around calls into its public functions, and through the
//! `Recorder` hook `SketchDetector::with_recorder` already offers — kept in
//! memory, and written out when the run ends.

use sketchad_core::obs::{Recorder, RecorderHandle, Stage};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One span: a name, an interval, the span that caused it and the chunk
/// whose rows it served. A span with `count > 1` aggregates that many
/// per-row events (scores and shrink-free sketch updates run too often to
/// keep singly): its interval runs from the first to the last of them and
/// `busy_ns` is the sum of their durations.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub chunk: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
    pub busy_ns: u64,
}

#[derive(Default, Clone, Copy)]
struct Aggregate {
    count: u64,
    busy_ns: u64,
    first_ns: u64,
    last_ns: u64,
}

impl Aggregate {
    fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.count == 0 {
            self.first_ns = start_ns;
        }
        self.count += 1;
        self.busy_ns += end_ns - start_ns;
        self.last_ns = end_ns;
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Span the detector's recorder callbacks are attributed to.
    current: u32,
    chunk: u32,
    score: Aggregate,
    update: Aggregate,
    /// Index of a shrink span waiting for the update that contained it.
    pending_shrink: Option<usize>,
}

impl Inner {
    fn push(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            chunk: self.chunk,
            name,
            start_ns,
            end_ns,
            count: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
        });
        id
    }

    fn flush(&mut self, name: &'static str, agg: Aggregate) {
        if agg.count > 0 {
            let id = self.push(name, self.current, agg.first_ns, agg.last_ns);
            let span = &mut self.spans[id as usize - 1];
            span.count = agg.count;
            span.busy_ns = agg.busy_ns;
        }
    }
}

/// Count and summed busy time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub count: u64,
    pub ns: u64,
}

impl Busy {
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Mean busy nanoseconds per counted event (0 when nothing ran).
    pub fn ns_per(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer mutex poisoned")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new span under `parent`, handing it the span's id.
    /// While `f` runs, recorder callbacks from a detector are attributed to
    /// this span.
    pub fn span<T>(&self, name: &'static str, parent: u32, f: impl FnOnce(u32) -> T) -> T {
        let start = self.now_ns();
        let (id, outer) = {
            let mut inner = self.lock();
            let id = inner.push(name, parent, start, start);
            (id, std::mem::replace(&mut inner.current, id))
        };
        let out = f(id);
        let end = self.now_ns();
        let mut inner = self.lock();
        let (score, update) = (
            std::mem::take(&mut inner.score),
            std::mem::take(&mut inner.update),
        );
        inner.flush("score", score);
        inner.flush("sketch_update", update);
        inner.current = outer;
        let span = &mut inner.spans[id as usize - 1];
        span.end_ns = end;
        span.busy_ns = end - start;
        out
    }

    /// Sets the chunk id stamped on the spans recorded from now on.
    pub fn set_chunk(&self, chunk: u32) {
        self.lock().chunk = chunk;
    }

    /// Adds a span that aggregates `count` events the program timed itself
    /// (an engine's `ObsReport` stage), under `parent`.
    pub fn aggregate(&self, name: &'static str, parent: u32, count: u64, busy_ns: u64) {
        let now = self.now_ns();
        let mut inner = self.lock();
        let id = inner.push(name, parent, now, now);
        let span = &mut inner.spans[id as usize - 1];
        span.count = count;
        span.busy_ns = busy_ns;
    }

    /// Count and busy time of all spans called `name` below `root`
    /// (`root` itself included).
    pub fn busy(&self, root: u32, name: &str) -> Busy {
        let inner = self.lock();
        let mut out = Busy::default();
        for span in inner.spans.iter().filter(|s| s.name == name) {
            let mut id = span.id;
            while id != root && id != 0 {
                id = inner.spans[id as usize - 1].parent;
            }
            if id == root {
                out.count += span.count;
                out.ns += span.busy_ns;
            }
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let inner = self.lock();
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"schema\":\"skbench-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"chunk\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"busy_ns\":{}}}",
                s.id, s.parent, s.chunk, s.name, s.start_ns, s.end_ns, s.count, s.busy_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Where a traced section hangs its spans: the tracer and the parent span.
#[derive(Clone, Copy)]
pub struct SpanRoot<'a> {
    pub tracer: &'a Arc<Tracer>,
    pub root: u32,
}

/// Runs `f` inside a span named `name` under `parent` when tracing, plainly
/// otherwise; `f` receives the new span's id (0 when untraced).
pub fn spanned<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u32,
    f: impl FnOnce(u32) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, f),
        None => f(0),
    }
}

/// The tracer as the `RecorderHandle` a detector or sketch accepts.
pub fn recorder_handle(tracer: &Arc<Tracer>) -> RecorderHandle {
    RecorderHandle::from(Arc::clone(tracer) as Arc<dyn Recorder>)
}

/// The detector's recorder hook: per-row scores and shrink-free updates are
/// folded into one aggregate per enclosing span; shrinks, the updates that
/// contained them, refreshes and snapshot publications are kept singly.
impl Recorder for Tracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, stage: Stage, nanos: u64) {
        let end = self.now_ns();
        let start = end.saturating_sub(nanos);
        let mut inner = self.lock();
        let current = inner.current;
        match stage {
            Stage::Score => inner.score.add(start, end),
            Stage::SketchShrink => {
                // The parent is patched in when the enclosing update ends.
                let id = inner.push("sketch_shrink", current, start, end);
                inner.pending_shrink = Some(id as usize - 1);
            }
            Stage::SketchUpdate => match inner.pending_shrink.take() {
                Some(shrink) => {
                    let id = inner.push("sketch_update", current, start, end);
                    inner.spans[shrink].parent = id;
                }
                None => inner.update.add(start, end),
            },
            Stage::ModelRefresh => {
                inner.push("model_refresh", current, start, end);
            }
            Stage::SnapshotPublish => {
                inner.push("snapshot_publish", current, start, end);
            }
        }
    }
}
