//! The workloads' configurations: the stream, the detector, the engine
//! settings and the load shape behind each name `BENCHMARK.json` declares,
//! and how a workload's detector and engine configuration are built.

use sketchad_core::obs::RecorderHandle;
use sketchad_core::{
    DetectorConfig, RefreshPolicy, SketchDetector, StreamingDetector, SubspaceModel,
};
use sketchad_linalg::Matrix;
use sketchad_serve::{BackpressurePolicy, FsyncPolicy, ServeConfig};
use sketchad_sketch::{CountSketch, FrequentDirections, RowSampling};
use std::path::Path;

/// Which sketch backs the workload's detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sketch {
    Fd,
    CountSketch,
    RowSampling,
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The generator submits the next chunk as soon as the previous submit
    /// returns; `Block` backpressure makes it run at the engine's speed.
    Closed,
    /// `chunk`-row batches fall due every `period_us`, whatever the engine
    /// does; latency is taken from the due time.
    Paced { period_us: u64 },
    /// Each timed operation is one `ServeEngine::open_or_recover` on a fresh
    /// copy of a crash image (a snapshot plus `tail` WAL rows).
    Recover { tail: usize },
}

/// Durable-tier settings of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Durable {
    pub checkpoint_every: u64,
    pub fsync_every: u32,
}

/// One benchmark workload: a generated stream, a detector, an engine
/// configuration and a load shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    pub sketch: Sketch,
    pub d: usize,
    pub ell: usize,
    pub k: usize,
    pub warmup: usize,
    pub refresh_every: usize,
    /// Rows in the generated `.rows` file.
    pub rows: usize,
    /// Times the file is replayed within one engine lifetime.
    pub passes: usize,
    /// Rows decoded and handed to one `submit_batch_rows_parallel` call.
    pub chunk: usize,
    pub ring: usize,
    pub max_batch: usize,
    pub snapshot_every: u64,
    /// Generator and worker share one CPU instead of taking one each.
    pub one_cpu: bool,
    pub durable: Option<Durable>,
    /// True rank of the planted normal subspace.
    pub stream_rank: usize,
    /// Ambient noise, raised until the workload's AUC sits in [0.80, 0.99]
    /// so that a loss of model quality moves it.
    pub noise_sigma: f64,
    pub anomaly_rate: f64,
}

/// Seed of every randomized sketch; the stream seed comes from `--seed`.
const DETECTOR_SEED: u64 = 7;
/// Rows scored after a recovery and compared against the uncrashed control.
pub const POST_RECOVERY_ROWS: usize = 1024;
/// Rows of the stream prefix the covariance-error metrics are taken on.
pub const COV_ERR_ROWS: usize = 20_000;

/// The reference detector of the ROADMAP: FD at d=48, closed loop.
const FD_NARROW: Workload = Workload {
    name: "fd_narrow",
    mode: Mode::Closed,
    sketch: Sketch::Fd,
    d: 48,
    ell: 32,
    k: 4,
    warmup: 200,
    refresh_every: 64,
    rows: 32_768,
    passes: 1,
    chunk: 64,
    ring: 1024,
    max_batch: 64,
    snapshot_every: 256,
    one_cpu: false,
    durable: None,
    stream_rank: 6,
    noise_sigma: 0.9,
    anomaly_rate: 0.06,
};

/// A detector cheap enough (refresh every 1024 rows: ~1.7 M pts/s alone)
/// that the WAL in front of it is what the engine spends its time on.
const DURABLE_WAL: Workload = Workload {
    name: "durable_wal",
    sketch: Sketch::CountSketch,
    refresh_every: 1024,
    passes: 6,
    chunk: 256,
    max_batch: 256,
    durable: Some(Durable {
        checkpoint_every: 65_536,
        // At ISSUE 13's `every:64` half the wall was the wait for this
        // host's shared disk, whose latency moves by 30% within seconds:
        // throughput spread by 19% from seed to seed. At 1024 the wait is a
        // tenth of the wall and what is left is the append path's own work.
        fsync_every: 1024,
    }),
    ..FD_NARROW
};

pub const WORKLOADS: [Workload; 7] = [
    FD_NARROW,
    Workload {
        name: "fd_paced",
        mode: Mode::Paced { period_us: 8_000 },
        ..FD_NARROW
    },
    Workload {
        name: "fd_wide",
        d: 256,
        ell: 64,
        k: 10,
        warmup: 256,
        rows: 10_240,
        stream_rank: 14,
        noise_sigma: 1.8,
        anomaly_rate: 0.12,
        ..FD_NARROW
    },
    Workload {
        name: "linear_wide",
        sketch: Sketch::CountSketch,
        d: 1024,
        ell: 128,
        k: 16,
        warmup: 512,
        rows: 8_192,
        stream_rank: 20,
        // At 1.3 (auc 0.95) the sketch's own error moved `auc` by 0.5-0.9%
        // from seed to seed; here it reads 0.98 and moves by 0.4%.
        noise_sigma: 1.2,
        anomaly_rate: 0.15,
        ..FD_NARROW
    },
    Workload {
        name: "ingest_cheap",
        sketch: Sketch::RowSampling,
        d: 8,
        ell: 8,
        k: 2,
        warmup: 256,
        // At the default 64 the refreshes alone made the workload
        // detector-bound (see the README's findings).
        refresh_every: 1024,
        // A 4 MB file, read from this core's own cache on every pass but
        // the first. A 64 MB one came from the cache and memory the host's
        // other guests share: run by run, alternating with this one, its
        // throughput ranged over 18% where this one's ranged over 6%.
        rows: 65_536,
        passes: 32,
        chunk: 8_192,
        ring: 4_096,
        max_batch: 512,
        snapshot_every: 8_192,
        // Across two CPUs this pipeline is bistable on this host (~4.3 or
        // ~5.8 M pts/s, by how the hypervisor places the vCPUs) and slower
        // than on one, where it reads 5.4-6.2 M: with a detector this cheap
        // every row costs three cache-line hand-overs between the threads.
        // On one CPU the workload measures the ingest path's CPU cost per
        // row, which is what ring and codec work changes.
        one_cpu: true,
        stream_rank: 2,
        noise_sigma: 0.5,
        anomaly_rate: 0.02,
        ..FD_NARROW
    },
    DURABLE_WAL,
    Workload {
        name: "durable_recover",
        mode: Mode::Recover { tail: 53_392 },
        ..DURABLE_WAL
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` variant: ~50x fewer rows, same shapes. Numbers from it
    /// are a schema and correctness smoke, not comparable to full runs.
    pub fn quick(mut self) -> Self {
        let floor = (4 * self.warmup).max(2 * self.chunk).max(2_048);
        self.rows = (self.rows / 50).max(floor);
        if let Some(d) = self.durable.as_mut() {
            d.checkpoint_every = 4_096;
        }
        if let Mode::Recover { tail } = &mut self.mode {
            *tail = 1_500;
        }
        self
    }

    /// Rows one engine lifetime submits.
    pub fn lifetime_rows(&self) -> usize {
        match self.mode {
            // Two checkpoints, then the WAL tail the recovery replays.
            Mode::Recover { tail } => {
                2 * self.durable.expect("recover is durable").checkpoint_every as usize + tail
            }
            _ => self.rows * self.passes,
        }
    }

    pub fn engine_config(&self, state_dir: Option<&Path>) -> ServeConfig {
        let mut cfg = ServeConfig::new(1)
            .with_queue_capacity(self.ring)
            .with_backpressure(BackpressurePolicy::Block)
            .with_max_batch(self.max_batch)
            .with_snapshot_every(self.snapshot_every);
        if let (Some(d), Some(dir)) = (self.durable, state_dir) {
            cfg = cfg
                .with_state_dir(dir)
                .with_checkpoint_every(d.checkpoint_every)
                .with_fsync(FsyncPolicy::EveryN(d.fsync_every));
        }
        cfg
    }

    pub fn detector(&self, recorder: Option<RecorderHandle>) -> Detector {
        let cfg = DetectorConfig::new(self.k, self.ell)
            .with_warmup(self.warmup)
            .with_seed(DETECTOR_SEED)
            .with_refresh(RefreshPolicy::Periodic {
                period: self.refresh_every,
            });
        fn rec<S: sketchad_sketch::MatrixSketch>(
            det: SketchDetector<S>,
            recorder: Option<RecorderHandle>,
        ) -> SketchDetector<S> {
            match recorder {
                Some(r) => det.with_recorder(r),
                None => det,
            }
        }
        match self.sketch {
            Sketch::Fd => Detector::Fd(rec(cfg.build_fd(self.d), recorder)),
            Sketch::CountSketch => Detector::Cs(rec(cfg.build_cs(self.d), recorder)),
            Sketch::RowSampling => Detector::Rs(rec(cfg.build_rs(self.d), recorder)),
        }
    }
}

/// A workload's detector with its concrete sketch type still visible, so the
/// staged replay can read the sketch matrix and FD's error certificate.
pub enum Detector {
    Fd(SketchDetector<FrequentDirections>),
    Cs(SketchDetector<CountSketch>),
    Rs(SketchDetector<RowSampling>),
}

impl Detector {
    pub fn as_dyn(&mut self) -> &mut (dyn StreamingDetector + Send) {
        match self {
            Detector::Fd(d) => d,
            Detector::Cs(d) => d,
            Detector::Rs(d) => d,
        }
    }

    pub fn boxed(self) -> Box<dyn StreamingDetector + Send> {
        match self {
            Detector::Fd(d) => Box::new(d),
            Detector::Cs(d) => Box::new(d),
            Detector::Rs(d) => Box::new(d),
        }
    }

    pub fn sketch_matrix(&self) -> Matrix {
        use sketchad_sketch::MatrixSketch;
        match self {
            Detector::Fd(d) => d.sketch().sketch(),
            Detector::Cs(d) => d.sketch().sketch(),
            Detector::Rs(d) => d.sketch().sketch(),
        }
    }

    pub fn model(&self) -> Option<&SubspaceModel> {
        match self {
            Detector::Fd(d) => d.model(),
            Detector::Cs(d) => d.model(),
            Detector::Rs(d) => d.model(),
        }
    }

    /// FD's online certificate `Σδ ≥ ‖AᵀA − BᵀB‖₂`; `None` for other sketches.
    pub fn fd_error_bound(&self) -> Option<f64> {
        match self {
            Detector::Fd(d) => Some(d.sketch().shrink_delta_sum()),
            _ => None,
        }
    }
}
