//! Isolated calls into single layers, on state captured from the staged
//! replay: the linalg kernels at the workload's own shapes, detector state
//! save/restore, and the sketch's covariance error against its bound.

use crate::replay::CovCapture;
use crate::report::median;
use crate::spec::{Detector, Sketch, Workload};
use sketchad_core::rowfmt::RowsView;
use sketchad_linalg::eigen::{eigen_sym, warm_subspace_iteration};
use sketchad_linalg::power::{gram_diff_spectral_norm, DEFAULT_POWER_ITERS};
use sketchad_linalg::svd::svd_thin;
use sketchad_linalg::Matrix;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of one isolated call, cut short once they have used this
/// much time; the median is reported.
const MAX_REPS: usize = 25;
const REP_BUDGET: Duration = Duration::from_millis(400);
/// Detector save/restore repetitions.
const STATE_REPS: usize = 5;

fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(MAX_REPS);
    let budget = Instant::now();
    while times.len() < MAX_REPS && (times.len() < 3 || budget.elapsed() < REP_BUDGET) {
        let started = Instant::now();
        black_box(f());
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut times)
}

fn file_rows(view: RowsView<'_>, from: usize, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, view.dim());
    for i in 0..n {
        view.read_row_into((from + i) % view.len(), m.row_mut(i))
            .expect("row in range");
    }
    m
}

pub struct Linalg {
    pub svd_thin_us: f64,
    pub eigen_sym_us: f64,
    pub gram_us: f64,
    pub subspace_iter_us: f64,
    pub matmul_us: f64,
}

/// Times the kernels behind a shrink and a refresh at this workload's
/// shapes. The decomposed matrix is the FD buffer as a shrink finds it
/// (the sketch's rows topped up to `2l` with stream rows) or, for sketches
/// that never shrink, the `l x d` sketch a refresh decomposes.
pub fn linalg(w: &Workload, view: RowsView<'_>, det: &Detector) -> Result<Linalg, String> {
    let sketch = det.sketch_matrix();
    let target = match w.sketch {
        Sketch::Fd => 2 * w.ell,
        _ => sketch.rows(),
    };
    let mut shaped = sketch.clone();
    let fill = file_rows(view, 0, target.saturating_sub(sketch.rows()));
    for row in fill.iter_rows() {
        shaped.push_row(row);
    }
    // `svd_thin` decomposes the smaller Gram side; time that same side.
    let gram = |m: &Matrix| {
        if m.rows() <= m.cols() {
            m.outer_gram()
        } else {
            m.gram()
        }
    };
    let g = gram(&shaped);
    let model = det
        .model()
        .ok_or("detector has no model after the replay")?;
    let v0 = model.basis().transpose();
    let batch = file_rows(view, 0, w.max_batch).transpose();
    svd_thin(&shaped).map_err(|e| format!("svd_thin on the captured sketch: {e}"))?;
    Ok(Linalg {
        svd_thin_us: median_us(|| svd_thin(&shaped)),
        eigen_sym_us: median_us(|| eigen_sym(&g)),
        gram_us: median_us(|| gram(&shaped)),
        subspace_iter_us: median_us(|| warm_subspace_iteration(&sketch, &v0, model.k(), 3)),
        matmul_us: median_us(|| model.basis().matmul(&batch)),
    })
}

pub struct StateRoundTrip {
    pub save_ms: f64,
    pub restore_ms: f64,
    pub bytes: usize,
}

/// Saves and restores the detector's full state; all zeros for a sketch
/// that has no persistent form (row sampling).
pub fn state_round_trip(w: &Workload, det: &mut Detector) -> Result<StateRoundTrip, String> {
    let mut payload = Vec::new();
    let mut save = Vec::with_capacity(STATE_REPS);
    let mut restore = Vec::with_capacity(STATE_REPS);
    for _ in 0..STATE_REPS {
        payload.clear();
        let started = Instant::now();
        let saved = det.as_dyn().save_state(&mut payload);
        save.push(started.elapsed().as_secs_f64() * 1e3);
        if !saved {
            return Ok(StateRoundTrip {
                save_ms: 0.0,
                restore_ms: 0.0,
                bytes: 0,
            });
        }
        let mut fresh = w.detector(None);
        let started = Instant::now();
        let restored = fresh.as_dyn().restore_state(&payload);
        restore.push(started.elapsed().as_secs_f64() * 1e3);
        if !matches!(restored, Ok(true)) {
            return Err("detector refused the state it just saved".into());
        }
    }
    Ok(StateRoundTrip {
        save_ms: median(&mut save),
        restore_ms: median(&mut restore),
        bytes: payload.len(),
    })
}

pub struct CovError {
    /// `‖AᵀA − BᵀB‖₂ / ‖A‖²_F` over the captured prefix.
    pub relative: f64,
    /// FD only: the same error over the online certificate `Σδ`; 0 for
    /// sketches that carry no certificate.
    pub over_bound: f64,
}

pub fn cov_error(view: RowsView<'_>, cov: &CovCapture) -> CovError {
    let a = file_rows(view, 0, cov.rows);
    let absolute = gram_diff_spectral_norm(&a, &cov.sketch, DEFAULT_POWER_ITERS, 17);
    CovError {
        relative: absolute / a.squared_frobenius_norm().max(f64::MIN_POSITIVE),
        over_bound: cov
            .fd_bound
            .map_or(0.0, |b| absolute / b.max(f64::MIN_POSITIVE)),
    }
}
