//! The single-thread staged replay: the engine's per-row work — decode,
//! validate, WAL append, detector, checkpoint — called layer by layer in the
//! engine's order, on the generator's thread. Without a tracer it is the
//! direct-detector reference every engine run is compared against bit for
//! bit; with one it is pass A of the layer trace.

use crate::spec::{Detector, Workload};
use crate::trace::{recorder_handle, spanned, SpanRoot};
use sketchad_core::rowfmt::RowsView;
use sketchad_core::validate_point;
use sketchad_durable::{self as durable, FsyncPolicy, StateStore};
use sketchad_linalg::Matrix;
use std::path::Path;
use std::time::Instant;

/// The sketch as it stood after the covariance-error prefix.
pub struct CovCapture {
    pub rows: usize,
    pub sketch: Matrix,
    pub fd_bound: Option<f64>,
}

pub struct Staged {
    pub scores: Vec<f64>,
    pub wall_s: f64,
    pub detector: Detector,
    pub cov: Option<CovCapture>,
}

/// Replays the first `total` rows of the (cyclically repeated) file through
/// a fresh detector. `root` is the span the chunk spans hang from;
/// `cov_rows` asks for a copy of the sketch after that many rows.
pub fn staged_replay(
    w: &Workload,
    view: RowsView<'_>,
    total: usize,
    spans: Option<SpanRoot<'_>>,
    state_dir: Option<&Path>,
    cov_rows: Option<usize>,
) -> Result<Staged, String> {
    let (tr, root) = match spans {
        Some(s) => (Some(s.tracer.as_ref()), s.root),
        None => (None, 0),
    };
    let mut det = w.detector(spans.map(|s| recorder_handle(s.tracer)));
    let durable_cfg = w.durable.filter(|_| state_dir.is_some());
    let mut store = match (durable_cfg, state_dir) {
        (Some(d), Some(dir)) => Some(
            StateStore::open(
                &durable::shard_dir(dir, 0),
                0,
                FsyncPolicy::EveryN(d.fsync_every),
            )
            .map_err(|e| format!("opening state store: {e}"))?,
        ),
        _ => None,
    };
    let checkpoint_every = durable_cfg.map_or(0, |d| d.checkpoint_every as usize);
    let mut buf: Vec<Vec<f64>> = (0..w.chunk).map(|_| vec![0.0; w.d]).collect();
    let mut scores = Vec::with_capacity(total);
    let mut payload = Vec::new();
    let mut cov = None;
    let file_rows = view.len();
    let started = Instant::now();
    let mut done = 0;
    let mut chunk_id = 0u32;
    while done < total {
        let m = w.chunk.min(total - done);
        if let Some(t) = tr {
            t.set_chunk(chunk_id);
        }
        spanned(tr, "chunk", root, |chunk_span| -> Result<(), String> {
            spanned(tr, "decode", chunk_span, |_| {
                for (j, row) in buf[..m].iter_mut().enumerate() {
                    view.read_row_into((done + j) % file_rows, row)
                        .expect("row in range");
                }
            });
            spanned(tr, "validate", chunk_span, |_| {
                buf[..m]
                    .iter()
                    .try_for_each(|row| validate_point(row, w.d))
                    .map_err(|v| format!("generated row failed validation: {}", v.label()))
            })?;
            if let Some(s) = store.as_mut() {
                spanned(tr, "wal_append", chunk_span, |_| {
                    buf[..m]
                        .iter()
                        .try_for_each(|row| s.append_row(row).map(|_| ()))
                        .map_err(|e| format!("WAL append: {e}"))
                })?;
            }
            spanned(tr, "process", chunk_span, |_| {
                let d = det.as_dyn();
                for row in &buf[..m] {
                    scores.push(d.process(row));
                }
            });
            if let Some(s) = store.as_mut() {
                if (done + m) / checkpoint_every != done / checkpoint_every {
                    spanned(tr, "checkpoint", chunk_span, |ckpt| -> Result<(), String> {
                        payload.clear();
                        spanned(tr, "save_state", ckpt, |_| {
                            det.as_dyn().save_state(&mut payload)
                        });
                        spanned(tr, "store_checkpoint", ckpt, |_| s.checkpoint(&payload))
                            .map_err(|e| format!("checkpoint: {e}"))?;
                        Ok(())
                    })?;
                }
            }
            Ok(())
        })?;
        done += m;
        chunk_id += 1;
        if cov_rows == Some(done) {
            cov = Some(CovCapture {
                rows: done,
                sketch: det.sketch_matrix(),
                fd_bound: det.fd_error_bound(),
            });
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Staged {
        scores,
        wall_s,
        detector: det,
        cov,
    })
}

/// What the staged recovery of a crash image found and produced.
pub struct StagedRecovery {
    pub detector: Detector,
    pub replayed: u64,
    pub snapshot_seq: u64,
}

/// Recovery layer by layer, as `ServeEngine::open_or_recover` performs it:
/// scan the directory, restore the snapshot, replay the WAL tail, reopen the
/// store for writing.
pub fn staged_recovery(
    w: &Workload,
    state_dir: &Path,
    spans: SpanRoot<'_>,
) -> Result<StagedRecovery, String> {
    let SpanRoot { tracer, root } = spans;
    let dir = durable::shard_dir(state_dir, 0);
    let fsync = FsyncPolicy::EveryN(w.durable.expect("recovery is durable").fsync_every);
    let mut det = w.detector(Some(recorder_handle(tracer)));
    let recovered = tracer
        .span("recover_read", root, |_| durable::recover(&dir))
        .map_err(|e| format!("recovery scan: {e}"))?;
    let snapshot = recovered
        .snapshot
        .as_ref()
        .ok_or("crash image holds no valid snapshot")?;
    let restored = tracer
        .span("restore_state", root, |_| {
            det.as_dyn().restore_state(&snapshot.payload)
        })
        .map_err(|e| format!("restore_state: {e}"))?;
    if !restored {
        return Err("detector refused its own snapshot".into());
    }
    tracer.span("replay", root, |_| {
        let d = det.as_dyn();
        for rec in &recovered.replay {
            d.process(&rec.row);
        }
    });
    tracer
        .span("store_open", root, |_| StateStore::open(&dir, 0, fsync))
        .map_err(|e| format!("reopening store: {e}"))?;
    Ok(StagedRecovery {
        detector: det,
        replayed: recovered.replay.len() as u64,
        snapshot_seq: snapshot.seq,
    })
}
