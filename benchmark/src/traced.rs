//! The traced run (`--trace 1`): pass A (the staged replay under spans),
//! one untraced engine lifetime, pass B (the instrumented engine), isolated
//! layer calls, and the per-layer metrics computed from all of them.

use crate::drive::Lifetime;
use crate::gen::Input;
use crate::isolate;
use crate::place::{pin, Side};
use crate::replay::{staged_recovery, staged_replay, Staged};
use crate::report::{median, quantile, RunResult};
use crate::run::{
    auc, build_image, check_lifetime, engine_lifetime, out_dir, recover_once, steady_rates,
    RunArgs, WorkDir, MIN_AUC,
};
use crate::spec::{Detector, Mode, Workload, COV_ERR_ROWS, POST_RECOVERY_ROWS};
use crate::trace::{SpanRoot, Tracer};
use sketchad_core::rowfmt::RowsView;
use sketchad_durable::wal::{encode_wal_record, WalRecord};
use std::sync::Arc;

/// Recoveries per side of the overhead comparison.
const RECOVERIES: usize = 3;

fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What the staged recovery of pass A's crash image measured.
#[derive(Default)]
struct RecoveryLayers {
    read_s: f64,
    replayed_rows: u64,
    replay_ns_per_row: f64,
}

struct PassA {
    root: u32,
    rows: usize,
    staged: Staged,
    recovery: RecoveryLayers,
}

/// Pass A: the staged replay, one span per layer call. A durable workload
/// replays a whole lifetime so that checkpoints fall due, the others one
/// pass over the file. On the recovery workload the state directory, never
/// checkpointed at the end, is a crash image: it is recovered layer by layer
/// and the rows after the crash point are compared with the detector that
/// never crashed.
fn pass_a(
    r: &mut RunResult,
    w: &Workload,
    view: RowsView<'_>,
    work: &WorkDir,
    tracer: &Arc<Tracer>,
    reference: &[f64],
) -> Result<PassA, String> {
    let rows = if w.durable.is_some() {
        w.lifetime_rows()
    } else {
        w.rows
    };
    let cov_rows = COV_ERR_ROWS.min(rows) / w.chunk * w.chunk;
    let dir = w.durable.map(|_| work.fresh("pass-a")).transpose()?;
    let (root, staged) = tracer.span("pass_a", 0, |id| {
        let replay = staged_replay(
            w,
            view,
            rows,
            Some(SpanRoot { tracer, root: id }),
            dir.as_deref(),
            Some(cov_rows),
        );
        (id, replay)
    });
    let mut staged = staged?;
    r.check(bitwise_equal(&staged.scores[..w.rows], reference), || {
        "staged replay scores differ from the plain direct replay".into()
    });
    let mut recovery = RecoveryLayers::default();
    if let (Mode::Recover { tail }, Some(dir)) = (w.mode, &dir) {
        let after_crash = |det: &mut Detector, name: &'static str| {
            tracer.span(name, 0, |_| {
                let d = det.as_dyn();
                let mut row = vec![0.0; w.d];
                (0..POST_RECOVERY_ROWS)
                    .map(|i| {
                        view.read_row_into((rows + i) % view.len(), &mut row)
                            .expect("row in range");
                        d.process(&row)
                    })
                    .collect::<Vec<f64>>()
            })
        };
        let control = after_crash(&mut staged.detector, "control_tail");
        let (recovery_root, recovered) = tracer.span("staged_recovery", 0, |id| {
            (id, staged_recovery(w, dir, SpanRoot { tracer, root: id }))
        });
        let mut recovered = recovered?;
        r.check(
            recovered.replayed == tail as u64
                && recovered.snapshot_seq + recovered.replayed == rows as u64,
            || {
                format!(
                    "staged recovery: snapshot at {} plus {} replayed rows, image holds {rows}",
                    recovered.snapshot_seq, recovered.replayed
                )
            },
        );
        r.check(
            bitwise_equal(
                &after_crash(&mut recovered.detector, "recovered_tail"),
                &control,
            ),
            || "staged recovery: scores after the crash point differ from the control".into(),
        );
        recovery = RecoveryLayers {
            read_s: tracer.busy(recovery_root, "recover_read").secs(),
            replayed_rows: recovered.replayed,
            replay_ns_per_row: tracer.busy(recovery_root, "replay").ns as f64
                / recovered.replayed.max(1) as f64,
        };
    }
    Ok(PassA {
        root,
        rows,
        staged,
        recovery,
    })
}

/// The untraced engine and pass B, the instrumented one.
struct Engines {
    untraced: Lifetime,
    instrumented: Lifetime,
    /// Root span of pass B.
    pass_b: u32,
    /// Pass B against the untraced side: wall (closed loop), median batch
    /// latency (open loop, whose wall the schedule fixes) or recovery time.
    overhead_share: f64,
    /// Median untraced `open_or_recover`; 0 where nothing recovers.
    recovery_s: f64,
}

fn engines(
    r: &mut RunResult,
    a: &RunArgs,
    view: RowsView<'_>,
    work: &WorkDir,
    tracer: &Arc<Tracer>,
    reference: &[f64],
) -> Result<Engines, String> {
    let w = &a.workload;
    let seconds = a.seconds / 2.0;
    if matches!(w.mode, Mode::Recover { .. }) {
        let image = build_image(w, view, work)?;
        check_lifetime(r, "control", &image.control, reference);
        let mut plain = Vec::new();
        for _ in 0..RECOVERIES {
            plain.push(recover_once(r, w, view, work, &image, None)?.0);
        }
        let mut instrumented = Vec::new();
        let mut last = None;
        let pass_b = tracer.span("pass_b", 0, |root| -> Result<u32, String> {
            for _ in 0..RECOVERIES {
                let spans = SpanRoot { tracer, root };
                let (s, life) = recover_once(r, w, view, work, &image, Some(spans))?;
                instrumented.push(s);
                last = Some(life);
            }
            Ok(root)
        })?;
        let recovery_s = median(&mut plain);
        return Ok(Engines {
            untraced: image.control,
            instrumented: last.expect("recoveries ran"),
            pass_b,
            overhead_share: median(&mut instrumented) / recovery_s - 1.0,
            recovery_s,
        });
    }
    let untraced = engine_lifetime(w, view, work, seconds, None)?;
    r.failed += check_lifetime(r, "engine", &untraced, reference);
    let (pass_b, instrumented) = tracer.span("pass_b", 0, |root| {
        let spans = SpanRoot { tracer, root };
        (root, engine_lifetime(w, view, work, seconds, Some(spans)))
    });
    let instrumented = instrumented?;
    r.failed += check_lifetime(r, "instrumented engine", &instrumented, reference);
    let p50 = |life: &Lifetime| quantile(&mut life.batch_latency_ms.clone(), 0.5);
    let overhead_share = match w.mode {
        Mode::Paced { .. } => p50(&instrumented) / p50(&untraced) - 1.0,
        _ => instrumented.wall_s / untraced.wall_s - 1.0,
    };
    Ok(Engines {
        untraced,
        instrumented,
        pass_b,
        overhead_share,
        recovery_s: 0.0,
    })
}

pub fn run_traced(a: &RunArgs, work: &WorkDir, input: &Input) -> Result<RunResult, String> {
    let w = &a.workload;
    let view = input.file.view();
    let mut r = RunResult::new(w.name, a.quick);
    let tracer = Arc::new(Tracer::default());

    // The direct-detector baseline: no spans, no recorder, no engine.
    let reference = staged_replay(w, view, w.rows, None, None, None)?;
    let direct_pts_s = w.rows as f64 / reference.wall_s;
    let mut a_pass = pass_a(&mut r, w, view, work, &tracer, &reference.scores)?;
    let eng = engines(&mut r, a, view, work, &tracer, &reference.scores)?;
    // The engine's own per-stage totals join pass B as aggregates.
    if let Some(obs) = &eng.instrumented.stats.obs {
        for (label, name) in [
            ("sketch_update", "engine.sketch_update"),
            ("sketch_shrink", "engine.sketch_shrink"),
            ("model_refresh", "engine.model_refresh"),
            ("score", "engine.score"),
            ("snapshot_publish", "engine.snapshot_publish"),
        ] {
            if let Some(s) = obs.span(label) {
                tracer.aggregate(name, eng.pass_b, s.count, s.total_ns);
            }
        }
    }
    r.attempted = eng.untraced.rows + eng.instrumented.rows;
    let quality = auc(w, &eng.untraced.scores, &input.labels)?;
    r.check(quality >= MIN_AUC, || {
        format!("auc {quality} below {MIN_AUC}")
    });
    // The isolated calls below are detector work again.
    pin(Side::Detector);

    // Layer metrics from pass A's spans.
    let rows = a_pass.rows as f64;
    let wall_s = a_pass.staged.wall_s;
    let busy = |name| tracer.busy(a_pass.root, name);
    let (decode, validate) = (busy("decode"), busy("validate"));
    let (update, shrink) = (busy("sketch_update"), busy("sketch_shrink"));
    let (refresh, score) = (busy("model_refresh"), busy("score"));
    let (wal, checkpoint) = (busy("wal_append"), busy("checkpoint"));
    r.set("core.decode_rows", rows);
    r.set("core.decode_busy_s", decode.secs());
    r.set("core.decode_ns_per_row", decode.ns as f64 / rows);
    r.set("core.validate_busy_s", validate.secs());
    r.set("core.validate_ns_per_row", validate.ns as f64 / rows);
    let update_self_ns = update.ns.saturating_sub(shrink.ns);
    r.set("sketch.update_rows", update.count as f64);
    r.set("sketch.update_busy_s", update_self_ns as f64 / 1e9);
    r.set(
        "sketch.update_ns_per_row",
        update_self_ns as f64 / update.count.max(1) as f64,
    );
    r.set("sketch.shrink_count", shrink.count as f64);
    r.set("sketch.shrink_busy_s", shrink.secs());
    r.set("sketch.shrink_us_mean", shrink.ns_per() / 1e3);
    let resident = a_pass.staged.detector.as_dyn().sketch_resident_bytes();
    r.set("sketch.resident_bytes", resident.unwrap_or(0) as f64);
    let capture = a_pass.staged.cov.as_ref().expect("capture was requested");
    let cov = isolate::cov_error(view, capture);
    r.check(cov.over_bound <= 1.0 + 1e-9, || {
        format!(
            "FD covariance error is {} of its certificate",
            cov.over_bound
        )
    });
    r.set("sketch.cov_err_rel", cov.relative);
    r.set("sketch.cov_err_over_bound", cov.over_bound);
    r.set("core.refresh_count", refresh.count as f64);
    r.set("core.refresh_busy_s", refresh.secs());
    r.set("core.refresh_us_mean", refresh.ns_per() / 1e3);
    r.set("core.score_rows", score.count as f64);
    r.set("core.score_busy_s", score.secs());
    r.set("core.score_ns_per_row", score.ns_per());

    let linalg = isolate::linalg(w, view, &a_pass.staged.detector)?;
    r.set("linalg.svd_thin_us", linalg.svd_thin_us);
    r.set("linalg.eigen_sym_us", linalg.eigen_sym_us);
    r.set("linalg.gram_us", linalg.gram_us);
    r.set("linalg.subspace_iter_us", linalg.subspace_iter_us);
    r.set("linalg.matmul_us", linalg.matmul_us);

    // The serving layer, from the untraced engine lifetime.
    let life = &eng.untraced;
    let throughput = median(&mut steady_rates(life));
    r.set("serve.submit_calls", life.submit_calls as f64);
    r.set("serve.submit_busy_s", life.submit_busy_s);
    r.set("serve.drain_s", life.drain_s);
    r.set(
        "serve.queue_high_water",
        life.stats.shards[0].queue_high_water as f64,
    );
    r.set("serve.direct_pts_s", direct_pts_s);
    r.set("serve.engine_vs_direct", throughput / direct_pts_s);
    r.set(
        "serve.overhead_ns_per_row",
        1e9 / throughput - 1e9 / direct_pts_s,
    );
    r.set("serve.engine_latency_p50_us", life.stats.latency_p50_us);
    r.set("serve.engine_latency_p99_us", life.stats.latency_p99_us);
    r.set(
        "serve.batch_latency_p99_ms",
        quantile(&mut life.batch_latency_ms.clone(), 0.99),
    );
    r.set(
        "serve.snapshot_generations",
        life.snapshot_generations as f64,
    );
    r.set(
        "serve.snapshot_score_ns_per_row",
        eng.instrumented.snapshot_score_ns_per_row,
    );

    // The durable layer.
    let state = isolate::state_round_trip(w, &mut a_pass.staged.detector)?;
    let record_bytes = encode_wal_record(&WalRecord {
        seq: 1,
        row: vec![0.0; w.d],
    })
    .len() as f64;
    let wal_rows = if w.durable.is_some() { rows } else { 0.0 };
    r.set("durable.wal_rows", wal_rows);
    r.set("durable.wal_append_busy_s", wal.secs());
    r.set("durable.wal_append_ns_per_row", wal.ns as f64 / rows);
    r.set("durable.wal_bytes", wal_rows * record_bytes);
    r.set("durable.checkpoint_count", checkpoint.count as f64);
    r.set("durable.checkpoint_ms_mean", checkpoint.ns_per() / 1e6);
    r.set("durable.checkpoint_bytes", state.bytes as f64);
    r.set("core.save_state_ms", state.save_ms);
    r.set("core.restore_state_ms", state.restore_ms);
    r.set("durable.recover_read_s", a_pass.recovery.read_s);
    r.set(
        "durable.replayed_rows",
        a_pass.recovery.replayed_rows as f64,
    );
    r.set(
        "durable.replay_ns_per_row",
        a_pass.recovery.replay_ns_per_row,
    );
    r.set("durable.recovery_s", eng.recovery_s);

    // Tracing itself, and the load generator.
    let attributed =
        decode.ns + validate.ns + wal.ns + score.ns + update.ns + refresh.ns + checkpoint.ns;
    let attributed_share = attributed as f64 / 1e9 / wall_s;
    r.set("obs.instrumented_overhead_share", eng.overhead_share);
    r.set("trace.attributed_share", attributed_share);
    let late = |q| match w.mode {
        Mode::Paced { .. } => quantile(&mut life.late_ms.clone(), q),
        _ => 0.0,
    };
    r.set("loadgen.late_p50_ms", late(0.5));
    r.set("loadgen.late_p99_ms", late(0.99));
    r.set("loadgen.backlog_batches_end", life.backlog_batches_end);

    let share = |ns: u64| 100.0 * ns as f64 / 1e9 / wall_s;
    r.findings.push(format!(
        "share of the staged replay's wall: decode {:.1}% validate {:.1}% wal_append {:.1}% score {:.1}% update {:.1}% shrink {:.1}% refresh {:.1}% checkpoint {:.1}% unattributed {:.1}%",
        share(decode.ns),
        share(validate.ns),
        share(wal.ns),
        share(score.ns),
        share(update_self_ns),
        share(shrink.ns),
        share(refresh.ns),
        share(checkpoint.ns),
        100.0 * (1.0 - attributed_share),
    ));
    if attributed_share < 0.90 {
        r.findings.push(format!(
            "trace.attributed_share {attributed_share:.3} < 0.90: a tenth or more of the staged replay's wall lies outside every span"
        ));
    }
    let trace_path = out_dir().join(format!("trace-{}.json", w.name));
    tracer
        .write_json(&trace_path, w.name, a.seed)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    r.findings.push(format!(
        "{} spans written to benchmark/out/trace-{}.json",
        tracer.span_count(),
        w.name
    ));
    Ok(r)
}
