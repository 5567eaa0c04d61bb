//! End-to-end warm restart: detector + StateStore across a simulated crash.
//!
//! Runs a detector with write-ahead logging and periodic checkpoints, kills
//! it (by dropping everything and corrupting the tail the way a crash
//! would), recovers, and checks the recovered detector is bitwise identical
//! to a control detector that never crashed.

use sketchad_core::{DetectorConfig, RefreshPolicy, StreamingDetector, UpdatePolicy};
use sketchad_durable::wal::encode_wal_record;
use sketchad_durable::{recover, FsyncPolicy, StateStore, WalRecord};
use sketchad_sketch::MatrixSketch;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skad-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic pseudo-random stream (no RNG dep needed in tests).
fn stream(n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                })
                .collect()
        })
        .collect()
}

fn config() -> DetectorConfig {
    DetectorConfig::new(3, 8)
        .with_warmup(6)
        .with_seed(42)
        .with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.95 })
}

#[test]
fn warm_restart_matches_uninterrupted_run_bitwise() {
    let dim = 6;
    let rows = stream(120, dim);
    let crash_at = 80; // rows 0..80 processed before the "crash"
    let checkpoint_every = 25;

    // Control: never crashes, processes everything.
    let mut control = config().build_fd(dim);
    let control_scores: Vec<f64> = rows.iter().map(|r| control.process(r)).collect();

    // Crashing run: WAL each row before processing, checkpoint periodically.
    let dir = tmp_dir("bitwise");
    {
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::EveryN(8)).unwrap();
        let mut det = config().build_fd(dim);
        for row in &rows[..crash_at] {
            store.append_row(row).unwrap();
            det.process(row);
            if det.processed().is_multiple_of(checkpoint_every) {
                let mut payload = Vec::new();
                assert!(det.save_state(&mut payload));
                store.checkpoint(&payload).unwrap();
            }
        }
        store.flush().unwrap();
        // Crash: a torn half-record of the next row lands on the tail.
        let (_, active) = sketchad_durable::wal::list_segments(&dir)
            .unwrap()
            .last()
            .unwrap()
            .clone();
        let torn = encode_wal_record(&WalRecord {
            seq: crash_at as u64 + 1,
            row: rows[crash_at].clone(),
        });
        let mut bytes = std::fs::read(&active).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&active, &bytes).unwrap();
    }

    // Recover: restore snapshot, replay WAL tail, resume the stream.
    let rec = recover(&dir).unwrap();
    let snap = rec.snapshot.as_ref().expect("a checkpoint was taken");
    assert_eq!(snap.seq, 75, "last checkpoint covered 3×25 rows");
    assert!(
        rec.stats.torn_tail_bytes > 0,
        "the torn record was detected"
    );
    assert_eq!(rec.last_seq(), crash_at as u64);

    let mut revived = config().build_fd(dim);
    assert!(revived.restore_state(&snap.payload).unwrap());
    for wal_row in &rec.replay {
        revived.process(&wal_row.row);
    }
    assert_eq!(revived.processed(), crash_at as u64);

    // The revived detector continues exactly where the control is.
    for (i, row) in rows.iter().enumerate().skip(crash_at) {
        let s = revived.process(row);
        assert_eq!(
            s.to_bits(),
            control_scores[i].to_bits(),
            "post-recovery score diverged at row {i}"
        );
    }
    assert_eq!(revived.processed(), control.processed());
    assert_eq!(revived.refresh_count(), control.refresh_count());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fd_checkpoint_after_a_refresh_time_shrink_restarts_bitwise() {
    // A frequent-directions refresh runs the sketch's shrink, so with a
    // refresh period off the buffer-full cadence (7 against ℓ = 4) the buffer
    // is shrunk on two interleaved schedules. The checkpoint lands between
    // the two: after a refresh-time shrink, before the next buffer-full one,
    // which the replayed WAL tail then has to reproduce.
    let (dim, ell) = (6, 4);
    let config = || {
        DetectorConfig::new(3, ell)
            .with_warmup(6)
            .with_refresh(RefreshPolicy::Periodic { period: 7 })
    };
    let rows = stream(150, dim);
    let crash_at = 110;

    let mut control = config().build_fd(dim);
    let control_scores: Vec<f64> = rows.iter().map(|r| control.process(r)).collect();

    let dir = tmp_dir("fd-refresh-shrink");
    let mut checkpoint_seq = None;
    let mut buffer_full_shrinks_after_checkpoint = 0;
    {
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::EveryN(8)).unwrap();
        let mut det = config().build_fd(dim);
        // Row count at the latest shrink, when a refresh ran it.
        let mut refresh_shrink_at = None;
        for row in &rows[..crash_at] {
            store.append_row(row).unwrap();
            let room = det.sketch().sketch().rows() < 2 * ell;
            let (delta, refreshes) = (det.sketch().shrink_delta_sum(), det.refresh_count());
            det.process(row);
            if det.sketch().shrink_delta_sum() > delta {
                // With room in the buffer the update did not shrink it.
                assert!(!room || det.refresh_count() > refreshes);
                refresh_shrink_at = room.then_some(det.processed());
                buffer_full_shrinks_after_checkpoint +=
                    usize::from(!room && checkpoint_seq.is_some());
            }
            if checkpoint_seq.is_none()
                && det.processed() >= 40
                && refresh_shrink_at == Some(det.processed() - 2)
            {
                let mut payload = Vec::new();
                assert!(det.save_state(&mut payload));
                store.checkpoint(&payload).unwrap();
                checkpoint_seq = Some(det.processed());
            }
        }
        store.flush().unwrap();
    }
    let checkpoint_seq = checkpoint_seq.expect("a refresh-time shrink past row 40");
    assert!(buffer_full_shrinks_after_checkpoint > 0);

    let rec = recover(&dir).unwrap();
    let snap = rec.snapshot.as_ref().expect("a checkpoint was taken");
    assert_eq!(snap.seq, checkpoint_seq);
    let mut revived = config().build_fd(dim);
    assert!(revived.restore_state(&snap.payload).unwrap());
    for wal_row in &rec.replay {
        revived.process(&wal_row.row);
    }
    assert_eq!(revived.processed(), crash_at as u64);

    for (i, row) in rows.iter().enumerate().skip(crash_at) {
        assert_eq!(
            revived.process(row).to_bits(),
            control_scores[i].to_bits(),
            "post-recovery score diverged at row {i}"
        );
    }
    assert_eq!(revived.refresh_count(), control.refresh_count());
    assert_eq!(
        revived.sketch().shrink_delta_sum().to_bits(),
        control.sketch().shrink_delta_sum().to_bits()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_recoveries_build_identical_detectors() {
    let dim = 5;
    let rows = stream(60, dim);
    let dir = tmp_dir("double");
    {
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        let mut det = config().build_rp(dim);
        for (i, row) in rows.iter().enumerate() {
            store.append_row(row).unwrap();
            det.process(row);
            if i == 29 {
                let mut payload = Vec::new();
                assert!(det.save_state(&mut payload));
                store.checkpoint(&payload).unwrap();
            }
        }
        store.flush().unwrap();
    }

    let build = || {
        let rec = recover(&dir).unwrap();
        let mut det = config().build_rp(dim);
        if let Some(snap) = &rec.snapshot {
            assert!(det.restore_state(&snap.payload).unwrap());
        }
        for r in &rec.replay {
            det.process(&r.row);
        }
        det
    };
    let a = build();
    let b = build();
    // Identical state ⇒ identical bytes when re-saved.
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    assert!(a.save_state(&mut sa));
    assert!(b.save_state(&mut sb));
    assert_eq!(sa, sb, "two recoveries must be bitwise identical");
    std::fs::remove_dir_all(&dir).unwrap();
}
