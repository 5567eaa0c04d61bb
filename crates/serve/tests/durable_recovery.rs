//! Crash-recovery integration tests for the durable state tier wired into
//! the serving engine: kill a persistent pipeline mid-stream (including a
//! torn final WAL record and a destroyed newest snapshot), reopen it with
//! [`ServeEngine::open_or_recover`], and demand bitwise score parity with a
//! pipeline that never crashed — plus deterministic double recovery from
//! the same damaged directory.

use sketchad_core::{DetectorConfig, StreamingDetector};
use sketchad_durable::{self as durable, snapshot, wal};
use sketchad_serve::{FsyncPolicy, ServeConfig, ServeEngine};
use std::fs;
use std::path::{Path, PathBuf};

const DIM: usize = 6;
const TOTAL: u64 = 200;
const CRASH_AT: u64 = 120;

fn factory(_shard: usize) -> Box<dyn StreamingDetector + Send> {
    Box::new(
        DetectorConfig::new(3, 8)
            .with_warmup(6)
            .with_seed(42)
            .build_fd(DIM),
    )
}

/// Deterministic pseudo-random stream (xorshift64*; no RNG dependency).
fn row(i: u64) -> Vec<f64> {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..DIM)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn rows(range: std::ops::Range<u64>) -> Vec<Vec<f64>> {
    range.map(row).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skad-serve-rec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("mkdir");
    for entry in fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("ftype").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).expect("copy");
        }
    }
}

fn persistent_config(state_dir: &Path) -> ServeConfig {
    // max_batch 1 keeps checkpoint sequence numbers deterministic (the
    // batched path checkpoints at batch boundaries, which depend on queue
    // timing); scores are bitwise identical either way.
    ServeConfig::new(1)
        .with_state_dir(state_dir)
        .with_checkpoint_every(50)
        .with_fsync(FsyncPolicy::Always)
        .with_max_batch(1)
}

/// Scores rows `[0, TOTAL)` through an engine with no persistence at all —
/// the ground truth a recovered pipeline must match bitwise.
fn control_scores() -> Vec<f64> {
    let mut engine =
        ServeEngine::start(ServeConfig::new(1).with_max_batch(8), factory).expect("control start");
    engine
        .submit_batch_rows_parallel(&rows(0..TOTAL), 1)
        .expect("submit");
    engine.finish().expect("drain").scores_in_order()
}

/// Runs the persistent pipeline up to `CRASH_AT` rows, then vandalises the
/// on-disk state the way a crash would: the newest snapshot is destroyed
/// (forcing fall-back to the previous generation + WAL replay) and a torn
/// half-record is appended to the active WAL segment.
fn run_then_crash(state_dir: &Path) -> Vec<f64> {
    let mut engine =
        ServeEngine::open_or_recover(persistent_config(state_dir), factory).expect("start");
    engine
        .submit_batch_rows_parallel(&rows(0..CRASH_AT), 1)
        .expect("submit");
    let scores = engine.finish().expect("drain").scores_in_order();

    let shard = durable::shard_dir(state_dir, 0);
    // Destroy the shutdown checkpoint: recovery must fall back a generation.
    let snaps = snapshot::list_snapshots(&shard).expect("list snapshots");
    assert!(
        snaps.len() >= 2,
        "need >= 2 snapshot generations to exercise fall-back, got {}",
        snaps.len()
    );
    fs::remove_file(&snaps.last().expect("newest").1).expect("remove newest snapshot");
    // Tear the WAL tail: append half of a record to the newest segment.
    let segs = wal::list_segments(&shard).expect("list segments");
    let newest = &segs.last().expect("active segment").1;
    let frame = wal::encode_wal_record(&durable::WalRecord {
        seq: u64::MAX,
        row: row(0),
    });
    let mut bytes = fs::read(newest).expect("read segment");
    bytes.extend_from_slice(&frame[..frame.len() / 2]);
    fs::write(newest, bytes).expect("tear tail");
    scores
}

#[test]
fn kill_mid_stream_then_recover_matches_uncrashed_control() {
    let control = control_scores();
    let state_dir = temp_dir("parity");

    let pre_crash = run_then_crash(&state_dir);
    assert_eq!(pre_crash.len() as u64, CRASH_AT);
    for (i, (got, want)) in pre_crash.iter().zip(&control).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "pre-crash score {i} diverged"
        );
    }

    // Warm restart from the damaged directory and stream the remainder.
    let mut engine =
        ServeEngine::open_or_recover(persistent_config(&state_dir), factory).expect("recover");
    let outcome = engine
        .submit_batch_rows_parallel(&rows(CRASH_AT..TOTAL), 1)
        .expect("submit tail");
    let report = engine.finish().expect("drain");

    // Recovery surfaced through stats: the fallen-back snapshot held the
    // first 100 rows (checkpoints at 50 and 100; the destroyed shutdown
    // checkpoint held 120), so 20 rows came back via WAL replay.
    assert_eq!(report.stats.total_replayed, CRASH_AT - 100);
    assert_eq!(report.stats.recovered_shards, vec![0]);
    assert_eq!(report.stats.shards[0].replayed, CRASH_AT - 100);
    assert!(report.stats.shards[0].recovered_generation > 0);

    // Per-run conservation: every post-restart submission is accounted for
    // (replayed rows are deliberately *not* part of this identity — they
    // belong to the crashed run's ledger, not this one's).
    let s = &report.stats;
    assert_eq!(outcome.submitted(), TOTAL - CRASH_AT);
    assert_eq!(
        s.total_processed + s.total_dropped + s.total_rejected + s.total_shed + s.total_crash_lost,
        outcome.submitted()
    );

    // The tentpole guarantee: post-recovery scores are bitwise identical to
    // the pipeline that never went down.
    let tail = report.scores_in_order();
    assert_eq!(tail.len() as u64, TOTAL - CRASH_AT);
    for (i, (got, want)) in tail.iter().zip(&control[CRASH_AT as usize..]).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "post-recovery score {i} diverged from the uncrashed control"
        );
    }
    let _ = fs::remove_dir_all(&state_dir);
}

/// Recovering twice from the same damaged directory must be bitwise
/// deterministic: same replay, same recovered generation, same scores for
/// the same suffix.
#[test]
fn double_recovery_from_same_damage_is_bitwise_identical() {
    let state_dir = temp_dir("twice");
    let _ = run_then_crash(&state_dir);

    let copy_a = temp_dir("twice-a");
    let copy_b = temp_dir("twice-b");
    copy_dir(&state_dir, &copy_a);
    copy_dir(&state_dir, &copy_b);

    let run = |dir: &Path| {
        let mut engine =
            ServeEngine::open_or_recover(persistent_config(dir), factory).expect("recover");
        engine
            .submit_batch_rows_parallel(&rows(CRASH_AT..TOTAL), 1)
            .expect("submit");
        let report = engine.finish().expect("drain");
        (
            report.scores_in_order(),
            report.stats.total_replayed,
            report.stats.shards[0].recovered_generation,
        )
    };
    let (scores_a, replayed_a, gen_a) = run(&copy_a);
    let (scores_b, replayed_b, gen_b) = run(&copy_b);

    assert_eq!(replayed_a, replayed_b);
    assert_eq!(gen_a, gen_b);
    assert_eq!(scores_a.len(), scores_b.len());
    for (i, (a, b)) in scores_a.iter().zip(&scores_b).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "recovery {i} diverged");
    }
    for dir in [&state_dir, &copy_a, &copy_b] {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Multi-shard recovery: each shard recovers its own directory, the
/// aggregate counters sum per-shard replay, and round-robin partitioning
/// keeps the recovered two-shard pipeline bitwise-aligned with an
/// uncrashed two-shard control (crash point chosen on a shard boundary).
#[test]
fn two_shard_recovery_aggregates_counters_and_preserves_scores() {
    const SHARDS: usize = 2;
    let config = |dir: Option<&Path>| {
        // max_batch 4 exercises the batched WAL-logging path; after a clean
        // shutdown the final checkpoint covers every row, so no assertion
        // here depends on where mid-run checkpoints landed.
        let base = ServeConfig::new(SHARDS)
            .with_checkpoint_every(20)
            .with_fsync(FsyncPolicy::EveryN(8))
            .with_max_batch(4);
        match dir {
            Some(d) => base.with_state_dir(d),
            None => base,
        }
    };

    let mut control = ServeEngine::start(config(None), factory).expect("control");
    control
        .submit_batch_rows_parallel(&rows(0..TOTAL), 1)
        .expect("submit");
    let control_scores = control.finish().expect("drain").scores_in_order();

    let state_dir = temp_dir("two-shard");
    let mut first = ServeEngine::open_or_recover(config(Some(&state_dir)), factory).expect("start");
    // CRASH_AT is even, so both shards stop on a round-robin boundary and
    // the reopened engine's round-robin cursor realigns with the control.
    first
        .submit_batch_rows_parallel(&rows(0..CRASH_AT), 1)
        .expect("submit");
    drop(first.finish().expect("drain"));

    let mut second =
        ServeEngine::open_or_recover(config(Some(&state_dir)), factory).expect("recover");
    second
        .submit_batch_rows_parallel(&rows(CRASH_AT..TOTAL), 1)
        .expect("submit");
    let report = second.finish().expect("drain");

    let mut recovered = report.stats.recovered_shards.clone();
    recovered.sort_unstable();
    assert_eq!(recovered, vec![0, 1]);
    let per_shard: u64 = report.stats.shards.iter().map(|s| s.replayed).sum();
    assert_eq!(report.stats.total_replayed, per_shard);
    for shard in &report.stats.shards {
        assert!(
            shard.recovered_generation > 0,
            "clean shutdown checkpointed"
        );
    }

    let tail = report.scores_in_order();
    for (i, (got, want)) in tail
        .iter()
        .zip(&control_scores[CRASH_AT as usize..])
        .enumerate()
    {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "two-shard post-recovery score {i} diverged"
        );
    }
    let _ = fs::remove_dir_all(&state_dir);
}
