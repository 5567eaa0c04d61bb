//! Streaming recovery is collected recovery, bitwise.
//!
//! `Recovery::replay_into` streams the WAL rows past the snapshot, in
//! bounded blocks, straight into `StreamingDetector::absorb_batch`;
//! `recover()` collects the same rows for per-row `process`. For each
//! directory layout below — a frame straddling the snapshot's sequence, a
//! frame larger than a replay block, a torn tail, a corrupt newest
//! snapshot, a segment with a corrupt header, several segments — both
//! must find the same state on disk and leave the detector with the same
//! `save_state` bytes and the same next 256 scores. Three detectors:
//! frequent directions, CountSketch, and an anomaly-filtering detector,
//! whose absorbed rows must still be scored because the score decides
//! its updates.

use std::path::{Path, PathBuf};

use sketchad_core::{DetectorConfig, RefreshPolicy, StreamingDetector, UpdatePolicy};
use sketchad_durable::snapshot::snapshot_file_name;
use sketchad_durable::wal::{encode_wal_frame, wal_file_name, SegmentWriter, WalHeader};
use sketchad_durable::{
    recover, write_snapshot, RecoveredState, Recovery, Snapshot, REPLAY_BLOCK_ROWS,
};

const DIM: usize = 6;

/// Rows scored after recovery and compared bit for bit.
const NEXT: usize = 256;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skad-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` deterministic row-major rows; every 23rd is scaled up as an
/// anomaly, so the filtering detector has updates to skip.
fn stream(n: usize) -> Vec<f64> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut rows = Vec::with_capacity(n * DIM);
    for i in 0..n {
        let scale = if i % 23 == 22 { 8.0 } else { 1.0 };
        for _ in 0..DIM {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rows.push(scale * ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5));
        }
    }
    rows
}

fn config() -> DetectorConfig {
    DetectorConfig::new(3, 8)
        .with_warmup(20)
        .with_refresh(RefreshPolicy::Periodic { period: 50 })
}

type Factory = fn() -> Box<dyn StreamingDetector>;

fn detectors() -> [(&'static str, Factory); 3] {
    [
        ("fd", || Box::new(config().build_fd(DIM))),
        ("count-sketch", || Box::new(config().build_cs(DIM))),
        ("fd-skip-anomalous", || {
            Box::new(
                config()
                    .with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.9 })
                    .build_fd(DIM),
            )
        }),
    ]
}

/// A hand-built state directory.
struct Layout {
    /// Rows per frame, per segment; segment `i` is `wal-i` and starts
    /// where the one before it ended.
    segments: &'static [&'static [usize]],
    /// `(generation, seq)` per snapshot, ascending: the detector's state
    /// after `seq` rows.
    snapshots: &'static [(u64, u64)],
}

impl Layout {
    fn rows(&self) -> usize {
        self.segments.iter().flat_map(|s| s.iter()).sum()
    }

    /// Writes the layout into a fresh directory for `factory`'s detector
    /// and returns it with the stream: the logged rows, then `NEXT` more.
    fn write(&self, tag: &str, factory: Factory) -> (PathBuf, Vec<f64>) {
        let dir = tmp_dir(tag);
        let rows = stream(self.rows() + NEXT);
        let mut live = factory();
        let mut done = 0;
        for &(generation, seq) in self.snapshots {
            for y in rows[done * DIM..seq as usize * DIM].chunks_exact(DIM) {
                live.process(y);
            }
            done = seq as usize;
            let mut payload = Vec::new();
            assert!(live.save_state(&mut payload));
            let snap = Snapshot {
                generation,
                shard: 0,
                seq,
                payload,
            };
            write_snapshot(&dir, &snap, false).unwrap();
        }
        let (mut seq, mut frame) = (0usize, Vec::new());
        for (number, frames) in self.segments.iter().enumerate() {
            let header = WalHeader {
                shard: 0,
                start_seq: seq as u64,
            };
            let mut w = SegmentWriter::create(&dir, number as u64, &header).unwrap();
            for &n in frames.iter() {
                frame.clear();
                encode_wal_frame(
                    seq as u64 + 1,
                    &rows[seq * DIM..(seq + n) * DIM],
                    DIM,
                    &mut frame,
                );
                w.append(&frame).unwrap();
                seq += n;
            }
        }
        (dir, rows)
    }
}

/// `(first_seq, rows)` of each block the streaming walk handed over.
type Blocks = Vec<(u64, usize)>;

fn saved(det: &dyn StreamingDetector) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(det.save_state(&mut out));
    out
}

/// Writes `layout`, lets `damage` at the directory, then recovers it both
/// ways with every detector and holds them equal. Returns the streaming
/// walk's state and blocks for the case's own checks.
fn check(tag: &str, layout: &Layout, damage: impl Fn(&Path)) -> (RecoveredState, Blocks) {
    let mut last = None;
    for (name, factory) in detectors() {
        let what = format!("{tag}, {name}");
        let (dir, rows) = layout.write(&format!("{tag}-{name}"), factory);
        damage(&dir);

        let collected = recover(&dir).unwrap();
        let mut reference = factory();
        if let Some(s) = &collected.snapshot {
            assert!(reference.restore_state(&s.payload).unwrap(), "{what}");
        }
        for r in &collected.replay {
            reference.process(&r.row);
        }

        let recovery = Recovery::open(&dir).unwrap();
        let mut streamed = factory();
        if let Some(s) = recovery.snapshot() {
            assert!(streamed.restore_state(&s.payload).unwrap(), "{what}");
        }
        let mut blocks = Blocks::new();
        let state = recovery
            .replay_into(|first_seq, block, dim| {
                assert_eq!(dim, DIM, "{what}");
                blocks.push((first_seq, block.len() / dim));
                streamed.absorb_batch(block);
                Ok(())
            })
            .unwrap();

        // The same walk: everything the collecting sink found but the rows.
        assert!(state.replay.is_empty(), "{what}");
        let mut with_rows = state.clone();
        with_rows.replay = collected.replay.clone();
        assert_eq!(with_rows, collected, "{what}");
        // The blocks are bounded and hand over exactly the collected rows.
        let seqs: Vec<u64> = blocks
            .iter()
            .flat_map(|&(first, n)| first..first + n as u64)
            .collect();
        let expected: Vec<u64> = collected.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, expected, "{what}");
        assert!(
            blocks
                .iter()
                .all(|&(_, n)| (1..=REPLAY_BLOCK_ROWS).contains(&n)),
            "{what}: {blocks:?}"
        );
        assert_eq!(state.stats.replay_rows, expected.len() as u64, "{what}");

        assert_eq!(
            saved(streamed.as_ref()),
            saved(reference.as_ref()),
            "{what}: save_state bytes differ"
        );
        let logged = layout.rows();
        for (i, y) in rows[logged * DIM..].chunks_exact(DIM).enumerate() {
            let (a, b) = (reference.process(y), streamed.process(y));
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: next score {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        last = Some((state, blocks));
    }
    last.unwrap()
}

/// Flips one bit of byte `at` in `path`.
fn flip(path: &Path, at: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at] ^= 0x04;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn a_frame_straddling_the_snapshot_replays_from_inside_it() {
    // The snapshot covers row 70; the second frame holds rows 41–100.
    let layout = Layout {
        segments: &[&[40, 60, 30]],
        snapshots: &[(1, 70)],
    };
    let (state, blocks) = check("straddle", &layout, |_| {});
    assert_eq!(blocks, vec![(71, 60)]);
    assert_eq!(state.last_seq(), 130);
}

#[test]
fn a_frame_larger_than_a_block_is_handed_over_in_pieces() {
    const BIG: usize = 2 * REPLAY_BLOCK_ROWS + 452;
    let layout = Layout {
        segments: &[&[30], &[BIG, 10]],
        snapshots: &[(1, 30)],
    };
    let (state, blocks) = check("big-frame", &layout, |_| {});
    // Full blocks, then the frame's rest together with the next frame.
    let sizes: Vec<usize> = blocks.iter().map(|&(_, n)| n).collect();
    assert_eq!(sizes, [REPLAY_BLOCK_ROWS, REPLAY_BLOCK_ROWS, 462]);
    assert_eq!(state.stats.replay_rows, BIG as u64 + 10);
}

#[test]
fn a_torn_tail_ends_the_replay_at_the_last_whole_frame() {
    let layout = Layout {
        segments: &[&[50], &[20, 20, 20]],
        snapshots: &[(1, 50)],
    };
    let (state, _) = check("torn", &layout, |dir| {
        let path = dir.join(wal_file_name(1));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    });
    assert!(state.stats.torn_tail_bytes > 0);
    assert_eq!((state.stats.replay_rows, state.last_seq()), (40, 90));
}

#[test]
fn a_corrupt_newest_snapshot_falls_back_a_generation() {
    let layout = Layout {
        segments: &[&[30], &[30], &[17, 13]],
        snapshots: &[(1, 30), (2, 60)],
    };
    let (state, _) = check("fallback", &layout, |dir| {
        flip(&dir.join(snapshot_file_name(2)), 40);
    });
    assert_eq!(state.stats.snapshots_corrupt, 1);
    assert_eq!(state.snapshot.as_ref().unwrap().generation, 1);
    assert_eq!((state.stats.replay_rows, state.last_seq()), (60, 90));
}

#[test]
fn a_segment_with_a_corrupt_header_is_passed_over() {
    // The middle segment's rows go with its header; the walk goes on.
    let layout = Layout {
        segments: &[&[30], &[25], &[10, 15]],
        snapshots: &[(1, 30)],
    };
    let (state, blocks) = check("bad-header", &layout, |dir| {
        flip(&dir.join(wal_file_name(1)), 10);
    });
    assert_eq!(state.stats.wal_segments_corrupt, 1);
    assert_eq!(blocks, vec![(56, 25)]);
    assert_eq!(state.last_seq(), 80);
}

#[test]
fn replay_walks_several_segments_in_order() {
    let layout = Layout {
        segments: &[&[10], &[15, 15], &[20], &[5, 5, 5], &[64]],
        snapshots: &[(1, 10)],
    };
    let (state, blocks) = check("several", &layout, |_| {});
    // One block per segment: a block never crosses a segment boundary.
    assert_eq!(blocks, vec![(11, 30), (41, 20), (61, 15), (76, 64)]);
    // The first segment is skipped by header: the snapshot covers it.
    assert_eq!(
        (state.stats.wal_segments_skipped, state.stats.wal_segments),
        (1, 4)
    );
    // No snapshot at all: everything replays from row 1.
    let fresh = Layout {
        segments: layout.segments,
        snapshots: &[],
    };
    let (state, _) = check("several-fresh", &fresh, |_| {});
    assert!(state.snapshot.is_none());
    assert_eq!((state.stats.replay_rows, state.last_seq()), (139, 139));
}
