//! A WAL walk keeps a window of the log resident, not the log.
//!
//! Recovery maps each segment and walks it front to back; the pages it has
//! walked are released behind it, so the process's resident memory grows by
//! a bounded window however long the tail is. This binary writes a segment
//! of more than 64 MiB, replays it through `Recovery::replay_into` into a
//! sink that keeps nothing, and samples `VmRSS` from every block the sink
//! is handed. It is a test binary of its own so no other test shares the
//! process's resident set, and Linux-only: the release is `madvise`, and
//! `/proc/self/status` is where the resident set is read.
#![cfg(target_os = "linux")]

use sketchad_core::mmapio::NO_MMAP_ENV;
use sketchad_durable::wal::{encode_wal_frame, wal_file_name, SegmentWriter, WalHeader};
use sketchad_durable::Recovery;

const DIM: usize = 48;
const FRAME_ROWS: usize = 256;
/// Frames of 256 rows × 48 values: 98 332 bytes each, 70 MB in all.
const FRAMES: usize = 700;

/// This process's resident set in bytes (`VmRSS`).
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: u64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap();
    kb * 1024
}

#[test]
fn replaying_a_long_segment_keeps_resident_memory_bounded() {
    if std::env::var_os(NO_MMAP_ENV).is_some_and(|v| v == "1") {
        // The buffered fallback reads the whole segment by design.
        eprintln!("{NO_MMAP_ENV}=1 forces the buffered backing; nothing to measure");
        return;
    }
    let dir = std::env::temp_dir().join(format!("skad-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let header = WalHeader {
        shard: 0,
        start_seq: 0,
    };
    let mut writer = SegmentWriter::create(&dir, 0, &header).unwrap();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rows = vec![0.0; FRAME_ROWS * DIM];
    let mut frame = Vec::new();
    for f in 0..FRAMES {
        for v in &mut rows {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        frame.clear();
        encode_wal_frame((f * FRAME_ROWS) as u64 + 1, &rows, DIM, &mut frame);
        writer.append(&frame).unwrap();
    }
    drop(writer);
    let segment_bytes = std::fs::metadata(dir.join(wal_file_name(0))).unwrap().len();
    assert!(segment_bytes >= 64 << 20, "{segment_bytes}-byte segment");
    drop((rows, frame));

    let recovery = Recovery::open(&dir).unwrap();
    let before = resident_bytes();
    let (mut peak, mut seen) = (before, 0u64);
    let state = recovery
        .replay_into(|first_seq, block, dim| {
            assert_eq!(first_seq, seen + 1);
            seen += (block.len() / dim) as u64;
            peak = peak.max(resident_bytes());
            Ok(())
        })
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let total = (FRAMES * FRAME_ROWS) as u64;
    assert_eq!((seen, state.stats.replay_rows), (total, total));
    let grew = peak.saturating_sub(before);
    assert!(
        grew < 16 << 20,
        "replaying a {segment_bytes}-byte segment grew the resident set by {grew} bytes"
    );
}
