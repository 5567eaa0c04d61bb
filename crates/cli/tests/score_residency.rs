//! `sketchad score` keeps a window of its `.rows` input resident, not the
//! input.
//!
//! The input is decoded out of the mapped file a block at a time, and the
//! pages walked are released behind the reader, so the process's peak
//! resident set is bounded by the detector and the per-point outputs, far
//! below the file. This binary writes a `.rows` file of more than 64 MiB,
//! scores it with the real binary, and polls the child's high-water mark
//! (`VmHWM`) while it runs. It is Linux-only: the release is `madvise`, and
//! `/proc/<pid>/status` is where the high-water mark is read.
#![cfg(target_os = "linux")]

use std::process::{Command, Stdio};
use std::time::Duration;

use sketchad_core::mmapio::NO_MMAP_ENV;
use sketchad_core::rowfmt::RowsWriter;

const DIM: usize = 64;
/// Rows of 64 values and a key: 520 bytes each, 68.6 MB in all.
const ROWS: usize = 132_000;
/// The peak resident set allowed, a quarter of the file.
const WINDOW: u64 = 16 << 20;

/// A process's peak resident set in bytes (`VmHWM`), or `None` once it
/// has exited.
fn high_water_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[test]
fn scoring_a_large_rows_file_keeps_resident_memory_bounded() {
    if std::env::var_os(NO_MMAP_ENV).is_some_and(|v| v == "1") {
        // The buffered fallback reads the whole file by design.
        eprintln!("{NO_MMAP_ENV}=1 forces the buffered backing; nothing to measure");
        return;
    }
    let dir = std::env::temp_dir().join(format!("sketchad-score-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("large.rows");

    let mut writer = RowsWriter::create(&path, DIM, true).unwrap();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut row = vec![0.0; DIM];
    for i in 0..ROWS {
        for v in &mut row {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        writer
            .write_row(&row, Some(u64::from(i % 50 == 0)))
            .unwrap();
    }
    writer.finish().unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    assert!(file_bytes >= 64 << 20, "{file_bytes}-byte file");

    let mut child = Command::new(env!("CARGO_BIN_EXE_sketchad"))
        .args(["score", "--input", path.to_str().unwrap(), "--quiet"])
        // A small sketch keeps the run short; the reader is what is measured.
        .args(["--sketch", "cs", "--k", "2", "--ell", "8"])
        .stdout(Stdio::null())
        .spawn()
        .expect("binary runs");
    // The mark only rises, so its last reading before exit is the peak of
    // everything up to that reading.
    let mut peak = 0;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        peak = high_water_bytes(child.id()).unwrap_or(0).max(peak);
        std::thread::sleep(Duration::from_millis(5));
    };
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(status.success(), "sketchad score exited with {status}");
    assert!(peak > 0, "no reading of the child's VmHWM");
    assert!(
        peak < WINDOW,
        "scoring a {file_bytes}-byte file peaked at {peak} resident bytes"
    );
}
