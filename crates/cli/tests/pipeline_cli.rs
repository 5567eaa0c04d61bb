//! End-to-end test of the `pipeline` subcommand through the real binary:
//! the producer-lane count is a throughput knob, never a semantic one.

use sketchad_core::rowfmt::encode_rows;
use std::process::Command;

/// `--producers 1` and `--producers 4` take the same chunked submit path
/// and must write byte-equal `--output` score files. The stream spans
/// three 8 192-row submit chunks so chunk boundaries are crossed too.
#[test]
fn pipeline_output_is_byte_equal_across_producer_counts() {
    let dir = std::env::temp_dir().join(format!("sketchad-pipeline-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rows: Vec<Vec<f64>> = (0..20_000u32)
        .map(|i| {
            (0..8)
                .map(|j| (f64::from(i) * 0.01 + f64::from(j) * 0.7).sin())
                .collect()
        })
        .collect();
    let input = dir.join("stream.rows");
    std::fs::write(&input, encode_rows(&rows, None).unwrap()).unwrap();

    let scores_with = |producers: &str| -> Vec<u8> {
        let output = dir.join(format!("scores-{producers}.csv"));
        let status = Command::new(env!("CARGO_BIN_EXE_sketchad"))
            .args(["pipeline", "--input", input.to_str().unwrap()])
            .args(["--sketch", "fd", "--k", "2", "--ell", "8", "--warmup", "64"])
            .args(["--shards", "4", "--producers", producers, "--quiet"])
            .args(["--output", output.to_str().unwrap()])
            .status()
            .expect("binary runs");
        assert!(status.success(), "--producers {producers} failed");
        std::fs::read(&output).unwrap()
    };
    let one = scores_with("1");
    assert_eq!(one.iter().filter(|&&b| b == b'\n').count(), rows.len() + 1);
    assert!(one == scores_with("4"), "--producers changed the scores");
    std::fs::remove_dir_all(&dir).ok();
}
