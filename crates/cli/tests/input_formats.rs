//! One stream, written by `generate` as CSV and as `.rows`, scores
//! byte-identically through the real binary whatever its format and
//! however the `.rows` file is backed: `score`'s scores and saved model,
//! `apply`'s scores against that model and a two-shard `pipeline`'s scores
//! are equal files for the CSV, the mapped `.rows` file and the same file
//! read through the buffered fallback (`SKETCHAD_NO_MMAP=1`).

use std::path::Path;
use std::process::Command;

use sketchad_core::mmapio::NO_MMAP_ENV;

/// Runs the binary on the whitespace-separated arguments of `line`,
/// forcing the buffered backing when `no_mmap`.
fn sketchad(line: &str, no_mmap: bool) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_sketchad"));
    if no_mmap {
        command.env(NO_MMAP_ENV, "1");
    }
    let out = command
        .args(line.split_whitespace())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sketchad {line}: {stderr}");
}

/// Scores `input` through `score`, `apply` and `pipeline`, writing their
/// files under `dir` with `tag` in their names, and returns those files'
/// bytes.
fn score_all(dir: &Path, input: &Path, tag: &str, no_mmap: bool) -> Vec<Vec<u8>> {
    let file = |name: &str| dir.join(format!("{tag}-{name}")).display().to_string();
    let (input, score, model) = (input.display(), file("score.csv"), file("model.json"));
    let (apply, pipeline) = (file("apply.csv"), file("pipeline.csv"));
    for line in [
        format!("score --input {input} --output {score} --save-model {model}"),
        format!("apply --model {model} --input {input} --output {apply}"),
        format!("pipeline --input {input} --shards 2 --output {pipeline}"),
    ] {
        sketchad(&format!("{line} --quiet"), no_mmap);
    }
    [score, model, apply, pipeline]
        .iter()
        .map(|f| std::fs::read(f).expect("read the written file"))
        .collect()
}

#[test]
fn csv_and_rows_inputs_score_byte_identically() {
    let dir = std::env::temp_dir().join(format!("sketchad-input-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv, rows) = (dir.join("stream.csv"), dir.join("stream.rows"));
    for output in [&csv, &rows] {
        let generate = "generate --dataset synth-lowrank --small --output";
        sketchad(&format!("{generate} {}", output.display()), false);
    }
    assert_eq!(&std::fs::read(&rows).unwrap()[..4], b"SKRW");

    let via_csv = score_all(&dir, &csv, "csv", false);
    let via_rows = score_all(&dir, &rows, "rows", false);
    let via_buffered_rows = score_all(&dir, &rows, "buffered", true);
    std::fs::remove_dir_all(&dir).unwrap();

    for (i, name) in ["score", "model", "apply", "pipeline"].iter().enumerate() {
        assert!(via_csv[i].len() > 100, "{name} output is too short");
        assert!(via_csv[i] == via_rows[i], "{name}: CSV and .rows differ");
        assert!(
            via_rows[i] == via_buffered_rows[i],
            "{name}: mapped and buffered .rows differ"
        );
    }
}
