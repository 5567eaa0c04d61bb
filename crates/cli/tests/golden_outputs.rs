//! Byte-for-byte pins of the files the scoring subcommands write, through
//! the real binary: `score`'s per-point CSV and saved model, `apply`'s
//! scores against that model, and a two-shard `pipeline`'s scores, all on
//! the `synth-lowrank --small` stream written as a keyed `.rows` file.
//!
//! Generation and scoring run on the linalg kernels, whose bits are per
//! dispatch tier, so each tier has its own hashes; a tier with none
//! recorded (no AVX2-only host was at hand) checks only that the files
//! were written.

use std::path::Path;
use std::process::Command;

/// FNV-1a 64 over a file's bytes.
fn file_hash(path: &Path) -> u64 {
    std::fs::read(path)
        .expect("read the written file")
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn sketchad(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sketchad"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "sketchad {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn scoring_outputs_are_pinned_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("sketchad-golden-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (stream, model) = (path("stream.rows"), path("model.json"));
    let (score, apply, pipeline) = (path("score.csv"), path("apply.csv"), path("pipeline.csv"));

    sketchad(&[
        "generate",
        "--dataset",
        "synth-lowrank",
        "--small",
        "--output",
        &stream,
    ]);
    sketchad(&[
        "score",
        "--input",
        &stream,
        "--output",
        &score,
        "--save-model",
        &model,
        "--quiet",
    ]);
    sketchad(&[
        "apply", "--model", &model, "--input", &stream, "--output", &apply, "--quiet",
    ]);
    sketchad(&[
        "pipeline", "--input", &stream, "--shards", "2", "--output", &pipeline, "--quiet",
    ]);

    // `(tier, FNV-1a 64)` per file.
    let goldens = [
        (
            "score",
            &score,
            [
                ("avx512f", 0xf25f_bcb0_e68c_9451),
                ("scalar", 0xa92b_579f_58e0_8be8),
            ],
        ),
        (
            "model",
            &model,
            [
                ("avx512f", 0x3411_b876_7f1c_0a8d),
                ("scalar", 0xa279_d1d0_2bcf_e3d3),
            ],
        ),
        (
            "apply",
            &apply,
            [
                ("avx512f", 0x62a9_fc55_2ba2_23b4),
                ("scalar", 0xbf62_2323_b7bc_41be),
            ],
        ),
        (
            "pipeline",
            &pipeline,
            [
                ("avx512f", 0xf1be_6fca_216e_942a),
                ("scalar", 0x238a_c360_e748_e72a),
            ],
        ),
    ];
    let tier = sketchad_eval::HostMeta::capture().simd_dispatch;
    let mut moved = Vec::new();
    for (name, file, pins) in goldens {
        let hash = file_hash(Path::new(file));
        if let Some(&(_, golden)) = pins.iter().find(|(t, _)| *t == tier) {
            if hash != golden {
                moved.push(format!("{name} on {tier}: {hash:#018x}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(moved.is_empty(), "output bytes moved: {moved:?}");
}
