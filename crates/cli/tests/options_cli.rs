//! Every subcommand accepts exactly the options it declares: through the
//! real binary, an undeclared option exits non-zero naming the option.

use std::process::Command;

#[test]
fn undeclared_options_fail_naming_the_option() {
    let pipeline = ["pipeline", "--dataset", "synth-lowrank", "--small"];
    let score = ["score", "--input", "stream.csv"];
    let cases: [(&[&str], [&str; 2]); 4] = [
        (&pipeline, ["--shard", "4"]),
        (&pipeline, ["--partition", "rr"]),
        (&pipeline, ["--policy", "drop"]),
        (&score, ["--quite", "--normalize"]),
    ];
    for (command, extra) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_sketchad"))
            .args(command)
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{command:?} {extra:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:") && first.contains(extra[0]),
            "{command:?} {extra:?}: {stderr}"
        );
    }
}
