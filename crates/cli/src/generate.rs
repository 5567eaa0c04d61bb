//! `generate`: write a builtin benchmark stream to a file.

use std::path::Path;

use sketchad_streams::io as stream_io;

use crate::args::{dataset, Args, Command};

pub const COMMAND: Command = Command {
    name: "generate",
    options: &[&["--dataset NAME --output FILE [--small]"]],
    run,
};

fn run(p: &Args) -> Result<(), String> {
    let output = p.required("output")?;
    let stream = dataset(p, p.required("dataset")?)?;
    let out_path = Path::new(output);
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    // Extension picks the format: `.rows` writes the zero-parse binary
    // sketchad-rows/v1 layout, anything else stays inspectable CSV.
    if out_path.extension().and_then(|e| e.to_str()) == Some("rows") {
        stream_io::write_rows(&stream, out_path).map_err(|e| e.to_string())?;
    } else {
        stream_io::write_csv(&stream, out_path).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} ({} points, d={}, {} anomalies) to {output}",
        stream.name,
        stream.len(),
        stream.dim,
        stream.anomaly_count()
    );
    Ok(())
}
