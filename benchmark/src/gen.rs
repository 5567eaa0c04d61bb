//! Set-up: the seeded stream generator and the `.rows` file it writes.
//! Everything after this module sees only the file.

use crate::spec::Workload;
use sketchad_core::rowfmt::RowsWriter;
use sketchad_core::MmapRows;
use sketchad_eval::matrix::cell_seed;
use sketchad_streams::generator::{generate_low_rank_stream, AnomalyKind, LowRankStreamConfig};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Times set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Generates the workload's stream from `seed` and writes it to `path`, the
/// label of each row in its key column.
fn write_stream(w: &Workload, seed: u64, path: &Path) -> io::Result<()> {
    let stream = generate_low_rank_stream(LowRankStreamConfig {
        n: w.rows,
        d: w.d,
        k: w.stream_rank,
        signal_scale: 3.0,
        noise_sigma: w.noise_sigma,
        anomaly_rate: w.anomaly_rate,
        anomaly_scale: 1.0,
        anomaly_kind: AnomalyKind::OffSubspace,
        // One independent stream per (workload, --seed) pair.
        seed: cell_seed(&format!("{}/{seed}", w.name)),
    });
    let mut out = RowsWriter::create(path, w.d, true)?;
    for p in &stream.points {
        out.write_row(&p.values, Some(u64::from(p.is_anomaly)))?;
    }
    out.finish()?;
    Ok(())
}

/// The generated input as the program reads it: the mapped file and the
/// labels decoded from its key column.
pub struct Input {
    pub file: MmapRows,
    pub labels: Vec<bool>,
    /// Median wall time of one set-up (generation plus file write).
    pub setup_s: f64,
}

pub fn setup(w: &Workload, seed: u64, path: &Path) -> io::Result<Input> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        write_stream(w, seed, path)?;
        times.push(started.elapsed().as_secs_f64());
    }
    let file = MmapRows::open(path)?;
    let view = file.view();
    let mut row = vec![0.0; view.dim()];
    let labels = (0..view.len())
        .map(|i| view.read_row_into(i, &mut row).expect("row in range") == Some(1))
        .collect();
    Ok(Input {
        file,
        labels,
        setup_s: crate::report::median(&mut times),
    })
}
