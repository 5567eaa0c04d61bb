//! `recover`: inspects a durable state directory without opening it for writing:
//! per shard, the newest valid snapshot, the WAL tail that would be
//! replayed on warm restart (counted by a walk that holds none of it), and
//! any damage (corrupt snapshots, torn tails) recovery would route around.

use std::path::Path;

use sketchad_durable as durable;

use crate::args::{Args, Command};

pub const COMMAND: Command = Command {
    name: "recover",
    options: &[&["--state-dir DIR [--quiet]"]],
    run,
};

fn run(p: &Args) -> Result<(), String> {
    let root = Path::new(p.required("state-dir")?);
    if !root.is_dir() {
        return Err(format!("{}: not a directory", root.display()));
    }
    // Shard directories are `shard-NNNN`; anything else is ignored.
    let mut shard_ids: Vec<u32> = std::fs::read_dir(root)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name();
            name.to_str()?.strip_prefix("shard-")?.parse().ok()
        })
        .collect();
    shard_ids.sort_unstable();
    if shard_ids.is_empty() {
        return Err(format!(
            "{}: no shard-NNNN state directories found",
            root.display()
        ));
    }

    let mut damaged = false;
    for shard in &shard_ids {
        let dir = durable::shard_dir(root, *shard);
        let recovered = durable::inspect(&dir)
            .map_err(|e| format!("shard {shard} ({}): {e}", dir.display()))?;
        let stats = &recovered.stats;
        damaged |= stats.snapshots_corrupt > 0
            || stats.wal_segments_corrupt > 0
            || stats.torn_tail_bytes > 0;
        if p.flag("quiet") {
            continue;
        }
        match &recovered.snapshot {
            Some(snap) => println!(
                "shard {shard}: snapshot generation {} (through row {}), {} WAL row(s) to replay",
                snap.generation, snap.seq, stats.replay_rows
            ),
            None => println!(
                "shard {shard}: no snapshot, {} WAL row(s) to replay from scratch",
                stats.replay_rows
            ),
        }
        println!(
            "  scanned {} snapshot(s) ({} corrupt), {} WAL segment(s) ({} corrupt), \
             {} skipped as covered by the snapshot, {} record(s) seen, torn tail {} byte(s)",
            stats.snapshots_scanned,
            stats.snapshots_corrupt,
            stats.wal_segments,
            stats.wal_segments_corrupt,
            stats.wal_segments_skipped,
            stats.wal_records_seen,
            stats.torn_tail_bytes
        );
        println!("  warm restart resumes at row {}", recovered.last_seq());
    }
    if !p.flag("quiet") && damaged {
        println!("damage detected: recovery will fall back past it (see counts above)");
    }
    Ok(())
}
