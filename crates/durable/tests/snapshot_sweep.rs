//! Every prefix truncation and every single-bit flip of the newest
//! snapshot in a real state directory: `decode_snapshot` returns a typed
//! error and never panics, and `recover()` falls back to the older
//! generation plus the WAL rows past it — from which the detector is
//! rebuilt bit for bit.

use std::path::PathBuf;

use sketchad_core::{DetectorConfig, RefreshPolicy, StreamingDetector};
use sketchad_durable::snapshot::{decode_snapshot, list_snapshots};
use sketchad_durable::{recover, DurableError, FsyncPolicy, StateStore};

const DIM: usize = 3;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skad-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn detector() -> Box<dyn StreamingDetector> {
    Box::new(
        DetectorConfig::new(2, 4)
            .with_warmup(8)
            .with_refresh(RefreshPolicy::Periodic { period: 16 })
            .build_cs(DIM),
    )
}

fn row(seq: u64) -> [f64; DIM] {
    let t = seq as f64;
    [t.sin(), (0.7 * t).cos(), 0.01 * t]
}

fn saved(det: &dyn StreamingDetector) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(det.save_state(&mut out));
    out
}

#[test]
fn damaged_newest_snapshot_errs_and_recovery_falls_back_a_generation() {
    let dir = tmp_dir("skad");
    let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
    let mut live = detector();
    let mut generation_one = None;
    for seq in 1..=45 {
        store.append_row(&row(seq)).unwrap();
        live.process(&row(seq));
        if seq == 20 || seq == 40 {
            generation_one.get_or_insert_with(|| saved(&*live));
            store.checkpoint(&saved(&*live)).unwrap();
        }
    }
    store.flush().unwrap();
    drop(store);
    let generation_one = generation_one.unwrap();
    let want = saved(&*live);

    let snapshots = list_snapshots(&dir).unwrap();
    assert_eq!(snapshots.len(), 2, "two generations on disk");
    let newest = snapshots[1].1.clone();
    let good = std::fs::read(&newest).unwrap();
    assert_eq!(decode_snapshot(&good).unwrap().seq, 40);

    let check = |bytes: &[u8], what: &str| {
        match decode_snapshot(bytes) {
            Err(DurableError::Corrupt { .. } | DurableError::Wire(_)) => {}
            other => panic!("{what}: {other:?}"),
        }
        std::fs::write(&newest, bytes).unwrap();
        let rec = recover(&dir).unwrap_or_else(|e| panic!("{what}: {e}"));
        let snap = rec.snapshot.as_ref().expect("the older generation");
        assert_eq!((snap.generation, snap.seq), (1, 20), "{what}");
        assert_eq!(snap.payload, generation_one, "{what}");
        assert_eq!(rec.stats.snapshots_corrupt, 1, "{what}");
        let seqs: Vec<u64> = rec.replay.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (21..=45).collect::<Vec<_>>(), "{what}");
        let mut restored = detector();
        assert!(restored.restore_state(&snap.payload).unwrap());
        for r in &rec.replay {
            restored.process(&r.row);
        }
        assert_eq!(saved(&*restored), want, "{what}");
    };

    for cut in 0..good.len() {
        check(&good[..cut], &format!("prefix {cut}"));
    }
    let mut bad = good.clone();
    for i in 0..good.len() {
        for bit in 0..8 {
            bad[i] ^= 1 << bit;
            check(&bad, &format!("bit {bit} of byte {i}"));
            bad[i] = good[i];
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
