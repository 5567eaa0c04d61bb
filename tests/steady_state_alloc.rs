//! Zero allocations after warm-up — counted, not assumed.
//!
//! The frequent-directions shrink and the Gram-route kernel under it own
//! their scratch (`svd::Workspace`), so once the first shrink has run, the
//! steady state of `FrequentDirections::update` must never touch the heap;
//! `CountSketch` draws its hash targets into a buffer sized at construction,
//! so its updates never do, and a linear sketch's refresh decomposes the
//! sketch where it lies rather than a copy of it. A WAL append encodes its
//! frame into a staging buffer the store keeps, so appends after the first
//! never do either, and a damaged WAL segment never makes the reader
//! reserve more than the file holds. Recovery decodes the WAL into one
//! reused block, so it allocates per block, never per row, and a damaged
//! detector payload never makes `restore_state` reserve more than it holds. The serving engine stages and queues
//! rows flat, so a submit call allocates per call, never per row, and its
//! report takes over the worker's score buffer instead of copying it.
//! This binary installs a counting global allocator (it is its own crate, so
//! `sketchad-linalg` keeps its `deny(unsafe_code)`) and counts.
//!
//! The counter is per-thread: the libtest harness allocates on its own
//! threads while a test runs, and only the measured thread's traffic is the
//! kernel's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sketchad_core::{
    RefreshPolicy, ScoreKind, ScoreScratch, SketchDetector, StreamingDetector, SubspaceModel,
    UpdatePolicy,
};
use sketchad_durable::{wal, FsyncPolicy, Recovery, StateStore};
use sketchad_linalg::rng::{gaussian_matrix, seeded_rng};
use sketchad_linalg::svd::{right_factor, Workspace};
use sketchad_serve::{BackpressurePolicy, ServeConfig, ServeEngine};
use sketchad_sketch::{
    CountSketch, FrequentDirections, MatrixSketch, RandomProjection, RowSampling,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes on this thread.
fn note(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|c| c.set(c.get().max(size)));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter update, which neither allocates (the cells are
// const-initialized, no lazy registration) nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The largest single allocation (or reallocation) `f` made on this thread.
fn largest_allocation_in(f: impl FnOnce()) -> usize {
    let before = LARGEST.with(|c| c.replace(0));
    f();
    LARGEST.with(|c| c.replace(before.max(c.get())))
}

#[test]
fn the_counter_counts() {
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![0u8; 64]))),
        1
    );
    assert_eq!(allocations_in(|| {}), 0);
    assert_eq!(
        largest_allocation_in(|| drop(std::hint::black_box(vec![0u8; 300]))),
        300
    );
}

#[test]
fn fd_update_and_its_kernel_allocate_nothing_after_warm_up() {
    // The two FD shapes the benchmark runs: d=48 decomposes through the
    // 48×48 inner Gram (m > n), d=256 through the 128×128 outer Gram.
    for (ell, d) in [(32usize, 48usize), (64, 256)] {
        let rows = gaussian_matrix(&mut seeded_rng(ell as u64), 2 * ell + 1_000 + 1, d, 1.0);
        let mut fd = FrequentDirections::new(ell, d);
        let mut refresh_ws = Workspace::default();

        // Warm-up: fill the buffer, one shrink, one model refresh.
        let mut fed = rows.iter_rows();
        for row in fed.by_ref().take(2 * ell + 1) {
            fd.update(row);
        }
        assert!(fd.shrink_delta_sum() > 0.0, "warm-up did not shrink");
        let sketch = fd.sketch();
        SubspaceModel::from_matrix_in(&sketch, 10, fd.rows_seen(), &mut refresh_ws).unwrap();

        let shrinks_before = fd.shrink_delta_sum();
        let in_updates = allocations_in(|| {
            for row in fed.by_ref().take(1_000) {
                fd.update(row);
            }
        });
        assert!(
            fd.shrink_delta_sum() > shrinks_before,
            "no shrink in the measured window"
        );
        assert_eq!(in_updates, 0, "(ℓ={ell}, d={d}): FD update allocated");

        // The kernel itself, on both workspaces it runs under: the sketch's
        // shape again and the refresh's.
        let in_kernel = allocations_in(|| {
            for _ in 0..3 {
                let rf = right_factor(&sketch, sketch.rows(), 10, &mut refresh_ws).unwrap();
                std::hint::black_box(rf.sigma(0));
            }
        });
        assert_eq!(in_kernel, 0, "(ℓ={ell}, d={d}): right_factor allocated");
    }
}

#[test]
fn right_factor_keeping_few_vectors_allocates_nothing_after_warm_up() {
    // The `linear_wide` refresh's shape: a 128 × 1024 sketch keeping 16
    // directions, which takes the inverse-iteration route; its LU factors,
    // kept vectors and reflectors all live in the workspace.
    let a = gaussian_matrix(&mut seeded_rng(16), 128, 1024, 1.0);
    let mut ws = Workspace::default();
    right_factor(&a, 128, 16, &mut ws).unwrap();
    let allocated = allocations_in(|| {
        for _ in 0..3 {
            let rf = right_factor(&a, 128, 16, &mut ws).unwrap();
            std::hint::black_box(rf.sigma(0));
        }
    });
    assert_eq!(allocated, 0, "right_factor allocated after warm-up");
}

#[test]
fn right_factor_carrying_every_vector_allocates_nothing_after_warm_up() {
    // The all-vectors route at `fd_wide`'s refresh shape (128 × 256 keeping
    // 64: reflectors accumulated, QL rotating every row) and a tall input
    // through the 48 × 48 Gram keeping 32. The reduction's product and
    // update vectors live in the eigensolver's tridiagonal buffers.
    for (m, n, keep) in [(128usize, 256usize, 64usize), (64, 48, 32)] {
        let a = gaussian_matrix(&mut seeded_rng(m as u64), m, n, 1.0);
        let mut ws = Workspace::default();
        right_factor(&a, m, keep, &mut ws).unwrap();
        let allocated = allocations_in(|| {
            for _ in 0..3 {
                let rf = right_factor(&a, m, keep, &mut ws).unwrap();
                std::hint::black_box(rf.sigma(0));
            }
        });
        assert_eq!(
            allocated, 0,
            "{m} × {n} keep {keep}: right_factor allocated after warm-up"
        );
    }
}

#[test]
fn count_sketch_update_allocates_nothing() {
    // s = 1 is the classic CountSketch, s = 4 the sparse-JL arm.
    let rows = gaussian_matrix(&mut seeded_rng(4), 1_000, 48, 1.0);
    for s in [1usize, 4] {
        let mut cs = CountSketch::new(32, 48, s, 9);
        let allocated = allocations_in(|| {
            for row in rows.iter_rows() {
                cs.update(row);
            }
        });
        assert_eq!(cs.rows_seen(), 1_000);
        assert_eq!(allocated, 0, "s={s}: CountSketch update allocated");
    }
}

#[test]
fn row_sampling_update_on_a_full_reservoir_allocates_nothing() {
    // Once the reservoir holds ℓ rows, an eviction overwrites the evicted
    // entry's row in place.
    let rows = gaussian_matrix(&mut seeded_rng(5), 2_000, 8, 1.0);
    let mut fed = rows.iter_rows();
    let mut rs = RowSampling::new(8, 8, 3);
    for row in fed.by_ref().take(8) {
        rs.update(row);
    }
    let before = rs.sampled_rows();
    let allocated = allocations_in(|| {
        for row in fed {
            rs.update(row);
        }
    });
    assert_ne!(
        rs.sampled_rows(),
        before,
        "no eviction in the measured window"
    );
    assert_eq!(allocated, 0, "RowSampling update allocated");
}

#[test]
fn score_block_allocates_nothing_once_its_scratch_has_grown() {
    // The batched scoring kernel writes coefficients and norms into the
    // caller's scratch: a second block of the same size reuses it.
    let basis = gaussian_matrix(&mut seeded_rng(6), 64, 8, 1.0);
    let model = SubspaceModel::from_matrix(&basis, 2, 64).unwrap();
    let block = gaussian_matrix(&mut seeded_rng(7), 512, 8, 1.0);
    let mut scratch = ScoreScratch::new();
    let mut out = Vec::new();
    for kind in [
        ScoreKind::RelativeProjection,
        ScoreKind::Blended { beta: 0.1 },
    ] {
        model.score_block_into(block.as_slice(), kind, &mut scratch, &mut out);
        let allocated = allocations_in(|| {
            model.score_block_into(block.as_slice(), kind, &mut scratch, &mut out);
        });
        assert_eq!(out.len(), 512);
        assert_eq!(allocated, 0, "{kind:?}: a scored block allocated");
    }
}

#[test]
fn fd_detector_allocates_only_the_model_it_installs() {
    // A refresh reads the model off the factor its sketch's shrink computes
    // on the sketch's own workspace: no copy of the sketch is taken, so the
    // only heap traffic of a whole detector loop is the new model's basis
    // and singular values, once per refresh. Periods on, off and across the
    // buffer-full cadence, on both benchmark shapes.
    for (ell, d, period) in [(32usize, 48usize, 64usize), (64, 256, 64), (32, 48, 50)] {
        let rows = gaussian_matrix(&mut seeded_rng(period as u64), 4 * ell + 1_000, d, 1.0);
        let mut det = SketchDetector::new(
            FrequentDirections::new(ell, d),
            4,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period },
            2 * ell,
        );
        let mut fed = rows.iter_rows();
        for row in fed.by_ref().take(4 * ell) {
            det.process(row);
        }
        assert!(det.refresh_count() > 0 && det.sketch().shrink_delta_sum() > 0.0);

        let refreshes_before = det.refresh_count();
        for row in fed {
            let refreshes = det.refresh_count();
            let allocated = allocations_in(|| {
                std::hint::black_box(det.process(row));
            });
            let budget = 2 * (det.refresh_count() - refreshes);
            assert!(
                allocated <= budget,
                "(ℓ={ell}, d={d}, every {period}): {allocated} allocations in a row with budget {budget}"
            );
        }
        assert!(det.refresh_count() >= refreshes_before + 1_000 / period as u64);
    }
}

#[test]
fn linear_detector_allocates_only_the_model_it_installs() {
    // A linear sketch's refresh decomposes its `B` where it lies, on the
    // detector's workspace: no copy of the sketch is taken, so a row without
    // a refresh allocates nothing and a row with one allocates only the new
    // model's basis and singular values.
    fn run<S: MatrixSketch>(name: &str, sketch: S) {
        let (ell, d, period) = (32usize, 96usize, 64usize);
        let rows = gaussian_matrix(&mut seeded_rng(ell as u64), 4 * ell + 1_000, d, 1.0);
        let mut det = SketchDetector::new(
            sketch,
            4,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period },
            2 * ell,
        );
        let mut fed = rows.iter_rows();
        for row in fed.by_ref().take(4 * ell) {
            det.process(row);
        }
        assert!(det.refresh_count() > 0, "{name}: no refresh in warm-up");

        let refreshes_before = det.refresh_count();
        for row in fed {
            let refreshes = det.refresh_count();
            let allocated = allocations_in(|| {
                std::hint::black_box(det.process(row));
            });
            let budget = 2 * (det.refresh_count() - refreshes);
            assert!(
                allocated <= budget,
                "{name}: {allocated} allocations in a row with budget {budget}"
            );
        }
        assert!(det.refresh_count() >= refreshes_before + 1_000 / period as u64);
    }
    run("count-sketch s=1", CountSketch::new(32, 96, 1, 5));
    run("count-sketch s=4", CountSketch::new(32, 96, 4, 5));
    run("random projection", RandomProjection::new(32, 96, 5));
}

#[test]
fn submit_allocates_per_call_not_per_row() {
    // A warmed one-shard `Block` engine over a cheap detector: the rows of a
    // submit call are staged and queued flat, so the submitting thread's
    // allocations do not grow with the call's row count. (The worker
    // thread's score buffer grows, but it is not this thread's.)
    let d = 8;
    let rows: Vec<Vec<f64>> = gaussian_matrix(&mut seeded_rng(31), 4_096, d, 1.0)
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect();
    let config = ServeConfig::new(1)
        .with_queue_capacity(1_024)
        .with_backpressure(BackpressurePolicy::Block)
        .with_max_batch(256);
    let mut engine = ServeEngine::start(config, move |_shard| {
        Box::new(SketchDetector::new(
            RowSampling::new(8, d, 3),
            2,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 1_024 },
            256,
        ))
    })
    .unwrap();
    for _ in 0..2 {
        engine.submit_batch_rows_parallel(&rows, 1).unwrap();
    }
    let small = allocations_in(|| {
        engine.submit_batch_rows_parallel(&rows[..64], 1).unwrap();
    });
    let large = allocations_in(|| {
        engine.submit_batch_rows_parallel(&rows, 1).unwrap();
    });
    let report = engine.finish().unwrap();
    assert_eq!(report.stats.total_processed, 3 * 4_096 + 64);
    assert!(
        large <= small,
        "a 4096-row submit made {large} allocations, a 64-row one {small}"
    );
}

#[test]
fn finish_hands_the_score_buffer_over() {
    // A one-shard engine's report takes over the worker's score buffer:
    // finishing never allocates a second buffer of every `(seq, score)`.
    let d = 8;
    let rows: Vec<Vec<f64>> = gaussian_matrix(&mut seeded_rng(34), 4_096, d, 1.0)
        .iter_rows()
        .map(<[f64]>::to_vec)
        .collect();
    let config = ServeConfig::new(1)
        .with_queue_capacity(1_024)
        .with_backpressure(BackpressurePolicy::Block);
    let mut engine = ServeEngine::start(config, move |_shard| {
        Box::new(SketchDetector::new(
            RowSampling::new(8, d, 3),
            2,
            ScoreKind::RelativeProjection,
            RefreshPolicy::Periodic { period: 1_024 },
            256,
        ))
    })
    .unwrap();
    let n = 16 * rows.len();
    for _ in 0..16 {
        engine.submit_batch_rows_parallel(&rows, 1).unwrap();
    }
    let mut report = None;
    let largest = largest_allocation_in(|| report = Some(engine.finish().unwrap()));
    let report = report.unwrap();
    assert_eq!(report.scores.len(), n);
    let buffer = n * std::mem::size_of::<(u64, f64)>();
    assert!(
        largest < buffer,
        "finishing {n} rows allocated {largest} bytes at once; the scores are {buffer}"
    );
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("skad-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn wal_append_allocates_nothing_after_the_first_call() {
    // The durable benchmark's row shape, in the serving engine's largest
    // default micro-batch: one frame per call.
    let rows = gaussian_matrix(&mut seeded_rng(26), 256, 48, 1.0);
    let dir = temp_dir("wal-append");
    let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
    store.append_rows(rows.as_slice(), 48).unwrap();
    let allocated = allocations_in(|| {
        for _ in 0..100 {
            store.append_rows(rows.as_slice(), 48).unwrap();
        }
    });
    assert_eq!(store.seq(), 101 * 256);
    assert_eq!(allocated, 0, "WAL append allocated");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn damaged_wal_segment_never_reserves_more_than_the_file() {
    // Three frames of 1, 2 and 3 rows; then every single-bit flip and every
    // 0xff byte, so each `len`, `rows` and `dim` field takes values up to
    // 2³² − 1. The size checks refuse them before any reservation: the
    // largest allocation a read makes stays under the file's length.
    let rows = gaussian_matrix(&mut seeded_rng(27), 6, 48, 1.0);
    let rows = rows.as_slice();
    let dir = temp_dir("wal-read");
    let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
    for batch in [&rows[..48], &rows[48..3 * 48], &rows[3 * 48..]] {
        store.append_rows(batch, 48).unwrap();
    }
    drop(store);
    let (_, path) = wal::list_segments(&dir).unwrap().pop().unwrap();
    let good = std::fs::read(&path).unwrap();
    let mut bad = good.clone();
    let read = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let largest =
            largest_allocation_in(|| drop(std::hint::black_box(wal::read_segment(&path))));
        assert!(
            largest <= good.len(),
            "a read reserved {largest} bytes from a {}-byte segment",
            good.len()
        );
    };
    for i in 0..good.len() {
        for flip in (0..8).map(|bit| good[i] ^ (1 << bit)).chain([0xff]) {
            bad[i] = flip;
            read(&bad);
        }
        bad[i] = good[i];
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_allocates_per_block_not_per_row() {
    // A snapshot, then a WAL tail in the serving engine's 256-row frames:
    // the recovery walk decodes into one reused block and the inspection
    // behind `StateStore::open` keeps no row, so neither allocates per row
    // and neither reserves more than one block.
    let recover = |tail: usize| {
        let rows = gaussian_matrix(&mut seeded_rng(32), 256, 48, 1.0);
        let dir = temp_dir(&format!("recover-{tail}"));
        let mut store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
        store.append_rows(rows.as_slice(), 48).unwrap();
        store.checkpoint(b"detector state").unwrap();
        for _ in 0..tail / 256 {
            store.append_rows(rows.as_slice(), 48).unwrap();
        }
        drop(store);
        let mut allocations = 0;
        let mut sum = 0.0;
        let largest = largest_allocation_in(|| {
            allocations = allocations_in(|| {
                let state = Recovery::open(&dir)
                    .unwrap()
                    .replay_into(|_, block, _| {
                        sum += block[0];
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(state.stats.replay_rows, tail as u64);
            });
        });
        std::hint::black_box(sum);
        let mut opened = 0;
        let opened_largest = largest_allocation_in(|| {
            opened = allocations_in(|| {
                let store = StateStore::open(&dir, 0, FsyncPolicy::Never).unwrap();
                assert_eq!(store.seq(), 256 + tail as u64);
            });
        });
        std::fs::remove_dir_all(&dir).unwrap();
        (allocations, largest, opened, opened_largest)
    };
    let block_bytes = wal::REPLAY_BLOCK_ROWS * 48 * 8;
    let (small, small_largest, small_open, _) = recover(1_024);
    let (large, large_largest, large_open, large_open_largest) = recover(16_384);
    assert_eq!(
        large, small,
        "recovering 16384 rows made {large} allocations, 1024 rows {small}"
    );
    assert_eq!(large_open, small_open, "StateStore::open");
    for largest in [small_largest, large_largest, large_open_largest] {
        assert!(
            largest <= block_bytes,
            "recovery reserved {largest} bytes at once; a block is {block_bytes}"
        );
    }
}

#[test]
fn damaged_detector_payload_never_panics_or_reserves_more_than_it_holds() {
    // Real `save_state` payloads of a frequent-directions detector (with
    // its filtering quantile) and a CountSketch one, each warmed up with a
    // model: every prefix and every single-byte flip (each bit, and all
    // eight) restores to `Ok` or `Err`, and no restore reserves more than
    // the bytes it was handed.
    fn probe<S: MatrixSketch + Clone>(name: &str, mut live: SketchDetector<S>) {
        let fresh = live.clone();
        let rows = gaussian_matrix(&mut seeded_rng(33), 120, live.dim(), 1.0);
        live.process_batch(rows.as_slice(), &mut Vec::new());
        assert!(live.current_model().is_some(), "{name}: no model");
        let mut payload = Vec::new();
        assert!(live.save_state(&mut payload));
        let restore = |bytes: &[u8], what: &str| {
            let mut det = fresh.clone();
            let largest = largest_allocation_in(|| {
                let _ = std::hint::black_box(det.restore_state(bytes));
            });
            assert!(
                largest <= bytes.len(),
                "{name}, {what}: reserved {largest} bytes from a {}-byte payload",
                bytes.len()
            );
        };
        restore(&payload, "intact");
        for len in 0..payload.len() {
            restore(&payload[..len], &format!("{len}-byte prefix"));
        }
        let mut bad = payload.clone();
        for i in 0..payload.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xff] {
                bad[i] = payload[i] ^ mask;
                restore(&bad, &format!("byte {i} ^ {mask:#x}"));
            }
            bad[i] = payload[i];
        }
    }
    let skip = UpdatePolicy::SkipAnomalous { quantile: 0.9 };
    let fd = SketchDetector::new(
        FrequentDirections::new(8, 6),
        2,
        ScoreKind::RelativeProjection,
        RefreshPolicy::Periodic { period: 20 },
        16,
    )
    .with_update_policy(skip);
    probe("fd", fd);
    let cs = SketchDetector::new(
        CountSketch::new(8, 6, 1, 7),
        2,
        ScoreKind::RelativeProjection,
        RefreshPolicy::Periodic { period: 20 },
        16,
    );
    probe("count-sketch", cs);
}
