//! `absorb_batch` leaves every detector in this crate exactly where
//! `process_batch` would: the same `save_state` bytes (where the detector
//! persists), the same point count, and the same scores for every later
//! point, bit for bit. Absorbing only forgoes the absorbed rows' scores.

use sketchad_core::{
    DetectorConfig, ExactSvdDetector, ExactWindowedDetector, MeanDistanceDetector,
    NormalizedDetector, OjaDetector, RandomScoreDetector, RefreshPolicy, ScoreKind, SketchDetector,
    StreamingDetector, UpdatePolicy,
};
use sketchad_sketch::FrequentDirections;

const DIM: usize = 5;

/// `n` deterministic row-major rows; every 17th is scaled up as an
/// anomaly, so filtering detectors skip updates.
fn stream(n: usize) -> Vec<f64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rows = Vec::with_capacity(n * DIM);
    for i in 0..n {
        let scale = if i % 17 == 16 { 10.0 } else { 1.0 };
        for _ in 0..DIM {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rows.push(scale * ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5));
        }
    }
    rows
}

fn config() -> DetectorConfig {
    DetectorConfig::new(2, 6)
        .with_warmup(12)
        .with_refresh(RefreshPolicy::Periodic { period: 20 })
}

/// Builds one detector afresh.
type Build = Box<dyn Fn() -> Box<dyn StreamingDetector>>;

fn every_detector() -> Vec<(&'static str, Build)> {
    let skip = UpdatePolicy::SkipAnomalous { quantile: 0.9 };
    vec![
        ("fd", Box::new(|| Box::new(config().build_fd(DIM)))),
        ("rp", Box::new(|| Box::new(config().build_rp(DIM)))),
        ("cs", Box::new(|| Box::new(config().build_cs(DIM)))),
        ("rs", Box::new(|| Box::new(config().build_rs(DIM)))),
        ("sjl", Box::new(|| Box::new(config().build_sjl(DIM)))),
        (
            "windowed-fd",
            Box::new(|| Box::new(config().build_windowed_fd(DIM, 16, 3))),
        ),
        (
            "fd-decay",
            Box::new(|| Box::new(config().with_decay(0.9, 7).build_fd(DIM))),
        ),
        (
            "fd-energy-refresh",
            Box::new(|| {
                let refresh = RefreshPolicy::EnergyTriggered {
                    growth: 0.1,
                    max_period: 30,
                };
                Box::new(config().with_refresh(refresh).build_fd(DIM))
            }),
        ),
        (
            "fd-skip-anomalous",
            Box::new(move || Box::new(config().with_update_policy(skip).build_fd(DIM))),
        ),
        (
            "cs-skip-anomalous",
            Box::new(move || Box::new(config().with_update_policy(skip).build_cs(DIM))),
        ),
        (
            "fd-external-refresh",
            Box::new(|| {
                let mut d = config().build_fd(DIM);
                assert!(d.set_external_refresh(true));
                Box::new(d)
            }),
        ),
        (
            "normalized-fd",
            Box::new(|| Box::new(NormalizedDetector::new(config().build_fd(DIM)))),
        ),
        (
            "oja",
            Box::new(|| Box::new(OjaDetector::new(DIM, 2, 12, 3))),
        ),
        (
            "mean-distance",
            Box::new(|| Box::new(MeanDistanceDetector::new(DIM, 12))),
        ),
        (
            "random",
            Box::new(|| Box::new(RandomScoreDetector::new(DIM, 4))),
        ),
        (
            "exact",
            Box::new(|| {
                Box::new(ExactSvdDetector::new(
                    DIM,
                    2,
                    ScoreKind::RelativeProjection,
                    20,
                    12,
                ))
            }),
        ),
        (
            "exact-windowed",
            Box::new(|| {
                Box::new(ExactWindowedDetector::new(
                    DIM,
                    2,
                    40,
                    ScoreKind::RelativeProjection,
                    20,
                    12,
                ))
            }),
        ),
    ]
}

fn saved(det: &dyn StreamingDetector) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    det.save_state(&mut out).then_some(out)
}

#[test]
fn absorb_batch_leaves_the_state_process_batch_leaves() {
    let rows = stream(400);
    let (absorbed, next) = rows.split_at(300 * DIM);
    for (name, build) in every_detector() {
        // Blocks of uneven sizes, across warm-up and several refreshes.
        let (mut processed, mut absorbing) = (build(), build());
        let mut scores = Vec::new();
        for block in [&absorbed[..7 * DIM], &absorbed[7 * DIM..]] {
            processed.process_batch(block, &mut scores);
            absorbing.absorb_batch(block);
        }
        assert_eq!(absorbing.processed(), processed.processed(), "{name}");
        assert_eq!(saved(&*absorbing), saved(&*processed), "{name}");
        let mut expect = Vec::new();
        processed.process_batch(next, &mut expect);
        absorbing.process_batch(next, &mut scores);
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scores), bits(&expect), "{name}: later scores");
    }
}

#[test]
fn a_filtering_detector_still_scores_what_it_absorbs() {
    // Its score decides each update, so absorbing must skip the same
    // anomalies scoring would.
    let rows = stream(300);
    let build = || -> SketchDetector<FrequentDirections> {
        config()
            .with_update_policy(UpdatePolicy::SkipAnomalous { quantile: 0.9 })
            .build_fd(DIM)
    };
    let (mut processed, mut absorbing) = (build(), build());
    processed.process_batch(&rows, &mut Vec::new());
    absorbing.absorb_batch(&rows);
    assert!(processed.skipped_updates() > 0);
    assert_eq!(absorbing.skipped_updates(), processed.skipped_updates());
}
