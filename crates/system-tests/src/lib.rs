//! Cross-crate test support for the sketchad workspace.
//!
//! Besides hosting the workspace-level integration tests in the
//! repository-root `tests/` directory (see the `[[test]]` entries in
//! `Cargo.toml`), this crate provides the **deterministic fault-injection
//! harness** those tests drive the serving engine with: a seeded
//! [`FaultPlan`] decides — reproducibly, with no ambient randomness —
//! which rows are poisoned, when a detector panics, and whether queues are
//! saturated, so every failure a fault test observes can be replayed from
//! its seed alone.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use sketchad_core::{DetectorConfig, StreamingDetector, SubspaceModel};
use sketchad_serve::{
    BackpressurePolicy, BatchOutcome, PipelineReport, ServeConfig, ServeEngine, SubmitOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The repository README, compiled (and, unless marked `no_run`, run) as
/// doctests, so its Rust snippets cannot drift from the API they show.
/// This crate hosts it because it depends on both crates the snippets use.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub(crate) struct ReadmeDoctests;

/// One draw from a splitmix64 stream (advances the state). The same tiny,
/// stable PRNG the workspace's other seeded components use: the same plan
/// and the same stream on every run and machine.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which faults a run injects, all derived deterministically from a seed.
///
/// The plan is data, not behaviour: [`FaultRun::execute`] interprets it
/// against a synthetic stream, so a test can also construct plans directly
/// (e.g. "only poison, no panics") when it wants one failure mode in
/// isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan (and the injected fault positions) derive from.
    pub seed: u64,
    /// Poison one row in every `poison_every` (NaN or ∞ at a
    /// seed-determined component); `None` injects no poison.
    pub(crate) poison_every: Option<u64>,
    /// Panic the (single flaky) detector once its shard has processed this
    /// many points; `None` never panics.
    pub(crate) panic_after: Option<u64>,
    /// Shrink queues to this capacity to force overload; `None` leaves the
    /// default (ample) capacity.
    pub(crate) saturate_queue: Option<usize>,
}

impl FaultPlan {
    /// A plan with no faults at all: the control arm.
    pub fn benign(seed: u64) -> Self {
        Self {
            seed,
            poison_every: None,
            panic_after: None,
            saturate_queue: None,
        }
    }

    /// Derives a full fault mix from the seed: poison cadence, panic point,
    /// and queue pressure all come from independent splitmix64 draws.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let poison_every = Some(7 + next_u64(&mut s) % 13); // every 7..=19
        let panic_after = Some(80 + next_u64(&mut s) % 120); // after 80..=199
        let saturate_queue = Some(2 + (next_u64(&mut s) % 7) as usize); // 2..=8
        Self {
            seed,
            poison_every,
            panic_after,
            saturate_queue,
        }
    }

    /// Builder: poison one row in every `every`.
    #[must_use]
    pub fn with_poison_every(mut self, every: u64) -> Self {
        self.poison_every = Some(every);
        self
    }

    /// Builder: panic the flaky detector after `n` processed points.
    #[must_use]
    pub fn with_panic_after(mut self, n: u64) -> Self {
        self.panic_after = Some(n);
        self
    }

    /// Builder: clamp queue capacity to `capacity`.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.saturate_queue = Some(capacity);
        self
    }
}

/// Ambient dimension of the harness's synthetic stream.
pub(crate) const FAULT_DIM: usize = 12;

/// The harness's deterministic base stream: a smooth multi-frequency wave,
/// identical for a given `(seed, i)` on every machine. Tests comparing a
/// faulted run against a clean run rely on this being a pure function.
pub fn clean_point(seed: u64, i: u64) -> Vec<f64> {
    let mut s = seed ^ (0xA076_1D64_78BD_642F ^ i);
    let phase = (next_u64(&mut s) % 1000) as f64 / 1000.0;
    let t = i as f64 * 0.029 + phase * 0.001;
    (0..FAULT_DIM)
        .map(|j| (t + j as f64 * 0.37).sin() * (1.0 + 0.05 * j as f64))
        .collect()
}

/// Whether the plan poisons row `i`, and with what. Deterministic in
/// `(plan.seed, i)`.
pub fn poisoned_point(plan: &FaultPlan, i: u64) -> Option<Vec<f64>> {
    let every = plan.poison_every?;
    if i % every != every - 1 {
        return None;
    }
    let mut point = clean_point(plan.seed, i);
    let mut s = plan.seed ^ i.rotate_left(17);
    let slot = (next_u64(&mut s) as usize) % FAULT_DIM;
    point[slot] = if next_u64(&mut s) & 1 == 0 {
        f64::NAN
    } else {
        f64::INFINITY
    };
    Some(point)
}

/// A detector wrapper that panics once its inner detector has processed
/// `panic_after` points — the injected crash for supervision tests.
/// `fired` is shared so the harness can assert the fault actually triggered
/// (a fault test that silently injects nothing proves nothing).
pub struct PanicOnce {
    inner: Box<dyn StreamingDetector + Send>,
    panic_after: u64,
    fired: Arc<AtomicU64>,
}

impl PanicOnce {
    /// Wraps `inner`; the panic triggers when `inner.processed()` reaches
    /// `panic_after` and increments `fired` just before unwinding.
    pub fn new(
        inner: Box<dyn StreamingDetector + Send>,
        panic_after: u64,
        fired: Arc<AtomicU64>,
    ) -> Self {
        Self {
            inner,
            panic_after,
            fired,
        }
    }
}

impl StreamingDetector for PanicOnce {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn process(&mut self, y: &[f64]) -> f64 {
        if self.inner.processed() >= self.panic_after {
            self.fired.fetch_add(1, Ordering::Relaxed);
            panic!(
                "injected fault: detector panic at step {}",
                self.panic_after
            );
        }
        self.inner.process(y)
    }
    fn processed(&self) -> u64 {
        self.inner.processed()
    }
    fn is_warmed_up(&self) -> bool {
        self.inner.is_warmed_up()
    }
    fn name(&self) -> String {
        format!("panic-once({})", self.inner.name())
    }
    fn current_model(&self) -> Option<&SubspaceModel> {
        self.inner.current_model()
    }
    fn score_only(&self, y: &[f64]) -> Option<f64> {
        self.inner.score_only(y)
    }
    fn adopt_model(&mut self, model: &SubspaceModel) -> bool {
        self.inner.adopt_model(model)
    }
    // process_batch deliberately not overridden: the trait default loops
    // `process`, so the panic threshold is checked on every point.
}

/// Everything one harness run produces, for assertions.
pub struct FaultRun {
    /// The engine's full report (scores, stats, quarantine).
    pub report: PipelineReport,
    /// Aggregated submit outcomes.
    pub outcome: BatchOutcome,
    /// Total points submitted (poisoned rows included).
    pub submitted: u64,
    /// Poisoned rows the harness injected.
    pub injected_poison: u64,
    /// Times an injected detector panic actually fired.
    pub panics_fired: u64,
}

impl FaultRun {
    /// Executes `plan` against `n` points of the deterministic stream on a
    /// fresh engine: `shards` shards, `policy` backpressure, panic faults
    /// (if planned) wired into shard 0's detector, snapshots every 16
    /// points so restarts have something to resume from.
    pub fn execute(plan: &FaultPlan, n: u64, shards: usize, policy: BackpressurePolicy) -> Self {
        let mut config = ServeConfig::new(shards)
            .with_backpressure(policy)
            .with_snapshot_every(16)
            .with_max_restarts(4);
        if let Some(capacity) = plan.saturate_queue {
            config = config.with_queue_capacity(capacity);
        }
        let fired = Arc::new(AtomicU64::new(0));
        let factory_fired = Arc::clone(&fired);
        let panic_after = plan.panic_after;
        let seed = plan.seed;
        let mut engine = ServeEngine::start(config, move |shard| {
            let inner = base_detector(seed);
            match panic_after {
                // Only shard 0 is flaky. Rebuilds come through this same
                // factory and re-arm the wrapper, but the restarted inner
                // detector counts `processed()` from zero again, so the
                // fault refires only after another full `panic_after`
                // points — bounded, and inside the restart budget for the
                // stream lengths the tests use.
                Some(at) if shard == 0 => {
                    Box::new(PanicOnce::new(inner, at, Arc::clone(&factory_fired)))
                }
                _ => inner,
            }
        })
        .expect("engine start");

        let mut outcome = BatchOutcome::default();
        let mut injected_poison = 0u64;
        for i in 0..n {
            let point = match poisoned_point(plan, i) {
                Some(poisoned) => {
                    injected_poison += 1;
                    poisoned
                }
                None => clean_point(plan.seed, i),
            };
            match engine
                .submit(point)
                .expect("supervised submit never errors")
            {
                SubmitOutcome::Accepted => outcome.accepted += 1,
                SubmitOutcome::Dropped => outcome.dropped += 1,
                SubmitOutcome::Rejected(_) => outcome.rejected += 1,
                SubmitOutcome::Shed => outcome.shed += 1,
            }
        }
        let report = engine.finish().expect("contained faults never fail finish");
        Self {
            report,
            outcome,
            submitted: n,
            injected_poison,
            panics_fired: fired.load(Ordering::Relaxed),
        }
    }

    /// The conservation identity every run must satisfy:
    /// every submitted point landed in exactly one bucket.
    pub fn conservation_holds(&self) -> bool {
        let stats = &self.report.stats;
        stats.total_processed
            + stats.total_dropped
            + stats.total_rejected
            + stats.total_shed
            + stats.total_crash_lost
            == self.submitted
    }
}

/// The harness's standard detector: FD sketch, rank 3, short warmup so
/// snapshots exist early enough for restart tests.
pub fn base_detector(seed: u64) -> Box<dyn StreamingDetector + Send> {
    Box::new(
        DetectorConfig::new(3, 12)
            .with_warmup(24)
            .with_seed(seed)
            .build_fd(FAULT_DIM),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_and_streams_are_deterministic() {
        assert_eq!(FaultPlan::from_seed(42), FaultPlan::from_seed(42));
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
        assert_eq!(clean_point(7, 123), clean_point(7, 123));
        let plan = FaultPlan::benign(7).with_poison_every(5);
        // Bitwise comparison: NaN poison would defeat `==`.
        let bits =
            |p: Option<Vec<f64>>| p.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        assert_eq!(
            bits(poisoned_point(&plan, 4)),
            bits(poisoned_point(&plan, 4))
        );
        assert!(poisoned_point(&plan, 3).is_none());
        let poisoned = poisoned_point(&plan, 9).expect("row 9 is poisoned");
        assert!(poisoned.iter().any(|v| !v.is_finite()));
    }

    #[test]
    fn benign_plan_injects_nothing() {
        let plan = FaultPlan::benign(3);
        for i in 0..100 {
            assert!(poisoned_point(&plan, i).is_none());
            assert!(clean_point(plan.seed, i).iter().all(|v| v.is_finite()));
        }
    }
}
