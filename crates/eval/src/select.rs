//! Detector selection on top of the benchmark matrix, plus the
//! score-averaging ensemble the matrix runs as its fifth arm.
//!
//! The matrix records what every (scenario, sketch, budget) cell measured;
//! this module turns that into an *operational* answer: given a scenario
//! family, which configuration should a deployment run? The rule is
//! deterministic and memory-frugal — among cells whose AUC is within
//! [`AUC_INDIFFERENCE`] of the scenario's best, pick the one with the
//! fewest resident sketch bytes (ties: lower detection delay, then label
//! order), so "statistically indistinguishable but 4× cheaper" wins.

use serde::{Deserialize, Serialize};

use sketchad_core::{DetectorConfig, StreamingDetector};

use crate::matrix::MatrixArtifact;

/// AUC band treated as "statistically indistinguishable from the best":
/// candidates within this much of the scenario's top AUC compete on cost.
pub(crate) const AUC_INDIFFERENCE: f64 = 0.01;

/// The recommended configuration for one scenario family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Scenario family.
    pub scenario: String,
    /// Recommended sketch arm label.
    pub sketch: String,
    /// Recommended budget tier label.
    pub budget: String,
    /// The recommended cell's AUC.
    pub auc: f64,
    /// The recommended cell's resident sketch bytes.
    pub sketch_bytes: usize,
    /// The recommended cell's mean detection delay (points).
    pub detection_delay: Option<f64>,
}

/// Derives one recommendation per scenario family present in the matrix,
/// in alphabetical scenario order. Scenarios whose cells all lack an AUC
/// are omitted.
pub fn recommend(artifact: &MatrixArtifact) -> Vec<Recommendation> {
    let mut scenarios: Vec<&str> = artifact.cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.sort_unstable();
    scenarios.dedup();

    let mut out = Vec::new();
    for scenario in scenarios {
        let candidates: Vec<_> = artifact
            .cells
            .iter()
            .filter(|c| c.scenario == scenario && c.metrics.auc.is_some())
            .collect();
        let Some(best_auc) = candidates
            .iter()
            .map(|c| c.metrics.auc.unwrap())
            .fold(None::<f64>, |acc, a| Some(acc.map_or(a, |m| m.max(a))))
        else {
            continue;
        };
        let mut near_best: Vec<_> = candidates
            .into_iter()
            .filter(|c| c.metrics.auc.unwrap() >= best_auc - AUC_INDIFFERENCE)
            .collect();
        near_best.sort_by(|a, b| {
            a.metrics
                .sketch_bytes
                .cmp(&b.metrics.sketch_bytes)
                .then_with(|| {
                    // Missing delay sorts after any measured delay.
                    let da = a.metrics.detection_delay.unwrap_or(f64::INFINITY);
                    let db = b.metrics.detection_delay.unwrap_or(f64::INFINITY);
                    da.partial_cmp(&db).expect("delays are never NaN")
                })
                .then_with(|| a.sketch.cmp(&b.sketch))
                .then_with(|| a.budget.cmp(&b.budget))
        });
        let pick = near_best[0];
        out.push(Recommendation {
            scenario: scenario.to_string(),
            sketch: pick.sketch.clone(),
            budget: pick.budget.clone(),
            auc: pick.metrics.auc.unwrap(),
            sketch_bytes: pick.metrics.sketch_bytes,
            detection_delay: pick.metrics.detection_delay,
        });
    }
    out
}

/// A score-averaging ensemble over the four single-sketch arms (FD,
/// random projection, CountSketch, sparse JL), each with an independently
/// derived seed.
///
/// The relative-projection score the arms share is scale-free, so a plain
/// mean is a meaningful combination: the randomized arms' independent
/// errors partially cancel while FD anchors the subspace. The matrix runs
/// this as its fifth arm to measure whether the combination earns its 4×
/// memory cost on any scenario.
pub(crate) struct ScoreAveragingEnsemble {
    fd: Box<dyn StreamingDetector>,
    rp: Box<dyn StreamingDetector>,
    cs: Box<dyn StreamingDetector>,
    sjl: Box<dyn StreamingDetector>,
    dim: usize,
    processed: u64,
}

impl ScoreAveragingEnsemble {
    /// Builds the four arms from a shared configuration; each arm's seed is
    /// derived from `cfg.seed` so the arms use independent randomness.
    pub(crate) fn from_config(cfg: &DetectorConfig, dim: usize) -> Self {
        let arm_cfg =
            |salt: u64| cfg.with_seed(cfg.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Self {
            fd: Box::new(arm_cfg(1).build_fd(dim)),
            rp: Box::new(arm_cfg(2).build_rp(dim)),
            cs: Box::new(arm_cfg(3).build_cs(dim)),
            sjl: Box::new(arm_cfg(4).build_sjl(dim)),
            dim,
            processed: 0,
        }
    }

    fn arms(&self) -> [&dyn StreamingDetector; 4] {
        [
            self.fd.as_ref(),
            self.rp.as_ref(),
            self.cs.as_ref(),
            self.sjl.as_ref(),
        ]
    }

    fn arms_mut(&mut self) -> [&mut Box<dyn StreamingDetector>; 4] {
        [&mut self.fd, &mut self.rp, &mut self.cs, &mut self.sjl]
    }
}

impl StreamingDetector for ScoreAveragingEnsemble {
    fn dim(&self) -> usize {
        self.dim
    }

    fn process(&mut self, y: &[f64]) -> f64 {
        let mut sum = 0.0;
        for arm in self.arms_mut() {
            sum += arm.process(y);
        }
        self.processed += 1;
        sum / 4.0
    }

    fn processed(&self) -> u64 {
        self.processed
    }

    fn is_warmed_up(&self) -> bool {
        self.arms().iter().all(|a| a.is_warmed_up())
    }

    fn name(&self) -> String {
        "ensemble[fd+rp+cs+sjl]".to_string()
    }

    fn sketch_resident_bytes(&self) -> Option<usize> {
        // The ensemble pays for all four sketches.
        self.arms()
            .iter()
            .map(|a| a.sketch_resident_bytes())
            .sum::<Option<usize>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostMeta;
    use crate::matrix::{
        pareto_frontiers, CellCost, CellMetrics, CellParams, MatrixCell, MATRIX_SCHEMA,
    };

    fn cell(scenario: &str, sketch: &str, auc: Option<f64>, bytes: usize) -> MatrixCell {
        MatrixCell {
            scenario: scenario.into(),
            sketch: sketch.into(),
            budget: "mid".into(),
            anchor: true,
            params: CellParams {
                k: 10,
                ell: 18,
                eps: 0.125,
                refresh_period: 64,
                warmup: 64,
                seed: 1,
            },
            metrics: CellMetrics {
                auc,
                ap: auc,
                best_f1: auc,
                detection_delay: Some(1.0),
                sketch_bytes: bytes,
                points: 400,
                dim: 20,
            },
            cost: CellCost {
                seconds: 0.1,
                points_per_sec: 4000.0,
            },
        }
    }

    fn artifact(cells: Vec<MatrixCell>) -> MatrixArtifact {
        MatrixArtifact {
            schema: MATRIX_SCHEMA.into(),
            id: "MATRIX_eval".into(),
            description: "test".into(),
            scale: "small".into(),
            smoke: false,
            host: HostMeta::capture(),
            total_seconds: 0.1,
            pareto: pareto_frontiers(&cells),
            cells,
        }
    }

    #[test]
    fn recommend_prefers_cheapest_within_band() {
        // rp is 0.005 below fd but half the memory: rp wins.
        let a = artifact(vec![
            cell("s1", "fd", Some(0.950), 200),
            cell("s1", "rp", Some(0.945), 100),
            // Clearly worse: out of the band despite being cheapest.
            cell("s1", "cs", Some(0.800), 50),
        ]);
        let recs = recommend(&a);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].sketch, "rp");
        assert_eq!(recs[0].sketch_bytes, 100);
    }

    #[test]
    fn recommend_covers_each_scenario_once() {
        let a = artifact(vec![
            cell("s2", "fd", Some(0.9), 100),
            cell("s1", "fd", Some(0.9), 100),
            cell("s1", "rp", Some(0.5), 10),
            cell("s3", "fd", None, 100), // AUC-less scenario: omitted.
        ]);
        let recs = recommend(&a);
        let names: Vec<&str> = recs.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(names, vec!["s1", "s2"]);
    }

    #[test]
    fn ensemble_averages_and_charges_all_arms() {
        use sketchad_linalg::rng::{gaussian_vec, seeded_rng};

        let cfg = DetectorConfig::new(3, 12).with_warmup(32);
        let mut ens = ScoreAveragingEnsemble::from_config(&cfg, 8);
        let mut fd = cfg.with_seed(cfg.seed ^ 0x9e37_79b9_7f4a_7c15).build_fd(8);
        let mut rng = seeded_rng(44);
        let mut last = (0.0, 0.0);
        for _ in 0..64 {
            let y = gaussian_vec(&mut rng, 8);
            last = (ens.process(&y), fd.process(&y));
        }
        assert_eq!(ens.processed(), 64);
        assert!(ens.is_warmed_up());
        assert!(last.0.is_finite());
        // The ensemble is the mean of four arms, one of which is this FD:
        // its resident bytes must strictly exceed the single arm's.
        let single = fd.sketch_resident_bytes().unwrap();
        assert!(ens.sketch_resident_bytes().unwrap() > single);
        assert_eq!(ens.dim(), 8);
        assert!(ens.name().contains("ensemble"));
    }
}
