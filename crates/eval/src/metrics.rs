//! Ranking metrics for anomaly scores.
//!
//! All metrics take parallel `scores` / `labels` slices (higher score = more
//! anomalous, `true` = anomaly). ROC-AUC is computed rank-based with average
//! ranks for ties, which matches the probabilistic definition
//! `P(score_anom > score_norm) + ½·P(=)` exactly.

/// Area under the ROC curve.
///
/// Returns `None` when either class is absent (AUC is undefined then).
///
/// # Panics
/// Panics when the slices differ in length or scores contain NaN.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }

    // Average ranks with tie handling.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&i, &j| {
        scores[i]
            .partial_cmp(&scores[j])
            .expect("scores must not contain NaN")
    });

    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        // Ranks are 1-based; ties share the average rank of the run [i, j].
        let avg_rank = ((i + 1 + j + 1) as f64) / 2.0;
        for &idx in &order[i..=j] {
            if labels[idx] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }

    let n_pos_f = n_pos as f64;
    let n_neg_f = n_neg as f64;
    Some((rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg_f))
}

/// Average precision (area under the precision-recall curve, step-wise).
///
/// Returns `None` when there are no positive labels.
///
/// # Panics
/// Panics on length mismatch or NaN scores.
pub fn average_precision(scores: &[f64], labels: &[bool]) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    if n_pos == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&i, &j| {
        scores[j]
            .partial_cmp(&scores[i])
            .expect("scores must not contain NaN")
    });
    let mut tp = 0usize;
    let mut ap = 0.0;
    for (seen, &idx) in order.iter().enumerate() {
        if labels[idx] {
            tp += 1;
            ap += tp as f64 / (seen + 1) as f64;
        }
    }
    Some(ap / n_pos as f64)
}

/// Precision among the `k` highest-scoring points.
///
/// Returns `None` when `k == 0` or the stream is empty.
pub fn precision_at_k(scores: &[f64], labels: &[bool], k: usize) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    if k == 0 || scores.is_empty() {
        return None;
    }
    let k = k.min(scores.len());
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&i, &j| {
        scores[j]
            .partial_cmp(&scores[i])
            .expect("scores must not contain NaN")
    });
    let hits = order[..k].iter().filter(|&&i| labels[i]).count();
    Some(hits as f64 / k as f64)
}

/// Best achievable F1 over all score thresholds.
///
/// Returns `None` when there are no positive labels.
pub fn best_f1(scores: &[f64], labels: &[bool]) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let n_pos = labels.iter().filter(|&&l| l).count();
    if n_pos == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&i, &j| {
        scores[j]
            .partial_cmp(&scores[i])
            .expect("scores must not contain NaN")
    });
    let mut tp = 0usize;
    let mut best = 0.0f64;
    for (seen, &idx) in order.iter().enumerate() {
        if labels[idx] {
            tp += 1;
        }
        let predicted_pos = seen + 1;
        let precision = tp as f64 / predicted_pos as f64;
        let recall = tp as f64 / n_pos as f64;
        if precision + recall > 0.0 {
            best = best.max(2.0 * precision * recall / (precision + recall));
        }
    }
    Some(best)
}

/// Prequential (chunked) ROC-AUC: the stream is split into consecutive
/// chunks of `chunk` points and AUC is computed per chunk, yielding an
/// accuracy-over-time series (figure F5). Returns `(chunk midpoint index,
/// AUC)` pairs; chunks with a single class yield `None`.
///
/// # Panics
/// Panics when `chunk == 0` or the slices differ in length.
pub fn prequential_auc(scores: &[f64], labels: &[bool], chunk: usize) -> Vec<(usize, Option<f64>)> {
    assert!(chunk > 0, "chunk must be positive");
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let mut out = Vec::new();
    let mut start = 0;
    while start + chunk <= scores.len() {
        let end = start + chunk;
        out.push((
            (start + end) / 2,
            roc_auc(&scores[start..end], &labels[start..end]),
        ));
        start = end;
    }
    out
}

/// Empirical quantile of the scores on **normal-labeled** points: the
/// operating threshold a deployment running at false-positive rate
/// `1 − q` would use. Linear interpolation between order statistics.
///
/// Returns `None` when there are no normal points.
///
/// # Panics
/// Panics on length mismatch, NaN scores, or `q` outside `[0, 1]`.
pub(crate) fn normal_score_quantile(scores: &[f64], labels: &[bool], q: f64) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let mut normal: Vec<f64> = scores
        .iter()
        .zip(labels.iter())
        .filter(|(_, &l)| !l)
        .map(|(&s, _)| s)
        .collect();
    if normal.is_empty() {
        return None;
    }
    normal.sort_by(|a, b| a.partial_cmp(b).expect("scores must not contain NaN"));
    let pos = q * (normal.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(normal[lo] * (1.0 - frac) + normal[hi] * frac)
}

/// Mean detection delay over anomaly **episodes** (maximal runs of
/// consecutive anomaly labels), in points.
///
/// For each episode the delay is the offset of the first in-episode score
/// strictly above `threshold` (0 = caught on arrival); an episode the
/// detector never flags is censored at its full length. The mean over
/// episodes is the "how long does a real event run before the alarm"
/// number that AUC — a pure ranking metric — cannot express.
///
/// Returns `None` when the stream has no anomaly episodes.
///
/// # Panics
/// Panics on length mismatch or when an anomaly-position score is NaN.
pub(crate) fn detection_delay(scores: &[f64], labels: &[bool], threshold: f64) -> Option<f64> {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let mut episodes = 0usize;
    let mut total_delay = 0.0f64;
    let mut i = 0;
    while i < labels.len() {
        if !labels[i] {
            i += 1;
            continue;
        }
        // Episode [i, j).
        let mut j = i;
        while j < labels.len() && labels[j] {
            j += 1;
        }
        episodes += 1;
        let mut delay = (j - i) as f64; // censored: never detected
        for (offset, &s) in scores[i..j].iter().enumerate() {
            assert!(!s.is_nan(), "scores must not contain NaN");
            if s > threshold {
                delay = offset as f64;
                break;
            }
        }
        total_delay += delay;
        i = j;
    }
    if episodes == 0 {
        None
    } else {
        Some(total_delay / episodes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scores = [0.1, 0.2, 0.9, 0.95];
        let labels = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &labels), Some(1.0));
        assert_eq!(average_precision(&scores, &labels), Some(1.0));
        assert_eq!(best_f1(&scores, &labels), Some(1.0));
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let scores = [0.9, 0.95, 0.1, 0.2];
        let labels = [false, false, true, true];
        assert_eq!(roc_auc(&scores, &labels), Some(0.0));
    }

    #[test]
    fn all_tied_scores_give_auc_half() {
        let scores = [0.5; 6];
        let labels = [true, false, true, false, false, true];
        let auc = roc_auc(&scores, &labels).unwrap();
        assert!((auc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_mixed_case() {
        // scores: anomalies at 0.8, 0.4; normals at 0.6, 0.2.
        // Pairs: (0.8 vs 0.6)=win, (0.8 vs 0.2)=win, (0.4 vs 0.6)=loss,
        // (0.4 vs 0.2)=win → AUC = 3/4.
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert_eq!(roc_auc(&scores, &labels), Some(0.75));
    }

    #[test]
    fn auc_undefined_for_single_class() {
        assert_eq!(roc_auc(&[1.0, 2.0], &[true, true]), None);
        assert_eq!(roc_auc(&[1.0, 2.0], &[false, false]), None);
    }

    #[test]
    fn average_precision_known_case() {
        // Ranked: pos, neg, pos → precisions at hits: 1/1, 2/3 → AP = 5/6.
        let scores = [0.9, 0.5, 0.4];
        let labels = [true, false, true];
        let ap = average_precision(&scores, &labels).unwrap();
        assert!((ap - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn precision_at_k_basics() {
        let scores = [0.9, 0.8, 0.1, 0.05];
        let labels = [true, false, true, false];
        assert_eq!(precision_at_k(&scores, &labels, 1), Some(1.0));
        assert_eq!(precision_at_k(&scores, &labels, 2), Some(0.5));
        assert_eq!(precision_at_k(&scores, &labels, 0), None);
        // k beyond n clamps.
        assert_eq!(precision_at_k(&scores, &labels, 10), Some(0.5));
    }

    #[test]
    fn best_f1_mixed() {
        let scores = [0.9, 0.8, 0.7, 0.1];
        let labels = [true, false, true, false];
        // Thresholding below 0.7: tp=2, fp=1 → P=2/3, R=1 → F1=0.8.
        let f1 = best_f1(&scores, &labels).unwrap();
        assert!((f1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prequential_auc_chunks_correctly() {
        // Two chunks of 4: first perfectly ranked, second inverted.
        let scores = [0.9, 0.8, 0.1, 0.2, 0.1, 0.2, 0.9, 0.8];
        let labels = [true, true, false, false, true, true, false, false];
        let seq = prequential_auc(&scores, &labels, 4);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0], (2, Some(1.0)));
        assert_eq!(seq[1], (6, Some(0.0)));
        // Trailing partial chunk is dropped.
        let seq = prequential_auc(&scores[..7], &labels[..7], 4);
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn prequential_auc_single_class_chunk_is_none() {
        let scores = [0.1, 0.2];
        let labels = [false, false];
        let seq = prequential_auc(&scores, &labels, 2);
        assert_eq!(seq[0].1, None);
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn prequential_auc_zero_chunk_panics() {
        prequential_auc(&[1.0], &[true], 0);
    }

    #[test]
    fn normal_quantile_interpolates() {
        let scores = [1.0, 2.0, 3.0, 4.0, 100.0];
        let labels = [false, false, false, false, true];
        // Four normal scores 1..4: median = 2.5, max = 4.
        assert_eq!(normal_score_quantile(&scores, &labels, 0.5), Some(2.5));
        assert_eq!(normal_score_quantile(&scores, &labels, 1.0), Some(4.0));
        assert_eq!(normal_score_quantile(&scores, &labels, 0.0), Some(1.0));
        // No normals → undefined.
        assert_eq!(normal_score_quantile(&[1.0], &[true], 0.5), None);
    }

    #[test]
    fn detection_delay_counts_episode_offsets() {
        // Episode 1 (len 3): flagged at offset 1. Episode 2 (len 2): never
        // flagged → censored at 2. Mean = (1 + 2) / 2.
        let labels = [false, true, true, true, false, true, true];
        let scores = [0.0, 0.1, 0.9, 0.9, 0.0, 0.1, 0.2];
        let d = detection_delay(&scores, &labels, 0.5).unwrap();
        assert!((d - 1.5).abs() < 1e-12);
    }

    #[test]
    fn detection_delay_zero_when_caught_on_arrival() {
        let labels = [false, true, false];
        let scores = [0.0, 1.0, 0.0];
        assert_eq!(detection_delay(&scores, &labels, 0.5), Some(0.0));
    }

    #[test]
    fn detection_delay_none_without_episodes() {
        assert_eq!(detection_delay(&[0.1, 0.2], &[false, false], 0.5), None);
    }

    #[test]
    fn auc_is_rank_invariant() {
        // Monotone transforms of scores leave AUC unchanged.
        let scores: [f64; 5] = [0.1, 0.7, 0.3, 0.9, 0.5];
        let labels = [false, true, false, true, false];
        let a1 = roc_auc(&scores, &labels).unwrap();
        let transformed: Vec<f64> = scores.iter().map(|s| s.exp() * 100.0).collect();
        let a2 = roc_auc(&transformed, &labels).unwrap();
        assert!((a1 - a2).abs() < 1e-12);
    }
}
