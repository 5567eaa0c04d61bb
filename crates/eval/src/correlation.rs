//! Score-fidelity statistics (experiment F4): how closely sketched scores
//! track the exact detector's scores.

/// Pearson linear correlation coefficient.
///
/// Returns `None` for fewer than 2 points or zero variance in either input.
///
/// # Panics
/// Panics on length mismatch.
pub(crate) fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let n = x.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        let dx = a - mx;
        let dy = b - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (Pearson on average ranks, tie-aware).
///
/// Returns `None` under the same conditions as `pearson`.
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let rx = average_ranks(x);
    let ry = average_ranks(y);
    pearson(&rx, &ry)
}

/// Average ranks (1-based; ties share the mean rank of their run).
pub(crate) fn average_ranks(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| x[i].partial_cmp(&x[j]).expect("finite values"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && x[order[j + 1]] == x[order[i]] {
            j += 1;
        }
        let avg = ((i + 1 + j + 1) as f64) / 2.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Mean relative error `mean(|x_i − y_i| / max(|y_i|, floor))` of the
/// approximation `x` against the reference `y`.
pub fn mean_relative_error(x: &[f64], y: &[f64], floor: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    let sum: f64 = x
        .iter()
        .zip(y.iter())
        .map(|(&a, &b)| (a - b).abs() / b.abs().max(floor))
        .sum();
    sum / x.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_none() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0], &[2.0]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect(); // monotone
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 1.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let s = spearman(&x, &y).unwrap();
        assert!(s > 0.9 && s <= 1.0);
    }

    #[test]
    fn ranks_average_on_ties() {
        let r = average_ranks(&[10.0, 20.0, 10.0]);
        assert_eq!(r, vec![1.5, 3.0, 1.5]);
    }

    #[test]
    fn mean_relative_error_basics() {
        let x = [1.1, 2.2];
        let y = [1.0, 2.0];
        let e = mean_relative_error(&x, &y, 1e-9);
        assert!((e - 0.1).abs() < 1e-9);
        assert_eq!(mean_relative_error(&[], &[], 1e-9), 0.0);
    }
}
