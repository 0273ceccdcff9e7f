//! The benchmark's own arithmetic: medians, quartile spreads, nearest-rank
//! percentiles and geometric means.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie beyond
/// the chosen rank: such a percentile is decided by a handful of outliers and
/// would not repeat.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return Err(format!("p{p} of {n} samples is undefined"));
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle two for an even count; `NaN` when
/// empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of strictly positive samples (`NaN` when empty or when a
/// sample is not positive).
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() || samples.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: percentile must sort.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), Ok(50.0));
        assert_eq!(percentile(&xs, 90.0), Ok(90.0));
        assert_eq!(percentile(&xs, 75.0), Ok(75.0));
        // ceil(0.5 * 21) = 11: the 11th smallest, 10 beyond it.
        assert_eq!(percentile(&ramp(21), 50.0), Ok(11.0));
        assert_eq!(percentile(&ramp(1000), 99.0), Ok(990.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // p99 of 999 samples: rank 990, only 9 beyond.
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        // p95 of 100: rank 95, 5 beyond.
        assert!(percentile(&ramp(100), 95.0).is_err());
        // p50 of 19: rank 10, 9 beyond.
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(100), 0.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        // Every row weighs the same: scaling one row by k scales the mean
        // by k^(1/n).
        let base = geomean(&[1.0, 2.0, 3.0, 4.0]);
        let scaled = geomean(&[1.0, 2.0, 3.0, 4.0 * 16.0]);
        assert!((scaled / base - 2.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
