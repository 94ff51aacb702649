//! Summary statistics used by the evaluation harness.
//!
//! The paper reports several distributions as boxplots (Fig. 3 FPS
//! distributions, Fig. 9b tile-intersection distributions). [`BoxplotSummary`]
//! reproduces the quartile/whisker convention the paper states: whiskers at
//! 1.5·IQR beyond the quartiles.

use serde::{Deserialize, Serialize};

/// Arithmetic mean; 0 for an empty slice.
#[inline]
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Population standard deviation; 0 for slices shorter than 2.
#[inline]
pub fn std_dev(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f32>() / xs.len() as f32).sqrt()
}

/// Geometric mean of positive values; 0 when any value is non-positive or the
/// slice is empty. Used for the paper's "geomean speedup" numbers (§7.3).
#[inline]
pub fn geomean(xs: &[f32]) -> f32 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f32>() / xs.len() as f32).exp()
}

/// Linear-interpolated percentile (`p ∈ [0, 100]`); 0 for an empty slice.
#[inline]
pub fn percentile(xs: &[f32], p: f32) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (p / 100.0) * (sorted.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = rank - lo as f32;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// Five-number summary plus 1.5·IQR whiskers, matching the paper's boxplots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotSummary {
    /// Minimum observation.
    pub min: f32,
    /// Lower whisker: smallest observation ≥ Q1 − 1.5·IQR.
    pub whisker_lo: f32,
    /// First quartile.
    pub q1: f32,
    /// Median.
    pub median: f32,
    /// Third quartile.
    pub q3: f32,
    /// Upper whisker: largest observation ≤ Q3 + 1.5·IQR.
    pub whisker_hi: f32,
    /// Maximum observation.
    pub max: f32,
    /// Arithmetic mean.
    pub mean: f32,
    /// Number of observations.
    pub count: usize,
}

impl BoxplotSummary {
    /// Summarize a sample. Returns `None` for an empty slice.
    #[inline]
    pub fn from_samples(xs: &[f32]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let q1 = percentile(xs, 25.0);
        let median = percentile(xs, 50.0);
        let q3 = percentile(xs, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut whisker_lo = f32::INFINITY;
        let mut whisker_hi = f32::NEG_INFINITY;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
            if x >= lo_fence {
                whisker_lo = whisker_lo.min(x);
            }
            if x <= hi_fence {
                whisker_hi = whisker_hi.max(x);
            }
        }
        // With interpolated quartiles the nearest in-fence observation can sit
        // inside the box; clamp whiskers to the box edges (matplotlib rule).
        whisker_lo = whisker_lo.min(q1);
        whisker_hi = whisker_hi.max(q3);
        Some(Self {
            min,
            whisker_lo,
            q1,
            median,
            q3,
            whisker_hi,
            max,
            mean: mean(xs),
            count: xs.len(),
        })
    }
}

/// Two-sided binomial test against `p = 0.5`, the significance test the user
/// study uses (Fig. 11: "binomial test on the average result; p < 0.01").
///
/// Returns the probability of observing a count at least as extreme as
/// `successes` out of `trials` under the null hypothesis of no preference.
#[inline]
pub fn binomial_test_two_sided(successes: u64, trials: u64) -> f64 {
    if trials == 0 {
        return 1.0;
    }
    let k = successes.min(trials);
    // P(X = i) for X ~ Binomial(n, 0.5) computed in log space.
    let n = trials;
    let log_half_n = n as f64 * 0.5f64.ln();
    let mut log_choose = 0.0f64; // ln C(n, 0)
    let mut pmf = vec![0.0f64; (n + 1) as usize];
    for i in 0..=n {
        if i > 0 {
            log_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        pmf[i as usize] = (log_choose + log_half_n).exp();
    }
    let p_obs = pmf[k as usize];
    let p: f64 = pmf.iter().filter(|&&pi| pi <= p_obs * (1.0 + 1e-7)).sum();
    p.min(1.0)
}

/// One-sided binomial test: probability of at least `successes` successes in
/// `trials` fair-coin flips. Used for the "users prefer ours" direction.
#[inline]
pub fn binomial_test_at_least(successes: u64, trials: u64) -> f64 {
    if trials == 0 {
        return 1.0;
    }
    let n = trials;
    let log_half_n = n as f64 * 0.5f64.ln();
    let mut log_choose = 0.0f64;
    let mut p = 0.0f64;
    for i in 0..=n {
        if i > 0 {
            log_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        if i >= successes {
            p += (log_choose + log_half_n).exp();
        }
    }
    p.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert!(BoxplotSummary::from_samples(&[]).is_none());
    }

    #[test]
    fn geomean_of_speedups() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-5);
        assert_eq!(geomean(&[1.0, -1.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-6);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-6);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn boxplot_detects_outlier() {
        let mut xs = vec![10.0; 20];
        for (i, x) in xs.iter_mut().enumerate() {
            *x += (i % 5) as f32 * 0.1;
        }
        xs.push(100.0);
        let s = BoxplotSummary::from_samples(&xs).unwrap();
        assert!(s.whisker_hi < 100.0);
    }

    #[test]
    fn binomial_test_extremes() {
        // All 96 of 96 comparisons preferring one method is overwhelming.
        assert!(binomial_test_two_sided(96, 96) < 1e-20);
        // A perfect 48/96 tie is not significant.
        assert!(binomial_test_two_sided(48, 96) > 0.9);
        assert_eq!(binomial_test_two_sided(0, 0), 1.0);
    }

    #[test]
    fn binomial_at_least_monotone() {
        let p_60 = binomial_test_at_least(60, 96);
        let p_70 = binomial_test_at_least(70, 96);
        assert!(p_70 < p_60);
        assert!(binomial_test_at_least(0, 96) > 0.999);
    }

    proptest! {
        #[test]
        fn boxplot_is_ordered(xs in proptest::collection::vec(-100.0f32..100.0, 1..200)) {
            let s = BoxplotSummary::from_samples(&xs).unwrap();
            prop_assert!(s.min <= s.whisker_lo + 1e-6);
            prop_assert!(s.whisker_lo <= s.q1 + 1e-4);
            prop_assert!(s.q1 <= s.median + 1e-4);
            prop_assert!(s.median <= s.q3 + 1e-4);
            prop_assert!(s.q3 <= s.whisker_hi + 1e-4);
            prop_assert!(s.whisker_hi <= s.max + 1e-6);
        }

        #[test]
        fn percentile_within_range(xs in proptest::collection::vec(-100.0f32..100.0, 1..100), p in 0.0f32..100.0) {
            let v = percentile(&xs, p);
            let lo = xs.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
        }

        #[test]
        fn binomial_p_in_unit_interval(k in 0u64..50, n in 1u64..50) {
            prop_assume!(k <= n);
            let p = binomial_test_two_sided(k, n);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
