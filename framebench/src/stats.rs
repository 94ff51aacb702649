//! Order statistics over per-frame samples.

use std::time::Duration;

/// Samples a tail percentile must leave beyond it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `p`th percentile among `n`
/// samples: the smallest rank with at least `p`% of samples at or below it.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank `p`th percentile of `sorted` (ascending); `None` when empty.
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median; 0 when there are no samples.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(values), 50).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&v[..1], 90), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 50), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(0, 90), 0);
        assert_eq!(beyond(20, 50), 10);
        assert_eq!(beyond(19, 50), 9);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
