//! Order statistics: medians, nearest-rank percentiles and the tail
//! picker that never reports a percentile the sample cannot support.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail picker tries, highest first. The end-to-end
/// tail metric is named for the first; the others serve small samples.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// Median of `xs` (mean of the middle pair for even lengths); `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Index of the nearest-rank `pct` percentile in a sorted sample of
/// `n` values (`n > 0`).
fn rank(pct: f64, n: usize) -> usize {
    let k = (pct * n as f64 / 100.0).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Nearest-rank `pct` percentile of an ascending `sorted` sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(pct, sorted.len())])
}

/// Number of samples strictly beyond the nearest-rank `pct` percentile
/// of `n` samples.
pub fn beyond(pct: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(pct, n)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, and its value; `None` when even
/// the median has too few.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| beyond(p, n) >= MIN_BEYOND)
        .map(|&p| (p, sorted[rank(p, n)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(beyond(99.0, 100), 1);
    }

    #[test]
    fn tail_never_reports_a_percentile_with_fewer_than_ten_beyond() {
        for n in 0..5000 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            match tail(&xs) {
                Some((p, v)) => {
                    let beyond_v = xs.iter().filter(|&&x| x > v).count();
                    assert!(beyond_v >= MIN_BEYOND, "n={n}: p{p} has {beyond_v} beyond");
                    // The highest supported rung is chosen.
                    let higher = TAIL_LADDER.iter().filter(|&&q| q > p);
                    for &q in higher {
                        assert!(beyond(q, n) < MIN_BEYOND, "n={n}: p{q} was supported");
                    }
                }
                None => assert!(beyond(50.0, n) < MIN_BEYOND, "n={n}: median was supported"),
            }
        }
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 989.0)));
        assert_eq!(tail(&xs[..999]).map(|t| t.0), Some(95.0));
    }
}
