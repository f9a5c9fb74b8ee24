//! Order statistics for host-time samples: median, quartiles and the
//! tail rule (the highest ladder percentile with at least ten samples
//! beyond it).

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let t = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * t
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile_sorted(&sorted(xs), 50.0)
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`, so in-run spreads read the same way
/// as the run-to-run spreads computed over a benchmark's outputs.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let n = v.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The percentile the tail rule picks for `n` samples: the highest
/// ladder entry with at least [`TAIL_MIN_BEYOND`] samples beyond it, or
/// 100 (the maximum) when even the median has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize >= TAIL_MIN_BEYOND)
        .unwrap_or(100.0)
}

/// `(percentile, value)` of the tail of unsorted samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let p = tail_percentile(xs.len());
    (p, percentile_sorted(&sorted(xs), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(19), 100.0);
        for n in [20, 100, 999, 1_000, 25_000] {
            let p = tail_percentile(n);
            let beyond = (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reads_the_chosen_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 99.0);
        assert!((v - 990.01).abs() < 1e-9, "{v}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
