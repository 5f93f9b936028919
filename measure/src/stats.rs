//! Order statistics shared by the workloads and `compare`.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least a `p` share of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Tail percentiles a timing may be reported at, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.80];

/// The highest tail percentile that leaves at least ten samples beyond it,
/// so a tail figure never rests on a handful of outliers. Falls back to the
/// median for fewer than 50 samples.
pub fn tail_percentile(samples: usize) -> f64 {
    TAILS.into_iter().find(|p| (1.0 - p) * samples as f64 >= 10.0 - 1e-9).unwrap_or(0.5)
}

/// Median with the midpoint rule for even counts (Python's
/// `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones a Python check computes from the same runs. A single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Sorted copy, NaN-safe (NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.9), 90.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 0.95 · 10 = 9.5 → rank 10.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&t, 0.95), 10.0);
        assert_eq!(nearest_rank(&t, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 0.99);
        assert_eq!(tail_percentile(1_000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(400), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(107), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.80);
        assert_eq!(tail_percentile(60), 0.80);
        assert_eq!(tail_percentile(50), 0.80);
        assert_eq!(tail_percentile(49), 0.5);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }
}
