//! Order statistics for host-time samples and simulated latencies.

/// Median of `v` (mean of the two middle values when the count is even).
/// `None` when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones a Python check of the same
/// samples computes. One sample gives `(v, v)`; `None` when empty.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Nearest-rank `p`-quantile (`0 < p <= 1`) of integer samples: the
/// smallest sample with at least `p` of all samples at or below it. Exact
/// (a value that occurred), unlike a bucketed histogram bound. `None`
/// when `v` is empty.
pub fn percentile(v: &mut [u64], p: f64) -> Option<u64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[9.0]), Some((9.0, 9.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        let mut one = vec![42];
        assert_eq!(percentile(&mut one, 0.99), Some(42));
        assert_eq!(percentile(&mut [], 0.5), None);
        // p99 of 1000 samples leaves ten samples above it.
        let mut k: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut k, 0.99), Some(990));
    }
}
