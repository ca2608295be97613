//! Order statistics: the nearest-rank percentile the simulator's reports
//! use, the median, and quartiles by Python's
//! `statistics.quantiles(values, n=4)` (its default, exclusive method).

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples when the count is even).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// computes them: cut points at `i (n + 1) / 4` of the sorted samples,
/// interpolated linearly, indices clamped to the sample range.
///
/// # Panics
///
/// With fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining property, checked by brute force: the reported
    /// value is a sample, at least `q` of the samples are at or below
    /// it, and fewer than `q` are strictly below it.
    #[test]
    fn nearest_rank_matches_exact_sorted_sample_quantiles() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for n in 1..=60usize {
            let mut v: Vec<f64> = (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 1000) as f64 / 10.0
                })
                .collect();
            v.sort_by(f64::total_cmp);
            for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let p = nearest_rank(&v, q).unwrap();
                assert!(v.contains(&p));
                let at_or_below = v.iter().filter(|&&s| s <= p).count() as f64;
                let below = v.iter().filter(|&&s| s < p).count() as f64;
                assert!(at_or_below >= q * n as f64, "n={n} q={q}");
                assert!(below < q * n as f64, "n={n} q={q}");
            }
        }
        assert_eq!(nearest_rank(&[], 0.5), None);
        // Twenty samples 1..=20: p95 is the 19th, p50 the 10th.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.95), Some(19.0));
        assert_eq!(nearest_rank(&v, 0.5), Some(10.0));
    }

    /// Expected values printed by Python 3's
    /// `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let q = |d: &[f64]| {
            let (a, b) = quartiles(d);
            ((a * 1e9).round() / 1e9, (b * 1e9).round() / 1e9)
        };
        assert_eq!(q(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(q(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(q(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        let ten = [5.1, 4.9, 5.3, 5.0, 5.2, 6.0, 4.8, 5.05, 5.15, 5.4];
        assert_eq!(q(&ten), (4.975, 5.325));
        assert_eq!(median(&ten), 5.125);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
    }
}
