//! Order statistics over the benchmark's own samples.

/// Median of `values` (mean of the two middle ones for an even count);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value a tenth of the way up the sorted `values`, interpolated
/// between neighbours; `0.0` when empty.
pub fn lower_decile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n => {
            let pos = 0.1 * (n - 1) as f64;
            let (i, frac) = (pos as usize, pos.fract());
            v[i] + (v[(i + 1).min(n - 1)] - v[i]) * frac
        }
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spreads printed here
/// are the ones the acceptance procedure computes.  Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run (or
/// window-to-window) spread every bound is compared with.  `0.0` when
/// there are fewer than two values or the median is zero.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The value at quantile `q` of a bucketed histogram, interpolated
/// linearly inside the bucket that holds it.
///
/// `bucket_at(q)` returns the inclusive `(low, high)` value range of the
/// bucket holding quantile `q`.  The cumulative share below and up to that
/// bucket is found by bisecting `q`, so only the histogram's public
/// quantile query is needed.  A bucketed quantile alone is a step function
/// (3 % steps in the product's histogram): two runs that differ by less
/// than a step would read exactly the same.
pub fn interpolated_quantile(q: f64, bucket_at: impl Fn(f64) -> (u64, u64)) -> f64 {
    let (low, high) = bucket_at(q);
    // Largest share still below the bucket.
    let (mut a, mut b) = (0.0f64, q);
    for _ in 0..40 {
        let mid = (a + b) / 2.0;
        if bucket_at(mid).1 < low {
            a = mid;
        } else {
            b = mid;
        }
    }
    let below = a;
    // Largest share still inside the bucket.
    let (mut a, mut b) = (q, 1.0f64);
    if bucket_at(1.0).1 <= high {
        a = 1.0;
    } else {
        for _ in 0..40 {
            let mid = (a + b) / 2.0;
            if bucket_at(mid).1 <= high {
                a = mid;
            } else {
                b = mid;
            }
        }
    }
    let upto = a;
    let width = (high - low + 1) as f64;
    if upto <= below {
        return low as f64 + width / 2.0;
    }
    low as f64 + width * ((q - below) / (upto - below)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn lower_decile_interpolates() {
        let v: Vec<f64> = (0..=20).rev().map(f64::from).collect();
        assert!((lower_decile(&v) - 2.0).abs() < 1e-12);
        assert!((lower_decile(&[5.0, 1.0]) - 1.4).abs() < 1e-12);
        assert_eq!(lower_decile(&[7.0]), 7.0);
    }

    #[test]
    fn interpolation_is_linear_inside_a_bucket() {
        // 100 samples: 40 in [0,9], 60 in [10,19].
        let bucket_at = |q: f64| if q <= 0.4 { (0, 9) } else { (10, 19) };
        let p70 = interpolated_quantile(0.7, bucket_at);
        assert!((p70 - 15.0).abs() < 1e-6, "{p70}");
        let p20 = interpolated_quantile(0.2, bucket_at);
        assert!((p20 - 5.0).abs() < 1e-6, "{p20}");
    }
}
