//! Order statistics over timing samples.

/// Sorted copy of `values` (total order, so a stray NaN cannot panic a sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the middle element, or the mean of the two middle
/// elements for an even count. Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest element with at
/// least `q` of the samples at or below it. Zero for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [9.0, 2.0, 7.0, 4.0, 5.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // A single outlier among 200 samples does not reach p99.
        let mut w = vec![1.0; 199];
        w.push(1000.0);
        assert_eq!(percentile(&w, 0.99), 1.0);
        assert_eq!(percentile(&w, 1.0), 1000.0);
    }
}
