//! Order statistics over samples in seconds.

/// Nearest-rank median of a sample; 0 for an empty one.
pub fn p50(sample: &[f64]) -> f64 {
    rank(sample, |n| n.div_ceil(2))
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it: rank `n - 10`, which is the p95 of a 200-sample wave. Samples of ten
/// or fewer fall back to the minimum. 0 for an empty sample.
pub fn p95(sample: &[f64]) -> f64 {
    rank(sample, |n| n.saturating_sub(10).max(1))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Median of per-wave or per-host values (mean of the middle two for an even
/// count); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn sorted(sample: &[f64]) -> Vec<f64> {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The sample's value at 1-based rank `pick(n)`.
fn rank(sample: &[f64], pick: impl Fn(usize) -> usize) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let s = sorted(sample);
    s[pick(s.len()).clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_leaves_ten_samples_beyond_it() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&sample), 190.0);
        assert_eq!(p50(&sample), 100.0);
        assert_eq!(mean(&sample), 100.5);
        assert_eq!(p95(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(p95(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
