//! Summary statistics for startup-time distributions.

use std::time::Duration;

/// Summary of a duration sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Minimum.
    pub min: Duration,
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum.
    pub max: Duration,
}

impl Summary {
    /// Computes the summary of a sample. Returns `None` for an empty one.
    pub fn from_durations(sample: &[Duration]) -> Option<Summary> {
        let mut sorted = sample.to_vec();
        sorted.sort_unstable();
        let max = *sorted.last()?;
        let total: Duration = sorted.iter().sum();
        Some(Summary {
            n: sorted.len(),
            mean: total / sorted.len() as u32,
            min: sorted[0],
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            max,
        })
    }

    /// Mean in (simulated) seconds.
    pub fn mean_secs(&self) -> f64 {
        self.mean.as_secs_f64()
    }

    /// p99 in (simulated) seconds.
    pub fn p99_secs(&self) -> f64 {
        self.p99.as_secs_f64()
    }
}

/// Nearest-rank percentile of an already-sorted sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_durations(&ms(&[10, 20, 30, 40, 100])).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, Duration::from_millis(40));
        assert_eq!(s.min, Duration::from_millis(10));
        assert_eq!(s.p50, Duration::from_millis(30));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(s.p99, Duration::from_millis(100));
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(Summary::from_durations(&[]).is_none());
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = ms(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(percentile(&sorted, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&sorted, 0.5), Duration::from_millis(5));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_millis(10));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_empty() {
        let _ = percentile(&[], 0.5);
    }
}
