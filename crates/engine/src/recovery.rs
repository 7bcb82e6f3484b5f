//! Self-healing startup: a retry budget and deterministic backoff.
//!
//! The recovery layer decides *whether* a failed launch is retried (only
//! injected faults are — see [`crate::LaunchError::retryable`]) and
//! *when*: exponential backoff with deterministic jitter, charged to the
//! simulated clock, never to a wall-clock RNG. The backoff is a pure
//! function of `(seed, pod index, attempt)`, where the seed is the host
//! fault plane's, so two runs with the same seed heal identically.

use fastiov_simtime::rng::mix64;
use std::time::Duration;

/// Total launch attempts per pod, the first try included.
pub const MAX_ATTEMPTS: u32 = 3;
/// Backoff before the second attempt; it doubles per further attempt.
pub(crate) const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling the exponential backoff saturates at.
pub(crate) const BACKOFF_MAX: Duration = Duration::from_millis(160);
/// Jitter amplitude as a fraction of the backoff: the slept time is
/// `backoff * (1 ± JITTER_FRAC)`.
pub const JITTER_FRAC: f64 = 0.25;

/// The un-jittered backoff, in seconds, after failed attempt number
/// `attempt` (1-based).
fn nominal(attempt: u32) -> f64 {
    let exp = BACKOFF_BASE.as_secs_f64() * f64::from(1u32 << attempt.min(20).saturating_sub(1));
    exp.min(BACKOFF_MAX.as_secs_f64())
}

/// Backoff to sleep after failed attempt number `attempt` (1-based), for
/// the pod at `index`. Deterministic: exponential in the attempt,
/// jittered by a hash of `(seed, index, attempt)` so concurrent pods
/// retrying the same attempt don't re-herd on the same instant.
pub fn backoff(seed: u64, attempt: u32, index: u32) -> Duration {
    let h = mix64(seed ^ (u64::from(index) << 32) ^ u64::from(attempt));
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let factor = 1.0 + JITTER_FRAC * (2.0 * unit - 1.0);
    Duration::from_secs_f64((nominal(attempt) * factor).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_pod_attempt() {
        for attempt in 1..=4 {
            for index in [0u32, 7, 199] {
                assert_eq!(backoff(42, attempt, index), backoff(42, attempt, index));
            }
        }
        let other_seed: Vec<Duration> = (0..8).map(|i| backoff(43, 1, i)).collect();
        let seed: Vec<Duration> = (0..8).map(|i| backoff(42, 1, i)).collect();
        assert_ne!(seed, other_seed);
    }

    #[test]
    fn backoff_doubles_exactly_and_saturates() {
        let ms = |attempt| Duration::from_secs_f64(nominal(attempt));
        assert_eq!(ms(1), Duration::from_millis(10));
        assert_eq!(ms(2), Duration::from_millis(20));
        assert_eq!(ms(3), Duration::from_millis(40));
        assert_eq!(ms(4), Duration::from_millis(80));
        assert_eq!(ms(5), Duration::from_millis(160));
        // 10ms * 2^9 = 5.12s would exceed the 160ms cap.
        assert_eq!(ms(10), Duration::from_millis(160));
    }

    #[test]
    fn jitter_stays_within_a_quarter() {
        for attempt in [1, 3, 10] {
            let base = nominal(attempt);
            for index in 0..64 {
                let b = backoff(7, attempt, index).as_secs_f64();
                assert!(b >= base * 0.75 - 1e-9 && b <= base * 1.25 + 1e-9, "{b}");
            }
        }
    }

    #[test]
    fn different_pods_get_different_jitter() {
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32).map(|i| backoff(3, 1, i)).collect();
        assert!(distinct.len() > 16, "jitter barely varies: {distinct:?}");
    }
}
