//! Self-healing startup: retry budgets, deterministic backoff, and
//! per-stage timeouts.
//!
//! The recovery policy decides *whether* a failed launch is retried
//! (only transient faults are — see [`crate::LaunchError::is_retryable`]),
//! *when* (exponential backoff with deterministic jitter, charged to the
//! simulated clock, never to a wall-clock RNG), and *how long* any single
//! startup stage may run before the launch is torn down and classified as
//! a timeout. Everything here is a pure function of `(seed, pod index,
//! attempt)`, so two runs with the same seed heal identically.

use fastiov_simtime::rng::mix64;
use std::time::Duration;

/// Policy knobs of the engine's recovery layer.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Total launch attempts per pod (first try included). 1 disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub backoff_base: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub backoff_max: Duration,
    /// Jitter amplitude as a fraction of the backoff: the slept time is
    /// `backoff * (1 ± jitter_frac)`, the sign and magnitude drawn
    /// deterministically from `(seed, pod, attempt)`.
    pub jitter_frac: f64,
    /// Seed of the jitter hash. Experiment configs copy the fault-plane
    /// seed here so one `--seed` reproduces the whole run.
    pub seed: u64,
    /// Tear down and fail any launch whose single recorded stage exceeds
    /// this. `None` disables the check.
    pub stage_timeout: Option<Duration>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(160),
            jitter_frac: 0.25,
            seed: 0,
            stage_timeout: None,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never retries and never times stages out.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_attempts: 1,
            stage_timeout: None,
            ..RecoveryPolicy::default()
        }
    }

    /// Backoff to sleep after failed attempt number `attempt` (1-based),
    /// for the pod at `index`. Deterministic: exponential in the attempt,
    /// jittered by a hash of `(seed, index, attempt)` so concurrent pods
    /// retrying the same attempt don't re-herd on the same instant.
    pub fn backoff(&self, attempt: u32, index: u32) -> Duration {
        let exp =
            self.backoff_base.as_secs_f64() * f64::from(1u32 << attempt.min(20).saturating_sub(1));
        let capped = exp.min(self.backoff_max.as_secs_f64());
        let h = mix64(self.seed ^ (u64::from(index) << 32) ^ u64::from(attempt));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let factor = 1.0 + self.jitter_frac * (2.0 * unit - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_pod_attempt() {
        let p = RecoveryPolicy {
            seed: 42,
            ..RecoveryPolicy::default()
        };
        let q = RecoveryPolicy {
            seed: 42,
            ..RecoveryPolicy::default()
        };
        for attempt in 1..=4 {
            for index in [0u32, 7, 199] {
                assert_eq!(p.backoff(attempt, index), q.backoff(attempt, index));
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RecoveryPolicy {
            jitter_frac: 0.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff(1, 0), Duration::from_millis(10));
        assert_eq!(p.backoff(2, 0), Duration::from_millis(20));
        assert_eq!(p.backoff(3, 0), Duration::from_millis(40));
        // 10ms * 2^9 = 5.12s would exceed the 160ms cap.
        assert_eq!(p.backoff(10, 0), Duration::from_millis(160));
    }

    #[test]
    fn jitter_stays_within_the_configured_fraction() {
        let p = RecoveryPolicy {
            jitter_frac: 0.25,
            seed: 7,
            ..RecoveryPolicy::default()
        };
        let base = Duration::from_millis(10).as_secs_f64();
        for index in 0..64 {
            let b = p.backoff(1, index).as_secs_f64();
            assert!(b >= base * 0.75 - 1e-9 && b <= base * 1.25 + 1e-9, "{b}");
        }
    }

    #[test]
    fn different_pods_get_different_jitter() {
        let p = RecoveryPolicy {
            seed: 3,
            ..RecoveryPolicy::default()
        };
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32).map(|i| p.backoff(1, i)).collect();
        assert!(distinct.len() > 16, "jitter barely varies: {distinct:?}");
    }
}
