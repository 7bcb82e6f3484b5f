//! Deterministic, seed-driven fault injection for the passthrough stack.
//!
//! Real secure-container fleets see transient failures at every layer of
//! the startup path: VFIO ioctls fail under contention, page pinning
//! fails under memory pressure, VF links time out, pooled VMs come back
//! poisoned. This crate provides the *fault plane* — a shared
//! [`FaultPlane`] consulted at each such site — so those failures can be
//! injected reproducibly and the recovery machinery above (retry,
//! backoff, graceful degradation) can be measured.
//!
//! Determinism is the core contract: every injection decision is a pure
//! function of `(seed, site, key, per-(site,key) call count)` where `key`
//! is a *stable identity* (the pod or pool-VM pid performing the
//! operation), never a global call index. The schedule therefore depends
//! only on the seed and the shape of the workload — not on thread
//! interleaving — and two runs with the same seed inject exactly the
//! same faults even at 200-way concurrency. No wall clock and no global
//! RNG are involved. Every injected fault is a transient error: a retry
//! of the failed operation may succeed.

#![warn(missing_docs)]

use fastiov_simtime::rng::mix64;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Well-known injection sites, one per real failure point in the stack.
pub mod sites {
    /// `VFIO_GROUP_SET_CONTAINER` — attaching an IOMMU group.
    pub const VFIO_GROUP_ATTACH: &str = "vfio-group-attach";
    /// `VFIO_GROUP_GET_DEVICE_FD` — opening a device from its devset.
    pub const VFIO_DEV_OPEN: &str = "vfio-dev-open";
    /// Page pinning during `VFIO_IOMMU_MAP_DMA` (memory pressure).
    pub const DMA_PIN: &str = "dma-pin";
    /// IOVA→HPA installation in the I/O page table.
    pub const IOMMU_MAP: &str = "iommu-map";
    /// Registering unzeroed frames with the fastiovd scrubber.
    pub const SCRUB_REGISTER: &str = "scrub-register";
    /// Guest VF driver bring-up / link negotiation.
    pub const VF_LINK: &str = "vf-link";
    /// Secure recycle of a warm-pool VM.
    pub const POOL_RECYCLE: &str = "pool-recycle";
    /// Health check of a claimed warm-pool VM.
    pub const WARM_CLAIM: &str = "warm-claim";

    /// Every real injection site, in report order.
    pub const ALL: &[&str] = &[
        DMA_PIN,
        IOMMU_MAP,
        POOL_RECYCLE,
        SCRUB_REGISTER,
        VF_LINK,
        VFIO_DEV_OPEN,
        VFIO_GROUP_ATTACH,
        WARM_CLAIM,
    ];
}

/// An injected (transient) failure, carrying the site it fired at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that produced the fault.
    pub site: &'static str,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected transient fault at {}", self.site)
    }
}

impl std::error::Error for FaultError {}

/// When a fault point fires.
#[derive(Debug, Clone, Copy)]
pub enum Trigger {
    /// Fire on each check independently with this probability.
    Probability(f64),
    /// Fire exactly once, on check number `n` of a `(site, key)` pair
    /// (1-based).
    Once(u64),
}

/// One configured fault: a site and a trigger. Firing fails the
/// operation with a transient error.
#[derive(Debug, Clone, Copy)]
pub struct FaultPoint {
    /// Site name (usually one of [`sites`]).
    pub site: &'static str,
    /// Firing rule.
    pub trigger: Trigger,
}

/// Per-site counters, all monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Times the site was consulted.
    pub checks: u64,
    /// Errors injected.
    pub errors: u64,
    /// Retries the recovery layer charged to this site.
    pub retries: u64,
    /// Graceful-degradation fallbacks taken because of this site.
    pub fallbacks: u64,
}

/// FNV-1a over the site name, so sites salt the hash stably.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The shared fault plane. One per [`Host`](https://docs.rs); every
/// instrumented layer holds an `Arc` and calls [`FaultPlane::check`] at
/// its failure site.
pub struct FaultPlane {
    seed: u64,
    /// Points grouped by site. Empty ⇒ the plane is disabled and every
    /// check is a no-op (the fault-free fast path).
    points: BTreeMap<&'static str, Vec<FaultPoint>>,
    state: TrackedMutex<PlaneState>,
}

/// What a plane has counted so far.
#[derive(Default)]
struct PlaneState {
    /// Per-(site, key) check counts — the deterministic "time" axis.
    counters: BTreeMap<(u64, u64), u64>,
    stats: BTreeMap<&'static str, SiteStats>,
}

impl FaultPlane {
    /// A plane that never injects anything. `check` short-circuits
    /// without touching any counter, so fault-free numbers are
    /// bit-for-bit identical to a build without the plane.
    pub fn disabled() -> Arc<Self> {
        Self::with_points(0, Vec::new())
    }

    /// Builds a plane from an explicit point list.
    pub fn with_points(seed: u64, points: Vec<FaultPoint>) -> Arc<Self> {
        let mut by_site: BTreeMap<&'static str, Vec<FaultPoint>> = BTreeMap::new();
        for p in points {
            by_site.entry(p.site).or_default().push(p);
        }
        Arc::new(FaultPlane {
            seed,
            points: by_site,
            state: TrackedMutex::new(LockClass::FaultPlane, PlaneState::default()),
        })
    }

    /// True if any point is configured.
    pub fn is_enabled(&self) -> bool {
        !self.points.is_empty()
    }

    /// The seed this plane derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Consults the plane at `site` on behalf of the stable identity
    /// `key` (pod pid / pool pid): the injected fault if any point fires.
    ///
    /// The decision is a pure function of
    /// `(seed, site, point index, key, call count)` — independent of
    /// wall-clock time and thread interleaving.
    pub fn check(&self, site: &'static str, key: u64) -> Result<(), FaultError> {
        let Some(points) = self.points.get(site) else {
            if self.is_enabled() {
                self.state.lock().stats.entry(site).or_default().checks += 1;
            }
            return Ok(());
        };
        let sh = site_hash(site);
        let mut state = self.state.lock();
        let count = state.counters.entry((sh, key)).or_insert(0);
        *count += 1;
        let count = *count;
        let fired = points.iter().enumerate().any(|(idx, p)| match p.trigger {
            Trigger::Probability(rate) => {
                let h = mix64(
                    self.seed
                        .wrapping_add(mix64(sh))
                        .wrapping_add(mix64(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                        .wrapping_add(mix64(count))
                        .wrapping_add(idx as u64),
                );
                // Map the hash to [0, 1) and compare against the rate.
                ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
            }
            Trigger::Once(n) => count == n,
        });
        let s = state.stats.entry(site).or_default();
        s.checks += 1;
        if fired {
            s.errors += 1;
            return Err(FaultError { site });
        }
        Ok(())
    }

    /// Records that the recovery layer retried an operation because of a
    /// failure attributed to `site`.
    pub fn note_retry(&self, site: &'static str) {
        self.state.lock().stats.entry(site).or_default().retries += 1;
    }

    /// Records that a graceful-degradation fallback was taken because of
    /// `site` (eager-zero instead of lazy scrub, cold boot instead of a
    /// poisoned warm VM, retire instead of re-park).
    pub fn note_fallback(&self, site: &'static str) {
        self.state.lock().stats.entry(site).or_default().fallbacks += 1;
    }

    /// Snapshot of all per-site counters, sorted by site name (so the
    /// rendering is deterministic).
    pub fn report(&self) -> Vec<(&'static str, SiteStats)> {
        self.state
            .lock()
            .stats
            .iter()
            .map(|(site, s)| (*site, *s))
            .collect()
    }

    /// Counters of one site (zeroes if it was never consulted).
    pub fn report_for(&self, site: &str) -> SiteStats {
        self.state
            .lock()
            .stats
            .get(site)
            .copied()
            .unwrap_or_default()
    }

    /// Sum of all injected errors across sites.
    pub fn total_errors(&self) -> u64 {
        self.state.lock().stats.values().map(|s| s.errors).sum()
    }
}

impl fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlane")
            .field("seed", &self.seed)
            .field("sites", &self.points.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Declarative fault configuration, carried by experiment configs and
/// turned into a [`FaultPlane`] with [`FaultConfig::build`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Per-check transient-error probability applied to every site
    /// (0 ⇒ none).
    pub error_rate: f64,
    /// Additional hand-placed points (tests, targeted chaos).
    pub points: Vec<FaultPoint>,
}

impl FaultConfig {
    /// No faults at all — the default for every experiment.
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            error_rate: 0.0,
            points: Vec::new(),
        }
    }

    /// Uniform transient errors at `error_rate` on every site.
    pub fn uniform(seed: u64, error_rate: f64) -> Self {
        FaultConfig {
            seed,
            error_rate,
            points: Vec::new(),
        }
    }

    /// Adds a hand-placed point.
    pub fn with_point(mut self, point: FaultPoint) -> Self {
        self.points.push(point);
        self
    }

    /// True if this config produces a disabled plane.
    pub fn is_disabled(&self) -> bool {
        self.error_rate <= 0.0 && self.points.is_empty()
    }

    /// Materializes the plane.
    pub fn build(&self) -> Arc<FaultPlane> {
        if self.is_disabled() {
            return FaultPlane::disabled();
        }
        let mut points = Vec::new();
        if self.error_rate > 0.0 {
            points.extend(sites::ALL.iter().map(|&site| FaultPoint {
                site,
                trigger: Trigger::Probability(self.error_rate),
            }));
        }
        points.extend(self.points.iter().copied());
        FaultPlane::with_points(self.seed, points)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(seed: u64, error_rate: f64) -> Arc<FaultPlane> {
        FaultConfig::uniform(seed, error_rate).build()
    }

    fn decisions(plane: &FaultPlane, site: &'static str, keys: u64, calls: u64) -> Vec<bool> {
        let mut out = Vec::new();
        for key in 0..keys {
            for _ in 0..calls {
                out.push(plane.check(site, key).is_err());
            }
        }
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = uniform(42, 0.1);
        let b = uniform(42, 0.1);
        assert_eq!(
            decisions(&a, sites::DMA_PIN, 64, 8),
            decisions(&b, sites::DMA_PIN, 64, 8)
        );
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = uniform(1, 0.2);
        let b = uniform(2, 0.2);
        assert_ne!(
            decisions(&a, sites::DMA_PIN, 128, 4),
            decisions(&b, sites::DMA_PIN, 128, 4)
        );
    }

    #[test]
    fn schedule_independent_of_interleaving() {
        // The same (site, key, call-count) tuples must decide identically
        // regardless of the order checks arrive in.
        let a = uniform(7, 0.3);
        let b = uniform(7, 0.3);
        let mut fwd = Vec::new();
        for key in 0..32u64 {
            fwd.push((key, a.check(sites::VF_LINK, key).is_err()));
        }
        let mut rev = Vec::new();
        for key in (0..32u64).rev() {
            rev.push((key, b.check(sites::VF_LINK, key).is_err()));
        }
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn probability_roughly_matches_rate() {
        let plane = uniform(99, 0.1);
        let hits = decisions(&plane, sites::IOMMU_MAP, 2000, 1)
            .iter()
            .filter(|d| **d)
            .count();
        assert!((120..=280).contains(&hits), "got {hits} of 2000 at 10%");
    }

    #[test]
    fn once_trigger_fires_on_its_call_only() {
        let plane = FaultPlane::with_points(
            0,
            vec![FaultPoint {
                site: sites::VF_LINK,
                trigger: Trigger::Once(2),
            }],
        );
        let link: Vec<bool> = (0..4)
            .map(|_| plane.check(sites::VF_LINK, 5).is_err())
            .collect();
        assert_eq!(link, vec![false, true, false, false]);
        let e = plane.check(sites::VF_LINK, 6);
        assert!(e.is_ok(), "Once counts per key, not globally");
        assert_eq!(
            plane.check(sites::VF_LINK, 6).unwrap_err(),
            FaultError {
                site: sites::VF_LINK
            }
        );
    }

    #[test]
    fn per_key_counters_are_independent() {
        let plane = FaultPlane::with_points(
            0,
            vec![FaultPoint {
                site: sites::POOL_RECYCLE,
                trigger: Trigger::Once(1),
            }],
        );
        assert!(plane.check(sites::POOL_RECYCLE, 10).is_err());
        assert!(plane.check(sites::POOL_RECYCLE, 10).is_ok());
        assert!(plane.check(sites::POOL_RECYCLE, 11).is_err());
    }

    #[test]
    fn disabled_plane_is_a_noop() {
        let plane = FaultPlane::disabled();
        for i in 0..100 {
            assert!(plane.check(sites::DMA_PIN, i).is_ok());
        }
        assert!(!plane.is_enabled());
        assert!(plane.report().is_empty());
    }

    #[test]
    fn counters_track_retries_and_fallbacks() {
        let plane = uniform(3, 0.5);
        plane.note_retry(sites::DMA_PIN);
        plane.note_retry(sites::DMA_PIN);
        plane.note_fallback(sites::WARM_CLAIM);
        let report: std::collections::BTreeMap<_, _> = plane.report().into_iter().collect();
        assert_eq!(report[sites::DMA_PIN].retries, 2);
        assert_eq!(report[sites::WARM_CLAIM].fallbacks, 1);
    }

    #[test]
    fn fault_config_roundtrip() {
        assert!(FaultConfig::disabled().is_disabled());
        assert!(!FaultConfig::disabled().build().is_enabled());
        assert_eq!(FaultConfig::disabled().build().seed(), 0);
        let cfg = FaultConfig::uniform(9, 0.01);
        assert!(!cfg.is_disabled());
        let plane = cfg.build();
        assert!(plane.is_enabled());
        assert_eq!(plane.seed(), 9);
    }
}
