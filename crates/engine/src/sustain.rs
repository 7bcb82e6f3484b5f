//! Open-loop sustained-arrival load generation.
//!
//! The paper measures bursts of N simultaneous creations (§3.1). A warm
//! pool's value shows under a different regime: a *sustained* stream of
//! pod arrivals, where the replenisher races the arrival rate. This
//! module generates Poisson arrivals on the simulated clock — open-loop,
//! so a slow startup does not throttle subsequent arrivals — and runs
//! each pod's full lifecycle (launch, hold, teardown) on its own thread.

use crate::engine::{Engine, LaunchSummary, StartupReport};
use crate::Result;
use std::sync::Arc;
use std::time::Duration;

/// Parameters of one sustained-arrival run.
#[derive(Debug, Clone, Copy)]
pub struct SustainedConfig {
    /// Pods to launch in total.
    pub total: u32,
    /// Mean arrival rate in pods per simulated second (Poisson process).
    pub rate_per_s: f64,
    /// Simulated lifetime of each pod between startup and teardown.
    pub hold: Duration,
    /// PRNG seed for the arrival process.
    pub seed: u64,
}

/// Outcome of a sustained-arrival run.
pub struct SustainedOutcome {
    /// Startup reports of the pods that launched, arrival order.
    pub reports: Vec<StartupReport>,
    /// Success/failure classification of the whole stream.
    pub summary: LaunchSummary,
}

/// xorshift64* — deterministic arrival-jitter source.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` is always finite.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

impl Engine {
    /// Runs `cfg.total` pods arriving as a Poisson process at
    /// `cfg.rate_per_s`, each held for `cfg.hold` then torn down.
    /// Inter-arrival gaps are exponential, slept on the simulation clock
    /// by the arrival thread; every pod then runs open-loop on its own
    /// simulation thread.
    pub fn run_sustained(self: &Arc<Self>, cfg: SustainedConfig) -> SustainedOutcome {
        let mut rng = Rng::new(cfg.seed);
        let mut workers = Vec::with_capacity(cfg.total as usize);
        for i in 0..cfg.total {
            let gap = -rng.unit().ln() / cfg.rate_per_s.max(f64::MIN_POSITIVE);
            self.host().clock.sleep(Duration::from_secs_f64(gap));
            let engine = Arc::clone(self);
            let pod = move || -> Result<StartupReport> {
                let pod = engine.run_pod(i)?;
                let report = pod.report.clone();
                engine.host().clock.sleep(cfg.hold);
                engine.teardown_pod(&pod)?;
                Ok(report)
            };
            workers.push(fastiov_simtime::spawn(
                &self.host().clock,
                format!("pod-{i}"),
                pod,
            ));
        }
        let results: Vec<Result<StartupReport>> = workers
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(crate::LaunchError::LaunchPanic)))
            .collect();
        let mut summary = LaunchSummary::from_results(&results);
        let reports: Vec<StartupReport> = results.into_iter().filter_map(|r| r.ok()).collect();
        summary.fill_stage_percentiles(&reports);
        SustainedOutcome { reports, summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineParams, PodNetworking, VmOptions};
    use fastiov_cni::{CniPlugin, FastIovCni, VfAllocator};
    use fastiov_hostmem::addr::units::mib;
    use fastiov_microvm::{Host, HostParams};
    use fastiov_vfio::LockPolicy;

    #[test]
    fn sustained_run_completes_every_pod_and_frees_the_host() {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        host.prebind_all_vfs().unwrap();
        let vfs = VfAllocator::new(host.pf.vf_count() as u16);
        let engine = Engine::new(
            Arc::clone(&host),
            EngineParams::paper(),
            PodNetworking::Sriov(Arc::new(FastIovCni::new(
                Arc::clone(&vfs) as Arc<dyn fastiov_cni::VfProvider>
            )) as Arc<dyn CniPlugin>),
            VmOptions::fastiov(mib(64), mib(32)),
        );
        let outcome = engine.run_sustained(SustainedConfig {
            total: 6,
            rate_per_s: 10.0,
            hold: Duration::from_millis(200),
            seed: 42,
        });
        assert!(outcome.summary.is_clean(), "{}", outcome.summary);
        assert_eq!(outcome.reports.len(), 6);
        // Every pod was torn down: namespaces empty, all VFs back.
        assert!(engine.nns().is_empty());
        assert_eq!(fastiov_cni::VfProvider::available(&*vfs), 16);
    }

    #[test]
    fn arrival_gaps_are_deterministic_for_a_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..32 {
            let (ua, ub) = (a.unit(), b.unit());
            assert_eq!(ua, ub);
            assert!(ua > 0.0 && ua <= 1.0);
        }
    }
}
