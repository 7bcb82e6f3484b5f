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
use fastiov_simtime::rng::Rng;
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
    use fastiov_cni::VfPool;
    use fastiov_hostmem::addr::units::mib;
    use fastiov_microvm::{Host, HostParams};
    use fastiov_vfio::LockPolicy;

    #[test]
    fn sustained_run_completes_every_pod_and_frees_the_host() {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        host.prebind_all_vfs().unwrap();
        let vfs = VfPool::new(host.pf.vf_count() as u16);
        let engine = Engine::new(
            Arc::clone(&host),
            EngineParams::paper(),
            PodNetworking::Sriov(Arc::clone(&vfs)),
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
        assert_eq!(vfs.available(), 16);
    }
}
