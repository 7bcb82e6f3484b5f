//! Pod lifecycle and the concurrent launcher.

use crate::cgroup::CgroupManager;
use crate::recovery;
use crate::stats::Summary;
use crate::{LaunchError, Result};
use fastiov_cni::{CniPlugin, CniResult, NnsRegistry, PodNetSpec, RtnlLock};
use fastiov_faults::sites;
use fastiov_microvm::{stages, Host, Microvm, MicrovmConfig, NetworkAttachment, ZeroingMode};
use fastiov_pool::{WarmPool, WarmVm};
use fastiov_simtime::{SimInstant, StageLog, StageRecord};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Engine-level cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineParams {
    /// Parallel cgroup setup work.
    pub cgroup_base: Duration,
    /// Serialized (global-lock) cgroup work.
    pub cgroup_hold: Duration,
    /// NNS creation cost.
    pub nns_create: Duration,
    /// rtnl hold for interface moves.
    pub move_hold: Duration,
    /// rtnl hold for address configuration.
    pub ip_hold: Duration,
    /// Residual runtime overhead per pod (shim, annotations, API hops).
    pub sandbox_overhead: Duration,
    /// Arrival jitter of the concurrent launcher: request `i` of `n`
    /// starts after `i * launch_spread / n`. Models the "nearly
    /// simultaneous" arrivals of §3.1.
    pub launch_spread: Duration,
}

impl EngineParams {
    /// Paper-calibrated costs (Tab. 1 proportions at concurrency 200).
    pub fn paper() -> Self {
        EngineParams {
            cgroup_base: Duration::from_millis(15),
            cgroup_hold: Duration::from_millis(6),
            nns_create: Duration::from_millis(10),
            move_hold: Duration::from_millis(3),
            ip_hold: Duration::from_millis(2),
            sandbox_overhead: Duration::from_millis(150),
            launch_spread: Duration::from_millis(200),
        }
    }
}

/// Per-pod microVM options the runtime applies at attach time.
#[derive(Debug, Clone, Copy)]
pub struct VmOptions {
    /// Guest RAM per container.
    pub ram_bytes: u64,
    /// Image region size.
    pub image_bytes: u64,
    /// Zeroing discipline (FastIOV `D`).
    pub zeroing: ZeroingMode,
    /// Skip image-region DMA mapping (FastIOV `S`).
    pub skip_image_mapping: bool,
    /// Asynchronous guest VF driver init (FastIOV `A`).
    pub async_vf_init: bool,
}

impl VmOptions {
    /// Vanilla options with the given RAM size.
    pub fn vanilla(ram_bytes: u64, image_bytes: u64) -> Self {
        VmOptions {
            ram_bytes,
            image_bytes,
            zeroing: ZeroingMode::Eager,
            skip_image_mapping: false,
            async_vf_init: false,
        }
    }

    /// Full FastIOV options with the given RAM size.
    pub fn fastiov(ram_bytes: u64, image_bytes: u64) -> Self {
        VmOptions {
            ram_bytes,
            image_bytes,
            zeroing: ZeroingMode::decoupled(),
            skip_image_mapping: true,
            async_vf_init: true,
        }
    }
}

/// How pods get networked.
pub enum PodNetworking {
    /// No network (baseline lower bound).
    None,
    /// SR-IOV passthrough via the given plugin.
    Sriov(Arc<dyn CniPlugin>),
    /// Software CNI via the given plugin.
    Software(Arc<dyn CniPlugin>),
    /// vDPA-mediated VF (§7): hardware data plane, standard virtio
    /// control plane in the guest.
    Vdpa(Arc<dyn CniPlugin>),
}

/// The measured outcome of one container startup.
#[derive(Debug, Clone)]
pub struct StartupReport {
    /// Container index.
    pub index: u32,
    /// When the startup began.
    pub started: SimInstant,
    /// End-to-end startup duration.
    pub total: Duration,
    /// Per-stage records.
    pub records: Vec<StageRecord>,
}

impl StartupReport {
    /// Total time of one named stage.
    pub fn stage_total(&self, name: &str) -> Duration {
        self.records
            .iter()
            .filter(|r| r.name == name)
            .map(StageRecord::duration)
            .sum()
    }

    /// Sum of the four VF-related stages (1, 3, 4, 5 of Tab. 1).
    pub fn vf_related(&self) -> Duration {
        [
            stages::DMA_RAM,
            stages::DMA_IMAGE,
            stages::VFIO_DEV,
            stages::VF_DRIVER,
        ]
        .iter()
        .map(|s| self.stage_total(s))
        .sum()
    }

    /// `total - vf_related` (the "others" bar of Fig. 11).
    pub fn others(&self) -> Duration {
        self.total.saturating_sub(self.vf_related())
    }
}

/// The VM id of launch `index`: its hypervisor's pid and its spans' VM.
pub fn vm_id(index: u32) -> u64 {
    1000 + u64::from(index)
}

/// A started pod: the microVM plus its network state.
pub struct PodHandle {
    /// Container index.
    pub index: u32,
    /// The running microVM.
    pub vm: Arc<Microvm>,
    /// What the CNI set up (None for no-network pods).
    pub cni: Option<CniResult>,
    /// Set when the microVM came from the warm pool: its pool-range
    /// hypervisor PID. Teardown returns such a VM to the pool for
    /// recycling instead of shutting it down.
    pub pool_pid: Option<u64>,
    /// The startup measurement.
    pub report: StartupReport,
}

/// Aggregate outcome of one concurrent launch wave: what succeeded, what
/// failed, and the first error of each failure class. Replaces eyeballing
/// a bare `Vec<Result<...>>`.
#[derive(Debug, Clone, Default)]
pub struct LaunchSummary {
    /// Pods that started.
    pub succeeded: usize,
    /// Pods that failed to start.
    pub failed: usize,
    /// First error detail per failure class, in first-seen order.
    pub first_errors: Vec<(&'static str, String)>,
    /// Failure count per class, sorted by class name — deterministic
    /// regardless of thread interleaving, unlike `first_errors` order.
    pub classes: Vec<(&'static str, usize)>,
    /// Per-stage duration percentiles across the wave's successful pods,
    /// sorted by stage name. Each pod contributes its *total* time in the
    /// stage (repeated records summed); pods that never executed a stage
    /// do not contribute zeros to it, so `Summary::n` says how many did.
    /// Empty until filled by [`Engine::launch_concurrent`] (or
    /// [`LaunchSummary::fill_stage_percentiles`]).
    pub stage_percentiles: Vec<(String, Summary)>,
}

impl LaunchSummary {
    /// Classifies a wave of per-pod results.
    pub fn from_results<T>(results: &[Result<T>]) -> Self {
        let mut summary = LaunchSummary::default();
        let mut classes = std::collections::BTreeMap::new();
        for r in results {
            match r {
                Ok(_) => summary.succeeded += 1,
                Err(e) => {
                    summary.failed += 1;
                    let class = e.class();
                    *classes.entry(class).or_insert(0usize) += 1;
                    if !summary.first_errors.iter().any(|(c, _)| *c == class) {
                        summary.first_errors.push((class, e.to_string()));
                    }
                }
            }
        }
        summary.classes = classes.into_iter().collect();
        summary
    }

    /// Pods attempted.
    pub fn total(&self) -> usize {
        self.succeeded + self.failed
    }

    /// True when every pod started.
    pub fn is_clean(&self) -> bool {
        self.failed == 0
    }

    /// Computes the per-stage percentile summaries from a wave's
    /// successful reports.
    pub fn fill_stage_percentiles<'a>(
        &mut self,
        reports: impl IntoIterator<Item = &'a StartupReport>,
    ) {
        let mut by_stage: std::collections::BTreeMap<String, Vec<Duration>> = Default::default();
        for r in reports {
            let mut names: Vec<&str> = r.records.iter().map(|rec| rec.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            for name in names {
                by_stage
                    .entry(name.to_string())
                    .or_default()
                    .push(r.stage_total(name));
            }
        }
        self.stage_percentiles = by_stage
            .into_iter()
            .filter_map(|(name, ds)| Summary::from_durations(&ds).map(|s| (name, s)))
            .collect();
    }
}

impl fmt::Display for LaunchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} pods started", self.succeeded, self.total())?;
        for (class, detail) in &self.first_errors {
            write!(f, "; first {class} error: {detail}")?;
        }
        Ok(())
    }
}

/// A concurrent launch wave: per-pod results in index order, plus the
/// classification summary.
pub struct LaunchOutcome {
    /// One entry per requested pod, index order.
    pub pods: Vec<Result<PodHandle>>,
    /// Succeeded/failed counts and first error per class.
    pub summary: LaunchSummary,
}

/// The container engine for one experiment run.
pub struct Engine {
    host: Arc<Host>,
    params: EngineParams,
    cgroups: Arc<CgroupManager>,
    nns: Arc<NnsRegistry>,
    networking: PodNetworking,
    vm_options: VmOptions,
    pool: Option<Arc<WarmPool>>,
}

impl Engine {
    /// Creates the engine. For SR-IOV networking the caller must have
    /// pre-bound VFs ([`Host::prebind_all_vfs`]).
    pub fn new(
        host: Arc<Host>,
        params: EngineParams,
        networking: PodNetworking,
        vm_options: VmOptions,
    ) -> Arc<Self> {
        Self::with_pool(host, params, networking, vm_options, None)
    }

    /// Like [`Engine::new`] but with a warm microVM pool: `run_pod` first
    /// tries to claim a pre-launched VM and only falls back to the cold
    /// path when the pool is empty (admission control), and
    /// `teardown_pod` returns pooled VMs for recycling.
    pub fn with_pool(
        host: Arc<Host>,
        params: EngineParams,
        networking: PodNetworking,
        vm_options: VmOptions,
        pool: Option<Arc<WarmPool>>,
    ) -> Arc<Self> {
        let cgroups =
            CgroupManager::new(host.clock.clone(), params.cgroup_base, params.cgroup_hold);
        let rtnl = RtnlLock::new(host.clock.clone());
        let nns = NnsRegistry::new(
            host.clock.clone(),
            rtnl,
            params.nns_create,
            params.move_hold,
            params.ip_hold,
        );
        Arc::new(Engine {
            host,
            params,
            cgroups,
            nns,
            networking,
            vm_options,
            pool,
        })
    }

    /// The host.
    pub fn host(&self) -> &Arc<Host> {
        &self.host
    }

    /// The namespace registry (diagnostics).
    pub fn nns(&self) -> &Arc<NnsRegistry> {
        &self.nns
    }

    /// The warm pool, when configured.
    pub fn pool(&self) -> Option<&Arc<WarmPool>> {
        self.pool.as_ref()
    }

    /// Engine cost parameters.
    pub fn params(&self) -> &EngineParams {
        &self.params
    }

    /// Starts one pod end to end (Fig. 4) and returns its handle. With a
    /// warm pool configured, claims a pre-launched microVM when one is
    /// available and pays only per-pod identity work; a claim the fault
    /// plane marks unhealthy is evicted and the pod degrades to the cold
    /// path. Cold launches run under the recovery layer: injected
    /// (transient) failures retry with deterministic backoff.
    pub fn run_pod(&self, index: u32) -> Result<PodHandle> {
        // Attribute everything this thread does for the pod — including
        // spans opened deep inside vfio/iommu/fastiovd/nic — to its VM,
        // under one root span covering the whole startup.
        let pid = vm_id(index);
        let _vm_scope = self.host.tracer.vm_scope(pid);
        let _launch_span = self.host.tracer.span("launch");
        if let Some(pool) = &self.pool {
            if let Some(mut warm) = pool.claim() {
                // Health check of the claimed VM. Keyed by the claiming
                // pod, not the pool VM: pod identity is stable across
                // runs, pod-to-VM assignment order is not.
                let faults = &self.host.faults;
                if let Err(_unhealthy) = faults.check(sites::WARM_CLAIM, pid) {
                    faults.note_fallback(sites::WARM_CLAIM);
                    pool.evict(warm);
                    return self.run_pod_cold_recovering(index);
                }
                warm.tenant = Some(pid);
                return self.run_pod_warm(index, warm);
            }
            // Pool exhausted: degrade gracefully to the cold path.
        }
        self.run_pod_cold_recovering(index)
    }

    /// The cold path under the recovery layer: up to
    /// [`recovery::MAX_ATTEMPTS`] attempts, with deterministic exponential
    /// backoff between them, for injected faults.
    fn run_pod_cold_recovering(&self, index: u32) -> Result<PodHandle> {
        let faults = &self.host.faults;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let e = match self.run_pod_cold(index) {
                Ok(pod) => return Ok(pod),
                Err(e) => e,
            };
            match e.retryable() {
                Some(fault) if attempt < recovery::MAX_ATTEMPTS => {
                    faults.note_retry(fault.site);
                    self.host
                        .clock
                        .sleep(recovery::backoff(faults.seed(), attempt, index));
                }
                _ => {
                    return Err(if attempt > 1 {
                        LaunchError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(e),
                        }
                    } else {
                        e
                    });
                }
            }
        }
    }

    /// The warm fast path: no DMA mapping, no VFIO open, no boot — the
    /// pooled microVM did all that off the critical path. What remains is
    /// per-pod identity: cgroup, namespace, interface move, IP, MAC/VLAN.
    fn run_pod_warm(&self, index: u32, warm: WarmVm) -> Result<PodHandle> {
        let pid = vm_id(index);
        let mut log = StageLog::begin(&self.host.tracer);
        let started = log.started();

        log.stage(stages::CGROUP, || self.cgroups.create(pid));
        let nns = self.nns.create(pid);
        let spec = PodNetSpec { pid, index };
        let ip = spec.ip();

        let claimed = log.stage(stages::WARM_CLAIM, || -> Result<()> {
            self.nns.move_into(&nns, warm.netdev.clone());
            self.nns.configure_ip(&nns, ip);
            // Rewrite the VF's MAC/VLAN for the new tenant through the PF.
            warm.vm
                .reconfigure_identity(index)
                .map_err(LaunchError::Vmm)?;
            Ok(())
        });
        let claimed = claimed.and_then(|()| {
            if nns.has_interface(&warm.netdev) {
                Ok(())
            } else {
                Err(LaunchError::InterfaceMissing(warm.netdev.0.clone()))
            }
        });
        if let Err(e) = claimed {
            // Claim failed: unwind the pod scaffolding and hand the VM
            // back for recycling rather than leaking it.
            let _ = self.nns.destroy(pid);
            self.cgroups.remove(pid);
            if let Some(pool) = &self.pool {
                pool.recycle(warm);
            }
            return Err(e);
        }

        self.host.clock.sleep(self.params.sandbox_overhead);

        let total = log.elapsed();
        Ok(PodHandle {
            index,
            cni: Some(CniResult::Passthrough {
                vf: warm.vf,
                netdev: warm.netdev.clone(),
                ip,
            }),
            pool_pid: Some(warm.pool_pid),
            vm: warm.vm,
            report: StartupReport {
                index,
                started,
                total,
                records: log.records().to_vec(),
            },
        })
    }

    /// The cold path: full Fig. 4 launch sequence.
    fn run_pod_cold(&self, index: u32) -> Result<PodHandle> {
        let pid = vm_id(index);
        let mut log = StageLog::begin(&self.host.tracer);
        let started = log.started();

        // Containerd: resource isolation.
        log.stage(stages::CGROUP, || self.cgroups.create(pid));
        // Containerd: isolated network namespace.
        let nns = self.nns.create(pid);

        // CNI plugin (t_config).
        let spec = PodNetSpec { pid, index };
        let cni_result = match &self.networking {
            PodNetworking::None => None,
            PodNetworking::Sriov(plugin)
            | PodNetworking::Software(plugin)
            | PodNetworking::Vdpa(plugin) => Some(
                plugin
                    .setup(&self.host, &spec, &nns, &self.nns, &mut log)
                    .map_err(LaunchError::Cni)?,
            ),
        };

        // Container runtime (t_attach): verify the interface, launch.
        let attachment = match &cni_result {
            None => NetworkAttachment::None,
            Some(CniResult::Software { netdev, .. }) => {
                if !nns.has_interface(netdev) {
                    return Err(LaunchError::InterfaceMissing(netdev.0.clone()));
                }
                NetworkAttachment::SoftwareVirtio
            }
            Some(CniResult::Passthrough { vf, netdev, .. }) => {
                if !nns.has_interface(netdev) {
                    return Err(LaunchError::InterfaceMissing(netdev.0.clone()));
                }
                if matches!(self.networking, PodNetworking::Vdpa(_)) {
                    NetworkAttachment::Vdpa(*vf)
                } else {
                    NetworkAttachment::Passthrough(*vf)
                }
            }
        };

        let cfg = MicrovmConfig {
            pid,
            ram_bytes: self.vm_options.ram_bytes,
            image_bytes: self.vm_options.image_bytes,
            zeroing: if attachment == NetworkAttachment::None
                || matches!(attachment, NetworkAttachment::SoftwareVirtio)
            {
                // Without passthrough there is no eager DMA allocation;
                // the host's natural lazy zeroing applies.
                ZeroingMode::Eager
            } else {
                self.vm_options.zeroing
            },
            skip_image_mapping: self.vm_options.skip_image_mapping,
            async_vf_init: self.vm_options.async_vf_init,
        };
        let vm = match Microvm::launch(&self.host, cfg, attachment, &mut log) {
            Ok(vm) => vm,
            Err(e) => {
                // `Microvm::launch` has already unwound the passthrough
                // state (DMA attachment, group ownership, lazy-zero
                // entries); release the frames and what the pod set up
                // around the VM, so the host stays reusable.
                self.host.mem.release_owner(pid);
                if let (
                    Some(result),
                    PodNetworking::Sriov(plugin)
                    | PodNetworking::Software(plugin)
                    | PodNetworking::Vdpa(plugin),
                ) = (&cni_result, &self.networking)
                {
                    let _ = plugin.teardown(&self.host, result);
                }
                let _ = self.nns.destroy(pid);
                self.cgroups.remove(pid);
                return Err(LaunchError::Vmm(e));
            }
        };

        // Residual runtime overhead.
        self.host.clock.sleep(self.params.sandbox_overhead);

        let total = log.elapsed();
        Ok(PodHandle {
            index,
            vm,
            cni: cni_result,
            pool_pid: None,
            report: StartupReport {
                index,
                started,
                total,
                records: log.records().to_vec(),
            },
        })
    }

    /// Tears a pod down. Cold-launched pods release their VF and guest
    /// memory; pool-claimed pods hand the microVM back to the pool, which
    /// wipes and re-parks it on the replenisher thread.
    pub fn teardown_pod(&self, pod: &PodHandle) -> Result<()> {
        let pid = vm_id(pod.index);
        if let (Some(pool_pid), Some(pool)) = (pod.pool_pid, &self.pool) {
            if let Some(CniResult::Passthrough { vf, netdev, .. }) = &pod.cni {
                self.nns.destroy(pid).map_err(LaunchError::Cni)?;
                self.cgroups.remove(pid);
                pool.recycle(WarmVm {
                    vm: Arc::clone(&pod.vm),
                    vf: *vf,
                    netdev: netdev.clone(),
                    pool_pid,
                    tenant: Some(pid),
                });
                return Ok(());
            }
        }
        pod.vm.shutdown()?;
        if let (
            Some(result),
            PodNetworking::Sriov(plugin)
            | PodNetworking::Software(plugin)
            | PodNetworking::Vdpa(plugin),
        ) = (&pod.cni, &self.networking)
        {
            plugin
                .teardown(&self.host, result)
                .map_err(LaunchError::Cni)?;
        }
        self.nns.destroy(pid).map_err(LaunchError::Cni)?;
        self.cgroups.remove(pid);
        Ok(())
    }

    /// `crictl`-style concurrent startup of `n` pods, one simulation
    /// thread each (§3.1). Returns per-pod results in index order,
    /// classified in a [`LaunchSummary`].
    pub fn launch_concurrent(self: &Arc<Self>, n: u32) -> LaunchOutcome {
        let spread = self.params.launch_spread;
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let engine = Arc::clone(self);
                fastiov_simtime::spawn(&self.host.clock, format!("pod-{i}"), move || {
                    engine.host.clock.sleep(Duration::from_secs_f64(
                        spread.as_secs_f64() * f64::from(i) / f64::from(n.max(1)),
                    ));
                    engine.run_pod(i)
                })
            })
            .collect();
        let pods: Vec<Result<PodHandle>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(LaunchError::LaunchPanic)))
            .collect();
        let mut summary = LaunchSummary::from_results(&pods);
        summary.fill_stage_percentiles(pods.iter().flatten().map(|p| &p.report));
        LaunchOutcome { pods, summary }
    }

    /// Convenience: launch `n` pods, tear them down, return the reports.
    pub fn measure_startup(self: &Arc<Self>, n: u32) -> Vec<Result<StartupReport>> {
        self.launch_concurrent(n)
            .pods
            .into_iter()
            .map(|r| {
                r.map(|pod| {
                    let report = pod.report.clone();
                    let _ = self.teardown_pod(&pod);
                    report
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_cni::{FastIovCni, IpvtapCni, SriovCniFixed, VfPool};
    use fastiov_hostmem::addr::units::mib;
    use fastiov_microvm::HostParams;
    use fastiov_vfio::LockPolicy;

    fn host(policy: LockPolicy) -> Arc<Host> {
        Host::new(HostParams::for_tests(), policy).unwrap()
    }

    fn sriov_engine(host: &Arc<Host>, fast: bool) -> Arc<Engine> {
        host.prebind_all_vfs().unwrap();
        let vfs = VfPool::new(host.pf.vf_count() as u16);
        let (plugin, opts): (Arc<dyn CniPlugin>, VmOptions) = if fast {
            (
                Arc::new(FastIovCni::new(vfs)),
                VmOptions::fastiov(mib(64), mib(32)),
            )
        } else {
            (
                Arc::new(SriovCniFixed::new(vfs)),
                VmOptions::vanilla(mib(64), mib(32)),
            )
        };
        Engine::new(
            Arc::clone(host),
            EngineParams::paper(),
            PodNetworking::Sriov(plugin),
            opts,
        )
    }

    #[test]
    fn single_pod_vanilla_lifecycle() {
        let host = host(LockPolicy::Coarse);
        let engine = sriov_engine(&host, false);
        let pod = engine.run_pod(0).unwrap();
        assert!(pod.report.total > Duration::ZERO);
        // All VF stages present in the synchronous flow.
        for s in [
            stages::CGROUP,
            stages::DMA_RAM,
            stages::VIRTIOFS,
            stages::DMA_IMAGE,
            stages::VFIO_DEV,
            stages::VF_DRIVER,
        ] {
            assert!(
                pod.report.stage_total(s) > Duration::ZERO,
                "missing stage {s}"
            );
        }
        assert!(pod.report.vf_related() < pod.report.total);
        engine.teardown_pod(&pod).unwrap();
        assert!(engine.nns().is_empty());
    }

    #[test]
    fn fastiov_pod_skips_image_and_async_inits() {
        let host = host(LockPolicy::Hierarchical);
        let engine = sriov_engine(&host, true);
        let pod = engine.run_pod(0).unwrap();
        assert_eq!(pod.report.stage_total(stages::DMA_IMAGE), Duration::ZERO);
        assert_eq!(pod.report.stage_total(stages::VF_DRIVER), Duration::ZERO);
        pod.vm.wait_net_ready().unwrap();
        engine.teardown_pod(&pod).unwrap();
    }

    #[test]
    fn concurrent_launch_returns_all_pods() {
        let host = host(LockPolicy::Hierarchical);
        let engine = sriov_engine(&host, true);
        let reports = engine.measure_startup(8);
        assert_eq!(reports.len(), 8);
        for r in reports {
            let r = r.unwrap();
            assert!(r.total > Duration::ZERO);
        }
    }

    #[test]
    fn no_network_pods_have_no_vf_stages() {
        let host = host(LockPolicy::Coarse);
        let engine = Engine::new(
            Arc::clone(&host),
            EngineParams::paper(),
            PodNetworking::None,
            VmOptions::vanilla(mib(64), mib(32)),
        );
        let pod = engine.run_pod(0).unwrap();
        assert_eq!(pod.report.vf_related(), Duration::ZERO);
        engine.teardown_pod(&pod).unwrap();
    }

    #[test]
    fn software_cni_pods_record_addcni() {
        let host = host(LockPolicy::Coarse);
        let engine = Engine::new(
            Arc::clone(&host),
            EngineParams::paper(),
            PodNetworking::Software(Arc::new(IpvtapCni::new(fastiov_cni::CniParams::paper()))),
            VmOptions::vanilla(mib(64), mib(32)),
        );
        let pod = engine.run_pod(0).unwrap();
        assert!(pod.report.stage_total(stages::ADD_CNI) > Duration::ZERO);
        assert_eq!(pod.report.vf_related(), Duration::ZERO);
        engine.teardown_pod(&pod).unwrap();
    }

    fn pooled_engine(host: &Arc<Host>, capacity: usize) -> Arc<Engine> {
        host.prebind_all_vfs().unwrap();
        let vfs = VfPool::new(host.pf.vf_count() as u16);
        let pool = fastiov_pool::WarmPool::new(
            Arc::clone(host),
            Arc::clone(&vfs),
            fastiov_pool::PoolParams::new(capacity, mib(64), mib(32)),
        );
        pool.prefill();
        Engine::with_pool(
            Arc::clone(host),
            EngineParams::paper(),
            PodNetworking::Sriov(Arc::new(FastIovCni::new(vfs))),
            VmOptions::fastiov(mib(64), mib(32)),
            Some(pool),
        )
    }

    #[test]
    fn warm_claim_skips_launch_stages_and_recycles_on_teardown() {
        let host = host(LockPolicy::Hierarchical);
        let engine = pooled_engine(&host, 2);
        let pool = Arc::clone(engine.pool().unwrap());
        let pod = engine.run_pod(0).unwrap();
        assert!(pod.pool_pid.is_some());
        // No launch-path stages: the pooled VM was already booted.
        for s in [stages::DMA_RAM, stages::VFIO_DEV, stages::VF_DRIVER] {
            assert_eq!(pod.report.stage_total(s), Duration::ZERO, "stage {s}");
        }
        assert!(pod.report.stage_total(stages::WARM_CLAIM) > Duration::ZERO);
        pod.vm.wait_net_ready().unwrap();
        engine.teardown_pod(&pod).unwrap();
        assert!(engine.nns().is_empty());
        pool.wait_idle();
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.recycled, 1);
        assert_eq!(s.size, 2);
    }

    #[test]
    fn warm_claim_is_much_faster_than_cold_launch() {
        // Each host on its own driver thread: building a second host on a
        // thread leaves the first one's clock without a driver.
        let warm = std::thread::spawn(|| {
            let host = host(LockPolicy::Hierarchical);
            let engine = pooled_engine(&host, 2);
            let pod = engine.run_pod(0).unwrap();
            engine.teardown_pod(&pod).unwrap();
            engine.pool().unwrap().wait_idle();
            assert!(host.clock.is_virtual());
            pod.report.total
        })
        .join()
        .unwrap();
        // A pool-less engine on an identical host.
        let host = host(LockPolicy::Hierarchical);
        let engine = sriov_engine(&host, true);
        let cold = engine.run_pod(1).unwrap();
        engine.teardown_pod(&cold).unwrap();
        assert!(host.clock.is_virtual());
        assert!(
            warm * 2 < cold.report.total,
            "warm {warm:?} vs cold {:?}",
            cold.report.total
        );
    }

    #[test]
    fn pool_exhaustion_falls_back_to_cold_path() {
        let host = host(LockPolicy::Hierarchical);
        let engine = pooled_engine(&host, 1);
        let a = engine.run_pod(0).unwrap();
        let b = engine.run_pod(1).unwrap();
        assert!(a.pool_pid.is_some());
        // Second pod found the pool empty and cold-launched successfully.
        assert!(b.pool_pid.is_none());
        assert!(b.report.stage_total(stages::DMA_RAM) > Duration::ZERO);
        let s = engine.pool().unwrap().stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        engine.teardown_pod(&a).unwrap();
        engine.teardown_pod(&b).unwrap();
        engine.pool().unwrap().wait_idle();
    }

    #[test]
    fn launch_summary_classifies_results() {
        let results: Vec<Result<()>> = vec![
            Ok(()),
            Err(LaunchError::LaunchPanic),
            Ok(()),
            Err(LaunchError::InterfaceMissing("eth9".into())),
            Err(LaunchError::LaunchPanic),
        ];
        let s = LaunchSummary::from_results(&results);
        assert_eq!(s.succeeded, 2);
        assert_eq!(s.failed, 3);
        assert_eq!(s.total(), 5);
        assert!(!s.is_clean());
        // One entry per class, first-seen order.
        assert_eq!(s.first_errors.len(), 2);
        assert_eq!(s.first_errors[0].0, "launch-panic");
        assert_eq!(s.first_errors[1].0, "interface-missing");
        let text = s.to_string();
        assert!(text.contains("2/5"), "{text}");
        assert!(text.contains("eth9"), "{text}");
    }

    #[test]
    fn launch_outcome_summary_matches_pods() {
        let host = host(LockPolicy::Hierarchical);
        let engine = sriov_engine(&host, true);
        let outcome = engine.launch_concurrent(4);
        assert_eq!(outcome.pods.len(), 4);
        assert!(outcome.summary.is_clean());
        assert_eq!(outcome.summary.succeeded, 4);
        for pod in outcome.pods.into_iter().flatten() {
            engine.teardown_pod(&pod).unwrap();
        }
    }

    #[test]
    fn teardown_frees_the_pods_iommu_domain() {
        let host = host(LockPolicy::Hierarchical);
        let engine = sriov_engine(&host, true);
        let pod = engine.run_pod(0).unwrap();
        pod.vm.wait_net_ready().unwrap();
        let vf = pod.vm.vf().unwrap();
        let domain = Arc::downgrade(&host.dma.domain_of(vf).unwrap());
        engine.teardown_pod(&pod).unwrap();
        drop(pod);
        assert!(
            domain.upgrade().is_none(),
            "the torn-down pod's IOMMU domain is still alive"
        );
    }

    #[test]
    fn startup_report_math() {
        let host = host(LockPolicy::Coarse);
        let engine = sriov_engine(&host, false);
        let pod = engine.run_pod(0).unwrap();
        let r = &pod.report;
        let vf = r.vf_related();
        assert_eq!(
            vf,
            r.stage_total(stages::DMA_RAM)
                + r.stage_total(stages::DMA_IMAGE)
                + r.stage_total(stages::VFIO_DEV)
                + r.stage_total(stages::VF_DRIVER)
        );
        assert_eq!(r.others() + vf, r.total);
        engine.teardown_pod(&pod).unwrap();
    }
}
