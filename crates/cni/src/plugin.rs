//! The CNI plugin implementations.

use crate::nns::{Nns, NnsRegistry};
use crate::{CniError, Result};
use fastiov_microvm::{stages, Host};
use fastiov_nic::{AdminCmd, MacAddr, NetdevName, VfId};
use fastiov_simtime::StageLog;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Cost parameters of the software CNI, separate from [`Host`] hardware
/// parameters (the namespace and rtnl costs every plugin shares are the
/// engine's).
#[derive(Debug, Clone, Copy)]
pub struct CniParams {
    /// rtnl hold while creating an ipvtap device — the dominant `addCNI`
    /// serialization of the software CNI (§6.4).
    pub ipvtap_create_hold: Duration,
    /// Non-serialized part of ipvtap device setup.
    pub ipvtap_setup: Duration,
}

impl CniParams {
    /// Paper-calibrated costs: `addCNI` averages ≈ 3 s at concurrency 200
    /// through rtnl serialization (Fig. 14).
    pub fn paper() -> Self {
        CniParams {
            ipvtap_create_hold: Duration::from_millis(30),
            ipvtap_setup: Duration::from_millis(60),
        }
    }
}

/// The host's free VFs: what the SR-IOV device plugin (`sriovdp`,
/// reference \[22\]) advertises to the kubelet, which pins one to each pod
/// before the CNI plugin configures it (Fig. 4). The SR-IOV plugins and
/// the warm pool share one, so allocations stay globally consistent.
pub struct VfPool {
    free: TrackedMutex<BTreeSet<u16>>,
}

impl VfPool {
    /// Creates a pool over VFs `0..n`, all free.
    pub fn new(n: u16) -> Arc<Self> {
        Arc::new(VfPool {
            free: TrackedMutex::new(LockClass::CniRegistry, (0..n).collect()),
        })
    }

    /// Takes the lowest free VF, as the device plugin's Allocate does.
    pub fn allocate(&self) -> Result<VfId> {
        self.free
            .lock()
            .pop_first()
            .map(VfId)
            .ok_or(CniError::NoFreeVf)
    }

    /// Returns a VF to the pool.
    pub fn release(&self, vf: VfId) {
        self.free.lock().insert(vf.0);
    }

    /// Free VFs remaining.
    pub fn available(&self) -> usize {
        self.free.lock().len()
    }
}

/// What the runtime needs from the CNI.
#[derive(Debug, Clone)]
pub enum CniResult {
    /// A VF will be passed through to the microVM.
    Passthrough {
        /// The allocated VF.
        vf: VfId,
        /// Interface the runtime detects in the NNS.
        netdev: NetdevName,
        /// Address configured on the interface.
        ip: [u8; 4],
    },
    /// A software virtual device (no passthrough).
    Software {
        /// The created device.
        netdev: NetdevName,
        /// Address configured on the device.
        ip: [u8; 4],
    },
}

/// Identity of the pod being networked.
#[derive(Debug, Clone, Copy)]
pub struct PodNetSpec {
    /// Hypervisor PID (the microVM identity).
    pub pid: u64,
    /// Dense container index, used for address derivation.
    pub index: u32,
}

impl PodNetSpec {
    /// Deterministic pod address.
    pub fn ip(&self) -> [u8; 4] {
        [10, 88, (self.index >> 8) as u8, self.index as u8]
    }
}

/// A CNI plugin: the `t_config` step of Fig. 4.
pub trait CniPlugin: Send + Sync {
    /// Plugin name (reporting).
    fn name(&self) -> &'static str;

    /// Sets up networking for a pod inside `nns`.
    fn setup(
        &self,
        host: &Arc<Host>,
        spec: &PodNetSpec,
        nns: &Nns,
        registry: &NnsRegistry,
        log: &mut StageLog,
    ) -> Result<CniResult>;

    /// Releases what `setup` created.
    fn teardown(&self, host: &Arc<Host>, result: &CniResult) -> Result<()>;
}

/// Shared SR-IOV configuration flow: VF parameters via the PF, an
/// interface in the NNS, addresses on it.
fn sriov_common(
    host: &Arc<Host>,
    spec: &PodNetSpec,
    nns: &Nns,
    registry: &NnsRegistry,
    vfs: &VfPool,
) -> Result<CniResult> {
    let vf = vfs.allocate()?;
    let vf_ref = host.pf.vf(vf)?;
    // VF parameter setup through the PF (MAC + VLAN).
    host.pf
        .admin()
        .submit(&vf_ref, AdminCmd::SetMac(MacAddr::for_vf(vf.0)));
    host.pf
        .admin()
        .submit(&vf_ref, AdminCmd::SetVlan(100 + (spec.index % 4000) as u16));
    let netdev = host.pf.create_dummy_netdev(vf)?;
    registry.move_into(nns, netdev.clone());
    let ip = spec.ip();
    registry.configure_ip(nns, ip);
    Ok(CniResult::Passthrough { vf, netdev, ip })
}

/// The fixed SR-IOV CNI (§5): VFs pre-bound to VFIO once; dummy netdevs
/// carry identity and configuration. The paper's *vanilla* baseline.
pub struct SriovCniFixed {
    vfs: Arc<VfPool>,
}

impl SriovCniFixed {
    /// Creates the plugin over the host's VF pool.
    pub fn new(vfs: Arc<VfPool>) -> Self {
        SriovCniFixed { vfs }
    }
}

impl CniPlugin for SriovCniFixed {
    fn name(&self) -> &'static str {
        "sriov-fixed"
    }

    fn setup(
        &self,
        host: &Arc<Host>,
        spec: &PodNetSpec,
        nns: &Nns,
        registry: &NnsRegistry,
        _log: &mut StageLog,
    ) -> Result<CniResult> {
        sriov_common(host, spec, nns, registry, &self.vfs)
    }

    fn teardown(&self, _host: &Arc<Host>, result: &CniResult) -> Result<()> {
        if let CniResult::Passthrough { vf, .. } = result {
            self.vfs.release(*vf);
        }
        Ok(())
    }
}

/// The FastIOV CNI plugin (Fig. 10): the fixed flow, plus it notifies the
/// hypervisor of the skip region and requests the FastIOV kernel-side
/// optimizations. Those policies are carried in the microVM configuration
/// the runtime builds; the network-side flow is identical to
/// [`SriovCniFixed`].
pub struct FastIovCni {
    vfs: Arc<VfPool>,
}

impl FastIovCni {
    /// Creates the plugin over the host's VF pool.
    pub fn new(vfs: Arc<VfPool>) -> Self {
        FastIovCni { vfs }
    }
}

impl CniPlugin for FastIovCni {
    fn name(&self) -> &'static str {
        "fastiov"
    }

    fn setup(
        &self,
        host: &Arc<Host>,
        spec: &PodNetSpec,
        nns: &Nns,
        registry: &NnsRegistry,
        _log: &mut StageLog,
    ) -> Result<CniResult> {
        sriov_common(host, spec, nns, registry, &self.vfs)
    }

    fn teardown(&self, _host: &Arc<Host>, result: &CniResult) -> Result<()> {
        if let CniResult::Passthrough { vf, .. } = result {
            self.vfs.release(*vf);
        }
        Ok(())
    }
}

/// The IPvtap software CNI (§6.4): a kernel virtual device, rtnl-heavy to
/// create, with an emulated data plane.
pub struct IpvtapCni {
    params: CniParams,
}

impl IpvtapCni {
    /// Creates the plugin.
    pub fn new(params: CniParams) -> Self {
        IpvtapCni { params }
    }
}

impl CniPlugin for IpvtapCni {
    fn name(&self) -> &'static str {
        "ipvtap"
    }

    fn setup(
        &self,
        host: &Arc<Host>,
        spec: &PodNetSpec,
        nns: &Nns,
        registry: &NnsRegistry,
        log: &mut StageLog,
    ) -> Result<CniResult> {
        let netdev = log.stage(stages::ADD_CNI, || {
            // Device creation: kernel work plus the rtnl-serialized
            // section.
            host.clock.sleep(self.params.ipvtap_setup);
            registry.rtnl().with(self.params.ipvtap_create_hold, || {
                NetdevName(format!("ipvtap{}", spec.index))
            })
        });
        registry.move_into(nns, netdev.clone());
        let ip = spec.ip();
        registry.configure_ip(nns, ip);
        Ok(CniResult::Software { netdev, ip })
    }

    fn teardown(&self, _host: &Arc<Host>, _result: &CniResult) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nns::RtnlLock;
    use fastiov_microvm::HostParams;
    use fastiov_pci::DriverBinding;
    use fastiov_vfio::LockPolicy;

    /// Namespace creation cost and the rtnl holds of an interface move
    /// and an address configuration.
    const NNS_CREATE: Duration = Duration::from_millis(10);
    const MOVE_HOLD: Duration = Duration::from_millis(3);
    const IP_HOLD: Duration = Duration::from_millis(2);

    fn setup() -> (Arc<Host>, Arc<NnsRegistry>, Arc<VfPool>) {
        let host = Host::new(HostParams::for_tests(), LockPolicy::Hierarchical).unwrap();
        let rtnl = RtnlLock::new(host.clock.clone());
        let registry = NnsRegistry::new(host.clock.clone(), rtnl, NNS_CREATE, MOVE_HOLD, IP_HOLD);
        let vfs = VfPool::new(host.params.total_vfs.min(host.pf.vf_count() as u16));
        (host, registry, vfs)
    }

    #[test]
    fn vf_pool_round_trip() {
        let vfs = VfPool::new(2);
        assert_eq!(vfs.available(), 2);
        let a = vfs.allocate().unwrap();
        let b = vfs.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(vfs.available(), 0);
        assert!(matches!(vfs.allocate(), Err(CniError::NoFreeVf)));
        vfs.release(a);
        assert_eq!(vfs.available(), 1);
        assert_eq!(vfs.allocate().unwrap(), a);
    }

    #[test]
    fn vf_pool_hands_out_the_lowest_free_vf() {
        let vfs = VfPool::new(4);
        let a = vfs.allocate().unwrap();
        let b = vfs.allocate().unwrap();
        let c = vfs.allocate().unwrap();
        assert_eq!((a, b, c), (VfId(0), VfId(1), VfId(2)));
        vfs.release(a);
        vfs.release(b);
        // The lowest free VF, not the last one released.
        assert_eq!(vfs.allocate().unwrap(), a);
        assert_eq!(vfs.allocate().unwrap(), b);
        assert_eq!(vfs.allocate().unwrap(), VfId(3));
    }

    #[test]
    fn fixed_plugin_uses_dummy_netdev() {
        let (host, registry, vfs) = setup();
        let plugin = SriovCniFixed::new(Arc::clone(&vfs));
        let spec = PodNetSpec { pid: 1, index: 0 };
        let nns = registry.create(1);
        let mut log = StageLog::begin(&host.tracer);
        let r = plugin
            .setup(&host, &spec, &nns, &registry, &mut log)
            .unwrap();
        match &r {
            CniResult::Passthrough { vf, netdev, ip } => {
                assert!(netdev.0.starts_with("dummy-vf"));
                assert!(nns.has_interface(netdev));
                assert_eq!(nns.ip(), Some(*ip));
                // The plugin binds no driver (pre-binding to VFIO is the
                // host's boot-time job).
                assert_eq!(host.pf.vf(*vf).unwrap().pci().driver(), DriverBinding::None);
                // MAC was configured through the PF.
                assert!(host.pf.vf(*vf).unwrap().state().mac.is_some());
            }
            other => panic!("unexpected result {other:?}"),
        }
        plugin.teardown(&host, &r).unwrap();
        assert_eq!(vfs.available(), 16);
    }

    #[test]
    fn ipvtap_plugin_creates_software_device_and_logs_addcni() {
        let (host, registry, _) = setup();
        let plugin = IpvtapCni::new(CniParams::paper());
        let spec = PodNetSpec { pid: 3, index: 7 };
        let nns = registry.create(3);
        let mut log = StageLog::begin(&host.tracer);
        let r = plugin
            .setup(&host, &spec, &nns, &registry, &mut log)
            .unwrap();
        match &r {
            CniResult::Software { netdev, .. } => {
                assert_eq!(netdev.0, "ipvtap7");
                assert!(nns.has_interface(netdev));
            }
            other => panic!("unexpected result {other:?}"),
        }
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.records()[0].name, stages::ADD_CNI);
    }

    #[test]
    fn pod_ips_are_unique_per_index() {
        let a = PodNetSpec { pid: 1, index: 1 }.ip();
        let b = PodNetSpec { pid: 1, index: 257 }.ip();
        assert_ne!(a, b);
    }
}
