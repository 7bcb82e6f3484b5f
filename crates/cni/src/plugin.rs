//! The two CNI flows: SR-IOV passthrough and the IPvtap software device.

use crate::nns::{Nns, NnsRegistry};
use crate::{CniError, Result};
use fastiov_microvm::{stages, Host};
use fastiov_nic::{AdminCmd, MacAddr, NetdevName, VfId};
use fastiov_simtime::StageLog;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// rtnl hold while creating an ipvtap device: the serialized part of the
/// software CNI's `addCNI` (§6.4). Fitted together with [`IPVTAP_SETUP`]
/// so that `addCNI` averages ≈ 3 s at concurrency 200 (Fig. 14).
const IPVTAP_CREATE_HOLD: Duration = Duration::from_millis(30);

/// Kernel work of ipvtap device setup outside rtnl; see
/// [`IPVTAP_CREATE_HOLD`].
const IPVTAP_SETUP: Duration = Duration::from_millis(60);

/// The host's free VFs: what the SR-IOV device plugin (`sriovdp`,
/// reference \[22\]) advertises to the kubelet, which pins one to each pod
/// before the CNI plugin configures it (Fig. 4). SR-IOV and vDPA pods
/// and the warm pool share one, so allocations stay globally consistent.
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

impl CniResult {
    /// The passed-through VF, if any.
    pub fn vf(&self) -> Option<VfId> {
        match self {
            CniResult::Passthrough { vf, .. } => Some(*vf),
            CniResult::Software { .. } => None,
        }
    }

    /// The interface the runtime looks for in the pod's namespace.
    pub fn netdev(&self) -> &NetdevName {
        match self {
            CniResult::Passthrough { netdev, .. } | CniResult::Software { netdev, .. } => netdev,
        }
    }
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

/// The SR-IOV CNI flow (§5) that the vanilla and every FastIOV baseline
/// share, for the VF the device plugin took from the [`VfPool`]: set its
/// MAC and VLAN through the PF, and move a dummy netdev carrying its
/// identity into `nns` with the pod's address. VFs stay bound to VFIO
/// from boot, so the flow binds no driver. FastIOV's policy (skip region,
/// decoupled zeroing, asynchronous VF init) travels in the microVM
/// configuration, not here (Fig. 10). Teardown returns the VF to the
/// pool.
pub fn sriov_setup(
    host: &Host,
    spec: &PodNetSpec,
    nns: &Nns,
    registry: &NnsRegistry,
    vf: VfId,
) -> Result<CniResult> {
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

/// The IPvtap software CNI flow (§6.4): a kernel virtual device whose
/// creation contends on rtnl, recorded as the `addCNI` stage, with an
/// emulated data plane. The device goes with the namespace, so there is
/// no teardown.
pub fn ipvtap_setup(
    host: &Host,
    spec: &PodNetSpec,
    nns: &Nns,
    registry: &NnsRegistry,
    log: &mut StageLog,
) -> CniResult {
    let netdev = log.stage(stages::ADD_CNI, || {
        // Device creation: kernel work plus the rtnl-serialized section.
        host.clock.sleep(IPVTAP_SETUP);
        registry.rtnl().with(IPVTAP_CREATE_HOLD, || {
            NetdevName(format!("ipvtap{}", spec.index))
        })
    });
    registry.move_into(nns, netdev.clone());
    let ip = spec.ip();
    registry.configure_ip(nns, ip);
    CniResult::Software { netdev, ip }
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
    fn sriov_flow_uses_dummy_netdev() {
        let (host, registry, vfs) = setup();
        let spec = PodNetSpec { pid: 1, index: 0 };
        let nns = registry.create(1);
        let r = sriov_setup(&host, &spec, &nns, &registry, vfs.allocate().unwrap()).unwrap();
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
        vfs.release(r.vf().unwrap());
        assert_eq!(vfs.available(), 16);
    }

    #[test]
    fn ipvtap_flow_creates_software_device_and_logs_addcni() {
        let (host, registry, _) = setup();
        let spec = PodNetSpec { pid: 3, index: 7 };
        let nns = registry.create(3);
        let mut log = StageLog::begin(&host.tracer);
        let r = ipvtap_setup(&host, &spec, &nns, &registry, &mut log);
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
