//! Virtual function state and host netdev identities.

use fastiov_pci::PciDevice;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::fmt;
use std::sync::Arc;

/// Index of a VF on its NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VfId(pub u16);

/// An Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A locally administered address derived from a VF index.
    pub fn for_vf(index: u16) -> Self {
        MacAddr([0x02, 0xfa, 0x57, 0x10, (index >> 8) as u8, index as u8])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Name of a Linux network interface on the host.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetdevName(pub String);

impl fmt::Display for NetdevName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Mutable VF state.
#[derive(Debug, Default, Clone)]
pub struct VfState {
    /// Assigned MAC, if configured.
    pub mac: Option<MacAddr>,
    /// Assigned VLAN, if configured.
    pub vlan: Option<u16>,
    /// Whether the VF's queues are enabled.
    pub queues_enabled: bool,
    /// Whether the link is reported up.
    pub link_up: bool,
    /// The microVM (hypervisor PID) currently owning the VF.
    pub owner_vm: Option<u64>,
}

/// One virtual function.
pub struct Vf {
    id: VfId,
    pci: Arc<PciDevice>,
    state: TrackedMutex<VfState>,
}

impl Vf {
    /// Creates a VF wrapping its PCI function.
    pub fn new(id: VfId, pci: Arc<PciDevice>) -> Arc<Self> {
        Arc::new(Vf {
            id,
            pci,
            state: TrackedMutex::new(LockClass::NicVf, VfState::default()),
        })
    }

    /// VF index.
    pub fn id(&self) -> VfId {
        self.id
    }

    /// The VF's PCI function.
    pub fn pci(&self) -> &Arc<PciDevice> {
        &self.pci
    }

    /// Snapshot of the VF state.
    pub fn state(&self) -> VfState {
        self.state.lock().clone()
    }

    /// Mutates the VF state under its lock.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut VfState) -> R) -> R {
        f(&mut self.state.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastiov_pci::{Bdf, DeviceClass, ResetCapability};

    #[test]
    fn mac_derivation_unique_and_local() {
        let a = MacAddr::for_vf(1);
        let b = MacAddr::for_vf(2);
        assert_ne!(a, b);
        // Locally administered bit set.
        assert_eq!(a.0[0] & 0x02, 0x02);
        assert_eq!(a.to_string(), "02:fa:57:10:00:01");
    }

    #[test]
    fn vf_state_mutation() {
        let pci = PciDevice::new(
            Bdf::new(3, 1, 0),
            DeviceClass::NetworkVf,
            ResetCapability::BusReset,
            None,
        );
        let vf = Vf::new(VfId(0), pci);
        vf.with_state(|s| {
            s.mac = Some(MacAddr::for_vf(0));
            s.link_up = true;
        });
        let s = vf.state();
        assert!(s.link_up);
        assert_eq!(s.mac, Some(MacAddr::for_vf(0)));
        assert!(s.owner_vm.is_none());
    }
}
