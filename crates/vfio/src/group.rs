//! VFIO/IOMMU groups.
//!
//! VFIO exposes devices through *groups* — the IOMMU's isolation
//! granularity. Userspace opens the group, attaches it to a container
//! (the DMA address space), and only then can it obtain device
//! descriptors. On the modelled NIC every function sits in its own group
//! (the E810 exposes ACS, so functions are isolation-independent), but
//! the attach discipline is still enforced: a group belongs to at most
//! one container at a time, and devices cannot be opened from unattached
//! groups.

use crate::{Result, VfioError};
use fastiov_faults::{sites, FaultPlane};
use fastiov_pci::Bdf;
use fastiov_simtime::{LockClass, TrackedMutex};
use std::sync::Arc;

/// One IOMMU group (single-function, ACS topology).
pub struct VfioGroup {
    id: u32,
    bdf: Bdf,
    /// Owner container, identified by the hypervisor PID behind it.
    attached: TrackedMutex<Option<u64>>,
    /// Fault plane consulted on the attach ioctl.
    faults: Arc<FaultPlane>,
}

impl VfioGroup {
    /// Creates the group for `bdf`, consulting `faults` on the attach
    /// path.
    pub fn new(id: u32, bdf: Bdf, faults: Arc<FaultPlane>) -> Arc<Self> {
        Arc::new(VfioGroup {
            id,
            bdf,
            attached: TrackedMutex::new(LockClass::VfioGroup, None),
            faults,
        })
    }

    /// Group number (`/dev/vfio/<id>`).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The member device.
    pub fn bdf(&self) -> Bdf {
        self.bdf
    }

    /// Attaches the group to the container owned by `pid`
    /// (`VFIO_GROUP_SET_CONTAINER`). Idempotent for the same owner;
    /// refused while another owner holds it.
    pub fn attach(&self, pid: u64) -> Result<()> {
        self.faults.check(sites::VFIO_GROUP_ATTACH, pid)?;
        let mut owner = self.attached.lock();
        match *owner {
            None => {
                *owner = Some(pid);
                Ok(())
            }
            Some(current) if current == pid => Ok(()),
            Some(current) => Err(VfioError::GroupBusy {
                bdf: self.bdf,
                owner: current,
            }),
        }
    }

    /// Detaches the group (`VFIO_GROUP_UNSET_CONTAINER`).
    pub fn detach(&self, pid: u64) -> Result<()> {
        let mut owner = self.attached.lock();
        match *owner {
            Some(current) if current == pid => {
                *owner = None;
                Ok(())
            }
            Some(current) => Err(VfioError::GroupBusy {
                bdf: self.bdf,
                owner: current,
            }),
            None => Err(VfioError::GroupNotAttached(self.bdf)),
        }
    }

    /// The current owner, if any.
    pub fn owner(&self) -> Option<u64> {
        *self.attached.lock()
    }

    /// True if attached to any container.
    pub fn is_attached(&self) -> bool {
        self.attached.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> Arc<VfioGroup> {
        VfioGroup::new(7, Bdf::new(3, 1, 0), FaultPlane::disabled())
    }

    #[test]
    fn attach_detach_cycle() {
        let g = group();
        assert!(!g.is_attached());
        g.attach(100).unwrap();
        assert_eq!(g.owner(), Some(100));
        // Idempotent for the same owner: one detach releases it.
        g.attach(100).unwrap();
        g.detach(100).unwrap();
        assert!(!g.is_attached());
    }

    #[test]
    fn second_owner_refused() {
        let g = group();
        g.attach(100).unwrap();
        assert!(matches!(
            g.attach(200),
            Err(VfioError::GroupBusy { owner: 100, .. })
        ));
        // Wrong-owner detach refused too.
        assert!(g.detach(200).is_err());
        g.detach(100).unwrap();
        g.attach(200).unwrap();
    }

    #[test]
    fn detach_unattached_is_error() {
        let g = group();
        assert!(matches!(g.detach(1), Err(VfioError::GroupNotAttached(_))));
    }
}
