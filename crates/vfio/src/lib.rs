//! VFIO driver model: device sets, lock designs, and the DMA mapping
//! pipeline.
//!
//! This crate reimplements the two VFIO behaviours the paper measures:
//!
//! 1. **Devset management** (§3.2.2): VFIO devices that only support
//!    bus-level reset share a *device set* per PCI bus. Opening any device
//!    scans the bus and updates open counts. The vanilla driver guards all
//!    of this with **one coarse mutex**, serializing concurrent opens —
//!    the single largest startup bottleneck (48.1 % of average startup at
//!    concurrency 200). FastIOV's fix (§4.2.1) is the hierarchical
//!    [`locking::ParentChildLock`]: a devset-wide rwlock plus a per-device
//!    mutex, making inter-device operations parallel while parent-state
//!    operations (reset) stay exclusive. Both designs are implemented and
//!    selectable per experiment via [`locking::LockPolicy`].
//! 2. **DMA memory mapping** (§3.2.3, Fig. 6): the
//!    retrieve → zero → pin → map pipeline in
//!    [`container::VfioContainer::dma_map`], with the zeroing step
//!    switchable between eager (vanilla) and deferred (FastIOV's
//!    decoupled zeroing, which hands the unzeroed frames to a registrar —
//!    `fastiovd` in the full stack).

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod container;
pub mod devset;
pub mod group;
pub mod locking;

pub use container::{DmaMapping, DmaZeroMode, VfioContainer};
pub use devset::{DevSet, DevsetManager, VfioDevice, VfioDeviceFd, VfioStats};
pub use group::VfioGroup;
pub use locking::{ChildGuard, ChildLock, LockPolicy, ParentChildLock, ParentGuard, ParentWitness};

use fastiov_faults::FaultError;
use fastiov_hostmem::MemError;
use fastiov_iommu::IommuError;
use fastiov_pci::{Bdf, PciError};
use std::fmt;

/// Errors from the VFIO model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfioError {
    /// Device is not bound to the VFIO driver.
    NotVfioBound(Bdf),
    /// Device was not registered with the devset manager.
    Unregistered(Bdf),
    /// A bus-level reset was requested while other devices in the devset
    /// are open.
    DevsetBusy {
        /// Device whose reset was requested.
        bdf: Bdf,
        /// Total open count of other devices in the devset.
        others_open: u32,
    },
    /// Close called on a device with zero open count.
    NotOpen(Bdf),
    /// Device opened through a group that is not attached to a container.
    GroupNotAttached(Bdf),
    /// Group attach refused: another container owns it.
    GroupBusy {
        /// The group's member device.
        bdf: Bdf,
        /// PID of the owning container's hypervisor.
        owner: u64,
    },
    /// Underlying memory error.
    Mem(MemError),
    /// Underlying IOMMU error.
    Iommu(IommuError),
    /// Underlying PCI error.
    Pci(PciError),
    /// Fault injected by the fault plane.
    Injected(FaultError),
}

impl VfioError {
    /// The injected fault behind this error, if any.
    pub fn injected(&self) -> Option<&FaultError> {
        match self {
            VfioError::Injected(f) => Some(f),
            _ => None,
        }
    }
}

impl fmt::Display for VfioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfioError::NotVfioBound(bdf) => write!(f, "device {bdf} not bound to vfio"),
            VfioError::Unregistered(bdf) => write!(f, "device {bdf} not registered"),
            VfioError::DevsetBusy { bdf, others_open } => write!(
                f,
                "cannot bus-reset {bdf}: {others_open} other open(s) in devset"
            ),
            VfioError::NotOpen(bdf) => write!(f, "device {bdf} is not open"),
            VfioError::GroupNotAttached(bdf) => {
                write!(f, "group of {bdf} not attached to a container")
            }
            VfioError::GroupBusy { bdf, owner } => {
                write!(f, "group of {bdf} already attached by pid {owner}")
            }
            VfioError::Mem(e) => write!(f, "memory: {e}"),
            VfioError::Iommu(e) => write!(f, "iommu: {e}"),
            VfioError::Pci(e) => write!(f, "pci: {e}"),
            VfioError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VfioError {}

impl From<MemError> for VfioError {
    fn from(e: MemError) -> Self {
        VfioError::Mem(e)
    }
}

impl From<IommuError> for VfioError {
    fn from(e: IommuError) -> Self {
        VfioError::Iommu(e)
    }
}

impl From<PciError> for VfioError {
    fn from(e: PciError) -> Self {
        VfioError::Pci(e)
    }
}

impl From<FaultError> for VfioError {
    fn from(e: FaultError) -> Self {
        VfioError::Injected(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, VfioError>;
